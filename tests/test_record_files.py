"""Every record file refuses a key it does not know.

README's File formats section promises that an unknown key is a parse
error in every `key = value` record file.  Each loader here reads a file
its own writer produced, first as written and then with one extra key.
"""
import pytest

from linecalib.config import PipelineConfig, load_config
from linecalib.errors import ParseError
from linecalib.fileio import format_extrinsic, format_fields, load_extrinsic, load_intrinsics
from linecalib.synth import canonical_spec, format_scene_spec, load_scene_spec

SPEC = canonical_spec(0)
RECORDS = {
    "config": (load_config, format_fields(PipelineConfig())),
    "intrinsics": (load_intrinsics, format_fields(SPEC.intrinsics)),
    "extrinsic": (load_extrinsic, format_extrinsic(SPEC.extrinsic)),
    "scene_spec": (load_scene_spec, format_scene_spec(SPEC)),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_loader_refuses_an_unknown_key(tmp_path, name):
    load, text = RECORDS[name]
    path = tmp_path / f"{name}.txt"
    path.write_text(text, encoding="utf-8")
    load(path)
    path.write_text(text + 'rr = "9 9 9"\n', encoding="utf-8")
    with pytest.raises(ParseError, match=r": unknown keys \['rr'\]$"):
        load(path)
