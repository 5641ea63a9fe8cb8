"""Every record file is read by the one record codec.

README's File formats section promises that an unknown key is a parse
error in every `key = value` record file, and that any value may be
double-quoted.  Each loader here reads a file its own writer produced.
"""
import re

import pytest

from linecalib import fileio
from linecalib.config import PipelineConfig, load_config
from linecalib.errors import ParseError
from linecalib.fileio import (
    format_extrinsic,
    format_fields,
    load_extrinsic,
    load_intrinsics,
    parse_kv_text,
)
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


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_loader_reads_every_key_through_parse_fields(tmp_path, monkeypatch, name):
    """No loader keeps a second reader: each key of the file reaches
    fileio.parse_fields."""
    load, text = RECORDS[name]
    seen = []
    parse_fields = fileio.parse_fields

    def counting(cls, kv, path):
        seen.extend(kv)
        return parse_fields(cls, kv, path)

    monkeypatch.setattr(fileio, "parse_fields", counting)
    path = tmp_path / f"{name}.txt"
    path.write_text(text, encoding="utf-8")
    load(path)
    assert sorted(seen) == sorted(parse_kv_text(text))


@pytest.mark.parametrize("name", ["config", "intrinsics"])
def test_quoted_value_reads_as_the_bare_one(tmp_path, name):
    load, text = RECORDS[name]
    bare, quoted = tmp_path / "bare.txt", tmp_path / "quoted.txt"
    bare.write_text(text, encoding="utf-8")
    quoted.write_text(re.sub(r"= (.*)$", r'= "\1"', text, flags=re.M), encoding="utf-8")
    assert '"' in quoted.read_text(encoding="utf-8")
    assert load(quoted) == load(bare)


def test_extrinsic_vector_of_two_components_names_its_key(tmp_path):
    path = tmp_path / "extrinsic.txt"
    path.write_text('r = "0 0"\nt = "0 0 0"\n', encoding="utf-8")
    with pytest.raises(ParseError, match=r": r: expected 3 components, got 2$"):
        load_extrinsic(path)
