"""numpy is the package's one runtime dependency: every import in
src/linecalib is relative, numpy's or the standard library's, so an
installed third-party package cannot slip in unnoticed."""
import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "linecalib"
ALLOWED = set(sys.stdlib_module_names) | {"numpy"}


def _imports(path):
    """(line, top-level module) of each absolute import in path."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        yield from ((node.lineno, name.split(".")[0]) for name in names)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_imports_are_relative_numpy_or_stdlib(path):
    foreign = [(line, name) for line, name in _imports(path) if name not in ALLOWED]
    assert foreign == []


def test_the_check_sees_every_module_and_refuses_scipy(tmp_path):
    assert len(sorted(SRC.glob("*.py"))) >= 10 and "scipy" not in ALLOWED
    bad = tmp_path / "bad.py"
    bad.write_text("import os\nfrom . import cost\nfrom scipy.spatial import cKDTree\n")
    assert list(_imports(bad)) == [(1, "os"), (3, "scipy")]
