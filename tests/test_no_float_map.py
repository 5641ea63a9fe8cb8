"""No pipeline path builds a float height map.

A HeightMap holds its heights as codes into a table of levels, and every
kernel reads them through the codes (cost._lookup and
HeightMap.cell_ceilings).  Its `values` property builds the full float64
map, for tests and diagnostics only; a `values` read in any module of the
package other than image_features, where the property lives, would build
it on a pipeline path.  The rule reads the source, so a dict's .values()
counts too: iterate such a dict by .items() instead.
"""
import ast
import shutil
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "linecalib"
OWNER = "image_features.py"


def _values_reads(path):
    """Line of each `values` attribute read in the file, as x.values or
    getattr(x, "values")."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "values":
            lines.append(node.lineno)
        elif (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "getattr"
              and len(node.args) >= 2 and getattr(node.args[1], "value", None) == "values"):
            lines.append(node.lineno)
    return sorted(lines)


def _violations(package):
    """(file, line) of each values read outside image_features.py."""
    files = sorted(package.rglob("*.py"))
    assert any(path.name == OWNER for path in files) and len(files) > 10
    return [(path.name, line) for path in files if path.name != OWNER
            for line in _values_reads(path)]


def test_no_module_but_image_features_reads_values():
    assert _violations(PACKAGE) == []


def test_a_planted_values_read_fails_the_rule(tmp_path):
    copy = tmp_path / "linecalib"
    shutil.copytree(PACKAGE, copy, ignore=shutil.ignore_patterns("__pycache__"))
    cost = copy / "cost.py"
    n = len(cost.read_text(encoding="utf-8").splitlines())
    with cost.open("a", encoding="utf-8") as f:
        f.write("g = hmap.values.ravel()\nv = getattr(hmap, 'values')\nvalues = 1\n")
    assert _violations(copy) == [("cost.py", n + 1), ("cost.py", n + 2)]
