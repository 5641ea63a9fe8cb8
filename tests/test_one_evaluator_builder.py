"""Only pipeline.build_evaluator builds a CostEvaluator.

The evaluator takes its terms as (points, height map) pairs and names no
semantic class; build_evaluator is the one place in the package that
pairs the lane points with the lane map and the pole points with the
pole map, lane first.  A `CostEvaluator(` call anywhere else would be a
second place that decides which points meet which map.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BUILDER = ("pipeline.py", "build_evaluator")


def _constructions(path):
    """(line, enclosing function) of each CostEvaluator( call in the file;
    the function is None at module or class level."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))

    def walk(node, function):
        if isinstance(node, ast.Call):
            fn = node.func
            name = fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", None)
            if name == "CostEvaluator":
                yield node.lineno, function
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        for child in ast.iter_child_nodes(node):
            yield from walk(child, function)

    yield from walk(tree, None)


def test_only_build_evaluator_builds_an_evaluator():
    files = sorted((ROOT / "src").rglob("*.py"))
    assert any(path.name == BUILDER[0] for path in files) and len(files) > 10
    found = [
        (path.name, function, line)
        for path in files
        for line, function in _constructions(path)
    ]
    assert [(name, function) for name, function, _ in found] == [BUILDER], found


def test_the_rule_sees_each_construction_form(tmp_path):
    src = tmp_path / "m.py"
    src.write_text(
        "ev = CostEvaluator(terms, k)\n"
        "def build_evaluator(cf, heights, k):\n"
        "    return cost.CostEvaluator(terms, k)\n"
        "class A:\n"
        "    def f(self):\n"
        "        return [CostEvaluator(t, k) for t in ts]\n"
        "def g():\n"
        "    return CostEvaluator\n"
        "x = CostEvaluator.__call__(ev, e)\n",
        encoding="utf-8",
    )
    assert list(_constructions(src)) == [(1, None), (3, "build_evaluator"), (6, "f")]
