"""Every leaf error class in linecalib.errors is raised somewhere in src/.

A typed error that nothing raises documents a failure the program cannot
report; a handler that catches it guards nothing.  A leaf is a CalibError
subclass that no other class in the module subclasses.
"""
import ast
import inspect
from pathlib import Path

from linecalib import errors

ROOT = Path(__file__).resolve().parents[1]


def _raised_names(path):
    """The names raised in the file: `raise X`, `raise X(...)` and
    `raise mod.X(...)`, each with or without `from`."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        if isinstance(exc, ast.Name):
            yield exc.id
        elif isinstance(exc, ast.Attribute):
            yield exc.attr


def _leaf_errors(module):
    classes = [c for _, c in inspect.getmembers(module, inspect.isclass)
               if issubclass(c, errors.CalibError) and c.__module__ == module.__name__]
    return sorted(c.__name__ for c in classes
                  if not any(o is not c and issubclass(o, c) for o in classes))


def _dead(leaves, files):
    raised = {name for path in files for name in _raised_names(path)}
    return [name for name in leaves if name not in raised]


def test_every_leaf_error_has_a_raise_site():
    files = sorted((ROOT / "src").rglob("*.py"))
    leaves = _leaf_errors(errors)
    assert len(files) > 10 and "NoSolution" in leaves and "CalibError" not in leaves
    assert not _dead(leaves, files)


def test_the_rule_sees_a_dead_class(tmp_path):
    src = tmp_path / "m.py"
    src.write_text(
        "raise Live('x')\n"
        "try:\n    pass\nexcept Caught:\n    raise errors.Chained from None\n"
        "Caught('built but not raised')\n",
        encoding="utf-8",
    )
    assert _dead(["Caught", "Chained", "Live"], [src]) == ["Caught"]
