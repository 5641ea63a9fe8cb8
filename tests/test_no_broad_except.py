"""No handler in the package or its tests catches every exception.

A bare `except:`, `except Exception` or `except BaseException` (alone or
in a tuple) would hide a programming bug behind a handled error; every
handler names the typed errors it expects instead.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BROAD = {"Exception", "BaseException"}


def _broad_handlers(path):
    """(line, text) of each handler in the file that catches everything."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
        if node.type is None or any(isinstance(c, ast.Name) and c.id in BROAD for c in caught):
            yield node.lineno, ast.unparse(node.type) if node.type else "bare except"


def test_no_handler_catches_every_exception():
    files = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
    assert len(files) > 10
    found = [
        f"{path.relative_to(ROOT)}:{line}: {text}"
        for path in files
        for line, text in _broad_handlers(path)
    ]
    assert not found, found


def test_the_rule_sees_each_broad_form(tmp_path):
    src = tmp_path / "m.py"
    src.write_text(
        "try:\n    pass\nexcept:\n    pass\n"
        "try:\n    pass\nexcept Exception:\n    pass\n"
        "try:\n    pass\nexcept (ValueError, BaseException):\n    pass\n"
        "try:\n    pass\nexcept (KeyError, ValueError):\n    pass\n",
        encoding="utf-8",
    )
    assert [line for line, _ in _broad_handlers(src)] == [3, 7, 11]
