"""Only linecalib.fileio writes a file.

Every write goes through `fileio._write_bytes`, which turns an `OSError`
into a ParseError, so an output path that cannot be written exits 1 with
`error (parse)` whichever command names it.  A `.write_text`, a
`.write_bytes` or a write-mode `open(` anywhere else in the package
would bypass that rule.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WRITER = "fileio.py"
WRITE_METHODS = {"write_text", "write_bytes"}


def _is_write_mode(node) -> bool:
    return (isinstance(node, ast.Constant) and isinstance(node.value, str)
            and set(node.value) <= set("rwxabt+") and bool(set(node.value) & set("wxa+")))


def _writes(path):
    """(line, text) of each call in the file that writes a file directly."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        fn = node.func
        name = fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", None)
        # open(path, mode) and Path.open(mode): the mode is one of the first two
        modes = node.args[:2] + [k.value for k in node.keywords if k.arg == "mode"]
        if name in WRITE_METHODS or (name == "open" and any(map(_is_write_mode, modes))):
            yield node.lineno, ast.unparse(node)


def test_only_fileio_writes_files():
    files = sorted((ROOT / "src").rglob("*.py"))
    assert any(path.name == WRITER for path in files) and len(files) > 10
    found = [
        f"{path.relative_to(ROOT)}:{line}: {text}"
        for path in files
        if path.name != WRITER
        for line, text in _writes(path)
    ]
    assert not found, found


def test_the_rule_sees_each_write_form(tmp_path):
    src = tmp_path / "m.py"
    src.write_text(
        "p.write_text('x')\n"
        "p.write_bytes(b'x')\n"
        "open(p, 'w')\n"
        "p.open(mode='ab')\n"
        "open(p)\n"
        "open(p, 'rb')\n"
        "sys.stdout.write('x')\n"
        "p.read_text()\n",
        encoding="utf-8",
    )
    assert [line for line, _ in _writes(src)] == [1, 2, 3, 4]
