"""On-disk formats: `key = value` records, point clouds, PGM/PPM.

Record files (config, scene spec, intrinsics, extrinsic) are UTF-8
`key = value` lines; `#` starts a comment.  This module is the only
code that reads or writes a file, each through one function that turns
an OSError into a ParseError.  Point clouds are the usual velodyne
layout (contiguous little-endian float32 x, y, z, intensity records) or
text, one `x y z intensity` line per point; a file of ASCII bytes
without a NUL is text, every other file is records.
"""
from __future__ import annotations

import dataclasses
import math
from pathlib import Path

import numpy as np

from .errors import ParseError
from .geometry import Extrinsic, Intrinsics


def parse_kv_text(text: str, path="<string>") -> dict:
    """Parse `key = value` lines, ignoring comments and blank lines; one
    pair of double quotes around a value is dropped."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if key in out:
            raise ParseError(f"{path}:{lineno}: duplicate key {key!r}")
        value = value.strip()
        if len(value) >= 2 and value[0] == value[-1] == '"':
            value = value[1:-1]
        out[key] = value
    return out


def _read_bytes(path) -> bytes:
    """The file's contents; a file that cannot be read is a ParseError."""
    try:
        return Path(path).read_bytes()
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e.strerror or e}") from e


def _write_bytes(path, data: bytes) -> None:
    """Write the file; a file that cannot be written is a ParseError."""
    try:
        Path(path).write_bytes(data)
    except OSError as e:
        raise ParseError(f"cannot write {path}: {e.strerror or e}") from e


def check_writable(path) -> None:
    """ParseError if path is a directory or its parent is not one, so a
    command can refuse an output path before it does any work.  Reads
    metadata only; a path that passes can still fail to be written."""
    p = Path(path)
    if p.is_dir():
        raise ParseError(f"cannot write {path}: is a directory")
    if not p.parent.is_dir():
        raise ParseError(f"cannot write {path}: {p.parent} is not a directory")


def save_text(path, text: str) -> None:
    _write_bytes(path, text.encode("utf-8"))


def load_kv_file(path) -> dict:
    try:
        # utf-8-sig drops a leading byte-order mark
        text = _read_bytes(path).decode("utf-8-sig")
    except UnicodeDecodeError as e:
        raise ParseError(f"{path}: not UTF-8 text ({e})") from e
    return parse_kv_text(text, path=str(path))


# A field's value is a scalar or a space-separated tuple of items.  An item
# is a scalar (a bool is written 0 or 1) or a `:`-separated record: a tuple
# of scalars or a dataclass such as synth.Box.  Each value is read as the
# type of its field's default; a required field, as its `float` or `int`
# annotation, or as a tuple of floats for an `np.ndarray` one.


def _record(v) -> tuple:
    return dataclasses.astuple(v) if dataclasses.is_dataclass(v) else v


def _parse_item(default, tok: str):
    if isinstance(default, bool):
        if tok not in ("0", "1"):
            raise ValueError(f"expected 0 or 1, got {tok!r}")
        return tok == "1"
    if isinstance(default, int):
        return int(tok)
    if isinstance(default, float):
        value = float(tok)
        if not math.isfinite(value):
            raise ValueError("not finite")
        return value
    fields, parts = _record(default), tok.split(":")
    if len(parts) != len(fields):
        raise ValueError(f"expected {len(fields)} ':'-separated values, got {tok!r}")
    values = tuple(_parse_item(f, p) for f, p in zip(fields, parts))
    return type(default)(*values) if dataclasses.is_dataclass(default) else values


def _format_item(default, v) -> str:
    if isinstance(default, bool):
        return "1" if v else "0"
    if isinstance(default, int):
        return "%d" % v
    if isinstance(default, float):
        return "%.17g" % v
    return ":".join(
        _format_item(f, x) for f, x in zip(_record(default), _record(v), strict=True)
    )


def _field_defaults(cls) -> dict:
    """Name -> default of the fields of dataclass `cls` stored as plain
    values (scalars, tuples and arrays), a zero of its type for a required
    scalar or array; fields holding an object are left out."""
    out = {}
    for f in dataclasses.fields(cls):
        default = f.default
        if default is dataclasses.MISSING:  # annotations are strings (postponed evaluation)
            default = {"float": 0.0, "int": 0, "np.ndarray": (0.0,)}.get(f.type)
        if isinstance(default, (int, float, tuple)):
            out[f.name] = default
    return out


def parse_fields(cls, kv: dict, path) -> dict:
    """Constructor keywords for the fields of dataclass `cls` named in `kv`."""
    defaults = _field_defaults(cls)
    unknown = set(kv) - set(defaults)
    if unknown:
        raise ParseError(f"{path}: unknown keys {sorted(unknown)}")
    out = {}
    for key, raw in kv.items():
        default = defaults[key]
        try:
            if isinstance(default, tuple):
                out[key] = tuple(_parse_item(default[0], tok) for tok in raw.split())
            else:
                out[key] = _parse_item(default, raw)
        except ValueError as e:
            raise ParseError(f"{path}: bad value for {key}: {raw!r} ({e})") from e
    return out


def format_fields(obj) -> str:
    """`key = value` lines for the plain-value fields of a dataclass, in
    field order; `parse_fields` reads them back."""
    lines = []
    for key, default in _field_defaults(type(obj)).items():
        v = getattr(obj, key)
        if isinstance(default, tuple):
            text = " ".join(_format_item(default[0], x) for x in v)
        else:
            text = _format_item(default, v)
        lines.append(f"{key} = {text}\n")
    return "".join(lines)


def build_record(cls, kv: dict, path, **objects):
    """Dataclass `cls` from `kv` (see parse_fields) and its object fields;
    a required field left out, or a ValueError from `cls`, is a ParseError."""
    kwargs = {**parse_fields(cls, kv, path), **objects}
    missing = [f.name for f in dataclasses.fields(cls) if f.name not in kwargs
               and f.default is f.default_factory is dataclasses.MISSING]
    if missing:
        raise ParseError(f"{path}: missing keys {missing}")
    try:
        return cls(**kwargs)
    except ValueError as e:
        raise ParseError(f"{path}: {e}") from e


def load_intrinsics(path) -> Intrinsics:
    # distortion keys are deliberately unknown: rectified pinhole only
    return build_record(Intrinsics, load_kv_file(path), path)


def load_extrinsic(path) -> Extrinsic:
    return build_record(Extrinsic, load_kv_file(path), path)


def format_extrinsic(e: Extrinsic) -> str:
    """Serialize an extrinsic; includes the derived 3x4 matrix as comments."""
    R = e.matrix()
    lines = [
        'r = "%.17g %.17g %.17g"' % tuple(e.r),
        't = "%.17g %.17g %.17g"' % tuple(e.t),
        "#",
        "# derived [R | t], row-major:",
    ]
    for i in range(3):
        lines.append(
            "#   % .9f % .9f % .9f % .9f" % (R[i, 0], R[i, 1], R[i, 2], e.t[i])
        )
    return "\n".join(lines) + "\n"


def save_extrinsic(path, e: Extrinsic) -> None:
    save_text(path, format_extrinsic(e))


def _text_cloud(text: str, path) -> np.ndarray:
    """The rows of a text cloud: every non-blank line is four numbers."""
    rows = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        parts = raw.split()
        if not parts:
            continue
        try:
            row = [float(p) for p in parts]
        except ValueError:
            row = []
        if len(row) != 4:
            raise ParseError(f"{path}: line {lineno}: expected 4 numbers x y z intensity")
        rows.append(row)
    if not rows:
        raise ParseError(f"{path}: cloud file holds no points")
    return np.array(rows, dtype=np.float64)


def load_cloud(path) -> np.ndarray:
    """Load an (N, 4) float array of x, y, z, intensity.

    A file of ASCII bytes without a NUL is text; every other file is
    float32 records.  A sweep's records hold a byte above 127 wherever a
    coordinate is negative (the ground lies below the sensor), so a sweep
    never reads as text.
    """
    data = _read_bytes(path)
    if data.isascii() and b"\0" not in data:
        pts = _text_cloud(data.decode("ascii"), path)
    elif len(data) % 16 != 0:
        raise ParseError(f"{path}: binary cloud size {len(data)} is not a multiple of 16 bytes")
    else:
        pts = np.frombuffer(data, dtype="<f4").reshape(-1, 4).astype(np.float64)
    if not np.isfinite(pts).all():
        raise ParseError(f"{path}: cloud contains non-finite values")
    return pts


def save_cloud(path, pts: np.ndarray) -> None:
    pts = np.asarray(pts, dtype=np.float64).reshape(-1, 4)
    _write_bytes(path, pts.astype("<f4").tobytes())


def _read_pnm(path) -> np.ndarray:
    """A binary PGM (P5) or PPM (P6) with maxval 255 as an (h, w, 1 or 3)
    uint8 array."""
    data = _read_bytes(path)
    if data[:2] not in (b"P5", b"P6"):
        raise ParseError(f"{path}: not a binary PGM/PPM (magic {data[:2]!r})")
    channels = 1 if data[:2] == b"P5" else 3
    pos = 2
    fields = []
    while len(fields) < 3:
        if pos >= len(data):
            raise ParseError(f"{path}: truncated header at byte {pos}")
        ch = data[pos : pos + 1]
        if ch == b"#":
            while pos < len(data) and data[pos : pos + 1] != b"\n":
                pos += 1
        elif ch.isspace():
            pos += 1
        elif ch.isdigit():
            start = pos
            while pos < len(data) and data[pos : pos + 1].isdigit():
                pos += 1
            fields.append(int(data[start:pos]))
        else:
            raise ParseError(f"{path}: bad header byte {ch!r} at offset {pos}")
    if not data[pos : pos + 1].isspace():
        raise ParseError(f"{path}: need one whitespace byte after maxval at offset {pos}")
    pos += 1
    w, h, maxval = fields
    if maxval != 255:
        raise ParseError(f"{path}: only maxval 255 supported, got {maxval}")
    need = w * h * channels
    if len(data) - pos < need:
        raise ParseError(f"{path}: expected {need} pixel bytes at offset {pos}")
    return np.frombuffer(data[pos : pos + need], dtype=np.uint8).reshape(h, w, channels)


def load_pgm(path):
    """Load a binary (P5) 8-bit PGM as a (h, w) uint8 array."""
    img = _read_pnm(path)
    if img.shape[2] != 1:
        raise ParseError(f"{path}: expected P5, got P6")
    return img[:, :, 0]


def load_image(path):
    """Load P5 or P6; returns (h, w, 3) uint8 (grayscale replicated)."""
    img = _read_pnm(path)
    return np.repeat(img, 3, axis=2) if img.shape[2] == 1 else img.copy()


def save_pnm(path, img: np.ndarray) -> None:
    """Write a (h, w) array as a P5 PGM, an (h, w, 3) one as a P6 PPM."""
    img = np.asarray(img, dtype=np.uint8)
    h, w = img.shape[:2]
    magic = "P5" if img.ndim == 2 else "P6"
    header = f"{magic}\n{w} {h}\n255\n".encode("ascii")
    _write_bytes(path, header + img.tobytes())
