"""Round trips and error handling for every on-disk format."""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linecalib.errors import ParseError
from linecalib.fileio import (
    build_record,
    check_writable,
    format_extrinsic,
    format_fields,
    load_cloud,
    load_extrinsic,
    load_image,
    load_intrinsics,
    load_pgm,
    parse_fields,
    parse_kv_text,
    save_cloud,
    save_extrinsic,
    save_pnm,
    save_text,
)
from linecalib.geometry import Extrinsic, Intrinsics

MANY = settings(max_examples=1000, deadline=None)


# ---------------------------------------------------------------------------
# key = value text


def test_parse_kv_basics():
    kv = parse_kv_text("a = 1\n# comment\n\nb = two words  # trailing\n")
    assert kv == {"a": "1", "b": "two words"}


def test_parse_kv_errors():
    with pytest.raises(ParseError):
        parse_kv_text("just some words\n")
    with pytest.raises(ParseError):
        parse_kv_text("a = 1\na = 2\n")


@MANY
@given(
    st.dictionaries(
        st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,10}", fullmatch=True),
        st.from_regex(r"[!-~][ -~]{0,20}", fullmatch=True).map(str.strip).filter(
            lambda v: v and "#" not in v and "=" not in v
        ),
        max_size=6,
    )
)
def test_parse_kv_round_trip(kv):
    # one pair of double quotes around a value is dropped: a quoted value
    # reads back as written, a bare one unless it is itself quoted
    quoted = "".join(f'{k} = "{v}"\n' for k, v in kv.items())
    assert parse_kv_text(quoted) == kv
    text = "".join(f"{k} = {v}\n" for k, v in kv.items())
    assert parse_kv_text(text) == {
        k: v[1:-1] if len(v) >= 2 and v[0] == v[-1] == '"' else v for k, v in kv.items()
    }


@dataclasses.dataclass(frozen=True)
class _Point:
    x: float
    y: float


@dataclasses.dataclass(frozen=True)
class _Record:
    scale: float = 1.5
    count: int = 3
    offsets: tuple = (0.25, -1.0)
    flags: tuple = (True, False)
    pairs: tuple = ((1.0, 2.0),)
    points: tuple = (_Point(0.5, 0.5),)
    frame: _Point = _Point(0.0, 0.0)   # holds an object: not a record field


def test_fields_round_trip_every_value_type():
    rec = _Record(
        scale=0.1, count=-7, offsets=(1e-300, 3.0, -0.0), flags=(False, True, True),
        pairs=((0.1, 0.2), (-3.0, 4.5)), points=(), frame=_Point(1.0, 2.0),
    )
    text = format_fields(rec)
    assert text == (
        "scale = 0.10000000000000001\ncount = -7\noffsets = 1e-300 3 -0\n"
        "flags = 0 1 1\npairs = 0.10000000000000001:0.20000000000000001 -3:4.5\npoints = \n"
    )
    kw = parse_fields(_Record, parse_kv_text(text), "rec")
    assert _Record(**kw, frame=rec.frame) == rec
    assert isinstance(kw["count"], int) and kw["flags"] == (False, True, True)


@pytest.mark.parametrize("line", [
    "frame = 1:2",          # an object field is no record field
    "scale = fast",
    "count = 2.5",
    "flags = 1 true",
    "pairs = 1:2:3",
    "points = 1",
])
def test_parse_fields_rejects(line):
    with pytest.raises(ParseError):
        parse_fields(_Record, parse_kv_text(line), "rec")


# ---------------------------------------------------------------------------
# intrinsics / extrinsic


def test_intrinsics_round_trip(tmp_path):
    p = tmp_path / "intr.txt"
    p.write_text(
        "fx = 430.0\nfy = 430.0\ncx = 609.6\ncy = 172.9\n"
        "width = 1242\nheight = 375\n",
        encoding="utf-8",
    )
    k = load_intrinsics(p)
    assert (k.fx, k.fy, k.cx, k.cy, k.width, k.height) == (
        430.0, 430.0, 609.6, 172.9, 1242, 375,
    )
    p.write_text(format_fields(k), encoding="utf-8")
    assert load_intrinsics(p) == k


def test_intrinsics_rejects_unknown_and_missing(tmp_path):
    p = tmp_path / "intr.txt"
    p.write_text("fx = 1\nfy = 1\ncx = 1\ncy = 1\nwidth = 2\nheight = 2\nk1 = 0.1\n")
    with pytest.raises(ParseError):
        load_intrinsics(p)
    p.write_text("fx = 430\n")
    with pytest.raises(ParseError):
        load_intrinsics(p)
    with pytest.raises(ParseError):
        load_intrinsics(tmp_path / "nope.txt")


# The intrinsics reader and writer as they were before the record codec
# served the intrinsics file: the codec must keep their bytes and values.
_INTRINSIC_KEYS = ("fx", "fy", "cx", "cy", "width", "height")


def _parse_intrinsics_oracle(kv: dict, path) -> Intrinsics:
    extra = set(kv) - set(_INTRINSIC_KEYS)
    if extra:
        raise ParseError(f"{path}: unsupported intrinsics keys {sorted(extra)}")
    missing = set(_INTRINSIC_KEYS) - set(kv)
    if missing:
        raise ParseError(f"{path}: missing intrinsics keys {sorted(missing)}")
    try:
        return Intrinsics(
            fx=float(kv["fx"]),
            fy=float(kv["fy"]),
            cx=float(kv["cx"]),
            cy=float(kv["cy"]),
            width=int(kv["width"]),
            height=int(kv["height"]),
        )
    except ValueError as e:
        raise ParseError(f"{path}: {e}") from e


def _format_intrinsics_oracle(k: Intrinsics) -> str:
    return "fx = %.17g\nfy = %.17g\ncx = %.17g\ncy = %.17g\nwidth = %d\nheight = %d\n" % (
        k.fx, k.fy, k.cx, k.cy, k.width, k.height
    )


def _parse_either(parse, kv):
    """The parsed intrinsics, or ParseError (the class, not its message)."""
    try:
        return parse(kv, "k.txt")
    except ParseError:
        return ParseError


@st.composite
def _intrinsics(draw):
    width, height = draw(st.integers(1, 10000)), draw(st.integers(1, 10000))
    focal = st.floats(1e-3, 1e5, allow_subnormal=False)
    return Intrinsics(
        fx=draw(focal), fy=draw(focal),
        cx=draw(st.floats(0, width, exclude_min=True, exclude_max=True)),
        cy=draw(st.floats(0, height, exclude_min=True, exclude_max=True)),
        width=width, height=height,
    )


@MANY
@given(_intrinsics())
def test_intrinsics_codec_matches_the_oracle(k):
    text = format_fields(k)
    assert text == _format_intrinsics_oracle(k)
    kv = parse_kv_text(text)
    assert build_record(Intrinsics, kv, "k.txt") == _parse_intrinsics_oracle(kv, "k.txt") == k


@MANY
@given(
    _intrinsics(),
    st.sets(st.sampled_from(_INTRINSIC_KEYS)),
    st.dictionaries(st.sampled_from(_INTRINSIC_KEYS),
                    st.sampled_from(["0", "-1", "2.5", "1e400", "nan", "inf", "x", ""])),
    st.sampled_from([None, "k1", "p2", "skew"]),
)
def test_intrinsics_codec_fails_where_the_oracle_fails(k, drop, bad, extra):
    """Missing, unknown and malformed keys: a ParseError in both."""
    kv = parse_kv_text(format_fields(k))
    kv.update(bad)
    for key in drop:
        kv.pop(key)
    if extra:
        kv[extra] = "0.1"
    assert (_parse_either(lambda kv, path: build_record(Intrinsics, kv, path), kv)
            == _parse_either(_parse_intrinsics_oracle, kv))


@MANY
@given(
    st.tuples(st.floats(-3, 3), st.floats(-3, 3), st.floats(-3, 3)).map(np.array),
    st.tuples(st.floats(-5, 5), st.floats(-5, 5), st.floats(-5, 5)).map(np.array),
)
def test_extrinsic_text_round_trip_exact(r, t):
    e = Extrinsic(r, t)
    text = format_extrinsic(e)
    back = build_record(Extrinsic, parse_kv_text(text), "extr")
    # %.17g is lossless for doubles
    assert np.array_equal(back.r, e.r)
    assert np.array_equal(back.t, e.t)


def test_extrinsic_file_round_trip(tmp_path):
    e = Extrinsic(np.array([0.01, -0.02, 0.03]), np.array([0.06, -0.3, -0.15]))
    p = tmp_path / "extr.txt"
    save_extrinsic(p, e)
    back = load_extrinsic(p)
    assert np.array_equal(back.r, e.r) and np.array_equal(back.t, e.t)


def test_extrinsic_non_finite_is_a_parse_error(tmp_path):
    p = tmp_path / "extr.txt"
    for r, t in (("nan 0 0", "0 0 0"), ("0 0 0", "0 inf 0")):
        p.write_text(f'r = "{r}"\nt = "{t}"\n')
        with pytest.raises(ParseError):
            load_extrinsic(p)


def test_extrinsic_missing_key(tmp_path):
    p = tmp_path / "extr.txt"
    p.write_text('r = "0 0 0"\n')
    with pytest.raises(ParseError):
        load_extrinsic(p)
    p.write_text('r = "0 0"\nt = "0 0 0"\n')
    with pytest.raises(ParseError):
        load_extrinsic(p)


# ---------------------------------------------------------------------------
# point clouds


def test_cloud_binary_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(100, 4))
    p = tmp_path / "cloud.bin"
    save_cloud(p, pts)
    back = load_cloud(p)
    assert back.shape == (100, 4)
    assert np.abs(back - pts).max() < 1e-4  # float32 storage


def test_binary_cloud_loads_as_the_float32_records_read(tmp_path):
    """Records come back as the float32 array read, text as float64, and
    PointCloud.from_array gives the bits of the float64 copy load_cloud
    used to return, in xyz and in intensity."""
    from linecalib.cloud_features import PointCloud

    rng = np.random.default_rng(3)
    pts = rng.normal(size=(500, 4)) * np.array([40.0, 20.0, 2.0, 0.3])
    pts[::7] *= 1e-6
    p = tmp_path / "cloud.bin"
    save_cloud(p, pts)
    records = load_cloud(p)
    assert records.dtype == np.float32 and records.shape == (500, 4)
    assert records.tobytes() == p.read_bytes()
    cloud = PointCloud.from_array(records)
    as_float64 = records.astype(np.float64)
    for got, want in ((cloud.xyz, as_float64[:, :3]), (cloud.intensity, as_float64[:, 3])):
        assert got.dtype == np.float64
        assert got.tobytes() == np.ascontiguousarray(want).tobytes()
    text = tmp_path / "cloud.txt"
    np.savetxt(text, as_float64, fmt="%.17g")
    assert load_cloud(text).dtype == np.float64
    assert PointCloud.from_array(load_cloud(text)).xyz.tobytes() == cloud.xyz.tobytes()


def test_cloud_ascii(tmp_path):
    p = tmp_path / "cloud.txt"
    for text in ("1 2 3 0.5\n4 5 6 0.25\n", "1 2 3 0.5\n\n4 5 6 0.25\n"):
        p.write_text(text)
        back = load_cloud(p)
        assert np.array_equal(back, [[1, 2, 3, 0.5], [4, 5, 6, 0.25]])


def test_cloud_errors(tmp_path):
    p = tmp_path / "cloud.bin"
    p.write_bytes(b"\x00" * 17)
    with pytest.raises(ParseError):
        load_cloud(p)
    p.write_bytes(np.array([np.inf, 0, 0, 0], dtype="<f4").tobytes())
    with pytest.raises(ParseError):
        load_cloud(p)
    # the ASCII path runs the same finite check as the binary one
    p.write_text("1 2 3 0.5\n4 nan 6 0.25\n")
    with pytest.raises(ParseError):
        load_cloud(p)
    with pytest.raises(ParseError):
        load_cloud(tmp_path / "nope.bin")
    # blank text holds no row: 16 spaces once loaded as one float32 record,
    # 32 newlines as two
    for blank in (b"", b" " * 16, b"\n" * 32, b" \t\r\n\x0b\x0c" * 8):
        p.write_bytes(blank)
        with pytest.raises(ParseError, match="holds no points"):
            load_cloud(p)


def test_malformed_ascii_cloud_is_not_read_as_binary(tmp_path):
    """59 x y z i rows with one 3-column row, padded to a multiple of 16
    bytes: such a file used to load as 84 float32 records below 2e-4."""
    rows = [f"{0.5 * i:.2f} {1.0 - 0.1 * i:.2f} -1.70 0.30" for i in range(59)]
    rows.insert(20, "4.00 5.00 -1.70")
    text = "\n".join(rows) + "\n"
    text += " " * (-len(text) % 16)
    assert len(text) % 16 == 0
    p = tmp_path / "cloud.txt"
    p.write_text(text, encoding="ascii")
    with pytest.raises(ParseError, match="line 21"):
        load_cloud(p)
    # NUL bytes make a file binary records, whatever its first line
    p.write_bytes(b"1 2 3\n" + b"\x00" * 9)
    with pytest.raises(ParseError, match="multiple of 16"):
        load_cloud(p)


@pytest.mark.parametrize("first", ["x y z intensity", "# x y z intensity", "1.0 2.0 3.0"])
def test_text_cloud_first_line_is_a_row_too(tmp_path, first):
    """ASCII bytes without a NUL are text, so a header, a comment or a
    three-number first line is a parse error; padded to a multiple of 16
    bytes, each such file used to load as float32 records."""
    text = first + "\n" + "1.0 2.0 3.0 0.5\n" * 3
    text += " " * (-len(text) % 16)
    p = tmp_path / "cloud.txt"
    p.write_text(text, encoding="ascii")
    with pytest.raises(ParseError, match="line 1: expected 4 numbers"):
        load_cloud(p)


# ---------------------------------------------------------------------------
# PGM / PPM


def test_pgm_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    img = rng.integers(0, 256, size=(37, 53), dtype=np.uint8)
    p = tmp_path / "img.pgm"
    save_pnm(p, img)
    assert np.array_equal(load_pgm(p), img)
    rgb = load_image(p)
    assert rgb.shape == (37, 53, 3)
    assert np.array_equal(rgb[:, :, 0], img)


def test_ppm_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    img = rng.integers(0, 256, size=(16, 24, 3), dtype=np.uint8)
    p = tmp_path / "img.ppm"
    save_pnm(p, img)
    assert np.array_equal(load_image(p), img)


def test_pgm_header_with_comment(tmp_path):
    p = tmp_path / "img.pgm"
    p.write_bytes(b"P5\n# a comment\n2 2\n255\n\x00\x01\x02\x03")
    img = load_pgm(p)
    assert np.array_equal(img, [[0, 1], [2, 3]])


def test_pnm_errors(tmp_path):
    p = tmp_path / "bad"
    p.write_bytes(b"P4\n1 1\n255\n\x00")
    with pytest.raises(ParseError):
        load_pgm(p)
    p.write_bytes(b"P5\n2 2\n255\n\x00")  # truncated pixels
    with pytest.raises(ParseError):
        load_pgm(p)
    p.write_bytes(b"P5\n2 2\n65535\n" + b"\x00" * 8)
    with pytest.raises(ParseError):
        load_pgm(p)
    p.write_bytes(b"P6\n2 2\n255\n" + b"\x00" * 4)  # not enough rgb bytes
    with pytest.raises(ParseError):
        load_image(p)
    p.write_bytes(b"P5\n1242 ")
    with pytest.raises(ParseError, match="truncated header"):
        load_pgm(p)
    p.write_bytes(b"P5\n12 x3\n255\n")
    with pytest.raises(ParseError, match="bad header byte"):
        load_pgm(p)
    p.write_bytes(b"P6\n2 2\n255\n" + b"\x00" * 12)
    with pytest.raises(ParseError, match="expected P5, got P6"):
        load_pgm(p)


@pytest.mark.parametrize("after_maxval", [b"X", b"#c\n"])
def test_pnm_needs_whitespace_after_maxval(tmp_path, after_maxval):
    """The raster starts after exactly one whitespace byte: no other byte
    after maxval, nor a comment, may be skipped or read as pixels."""
    p = tmp_path / "bad.pgm"
    p.write_bytes(b"P5\n2 2\n255" + after_maxval + b"\x00\xff\x01\x02")
    with pytest.raises(ParseError, match="whitespace byte after maxval at offset 10$"):
        load_pgm(p)


@pytest.mark.parametrize("save, value", [
    (save_extrinsic, Extrinsic.identity()),
    (save_cloud, np.zeros((1, 4))),
    (save_pnm, np.zeros((2, 2), dtype=np.uint8)),
    (save_text, "x\n"),
    (lambda path, _: check_writable(path), None),
])
def test_unwritable_path_is_a_parse_error(tmp_path, save, value):
    """Every saver writes through one writer, and check_writable reads
    the same rule ahead: a path that cannot be written, a directory or a
    path under a file, is a ParseError."""
    (tmp_path / "f").write_text("", encoding="utf-8")
    for path in (tmp_path, tmp_path / "f" / "x"):
        with pytest.raises(ParseError, match="cannot write"):
            save(path, value)


def test_check_writable_passes_a_new_or_existing_file_and_writes_nothing(tmp_path):
    (tmp_path / "old.txt").write_text("keep", encoding="utf-8")
    check_writable(tmp_path / "new.txt")
    check_writable(tmp_path / "old.txt")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["old.txt"]
    assert (tmp_path / "old.txt").read_text(encoding="utf-8") == "keep"
