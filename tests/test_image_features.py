"""Distance fields, height maps, and Hough extraction, against brute force."""
import math
import signal
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linecalib.config import PipelineConfig
from linecalib.cost import _lookup
from linecalib.errors import DimensionMismatch, EmptyTarget, InsufficientLines, ParseError
from linecalib.evaluation import calibration_error
from linecalib.fileio import save_pnm
from linecalib.geometry import Intrinsics, Line2D
from linecalib.image_features import (
    FeatureSetImage,
    HeightMap,
    ScoredLine2D,
    SemanticMask,
    _fit_line2d,
    hough_lines,
    idt_height_map,
    l1_distance_field,
    load_mask,
    select_principal_lines,
)
from linecalib.pipeline import coarse_calibrate, extract_features
from linecalib.synth import canonical_spec, generate

MANY = settings(max_examples=1000, deadline=None)
IDT = PipelineConfig(gamma0=0.98, gamma1=0.90)


def hough_cfg(min_support):
    """The config of a Hough run with this support threshold and the 10
    degree lane margin these tests were written for."""
    return PipelineConfig(hough_min_support=min_support, hough_lane_theta_margin_deg=10.0)


def random_mask(rng, h, w, p=0.15):
    bits = rng.random((h, w)) < p
    if not bits.any():
        bits[rng.integers(0, h), rng.integers(0, w)] = True
    if bits.all():
        bits[rng.integers(0, h), rng.integers(0, w)] = False
    return SemanticMask("lane", bits)


def brute_l1(target: np.ndarray) -> np.ndarray:
    h, w = target.shape
    ys, xs = np.nonzero(target)
    out = np.empty((h, w), dtype=np.int64)
    for y in range(h):
        for x in range(w):
            out[y, x] = np.min(np.abs(ys - y) + np.abs(xs - x))
    return out


def brute_l1_with_border(bits: np.ndarray) -> np.ndarray:
    """Distance to the nearest unset pixel, with a virtual unset ring."""
    padded = np.pad(bits, 1, constant_values=False)
    return brute_l1(~padded)[1:-1, 1:-1]


def framed_unset_field(bits: np.ndarray) -> np.ndarray:
    """The distance field to unset pixels of the mask framed by a ring of
    unset pixels, cropped back to the mask: what idt_height_map uses."""
    return l1_distance_field(~np.pad(bits, 1))[1:-1, 1:-1]


# ---------------------------------------------------------------------------
# distance fields


def test_l1_brute_force_equivalence_100_masks():
    rng = np.random.default_rng(7)
    for _ in range(100):
        mask = random_mask(rng, 32, 32)
        assert np.array_equal(
            l1_distance_field(mask.bits), brute_l1(mask.bits)
        )
        assert np.array_equal(
            l1_distance_field(~mask.bits), brute_l1(~mask.bits)
        )
        assert np.array_equal(framed_unset_field(mask.bits), brute_l1_with_border(mask.bits))


def test_l1_single_pixel_examples():
    bits = np.zeros((8, 8), dtype=bool)
    bits[0, 0] = True
    d = l1_distance_field(bits)
    assert d[4, 3] == 7
    assert d[0, 0] == 0


def test_l1_without_a_target_reads_h_plus_w():
    """The kernel is total: with no target no pixel is reached, and every
    pixel keeps the sentinel h + w, above any distance in the frame.  The
    emptiness of a mask is idt_height_map's to refuse."""
    for shape in ((1, 1), (2, 2), (2, 5), (4, 4), (5, 7), (2, 40), (40, 2), (375, 1242)):
        d = l1_distance_field(np.zeros(shape, dtype=bool))
        assert d.shape == shape and (d == sum(shape)).all()


def test_l1_empty_target_raises():
    """An empty target raises where a field of it is needed, not in the
    kernel: the kernel reads h + w everywhere, and idt_height_map, whose
    field is of the mask's boundary, refuses the mask with EmptyTarget."""
    bits = np.zeros((4, 4), dtype=bool)
    assert (l1_distance_field(bits) == 8).all()
    with pytest.raises(EmptyTarget, match="^lane mask has no set pixel$"):
        idt_height_map(SemanticMask("lane", bits), IDT)


def test_l1_kernel_raises_for_any_field_without_a_target(monkeypatch):
    """A field without a target is refused before the kernel runs: for an
    empty mask of any shape and class, idt_height_map raises EmptyTarget and
    never calls l1_distance_field.  A field with one target stays exact."""
    targets = np.zeros((5, 7), dtype=bool)
    targets[4, 0] = True
    assert np.array_equal(l1_distance_field(targets), brute_l1(targets))

    def kernel(bits):
        raise AssertionError("the L1 kernel ran on an empty mask")

    monkeypatch.setattr("linecalib.image_features.l1_distance_field", kernel)
    for shape in ((5, 7), (2, 2), (2, 40), (40, 2)):
        for cls in ("lane", "pole"):
            with pytest.raises(EmptyTarget, match=f"^{cls} mask has no set pixel$"):
                idt_height_map(SemanticMask(cls, np.zeros(shape, dtype=bool)), IDT)


def _assert_fields_match_brute_force(bits):
    if bits.any():
        assert np.array_equal(l1_distance_field(bits), brute_l1(bits))
    if not bits.all():
        assert np.array_equal(l1_distance_field(~bits), brute_l1(~bits))
    assert np.array_equal(framed_unset_field(bits), brute_l1_with_border(bits))


def test_l1_thin_and_tiny_masks():
    """1xN, Nx1 and 1x1 masks: a loop over one row or one column only."""
    rng = np.random.default_rng(5)
    for shape in ((1, 1), (1, 2), (2, 1), (1, 17), (17, 1), (1, 60), (60, 1)):
        for _ in range(5):
            bits = rng.random(shape) < 0.3
            bits.flat[rng.integers(0, bits.size)] = True
            _assert_fields_match_brute_force(bits)
            _assert_fields_match_brute_force(~bits)


def test_l1_rows_and_columns_without_a_target():
    """Targets confined to one row, one column or one pixel: most rows
    and columns hold none and get their distances across the other axis."""
    for h, w in ((9, 14), (14, 9)):
        for pick in ((slice(4, 5), slice(None)), (slice(None), slice(3, 4)),
                     (slice(2, 3), slice(7, 8)), (slice(0, 1), slice(0, 1)),
                     (slice(h - 1, h), slice(w - 1, w))):
            bits = np.zeros((h, w), dtype=bool)
            bits[pick] = True
            _assert_fields_match_brute_force(bits)
            _assert_fields_match_brute_force(~bits)


def test_l1_all_set_but_one():
    for h, w in ((1, 7), (7, 1), (6, 11)):
        for y, x in ((0, 0), (h // 2, w // 2), (h - 1, w - 1)):
            bits = np.ones((h, w), dtype=bool)
            bits[y, x] = False
            _assert_fields_match_brute_force(bits)
            _assert_fields_match_brute_force(~bits)


def test_l1_long_mask_keeps_its_sentinel_out_of_the_result():
    """A 3x5000 field with its targets at one end: distances reach 4998,
    so the sentinel of unreached pixels must lie above all of them."""
    bits = np.zeros((3, 5000), dtype=bool)
    bits[0, 0] = bits[2, 3] = True
    mask = SemanticMask("lane", bits)
    near = brute_l1(bits)
    assert near.max() == 4998
    assert np.array_equal(l1_distance_field(mask.bits), near)
    values = idt_height_map(mask, IDT).values
    assert np.array_equal(values[~bits], np.power(0.90, near[~bits].astype(float)))
    assert np.all(values[bits] == 0.98)  # each set pixel touches an unset one


@MANY
@given(st.integers(0, 2**32 - 1))
def test_l1_lipschitz_over_4_neighbors(seed):
    rng = np.random.default_rng(seed)
    mask = random_mask(rng, 16, 16, p=float(rng.uniform(0.02, 0.6)))
    d = l1_distance_field(mask.bits)
    assert np.abs(np.diff(d, axis=0)).max() <= 1
    assert np.abs(np.diff(d, axis=1)).max() <= 1


# ---------------------------------------------------------------------------
# inverse distance height map


def brute_idt(bits: np.ndarray, g0: float, g1: float) -> np.ndarray:
    # direct evaluation of the max-form: max over target pixels of gamma^L1,
    # computed as gamma^(min distance) with identical float exponentiation
    d_in = brute_l1_with_border(bits)
    d_out = brute_l1(bits)
    return np.where(
        bits,
        np.power(g0, d_in.astype(float)),
        np.power(g1, d_out.astype(float)),
    )


def test_idt_brute_force_bitwise_equality_100_masks():
    rng = np.random.default_rng(11)
    for _ in range(100):
        mask = random_mask(rng, 32, 32)
        ours = idt_height_map(mask, IDT).values
        ref = brute_idt(mask.bits, 0.98, 0.90)
        assert np.array_equal(ours, ref)  # bitwise, not approximate


def _sweep_rows(init: np.ndarray) -> np.ndarray:
    """1D unit-cost relaxation along axis 0, forward then backward."""
    d = init.copy()
    for y in range(1, d.shape[0]):
        np.minimum(d[y], d[y - 1] + 1, out=d[y])
    for y in range(d.shape[0] - 2, -1, -1):
        np.minimum(d[y], d[y + 1] + 1, out=d[y])
    return d


def _two_sweep_field(target: np.ndarray) -> np.ndarray:
    """The L1 field before the shared kernel: one int64 field per call,
    rows then columns."""
    d = _sweep_rows(np.where(target, 0, np.iinfo(np.int64).max // 4).astype(np.int64))
    return _sweep_rows(d.T).T


def _idt_two_fields(bits: np.ndarray, cfg: PipelineConfig) -> np.ndarray:
    """idt_height_map before the shared kernel: two relaxations and two
    full-frame np.power calls.  Kept as the bit-for-bit oracle."""
    d_to_set = _two_sweep_field(bits)
    d_to_unset = _two_sweep_field(~np.pad(bits, 1))[1:-1, 1:-1]
    return np.where(
        bits,
        np.power(cfg.gamma0, d_to_unset.astype(float)),
        np.power(cfg.gamma1, d_to_set.astype(float)),
    )


def test_idt_trivial_exponents():
    bits = np.zeros((9, 9), dtype=bool)
    bits[3:6, 3:6] = True
    hm = idt_height_map(SemanticMask("lane", bits), IDT)
    assert hm.values[3, 3] == 0.98  # inside, adjacent to the boundary
    assert hm.values[4, 4] == 0.98**2
    assert hm.values[4, 0] == 0.90**3  # outside at L1 distance 3


@MANY
@given(st.integers(0, 2**32 - 1), st.floats(0.5, 0.99), st.floats(0.5, 0.99))
def test_idt_monotone_in_distance(seed, g0, g1):
    rng = np.random.default_rng(seed)
    mask = random_mask(rng, 16, 16, p=float(rng.uniform(0.05, 0.5)))
    hm = idt_height_map(mask, PipelineConfig(gamma0=g0, gamma1=g1))
    d_out = l1_distance_field(mask.bits)
    d_in = framed_unset_field(mask.bits)
    v = hm.values
    assert ((v > 0) & (v <= 1)).all()
    # value depends only on the respective L1 distance, decreasing in it
    outside = ~mask.bits
    for d in np.unique(d_out[outside]):
        vals = v[outside & (d_out == d)]
        assert np.all(vals == vals[0])
    ds = d_out[outside].astype(float)
    assert np.all((v[outside] < v[outside].max() + 1e-12) == True)  # noqa: E712
    order = np.argsort(ds)
    assert np.all(np.diff(v[outside].ravel()[order]) <= 1e-15)
    inside = mask.bits
    ds_in = d_in[inside].astype(float)
    order = np.argsort(ds_in)
    assert np.all(np.diff(v[inside].ravel()[order]) <= 1e-15)


def test_idt_rejects_bad_gamma_and_empty():
    # the gamma range is the config's to enforce
    with pytest.raises(ValueError):
        PipelineConfig(gamma0=1.5, gamma1=0.9)
    # the one emptiness check of the pipeline names the mask's class
    for cls, shape in (("lane", (4, 4)), ("pole", (5, 7))):
        with pytest.raises(EmptyTarget, match=f"^{cls} mask has no set pixel$"):
            idt_height_map(SemanticMask(cls, np.zeros(shape, dtype=bool)), IDT)


def _assert_idt_matches_oracles(bits, cfg):
    """The height map of bits is the two-field oracle's and brute force's,
    bit for bit, and its field the brute-force distance to the set pixels."""
    mask = SemanticMask("lane", bits)
    got = idt_height_map(mask, cfg).values
    assert got.tobytes() == _idt_two_fields(bits, cfg).tobytes()
    assert got.tobytes() == brute_idt(bits, cfg.gamma0, cfg.gamma1).tobytes()
    if not bits.all():
        assert np.array_equal(l1_distance_field(mask.bits), brute_l1(bits))


GAMMAS = (IDT, PipelineConfig(gamma0=0.5, gamma1=0.75), PipelineConfig(gamma0=0.999, gamma1=0.6))


@settings(max_examples=200, deadline=None)
@given(h=st.integers(2, 40), w=st.integers(2, 40), p=st.floats(0.0, 1.0),
       frame=st.booleans(), seed=st.integers(0, 2**32 - 1),
       g0=st.floats(0.5, 0.99), g1=st.floats(0.5, 0.99))
def test_idt_boundary_field_matches_the_oracles(h, w, p, frame, seed, g0, g1):
    """Random masks of any density and shape, half of them with a set
    frame edge, under random gammas: the boundary field's height map is
    the two-field oracle's and brute force's."""
    rng = np.random.default_rng(seed)
    bits = rng.random((h, w)) < p
    if frame:
        bits[:, 0] = bits[-1] = True
    bits[rng.integers(0, h), rng.integers(0, w)] = True
    _assert_idt_matches_oracles(bits, PipelineConfig(gamma0=g0, gamma1=g1))


def _fixed_idt_masks():
    """Masks that touch the border, all-set masks, single pixels and 1 px
    strokes, taller and wider than square, with sides under, at and over
    a multiple of the relaxation's block count."""
    for h, w in ((2, 2), (3, 15), (15, 17), (16, 16), (17, 33), (32, 48), (47, 5), (5, 47)):
        yield np.ones((h, w), dtype=bool)
        for y, x in ((0, 0), (h - 1, w - 1), (h // 2, w // 2), (0, w // 2)):
            bits = np.zeros((h, w), dtype=bool)
            bits[y, x] = True
            yield bits
        border = np.zeros((h, w), dtype=bool)
        border[0] = border[:, -1] = True
        yield border
        for stroke in ((h // 2, slice(None)), (slice(None), w // 2)):
            bits = np.zeros((h, w), dtype=bool)
            bits[stroke] = True
            yield bits
        diagonal = np.zeros((h, w), dtype=bool)
        k = np.arange(min(h, w))
        diagonal[k, k] = True
        yield diagonal
        yield ~diagonal


@pytest.mark.parametrize("cfg", GAMMAS, ids=("default", "0.5-0.75", "0.999-0.6"))
def test_idt_boundary_field_fixed_cases(cfg):
    for bits in _fixed_idt_masks():
        _assert_idt_matches_oracles(bits, cfg)


def test_l1_block_seams_at_every_target_position():
    """n x n and n x 2n frames, n = 1 to 70, with one target per column
    and a column's target at each of its rows, so every seam between the
    relaxation's blocks has a target on it and on either side of it, in
    both sweeps: the field is |row - target row|."""
    for n in range(1, 71):
        rows = np.arange(n)
        for mirrored in (False, True):
            targets = np.eye(n, dtype=bool)
            if mirrored:
                targets = np.concatenate([targets, targets[::-1]], axis=1)
            want = np.abs(rows[:, None] - np.nonzero(targets.T)[1][None, :])
            assert np.array_equal(l1_distance_field(targets), want)
            assert np.array_equal(l1_distance_field(targets.T.copy()), want.T)


@pytest.mark.parametrize("shape, dtype", [
    ((2, 61), np.int8), ((2, 62), np.int8), ((31, 33), np.int8), ((2, 63), np.int16),
    ((32, 33), np.int16), ((2, 16380), np.int16), ((2, 16381), np.int16),
    ((2, 16382), np.int16), ((2, 16383), np.int32), ((2, 16384), np.int32)])
def test_field_width_on_each_side_of_each_switch(shape, dtype):
    """The field is int8 up to h + w = 64, int16 up to 16,384 and int32
    past that; on each side of each switch, masks with one set pixel at a
    far corner (so distances reach h + w - 2 and the sentinel is carried
    across every block) and with a set frame edge give the two-field
    oracle's height map and the brute-force distances."""
    corner = np.zeros(shape, dtype=bool)
    corner[0, 0] = True
    edge = np.zeros(shape, dtype=bool)
    edge[:, -1] = True
    edge[0, shape[1] // 3] = True
    for bits in (corner, edge):
        field = l1_distance_field(bits)
        assert field.dtype == dtype
        assert np.array_equal(field, brute_l1(bits))
    for bits in (corner, edge, ~edge):
        got = idt_height_map(SemanticMask("lane", bits), IDT).values
        assert got.tobytes() == _idt_two_fields(bits, IDT).tobytes()


def test_idt_values_are_c_contiguous_for_the_cost_lookups(canonical_frame):
    """The height map is C-contiguous, so the ravel() of cost._lookup's
    flat gathers is a view, not a 3.7 MB copy on every cost lookup of a
    375x1242 frame."""
    lane = canonical_frame[2]
    for bits in (lane.bits, lane.bits.T, np.eye(5, 9, dtype=bool)):
        mask = SemanticMask("lane", bits)
        hm = idt_height_map(mask, IDT)
        assert hm.values.flags.c_contiguous
        assert np.shares_memory(hm.values.ravel(), hm.values)
        assert l1_distance_field(mask.bits).flags.c_contiguous


# ---------------------------------------------------------------------------
# height map sampling


def sample(hm, u, v):
    """Bilinear lookup of hm at (u, v), of any (matching) shape, through the
    cost's one lookup, cost._lookup, on a one-term tuple; 0 out of frame.
    (u, v) is the image of the camera point (u - 0.5, v - 0.5, 1) under
    unit focal lengths and the principal point (0.5, 0.5)."""
    h, w = hm.values.shape
    u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
    p_c = np.stack([u - 0.5, v - 0.5, np.ones_like(u)])
    return _lookup(p_c, ((slice(None), hm),), Intrinsics(1.0, 1.0, 0.5, 0.5, w, h))[0]


def test_heightmap_sampling_out_of_frame_zero():
    hm = HeightMap(np.ones((4, 4)))
    assert sample(hm, np.array([-1.0]), np.array([0.0]))[0] == 0.0
    assert sample(hm, np.array([3.5]), np.array([1.0]))[0] == 0.0
    assert sample(hm, np.array([3.0]), np.array([3.0]))[0] == 1.0


@pytest.mark.parametrize("shape", [(1, 4), (4, 1), (1, 1), (0, 3), (4,), (2, 2, 2)])
def test_heightmap_needs_a_2x2_cell(shape):
    """Bilinear lookup reads a 2x2 cell: a 1 px side has none."""
    with pytest.raises(ValueError, match="at least 2x2"):
        HeightMap(np.full(shape, 0.5))
    assert sample(HeightMap(np.full((2, 2), 0.5)), np.array([0.5]), np.array([1.0]))[0] == 0.5


def test_heightmap_freezes_the_array_it_is_handed():
    values = np.full((3, 4), 0.5)
    hm = HeightMap(values)
    assert hm.values is values and not values.flags.writeable
    ints = np.ones((3, 4), dtype=np.int64)
    assert HeightMap(ints).values.dtype == np.float64 and ints.flags.writeable


def test_semantic_mask_owns_its_bits():
    """One conversion, still a copy: the caller's array stays writable and
    a later write to it does not reach the mask."""
    for raw in (np.zeros((3, 4), dtype=bool), np.zeros((3, 4), dtype=np.uint8)):
        mask = SemanticMask("lane", raw)
        raw[0, 0] = 1
        assert mask.bits.dtype == bool and not mask.bits.any()
        assert not mask.bits.flags.writeable


@pytest.mark.parametrize("shape", [(1242,), (375, 1242, 1), (), (1, 1242), (375, 1), (1, 1)])
def test_semantic_mask_needs_2d_bits(shape):
    """1-D, 3-D and 0-D bits, and 2-D bits with a side under 2 px, are
    refused where the mask is built, in memory or from a file, with a
    parse-stage DimensionMismatch that names the class and the shape: no
    stage after it meets a mask whose height map has no 2x2 cell."""
    named = rf"pole mask has shape \({', '.join(map(str, shape))},?\), need at least 2x2"
    with pytest.raises(DimensionMismatch, match=named):
        SemanticMask("pole", np.ones(shape, dtype=bool))


def test_semantic_mask_needs_a_known_class(tmp_path):
    with pytest.raises(ParseError, match="unknown mask class 'road'"):
        SemanticMask("road", np.ones((4, 4), dtype=bool))
    path = tmp_path / "mask.pgm"
    save_pnm(path, np.full((4, 4), 255, dtype=np.uint8))
    with pytest.raises(ParseError, match="unknown mask class"):
        load_mask(path, "road", _intrinsics_of((4, 4)))


def _intrinsics_of(shape):
    """Intrinsics of an image of the given (h, w) shape."""
    h, w = shape
    return Intrinsics(100.0, 100.0, w / 2, h / 2, w, h)


@pytest.mark.parametrize("shape", [(1, 5), (5, 1), (1, 1)])
def test_load_mask_rejects_a_1px_side(tmp_path, shape):
    path = tmp_path / "mask.pgm"
    save_pnm(path, np.full(shape, 255, dtype=np.uint8))
    with pytest.raises(ParseError, match="at least 2x2"):
        load_mask(path, "lane", _intrinsics_of(shape))
    save_pnm(path, np.full((2, 5), 255, dtype=np.uint8))
    assert load_mask(path, "lane", _intrinsics_of((2, 5))).bits.sum() == 10


@MANY
@given(st.integers(0, 2**32 - 1))
def test_bilinear_interpolates_between_neighbors(seed):
    rng = np.random.default_rng(seed)
    grid = rng.random((5, 5))
    hm = HeightMap(grid)
    u = float(rng.uniform(0, 3.999))
    v = float(rng.uniform(0, 3.999))
    val = sample(hm, np.array([u]), np.array([v]))[0]
    u0, v0 = int(u), int(v)
    corners = grid[v0 : v0 + 2, u0 : u0 + 2]
    assert corners.min() - 1e-12 <= val <= corners.max() + 1e-12
    # exact at integer pixels
    val = sample(hm, np.array([float(u0)]), np.array([float(v0)]))[0]
    assert abs(val - grid[v0, u0]) < 1e-12


def test_bilinear_flat_gathers_match_2d_indexing():
    """Any input shape; the same bits as 2-D fancy indexing of the grid."""
    rng = np.random.default_rng(4)
    grid = rng.random((37, 53))
    hm = HeightMap(grid)
    u = rng.uniform(-5.0, 58.0, size=(6, 40))
    v = rng.uniform(-5.0, 42.0, size=(6, 40))
    u[0, :4] = [0.0, 52.0, 51.5, 52.0]      # frame edges
    v[0, :4] = [0.0, 36.0, 36.0, 35.25]
    got = sample(hm, u, v)
    assert got.shape == u.shape
    h, w = grid.shape
    ok = (u >= 0) & (u <= w - 1) & (v >= 0) & (v <= h - 1)
    uc, vc = np.where(ok, u, 0.0), np.where(ok, v, 0.0)
    u0 = np.minimum(uc.astype(int), w - 2)
    v0 = np.minimum(vc.astype(int), h - 2)
    fu, fv = uc - u0, vc - v0
    want = np.where(ok, (
        grid[v0, u0] * (1 - fu) * (1 - fv)
        + grid[v0, u0 + 1] * fu * (1 - fv)
        + grid[v0 + 1, u0] * (1 - fu) * fv
        + grid[v0 + 1, u0 + 1] * fu * fv
    ), 0.0)
    assert got.tobytes() == want.tobytes()
    assert sample(hm, u[2], v[2]).tobytes() == want[2].tobytes()


# ---------------------------------------------------------------------------
# hough lines


def draw_line(bits, a, b, c):
    h, w = bits.shape
    for u in range(w):
        for v in range(h):
            if abs(a * u + b * v + c) <= 0.5:
                bits[v, u] = True


def test_hough_recovers_drawn_lines():
    bits = np.zeros((100, 200), dtype=bool)
    draw_line(bits, 0.6, 0.8, -90.0)
    draw_line(bits, 0.8, -0.6, -20.0)
    out = hough_lines(SemanticMask("pole", bits), hough_cfg(30))
    assert len(out) >= 2
    got = sorted((round(l.line.a, 1), round(l.line.b, 1)) for l in out[:2])
    assert got == [(0.6, 0.8), (0.8, -0.6)]


def test_hough_support_order_and_threshold():
    bits = np.zeros((120, 120), dtype=bool)
    draw_line(bits, 1.0, 0.0, -30.0)   # vertical, 120 px
    bits[10, 40:100] = True            # horizontal, 60 px
    out = hough_lines(SemanticMask("pole", bits), hough_cfg(50))
    assert all(
        out[i].support >= out[i + 1].support for i in range(len(out) - 1)
    )
    assert all(s.support >= 50 for s in out)


@MANY
@given(st.integers(0, 2**32 - 1))
def test_hough_translation_consistency(seed):
    rng = np.random.default_rng(seed)
    bits = np.zeros((64, 64), dtype=bool)
    v0 = int(rng.integers(12, 30))
    bits[v0, 5:45] = True
    du, dv = int(rng.integers(0, 15)), int(rng.integers(0, 15))
    shifted = np.zeros_like(bits)
    shifted[v0 + dv, 5 + du : 45 + du] = True
    a = hough_lines(SemanticMask("pole", bits), hough_cfg(30))[0]
    b = hough_lines(SemanticMask("pole", shifted), hough_cfg(30))[0]
    assert a.support == b.support
    # horizontal line: rho shifts by exactly dv
    assert abs(b.line.rho - (a.line.rho + dv)) < 1e-9


def test_hough_lane_near_horizontal_rejected():
    bits = np.zeros((64, 128), dtype=bool)
    bits[30, 10:120] = True
    assert hough_lines(SemanticMask("lane", bits), hough_cfg(30)) == []
    # same mask accepted for the pole class
    assert hough_lines(SemanticMask("pole", bits), hough_cfg(30))


def _hough_lines_revote(mask, cls, min_support, max_lines=8, band_px=3.0,
                        lane_theta_margin_deg=10.0):
    """Iterative Hough that re-votes every round: all 180 angles, one
    bincount each, over the unclaimed pixels, and the flat argmax of that
    accumulator is the peak."""
    h, w = mask.bits.shape
    thetas = np.deg2rad(np.arange(180.0))
    cos_t, sin_t = np.cos(thetas), np.sin(thetas)
    diag = int(math.ceil(math.hypot(w, h)))
    n_rho = 2 * diag + 1
    remaining = mask.bits.copy()
    out = []
    while len(out) < max_lines:
        vs, us = np.nonzero(remaining)
        if len(us) < min_support:
            break
        acc = np.zeros((180, n_rho), dtype=np.int64)
        for i in range(180):
            rho = np.rint(us * cos_t[i] + vs * sin_t[i]).astype(int) + diag
            acc[i] = np.bincount(rho, minlength=n_rho)
        it, ir = np.unravel_index(np.argmax(acc), acc.shape)
        if acc[it, ir] < min_support:
            break
        line = Line2D(cos_t[it], sin_t[it], -float(ir - diag))
        claimed = line.distance(us, vs) <= band_px
        support = int(claimed.sum())
        remaining[vs[claimed], us[claimed]] = False
        if support < min_support:
            continue
        line = _fit_line2d(us[claimed].astype(float), vs[claimed].astype(float))
        if cls == "lane" and abs(math.degrees(thetas[it]) - 90.0) < lane_theta_margin_deg:
            continue
        out.append(ScoredLine2D(line=line, support=support))
    out.sort(key=lambda s: (-s.support, s.line.rho))
    return out


def test_hough_matches_revote_oracle():
    """Random masks with drawn strokes and clutter, 20 to 200 px a side:
    same lines, same supports."""
    rng = np.random.default_rng(21)
    for k in range(24):
        h, w = int(rng.integers(20, 160)), int(rng.integers(20, 200))
        bits = rng.random((h, w)) < rng.uniform(0.0, 0.3)
        for _ in range(int(rng.integers(0, 5))):
            t = rng.uniform(0, math.pi)
            draw_line(bits, math.cos(t), math.sin(t), -rng.uniform(0, min(h, w)))
        cls = ("lane", "pole")[k % 2]
        min_support = int(rng.integers(5, 40))
        mask = SemanticMask(cls, bits)
        want = _hough_lines_revote(mask, cls, min_support)
        got = hough_lines(mask, hough_cfg(min_support))
        assert [(s.line.coeffs().tolist(), s.support) for s in got] == [
            (s.line.coeffs().tolist(), s.support) for s in want
        ]


def _vote_full(us, vs, cos_t, sin_t, n_rho, rho_off):
    """The full (theta, rho) accumulator of the given pixels' votes, one
    bincount per block of angles."""
    acc = np.empty((len(cos_t), n_rho), dtype=np.int64)
    step = max(1, (1 << 16) // max(1, len(us)))
    for t0 in range(0, len(cos_t), step):
        c, s = cos_t[t0:t0 + step, None], sin_t[t0:t0 + step, None]
        rho = np.rint(us * c + vs * s).astype(np.int64)
        rho += rho_off + n_rho * np.arange(len(c))[:, None]
        acc[t0:t0 + len(c)] = np.bincount(
            rho.ravel(), minlength=len(c) * n_rho
        ).reshape(len(c), n_rho)
    return acc


def _hough_lines_vote_and_subtract(mask, cfg):
    """Iterative Hough on one full accumulator: the mask is voted once,
    the flat argmax is each peak, and each peak's claimed pixels are voted
    into a second full accumulator that is subtracted from the first."""
    h, w = mask.bits.shape
    thetas = np.deg2rad(np.arange(180.0))
    cos_t, sin_t = np.cos(thetas), np.sin(thetas)
    diag = int(math.ceil(math.hypot(w, h)))
    n_rho = 2 * diag + 1
    vs, us = np.nonzero(mask.bits)
    acc = _vote_full(us, vs, cos_t, sin_t, n_rho, diag)
    out = []
    while len(out) < cfg.hough_max_lines and len(us) >= cfg.hough_min_support:
        it, ir = np.unravel_index(np.argmax(acc), acc.shape)
        if acc[it, ir] < cfg.hough_min_support:
            break
        line = Line2D(cos_t[it], sin_t[it], -float(ir - diag))
        claimed = line.distance(us, vs) <= cfg.hough_band_px
        support = int(claimed.sum())
        if support == 0:
            break
        cu, cv = us[claimed], vs[claimed]
        acc -= _vote_full(cu, cv, cos_t, sin_t, n_rho, diag)
        us, vs = us[~claimed], vs[~claimed]
        if support < cfg.hough_min_support:
            continue
        line = _fit_line2d(cu.astype(float), cv.astype(float))
        off_horizontal = abs(math.degrees(thetas[it]) - 90.0)
        if mask.cls == "lane" and off_horizontal < cfg.hough_lane_theta_margin_deg:
            continue
        out.append(ScoredLine2D(line=line, support=support))
    out.sort(key=lambda s: (-s.support, s.line.rho))
    return out


def _line_tuples(lines):
    return [(s.support, s.line.a, s.line.b, s.line.c) for s in lines]


ORACLE_SCENES = (
    *(canonical_spec(i) for i in range(4)),
    canonical_spec(0, lane_offsets=(-5.0, -1.8, 1.8, 5.4, 8.8), lane_dashed=(False,) * 5),
    canonical_spec(0, lane_dashed=(False, True, True)),
)


@pytest.mark.parametrize("spec", ORACLE_SCENES, ids=(
    "canonical0", "canonical1", "canonical2", "canonical3", "five_lane0", "dashed0"))
def test_scene_masks_match_the_two_field_and_full_vote_oracles(spec):
    """The masks of scenes the pipeline runs on: bit-equal height maps
    and equal (support, a, b, c) lines to the code before this kernel."""
    cfg = PipelineConfig()
    _, lane, pole, _ = generate(spec)
    for mask in (lane, pole):
        assert idt_height_map(mask, cfg).values.tobytes() == _idt_two_fields(mask.bits, cfg).tobytes()
        want = _line_tuples(_hough_lines_vote_and_subtract(mask, cfg))
        assert want and _line_tuples(hough_lines(mask, cfg)) == want


@settings(max_examples=300, deadline=None)
@given(
    h=st.integers(12, 40),
    w=st.integers(12, 40),
    theta=st.integers(1, 89),
    n=st.integers(3, 12),
    min_support=st.integers(3, 6),
    clutter=st.floats(0.0, 0.03),
    seed=st.integers(0, 2**32 - 1),
    cls=st.sampled_from(("lane", "pole")),
)
def test_hough_tied_rows_match_the_vote_and_subtract_oracle(
        h, w, theta, n, min_support, clutter, seed, cls):
    """Mirrored strokes at theta and 180 - theta deg through one pixel,
    each n pixels in one accumulator cell of its angle, tie for the
    maximum; the crossing pixel goes to whichever is claimed first, so
    taking any row but the first of the tied ones changes the supports."""
    thetas = np.deg2rad(np.arange(180.0))
    vv, uu = (x.astype(float) for x in np.mgrid[:h, :w])
    cu, cv = w // 2, h // 2
    near = (uu - cu) ** 2 + (vv - cv) ** 2
    strokes = []
    for t in (theta, 180 - theta):
        # the same float operations as the vote, so the stroke's pixels
        # share one cell of row t
        cell = np.rint(uu * np.cos(thetas[t]) + vv * np.sin(thetas[t]))
        on = cell == cell[cv, cu]
        strokes.append((on.sum(), np.argsort(np.where(on, near, np.inf), axis=None, kind="stable")))
    n = min(n, *(count for count, _ in strokes))
    bits = np.random.default_rng(seed).random((h, w)) < clutter
    for _, order in strokes:
        bits.flat[order[:n]] = True
    mask = SemanticMask(cls, bits)
    cfg = hough_cfg(min_support)
    want = _line_tuples(_hough_lines_vote_and_subtract(mask, cfg))
    assert _line_tuples(hough_lines(mask, cfg)) == want


# peak allocations of the two-field IDT and the full-vote Hough (the
# oracles above) on the canonical lane mask, in MiB
_IDT_PEAK_MIB, _HOUGH_PEAK_MIB = 18.4, 11.3


@pytest.mark.parametrize("kernel, limit_mib", [
    (idt_height_map, _IDT_PEAK_MIB), (hough_lines, _HOUGH_PEAK_MIB)])
def test_kernel_peak_allocation_on_a_full_frame(canonical_frame, kernel, limit_mib):
    """Neither kernel may allocate more at its peak than the two-field
    IDT and the full-vote Hough did on a 375x1242 lane mask."""
    lane = canonical_frame[2]
    cfg = PipelineConfig()
    kernel(lane, cfg)  # first-call allocations stay out of the figure
    tracemalloc.start()
    try:
        kernel(lane, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= limit_mib * 2**20


def test_hough_stops_when_a_peak_claims_no_pixel():
    """A band below 0.5 px can miss every pixel of its own peak; a negative
    one always does.  The peak then stays in the accumulator, so the
    search must stop instead of picking it again."""
    bits = np.zeros((40, 40), dtype=bool)
    bits[5:35, 20] = True   # 30-pixel vertical stroke
    cfg = hough_cfg(10)
    # the constructor rejects such a band, so set it on the frozen config
    object.__setattr__(cfg, "hough_band_px", -1.0)

    def timeout(signum, frame):
        raise TimeoutError("hough_lines did not return")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(20)
    try:
        assert hough_lines(SemanticMask("pole", bits), cfg) == []
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_hough_needs_support():
    """Below hough_min_support no line is emitted, whether the mask holds
    fewer set pixels than that or none: the kernel returns what it finds."""
    bits = np.zeros((32, 32), dtype=bool)
    bits[4, 4:10] = True
    assert hough_lines(SemanticMask("pole", bits), hough_cfg(50)) == []
    assert hough_lines(SemanticMask("pole", bits), hough_cfg(6)) != []
    assert hough_lines(SemanticMask("lane", np.zeros((32, 32), dtype=bool)), hough_cfg(1)) == []


def _scored(a, b, c, support):
    return ScoredLine2D(Line2D(a, b, c), support)


def test_principal_pole_line_must_be_upright():
    lanes = [_scored(1.0, 0.5, -300.0, 900), _scored(1.0, -0.5, -200.0, 800)]
    beam = _scored(0.0, 1.0, -100.0, 1200)        # horizontal, strongest
    tilted = _scored(0.6, 0.8, -50.0, 1100)       # 53 deg from vertical
    upright = _scored(0.9, 0.1, -400.0, 500)      # 6 deg from vertical
    hm = HeightMap(np.full((4, 4), 0.5))

    def features(poles):
        return FeatureSetImage(hm, hm, lane_lines=lanes, pole_lines=poles)

    _, _, pole = select_principal_lines(features([beam, tilted, upright]))
    assert pole == upright.line
    with pytest.raises(InsufficientLines):
        select_principal_lines(features([beam, tilted]))


def test_second_principal_lane_is_not_a_split_of_the_first():
    """What the claim band leaves of a wide stroke comes back as a line at
    the stroke's angle; the second lane is the strongest line more than 3
    degrees from the first."""
    first = _scored(1.0, 0.5, -300.0, 1300)
    split = _scored(1.0, 0.52, -290.0, 980)       # 0.9 deg from the first
    other = _scored(1.0, -0.5, -200.0, 800)       # 53 deg from the first
    pole = _scored(0.9, 0.1, -400.0, 500)
    hm = HeightMap(np.full((4, 4), 0.5))

    def features(lanes):
        return FeatureSetImage(hm, hm, lane_lines=lanes, pole_lines=[pole])

    assert select_principal_lines(features([split, other, first]))[:2] == (first.line, other.line)
    with pytest.raises(InsufficientLines, match="none of 1 other lane image lines"):
        select_principal_lines(features([first, split]))
    with pytest.raises(InsufficientLines, match="got 1 / 1"):
        select_principal_lines(features([first]))


def test_gantry_beam_is_not_taken_for_a_pole():
    """With three more uprights the gantry beam is the best-supported pole
    image line; coarse calibration must still use an upright pole."""
    base = canonical_spec(0)
    spec = replace(
        base,
        pole_xy=base.pole_xy + ((16.0, 7.5), (24.0, -7.5), (34.0, 7.0)),
        pole_heights=base.pole_heights + (6.5, 5.5, 6.0),
        pole_radii=base.pole_radii + (0.2, 0.2, 0.2),
    )
    cfg = PipelineConfig()
    cloud, lane_mask, pole_mask, gt = generate(spec)
    cf, imf, ev = extract_features(cloud, lane_mask, pole_mask, spec.intrinsics, cfg)
    strongest = max(imf.pole_lines, key=lambda s: s.support)
    assert abs(strongest.line.a) < 0.1   # the horizontal beam
    err = calibration_error(coarse_calibrate(cf, imf, ev), gt)
    assert err.dt < 0.5 and math.degrees(err.dtheta) < 3.0
