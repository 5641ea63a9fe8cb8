"""Synthetic scene generator: geometric consistency and serialization."""
import dataclasses
import math
import warnings

import numpy as np
import pytest

from linecalib.errors import ParseError
from linecalib.fileio import parse_kv_text
from linecalib.geometry import Extrinsic, project_points
import linecalib.synth as synth
from linecalib.synth import (
    Box,
    SceneSpec,
    canonical_spec,
    format_scene_spec,
    generate,
    ground_plane_lidar,
    load_scene_spec,
    random_spec,
    true_frame,
    true_lines,
)


def test_canonical_spec_well_posed():
    spec = canonical_spec(0)
    assert len(spec.lane_offsets) >= 2
    assert len(spec.pole_xy) >= 1


def test_spec_validation():
    with pytest.raises(ValueError):
        canonical_spec(0, lane_offsets=(1.8,))
    with pytest.raises(ValueError):
        canonical_spec(0, pole_xy=())
    with pytest.raises(ValueError):
        canonical_spec(0, lane_dashed=(True,))


def test_generation_deterministic():
    spec = canonical_spec(3)
    c1, l1, p1, g1 = generate(spec)
    c2, l2, p2, g2 = generate(spec)
    assert np.array_equal(c1.to_array(), c2.to_array())
    assert np.array_equal(l1.bits, l2.bits)
    assert np.array_equal(p1.bits, p2.bits)
    assert np.array_equal(g1.r, g2.r) and np.array_equal(g1.t, g2.t)


def test_lane_points_near_centerlines(canonical_frame):
    """Every bright ground point lies within lane half-width + 3 sigma of a
    painted feature; check against the lane center-lines for the points that
    are on the long lanes (|y offset| close to a lane)."""
    spec, cloud, lane_mask, pole_mask, gt = canonical_frame
    lanes3d, _, _, _ = true_lines(spec)
    plane = ground_plane_lidar(spec)
    bright = cloud.intensity > (spec.ground_intensity + spec.lane_intensity) / 2
    near_ground = np.abs(plane.signed_distance(cloud.xyz)) < 0.15
    pts = cloud.xyz[bright & near_ground]
    assert len(pts) > 100
    d_lane = np.min(np.stack([l.distance(pts) for l in lanes3d]), axis=0)
    tol = spec.lane_width / 2 + 3 * spec.noise_sigma
    on_lane = d_lane <= tol
    # points not on a lane must belong to a painted cross feature
    if (~on_lane).any():
        rest = pts[~on_lane]
        from linecalib.synth import lidar_to_road, _on_stripe

        w = lidar_to_road(spec, rest)
        assert _on_stripe(spec, w[:, 0], w[:, 1]).mean() > 0.95
    lane_pts = pts[on_lane]
    assert (d_lane[on_lane] <= tol).all()


def test_cloud_mask_consistency(canonical_frame):
    """Noiseless lane points projected through ground truth land inside the
    dilated lane mask >= 99% of the time."""
    spec = canonical_spec(0, noise_sigma=0.0)
    cloud, lane_mask, pole_mask, gt = generate(spec)
    lanes3d, _, _, _ = true_lines(spec)
    plane = ground_plane_lidar(spec)
    bright = cloud.intensity > (spec.ground_intensity + spec.lane_intensity) / 2
    near_ground = np.abs(plane.signed_distance(cloud.xyz)) < 0.1
    d_lane = np.min(
        np.stack([l.distance(cloud.xyz) for l in lanes3d]), axis=0
    )
    sel = bright & near_ground & (d_lane <= spec.lane_width / 2 + 1e-6)
    pts = cloud.xyz[sel]
    assert len(pts) > 50
    uv, valid = project_points(spec.intrinsics, gt.apply(pts))
    uv = uv[valid]
    # dilate the mask by 2 px
    bits = lane_mask.bits.copy()
    for _ in range(2):
        grown = bits.copy()
        grown[1:] |= bits[:-1]
        grown[:-1] |= bits[1:]
        grown[:, 1:] |= bits[:, :-1]
        grown[:, :-1] |= bits[:, 1:]
        bits = grown
    h, w = lane_mask.bits.shape
    iu = np.clip(np.rint(uv[:, 0]).astype(int), 0, w - 1)
    iv = np.clip(np.rint(uv[:, 1]).astype(int), 0, h - 1)
    inside = bits[iv, iu]
    assert inside.mean() >= 0.99


def test_true_lines_project_onto_masks():
    spec = canonical_spec(0)
    _, _, lanes2d, poles2d = true_lines(spec)
    cloud, lane_mask, pole_mask, gt = generate(spec)
    # mask pixels concentrate near the projected true lane lines
    vs, us = np.nonzero(lane_mask.bits)
    d = np.min(np.stack([l.distance(us, vs) for l in lanes2d]), axis=0)
    assert np.median(d) < 30.0


def _nudged(v):
    """A value of the same type as v that differs from it."""
    if isinstance(v, bool):
        return not v
    if isinstance(v, (int, float)):
        return v + 1
    if isinstance(v, tuple):
        return tuple(_nudged(x) for x in v)
    if isinstance(v, Extrinsic):
        return Extrinsic(v.r + 0.01, v.t + 0.25)
    return type(v)(*(_nudged(x) for x in dataclasses.astuple(v)))


def _same(a, b):
    if isinstance(a, Extrinsic):
        return np.array_equal(a.r, b.r) and np.array_equal(a.t, b.t)
    return a == b


def test_spec_serialization_round_trip(tmp_path):
    # every field moved off its default, so a field the codec drops or
    # garbles reads back different
    default = SceneSpec()
    kwargs = {f.name: _nudged(getattr(default, f.name)) for f in dataclasses.fields(SceneSpec)}
    kwargs["dash_fill"] = default.dash_fill / 2   # a fill stays in (0, 1]
    spec = SceneSpec(**kwargs)
    path = tmp_path / "scene.txt"
    path.write_text(format_scene_spec(spec), encoding="utf-8")
    back = load_scene_spec(path)
    for f in dataclasses.fields(SceneSpec):
        value = getattr(spec, f.name)
        assert not _same(value, getattr(default, f.name)), f.name
        assert _same(getattr(back, f.name), value), f.name
    # and the round-tripped spec generates an identical scene
    c1, l1, p1, g1 = generate(spec)
    c2, l2, p2, g2 = generate(back)
    assert np.array_equal(c1.to_array(), c2.to_array())
    assert np.array_equal(l1.bits, l2.bits)
    assert np.array_equal(p1.bits, p2.bits)


# the key order of spec files written before the fields were written in
# field order; such files carry no comment lines
_OLD_KEY_ORDER = (
    "lane_offsets", "lane_dashed", "pole_xy", "pole_heights", "pole_radii", "boxes",
    "cross_stripes", "gantries", "r", "t", "fx", "fy", "cx", "cy", "width", "height",
    "lane_x0", "lane_x1", "lane_width", "dash_period", "dash_fill", "lane_intensity",
    "ground_intensity", "pole_intensity", "box_intensity", "lidar_height",
    "ground_tilt_deg", "rings", "azimuth_steps", "elevation_min_deg",
    "elevation_max_deg", "max_range", "noise_sigma", "intensity_sigma", "seed",
)


def test_spec_in_old_key_order_loads_to_the_same_spec(tmp_path):
    spec = random_spec(seed=7)
    kv = parse_kv_text(format_scene_spec(spec))
    assert set(kv) == set(_OLD_KEY_ORDER)
    path = tmp_path / "old.txt"
    path.write_text("".join(f"{k} = {kv[k]}\n" for k in _OLD_KEY_ORDER), encoding="utf-8")
    back = load_scene_spec(path)
    for f in dataclasses.fields(SceneSpec):
        assert _same(getattr(back, f.name), getattr(spec, f.name)), f.name


def test_spec_rejects_malformed_values(tmp_path):
    path = tmp_path / "scene.txt"
    for text in (
        "lane_dashd = 0 0 0\n",            # unknown key
        "lane_dashed = 0 2 0\n",           # a flag is 0 or 1
        "pole_xy = 12:-6:1 20:6 28:-5\n",  # records have a fixed arity
        "boxes = 12:-3.5:4:1.8\n",
        "rings = 12.5\n",
        "rings = 0\n",                     # the beam model needs a beam
        "azimuth_steps = 0\n",
        "lane_width = nan\n",
        "fx = 430\n",                      # intrinsics come whole
        'r = "nan 0 0"\nt = "0 0 0"\n',
        "noise_sigma = -1\n",             # a spread is never negative
        "intensity_sigma = -0.01\n",
        "lane_dashed = 0 1 0\ndash_period = 0\n",
        "dash_fill = 0\n",
        "dash_fill = 1.5\n",
        "max_range = 0\n",                # no surface in range
        "max_range = -5\n",
        "pole_radii = -0.2 0.2 0.22 0.22 0.18 0.18\n",   # a solid has extent
        "pole_heights = 5 4.2 0 4.4 7 4.6\n",
        "gantries = 30:-8:1.5:5.5:0\n",
        "gantries = 30:1.5:-8:5.5:0.15\n",
        "gantries = 30:1.5:1.5:5.5:0.15\n",
        "boxes = 12:-3.5:4:1.8:0\n",
        "boxes = 12:-3.5:-4:1.8:1.5\n",
        "lane_x0 = 80\n",                  # lanes run from lane_x0 to lane_x1
        "lane_x0 = 90\n",
        "cross_stripes = 7.6:7.2:-0.5:0.5\n",   # a paint cell has extent
        "cross_stripes = 7.2:7.6:0.5:-0.5\n",
        "cross_stripes = 7.2:7.2:-0.5:0.5\n",
    ):
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError):
            load_scene_spec(path)


def test_random_specs_are_deterministic_and_varied():
    a = random_spec(seed=42)
    b = random_spec(seed=42)
    c = random_spec(seed=43)
    assert a.lane_offsets == b.lane_offsets
    assert a.pole_xy == b.pole_xy
    assert a.lane_offsets != c.lane_offsets or a.pole_xy != c.pole_xy


# ---- ray and span kernels against the per-ray and per-span oracles ----
# The oracles are the dense kernels generate ran before it took sparse
# hits, and the one-span-at-a-time fill; the kernels must keep every bit.

def _oracle_ray_cylinder(origin, dirs, axis, center, r, lo, hi):
    """Hit parameter per ray (dirs (N, 3)), inf where missed."""
    i, j = (k for k in range(3) if k != axis)
    oi, oj = origin[i] - center[0], origin[j] - center[1]
    di, dj = dirs[:, i], dirs[:, j]
    a = di * di + dj * dj
    b = 2.0 * (oi * di + oj * dj)
    c = oi * oi + oj * oj - r * r
    disc = b * b - 4.0 * a * c
    out = np.full(len(dirs), np.inf)
    ok = (disc >= 0) & (a > 1e-12)
    with np.errstate(invalid="ignore"):
        t1 = -b / np.where(ok, 2.0 * a, 1.0)
        along = origin[axis] + t1 * dirs[:, axis]
    good = ok & (t1 > 1e-6) & (along >= lo) & (along <= hi)
    out[good] = t1[good]
    return out


def _oracle_ray_box(origin, dirs, box):
    """Slab-method entry parameter per ray (dirs (N, 3)), inf where missed."""
    lo = np.array([box.cx - box.sx / 2, box.cy - box.sy / 2, 0.0])
    hi = np.array([box.cx + box.sx / 2, box.cy + box.sy / 2, box.sz])
    out = np.full(len(dirs), np.inf)
    with np.errstate(divide="ignore", invalid="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)   # all-NaN rows
        inv = 1.0 / dirs
        t_lo = (lo - origin) * inv
        t_hi = (hi - origin) * inv
        tmin = np.nanmax(np.minimum(t_lo, t_hi), axis=1)
        tmax = np.nanmin(np.maximum(t_lo, t_hi), axis=1)
        good = (tmax >= tmin) & (tmin > 1e-6)
    out[good] = tmin[good]
    return out


def _oracle_fill_spans(bits, u_lo, u_hi, v, valid):
    h, w = bits.shape
    iv = np.rint(v).astype(int)
    lo = np.rint(np.minimum(u_lo, u_hi)).astype(int)
    hi = np.rint(np.maximum(u_lo, u_hi)).astype(int)
    ok = valid & (iv >= 0) & (iv < h) & (hi >= 0) & (lo < w)
    lo = np.clip(lo, 0, w - 1)
    hi = np.clip(hi, 0, w - 1)
    for i in np.nonzero(ok)[0]:
        bits[iv[i], lo[i] : hi[i] + 1] = True


def _assert_same_hits(sparse, dense):
    idx, t = sparse
    assert np.array_equal(idx, np.flatnonzero(np.isfinite(dense)))
    assert t.tobytes() == dense[idx].tobytes()


_FIVE_LANES = (-5.0, -1.8, 1.8, 5.4, 8.8)
_KERNEL_SPECS = {
    "canonical0": lambda: canonical_spec(0),
    "five_lane0": lambda: canonical_spec(
        0, lane_offsets=_FIVE_LANES, lane_dashed=(False,) * len(_FIVE_LANES)
    ),
    **{f"random{s}": (lambda s=s: random_spec(s)) for s in range(4)},
    "rings32": lambda: canonical_spec(0, rings=32),
    "tilt3": lambda: canonical_spec(0, ground_tilt_deg=3.0),
}


@pytest.mark.parametrize("name", sorted(_KERNEL_SPECS))
def test_ray_kernels_match_dense_oracles(name):
    spec = _KERNEL_SPECS[name]()
    origin = np.array([0.0, 0.0, spec.lidar_height])
    dirs = synth._ray_directions(spec)
    comp = dirs.T.copy()
    hits = 0
    for (px, py), h, r in zip(spec.pole_xy, spec.pole_heights, spec.pole_radii):
        sparse = synth._ray_cylinder(origin, comp, 2, (px, py), r, 0.0, h)
        _assert_same_hits(sparse, _oracle_ray_cylinder(origin, dirs, 2, (px, py), r, 0.0, h))
        hits += len(sparse[0])
    for gx, gy0, gy1, gz, gr in spec.gantries:
        sparse = synth._ray_cylinder(origin, comp, 1, (gx, gz), gr, gy0, gy1)
        _assert_same_hits(sparse, _oracle_ray_cylinder(origin, dirs, 1, (gx, gz), gr, gy0, gy1))
        hits += len(sparse[0])
    for box in spec.boxes:
        sparse = synth._ray_box(origin, comp, box)
        _assert_same_hits(sparse, _oracle_ray_box(origin, dirs, box))
        hits += len(sparse[0])
    assert hits > 0


@pytest.mark.parametrize("name", sorted(_KERNEL_SPECS))
def test_mask_spans_match_per_span_oracle(name, monkeypatch):
    spec = _KERNEL_SPECS[name]()
    lane, pole = synth._rasterize_lanes(spec), synth._rasterize_poles(spec)
    monkeypatch.setattr(synth, "_fill_spans", _oracle_fill_spans)
    assert np.array_equal(lane.bits, synth._rasterize_lanes(spec).bits)
    assert np.array_equal(pole.bits, synth._rasterize_poles(spec).bits)
    assert lane.bits.any() and pole.bits.any()


def _oracle_returns(spec):
    """(hit parameter, direction, material) of each ray that returns, from
    the dense kernels: a ray keeps the first strictly nearest hit over the
    ground and the solids in spec order."""
    origin = np.array([0.0, 0.0, spec.lidar_height])
    dirs = synth._ray_directions(spec)
    best_t = np.full(len(dirs), np.inf)
    material = np.full(len(dirs), -1)
    with np.errstate(divide="ignore", invalid="ignore"):
        tg = -origin[2] / dirs[:, 2]
    ok = (dirs[:, 2] < -1e-9) & (tg > 0) & (tg < spec.max_range)
    best_t[ok] = tg[ok]
    on = synth._on_stripe(spec, origin[0] + tg[ok] * dirs[ok, 0], origin[1] + tg[ok] * dirs[ok, 1])
    material[ok] = np.where(on, 1, 0)
    solids = [
        (2, _oracle_ray_cylinder(origin, dirs, 2, (px, py), r, 0.0, h))
        for (px, py), h, r in zip(spec.pole_xy, spec.pole_heights, spec.pole_radii)
    ]
    solids += [
        (2, _oracle_ray_cylinder(origin, dirs, 1, (gx, gz), gr, gy0, gy1))
        for gx, gy0, gy1, gz, gr in spec.gantries
    ]
    solids += [(3, _oracle_ray_box(origin, dirs, box)) for box in spec.boxes]
    for mat, t_hit in solids:
        closer = t_hit < best_t
        best_t[closer] = t_hit[closer]
        material[closer] = mat
    hit = np.isfinite(best_t) & (best_t < spec.max_range)
    return best_t[hit], dirs[hit], material[hit]


@pytest.mark.parametrize("name", sorted(_KERNEL_SPECS))
def test_noiseless_cloud_matches_dense_merge(name):
    # without noise a return is origin + t * direction, taken to the LiDAR
    # frame, and its intensity is its material's
    spec = dataclasses.replace(_KERNEL_SPECS[name](), noise_sigma=0.0, intensity_sigma=0.0)
    t, d, material = _oracle_returns(spec)
    cloud = generate(spec)[0]
    origin = np.array([0.0, 0.0, spec.lidar_height])
    xyz = synth.road_to_lidar(spec, origin + t[:, None] * d)
    base = np.array(
        [spec.ground_intensity, spec.lane_intensity, spec.pole_intensity, spec.box_intensity]
    )
    assert cloud.xyz.tobytes() == xyz.tobytes()
    assert cloud.intensity.tobytes() == base[material].tobytes()
    assert set(np.unique(material)) == {0, 1, 2, 3}


def _both_fills(shape, u_lo, u_hi, v, valid, transpose=False):
    got, want = np.zeros(shape, dtype=bool), np.zeros(shape, dtype=bool)
    args = [np.asarray(a, dtype=float) for a in (u_lo, u_hi, v)]
    args.append(np.asarray(valid, dtype=bool))
    synth._fill_spans(got.T if transpose else got, *args)
    _oracle_fill_spans(want.T if transpose else want, *args)
    return got, want


def test_fill_spans_with_no_span_in_frame():
    for spans in (
        ([], [], [], []),                                 # no span at all
        ([3.0, 4.0], [9.0, 8.0], [-1.0, 6.0], [True, True]),     # rows off the frame
        ([-9.0, 12.0], [-3.0, 30.0], [2.0, 2.0], [True, True]),  # columns off it
        ([3.0], [9.0], [2.0], [False]),                   # invalid
    ):
        got, want = _both_fills((5, 10), *spans)
        assert not got.any() and np.array_equal(got, want)


def test_fill_spans_clipped_at_both_borders():
    # one span over the whole row from off-frame to off-frame, one from
    # each side, one reversed, one a single pixel, two on the same row
    got, want = _both_fills(
        (6, 10),
        [-4.0, -2.6, 7.2, 8.0, 4.4, 1.0],
        [14.0, 2.4, 11.0, 3.0, 4.4, 2.0],
        [0.0, 1.2, 2.0, 3.4, 4.0, 4.0],
        [True] * 6,
    )
    assert np.array_equal(got, want)
    assert got[0].all() and got[1, :3].all() and not got[1, 3:].any()
    assert got[2, 7:].all() and not got[2, :7].any()
    assert got[3, 3:9].all() and got[4, [1, 2, 4]].all() and got[4].sum() == 3


def test_fill_spans_on_a_transposed_view():
    # a gantry fills columns: the spans index rows of bits.T
    got, want = _both_fills(
        (8, 5), [-1.0, 2.0, 6.0], [3.0, 9.0, 7.0], [1.0, 3.0, 4.4], [True, True, True],
        transpose=True,
    )
    assert np.array_equal(got, want)
    assert got[:4, 1].all() and got[2:, 3].all() and got[6:, 4].all()
    assert got.sum() == 4 + 6 + 2


def _fan(n=360):
    """Unit rays in a horizontal fan plus straight up and down, with exact
    zero components."""
    a = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    dirs = np.column_stack([np.cos(a), np.sin(a), np.zeros(n)])
    axis_rays = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 1.0],
                 [0.0, 0.0, -1.0], [0.0, -0.0, -1.0]]
    return np.vstack([dirs, axis_rays])


def test_ray_kernels_behind_the_sensor_and_missed():
    origin = np.array([0.0, 0.0, 1.0])
    forward = _fan()
    forward = forward[forward[:, 0] > 0.5]          # all rays head to +x
    comp = forward.T.copy()
    solids = {
        # behind the sensor: every ray's closest approach has t < 0
        "pole_behind": (2, (-10.0, 0.0), 0.3, 0.0, 5.0),
        "beam_behind": (1, (-10.0, 3.0), 0.3, -5.0, 5.0),
        # in front, but every ray passes beside or under it
        "pole_missed": (2, (10.0, 50.0), 0.3, 0.0, 5.0),
        "beam_missed": (1, (10.0, 8.0), 0.3, -5.0, 5.0),
    }
    for name, (axis, center, r, lo, hi) in solids.items():
        idx, t = synth._ray_cylinder(origin, comp, axis, center, r, lo, hi)
        assert len(idx) == len(t) == 0, name
        _assert_same_hits((idx, t), _oracle_ray_cylinder(origin, forward, axis, center, r, lo, hi))
    for box in (Box(-10.0, 0.0, 2.0, 2.0, 3.0), Box(10.0, 40.0, 2.0, 2.0, 3.0)):
        idx, t = synth._ray_box(origin, comp, box)
        assert len(idx) == len(t) == 0
        _assert_same_hits((idx, t), _oracle_ray_box(origin, forward, box))
    # the same solids in front of the sensor are hit
    assert len(synth._ray_cylinder(origin, comp, 2, (10.0, 0.0), 0.3, 0.0, 5.0)[0])
    assert len(synth._ray_box(origin, comp, Box(10.0, 0.0, 2.0, 2.0, 3.0))[0])


def test_ray_box_keeps_the_bits_of_nanmax_on_zero_components():
    # the sensor in the plane of a box face: bound minus origin is 0 on
    # that axis, so a ray with a zero component there gets a NaN slab term
    # (0 * inf), which drops out of the entry and exit as in nanmax
    dirs = _fan(720)
    for origin, box in (
        (np.array([-5.0, 0.0, 0.0]), Box(2.0, 0.0, 2.0, 2.0, 2.0)),   # z = 0 plane
        (np.array([-5.0, 1.0, 0.5]), Box(2.0, 0.0, 2.0, 2.0, 2.0)),   # y = 1 plane
        (np.array([1.0, -5.0, 0.5]), Box(0.0, 2.0, 2.0, 2.0, 2.0)),   # x = 1 plane
    ):
        lo = np.array([box.cx - box.sx / 2, box.cy - box.sy / 2, 0.0])
        hi = np.array([box.cx + box.sx / 2, box.cy + box.sy / 2, box.sz])
        with np.errstate(divide="ignore", invalid="ignore"):
            inv = 1.0 / dirs
            nan_rows = np.isnan((lo - origin) * inv).any(axis=1) | np.isnan(
                (hi - origin) * inv
            ).any(axis=1)
        sparse = synth._ray_box(origin, dirs.T.copy(), box)
        _assert_same_hits(sparse, _oracle_ray_box(origin, dirs, box))
        assert nan_rows[sparse[0]].any()   # a ray with a NaN term is hit
