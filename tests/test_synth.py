"""Synthetic scene generator: geometric consistency and serialization."""
import dataclasses
import math

import numpy as np
import pytest

from linecalib.errors import ParseError
from linecalib.fileio import parse_kv_text
from linecalib.geometry import Extrinsic, project_points
from linecalib.synth import (
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
        "lane_width = nan\n",
        "fx = 430\n",                      # intrinsics come whole
        'r = "nan 0 0"\nt = "0 0 0"\n',
        "noise_sigma = -1\n",             # a spread is never negative
        "intensity_sigma = -0.01\n",
        "lane_dashed = 0 1 0\ndash_period = 0\n",
        "dash_fill = 0\n",
        "dash_fill = 1.5\n",
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
