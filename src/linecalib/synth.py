"""Procedural road scenes with known ground truth.

A scene lives in a road frame W (ground plane z = 0, lanes along +X).
The LiDAR sits at (0, 0, lidar_height), optionally pitched, and scans by
casting rings of rays against the analytic geometry (ground, painted
stripes, pole cylinders, clutter boxes).  Each solid returns only the
rays it hits, as (indices, hit parameters), and a ray keeps the first
strictly nearest hit over the ground and the solids in spec order.
Masks are rasterized from the true geometry through the ground-truth
extrinsic, never from the noisy cloud, so image-side and cloud-side
noise stay independent; the spans of a lane, pole or beam are set in
one fancy-index write.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .cloud_features import PointCloud, ground_parallel_rotation
from .fileio import build_record, format_extrinsic, format_fields, load_kv_file
from .geometry import (
    Extrinsic,
    Intrinsics,
    Line2D,
    Line3D,
    Plane3D,
    angle_axis_to_matrix,
    project_points,
    rot_y,
)
from .image_features import SemanticMask

# LiDAR -> camera base rotation: x_L -> z_C, y_L -> -x_C, z_L -> -y_C
CAM_BASE_ROTATION = np.array([[0.0, -1.0, 0.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0]])

# KITTI-sized sensor with a wider lens: the shorter focal keeps the
# near-field paint grid and the roadside poles inside the frame, which
# is what anchors the lateral/longitudinal cost terms
DEFAULT_INTRINSICS = Intrinsics(
    fx=430.0, fy=430.0, cx=609.6, cy=172.9, width=1242, height=375
)


@dataclass(frozen=True)
class Box:
    """Axis-aligned clutter box resting on the ground."""

    cx: float
    cy: float
    sx: float
    sy: float
    sz: float


@dataclass(frozen=True)
class SceneSpec:
    # uneven spacing: no lateral shift maps the lane set onto itself, so
    # sliding the projection one lane over is never a cost plateau.  Wide
    # stripes give the refinement cost a broad basin around the optimum.
    lane_offsets: tuple = (-5.0, -1.8, 1.8)   # stripe center y, meters
    lane_x0: float = 4.5
    lane_x1: float = 80.0
    lane_width: float = 0.40
    lane_dashed: tuple = (False, False, False)
    dash_period: float = 6.0
    dash_fill: float = 0.5
    lane_intensity: float = 0.9
    ground_intensity: float = 0.1
    # painted ground cells (x0, x1, y0, y1): aperiodic patches between the
    # stripes pin the forward alignment, which lanes alone leave free.  A
    # spinning scanner crosses each cell with few rings at an arbitrary
    # phase, so many cells at spread depths average the phase error.  Every
    # cell stays >= 0.3 m clear of lane center-lines so it never
    # contaminates the lane line fits.
    cross_stripes: tuple = (
        (7.2, 7.6, -2.4, -2.1), (7.2, 7.6, -0.5, 0.5), (7.2, 7.6, 2.1, 2.4),
        (8.0, 8.15, -1.5, -0.7), (8.0, 8.15, 0.9, 1.5), (8.0, 8.15, 2.2, 2.6),
        (9.6, 9.75, -2.6, -2.1), (9.6, 9.75, -0.9, 0.1), (9.6, 9.75, 2.1, 2.5),
        (10.3, 10.7, -1.5, -1.1), (10.3, 10.7, 0.3, 1.0),
        (12.4, 12.55, -2.5, -2.1), (12.4, 12.55, -0.3, 0.6), (12.4, 12.55, 2.1, 2.6),
        (13.3, 13.7, -1.5, -1.2), (13.3, 13.7, -0.6, 0.2), (13.3, 13.7, 1.1, 1.5),
        (15.6, 15.75, -2.6, -2.1), (15.6, 15.75, -0.2, 0.8), (15.6, 15.75, 2.1, 2.4),
        (11.0, 12.2, -2.4, -2.1), (11.0, 12.2, -0.5, 0.5), (11.0, 12.2, 2.1, 2.4),
        (13.4, 14.6, -1.5, -0.7), (13.4, 14.6, 0.9, 1.5),
        (16.0, 17.5, -2.6, -2.1), (16.0, 17.5, -0.4, 0.6), (16.0, 17.5, 2.1, 2.6),
        (19.5, 21.0, -1.5, -1.0), (19.5, 21.0, 0.4, 1.4),
        (23.5, 25.2, -1.2, 0.0), (23.5, 25.2, 1.2, 1.5), (23.5, 25.2, 2.1, 2.4),
        (28.0, 30.0, -2.5, -2.1), (28.0, 30.0, -1.5, -0.9), (28.0, 30.0, 0.8, 1.5),
    )
    # three tall sign poles at spread depths on both road sides (a near
    # tall pole breaks the camera-up + pitch-down compensation family,
    # which holds only near one depth), each with a shorter companion
    # close beside it.  Companions top out below the cloud pipeline's
    # pole elevation gate, but share grid cells with their tall pole, so
    # the cloud keeps their points as pole cost points; they join its
    # cluster, which keeps one upright line, so they add no cloud pole
    # line.  In the pole mask they widen the cost plateau without
    # disturbing the principal image line ranking.
    pole_xy: tuple = (
        (12.0, -6.0), (12.0, -6.5), (20.0, 6.0),
        (20.0, 6.6), (28.0, -5.0), (28.0, -5.75),
    )
    pole_heights: tuple = (5.0, 4.2, 6.0, 4.4, 7.0, 4.6)
    # stout uprights widen the refinement basin; radii stay below the
    # point where a tilted accumulator band through a fat bar would
    # out-vote the vertical one and skew the principal image line
    pole_radii: tuple = (0.20, 0.20, 0.22, 0.22, 0.18, 0.18)
    pole_intensity: float = 0.4
    # overhead sign-gantry beam off the road edge: (x, y0, y1, z, r).
    # It adds a near-horizontal pole-class image line; the coarse search
    # takes its pole line only within 45 deg of the image vertical
    # (select_principal_lines), so the beam cannot stand in for an upright
    # however much support it has.
    gantries: tuple = ((30.0, -8.0, 1.5, 5.5, 0.15),)
    boxes: tuple = (Box(12.0, -3.5, 4.0, 1.8, 1.5),)
    # dull paint: low box points sit inside the ground segment, and a
    # bright box would leak its side panel into the lane point set
    box_intensity: float = 0.12
    lidar_height: float = 1.73
    ground_tilt_deg: float = 0.0        # pitch of the LiDAR about Y_W
    rings: int = 128
    azimuth_steps: int = 1800
    elevation_min_deg: float = -24.0
    elevation_max_deg: float = 16.0
    max_range: float = 120.0
    noise_sigma: float = 0.02           # range noise, meters
    intensity_sigma: float = 0.01
    extrinsic: Extrinsic = field(
        default_factory=lambda: Extrinsic(
            Extrinsic.from_matrix(CAM_BASE_ROTATION, np.zeros(3)).r,
            np.array([0.06, -0.3, -0.15]),
        )
    )
    intrinsics: Intrinsics = DEFAULT_INTRINSICS
    seed: int = 0

    def __post_init__(self):
        if not (
            len(self.pole_xy) == len(self.pole_heights) == len(self.pole_radii)
        ):
            raise ValueError("pole field lengths disagree")
        if len(self.lane_dashed) != len(self.lane_offsets):
            raise ValueError("lane_dashed length disagrees with lane_offsets")
        if min(self.lane_width, self.lidar_height, self.dash_period) <= 0:
            raise ValueError("lane_width, lidar_height and dash_period must be positive")
        if min(self.noise_sigma, self.intensity_sigma) < 0 or not 0 < self.dash_fill <= 1:
            raise ValueError("need noise_sigma, intensity_sigma >= 0 and 0 < dash_fill <= 1")
        if self.rings < 1 or self.azimuth_steps < 1:
            raise ValueError("beam model needs rings >= 1, azimuth_steps >= 1")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        # a solid or a lane with no extent, or a range that reaches no
        # surface, would drop out of the scene without a word
        if not self.max_range > 0:
            raise ValueError("max_range must be positive")
        if not self.lane_x0 < self.lane_x1:
            raise ValueError("need lane_x0 < lane_x1")
        if not all(x0 < x1 and y0 < y1 for x0, x1, y0, y1 in self.cross_stripes):
            raise ValueError("a cross stripe needs x0 < x1 and y0 < y1")
        if any(v <= 0 for v in self.pole_heights + self.pole_radii):
            raise ValueError("pole heights and radii must be positive")
        for _, y0, y1, _, r in self.gantries:
            if r <= 0 or not y0 < y1:
                raise ValueError("a gantry needs radius > 0 and y0 < y1")
        for box in self.boxes:
            if min(box.sx, box.sy, box.sz) <= 0:
                raise ValueError("box sides must be positive")


def _tilt(spec: SceneSpec) -> np.ndarray:
    """Rotation taking LiDAR-frame vectors into the road frame."""
    return rot_y(math.radians(spec.ground_tilt_deg))


def lidar_to_road(spec: SceneSpec, p_l: np.ndarray) -> np.ndarray:
    return np.asarray(p_l, dtype=float) @ _tilt(spec).T + np.array(
        [0.0, 0.0, spec.lidar_height]
    )


def road_to_lidar(spec: SceneSpec, p_w: np.ndarray) -> np.ndarray:
    return (np.asarray(p_w, dtype=float) - np.array([0.0, 0.0, spec.lidar_height])) @ _tilt(
        spec
    )


def ground_plane_lidar(spec: SceneSpec) -> Plane3D:
    """The true ground plane expressed in the LiDAR frame."""
    n = _tilt(spec).T @ np.array([0.0, 0.0, 1.0])
    p0 = road_to_lidar(spec, np.zeros(3))
    return Plane3D(n, -n @ p0)


def _painted_along(spec: SceneSpec, dashed: bool, x):
    """Boolean: does road-frame x fall on a lane's painted length, between
    lane_x0 and lane_x1 and, on a dashed lane, inside a dash."""
    on = (x >= spec.lane_x0) & (x <= spec.lane_x1)
    if dashed:
        on &= np.mod(x, spec.dash_period) < spec.dash_fill * spec.dash_period
    return on


def _on_stripe(spec: SceneSpec, x, y):
    """Boolean: do the road-frame ground coordinates fall on a painted stripe."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    hit = np.zeros(x.shape, dtype=bool)
    half = spec.lane_width / 2.0
    for off, dashed in zip(spec.lane_offsets, spec.lane_dashed):
        hit |= (np.abs(y - off) <= half) & _painted_along(spec, dashed, x)
    for x0, x1, y0, y1 in spec.cross_stripes:
        hit |= (x >= x0) & (x <= x1) & (y >= y0) & (y <= y1)
    return hit


def _ray_directions(spec: SceneSpec) -> np.ndarray:
    """Unit directions (rings * azimuth_steps, 3) of the scan's rays in the
    road frame, ring by ring."""
    elev = np.deg2rad(
        np.linspace(spec.elevation_min_deg, spec.elevation_max_deg, spec.rings)
    )
    azim = np.linspace(0.0, 2.0 * math.pi, spec.azimuth_steps, endpoint=False)
    ee, aa = np.meshgrid(elev, azim, indexing="ij")
    # stagger the firing azimuth per ring (as spinning sensors do), so
    # narrow targets are sampled at different horizontal phases per ring
    stagger = (2.0 * math.pi / spec.azimuth_steps) * np.mod(
        0.618034 * np.arange(spec.rings), 1.0
    )
    aa = aa + stagger[:, None]
    cos_e = np.cos(ee)
    dirs_l = np.stack(
        [cos_e * np.cos(aa), cos_e * np.sin(aa), np.sin(ee)], axis=-1
    ).reshape(-1, 3)
    return dirs_l @ _tilt(spec).T


def generate(spec: SceneSpec):
    """Ray-cast the scene; returns (PointCloud, lane mask, pole mask, gt extrinsic)."""
    rng = np.random.default_rng(spec.seed)
    origin = np.array([0.0, 0.0, spec.lidar_height])
    dirs = _ray_directions(spec)
    comp = dirs.T.copy()    # the x, y and z components, each contiguous
    n = len(dirs)

    best_t = np.full(n, np.inf)
    material = np.full(n, -1, dtype=int)  # 0 ground, 1 lane, 2 pole, 3 box

    # ground plane z = 0
    dz = comp[2]
    with np.errstate(divide="ignore", invalid="ignore"):
        tg = -origin[2] / dz
    ok = (dz < -1e-9) & (tg > 0) & (tg < spec.max_range)
    best_t[ok] = tg[ok]
    gx = origin[0] + tg[ok] * dirs[ok, 0]
    gy = origin[1] + tg[ok] * dirs[ok, 1]
    material[ok] = np.where(_on_stripe(spec, gx, gy), 1, 0)

    # poles (cylinders along Z), gantry beams (along Y) and clutter boxes;
    # each solid takes the rays it hits strictly closer than the nearest
    # hit so far, in this order
    solids = [
        (2, _ray_cylinder(origin, comp, 2, (px, py), r, 0.0, h))
        for (px, py), h, r in zip(spec.pole_xy, spec.pole_heights, spec.pole_radii)
    ]
    solids += [
        (2, _ray_cylinder(origin, comp, 1, (gx_, gz), gr, gy0, gy1))
        for gx_, gy0, gy1, gz, gr in spec.gantries
    ]
    solids += [(3, _ray_box(origin, comp, box)) for box in spec.boxes]
    for mat, (idx, t_hit) in solids:
        closer = t_hit < best_t[idx]
        idx = idx[closer]
        best_t[idx] = t_hit[closer]
        material[idx] = mat

    hit = np.isfinite(best_t) & (best_t < spec.max_range)
    best_t = best_t[hit]
    dirs = dirs[hit]
    material = material[hit]
    ranges = best_t + rng.normal(0.0, spec.noise_sigma, size=len(best_t))
    pts_w = origin + ranges[:, None] * dirs
    pts_l = road_to_lidar(spec, pts_w)
    base = np.array(
        [spec.ground_intensity, spec.lane_intensity, spec.pole_intensity, spec.box_intensity]
    )
    inten = base[material] + rng.normal(0.0, spec.intensity_sigma, size=len(material))
    cloud = PointCloud(pts_l, np.clip(inten, 0.0, None))

    lane_mask = _rasterize_lanes(spec)
    pole_mask = _rasterize_poles(spec)
    return cloud, lane_mask, pole_mask, spec.extrinsic


def _ray_cylinder(origin, comp, axis, center, r, lo, hi):
    """The rays passing within r of a cylinder's axis: (indices, hit
    parameters), indices ascending.

    comp holds the ray directions by component, (3, N).  The cylinder
    runs along road-frame axis `axis` from `lo` to `hi`; `center` holds
    its coordinates on the other two axes, in order.  Poles and beams are
    thin relative to the beam spacing, so the return is modeled at the
    ray's closest approach to the axis rather than the entry point on the
    surface; the sub-radius depth difference is negligible but a
    surface-entry model would bias every return toward the sensor side.
    """
    i, j = (k for k in range(3) if k != axis)
    oi, oj = origin[i] - center[0], origin[j] - center[1]
    di, dj = comp[i], comp[j]
    a = di * di + dj * dj
    b = 2.0 * (oi * di + oj * dj)
    c = oi * oi + oj * oj - r * r
    disc = b * b - 4.0 * a * c
    near = np.flatnonzero((disc >= 0) & (a > 1e-12))
    t1 = -b[near] / (2.0 * a[near])
    along = origin[axis] + t1 * comp[axis][near]
    good = (t1 > 1e-6) & (along >= lo) & (along <= hi)
    return near[good], t1[good]


def _ray_box(origin, comp, box: Box):
    """Slab-method ray/box intersection over the ray directions by
    component, (3, N): (indices, entry parameters) of the rays that hit,
    indices ascending.

    Each ray's entry is the fmax of its per-axis slab entries and its
    exit the fmin of the exits, taken in axis order, so an axis whose
    slab bound gives NaN (a zero direction component on the bound's
    plane) drops out as in np.nanmax/np.nanmin.
    """
    lo = np.array([box.cx - box.sx / 2, box.cy - box.sy / 2, 0.0])
    hi = np.array([box.cx + box.sx / 2, box.cy + box.sy / 2, box.sz])
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = 1.0 / comp
        t_lo = (lo - origin)[:, None] * inv
        t_hi = (hi - origin)[:, None] * inv
    near, far = np.minimum(t_lo, t_hi), np.maximum(t_lo, t_hi)
    tmin = np.fmax(np.fmax(near[0], near[1]), near[2])
    tmax = np.fmin(np.fmin(far[0], far[1]), far[2])
    hit = np.flatnonzero((tmax >= tmin) & (tmin > 1e-6))
    return hit, tmin[hit]


def _project_w(spec: SceneSpec, pts_w: np.ndarray):
    """Road-frame points -> pixel coordinates, validity and camera depth
    under the gt pose."""
    p_c = spec.extrinsic.apply(road_to_lidar(spec, pts_w))
    uv, valid = project_points(spec.intrinsics, p_c)
    return uv[:, 0], uv[:, 1], valid, p_c[:, 2]


def _fill_spans(bits, u_lo, u_hi, v, valid):
    """Set row rint(v) from column rint(u_lo) to rint(u_hi) (either order,
    both ends included, clipped to the frame) for every valid span whose
    row is in frame, all in one fancy-index write; bits may be a view,
    such as the transpose a horizontal beam fills."""
    h, w = bits.shape
    iv = np.rint(v).astype(int)
    lo = np.rint(np.minimum(u_lo, u_hi)).astype(int)
    hi = np.rint(np.maximum(u_lo, u_hi)).astype(int)
    ok = valid & (iv >= 0) & (iv < h) & (hi >= 0) & (lo < w)
    lo = np.clip(lo[ok], 0, w - 1)
    hi = np.clip(hi[ok], 0, w - 1)
    runs = hi - lo + 1
    # column of the k-th pixel overall: k minus the pixels before its
    # span, plus that span's first column
    starts = np.cumsum(runs) - runs
    cols = np.arange(runs.sum()) + np.repeat(lo - starts, runs)
    bits[np.repeat(iv[ok], runs), cols] = True


def _rasterize_lanes(spec: SceneSpec) -> SemanticMask:
    k = spec.intrinsics
    bits = np.zeros((k.height, k.width), dtype=bool)
    half = spec.lane_width / 2.0
    xs = np.arange(spec.lane_x0, spec.lane_x1, 0.01)
    for off, dashed in zip(spec.lane_offsets, spec.lane_dashed):
        x = xs[_painted_along(spec, dashed, xs)]
        if len(x) == 0:
            continue
        center = np.column_stack([x, np.full(len(x), off), np.zeros(len(x))])
        left = center + np.array([0.0, -half, 0.0])
        right = center + np.array([0.0, half, 0.0])
        ul, vl, okl, _ = _project_w(spec, left)
        ur, vr, okr, _ = _project_w(spec, right)
        _fill_spans(bits, ul, ur, (vl + vr) / 2.0, okl & okr)
    for x0, x1, y0, y1 in spec.cross_stripes:
        # perpendicular bars cover few rows; dense area sampling is enough
        gx, gy = np.meshgrid(
            np.arange(x0, x1, 0.005), np.arange(y0, y1, 0.005), indexing="ij"
        )
        pts = np.column_stack([gx.ravel(), gy.ravel(), np.zeros(gx.size)])
        u, v, ok, _ = _project_w(spec, pts)
        iu = np.rint(u).astype(int)
        iv = np.rint(v).astype(int)
        ok &= (iu >= 0) & (iu < k.width) & (iv >= 0) & (iv < k.height)
        bits[iv[ok], iu[ok]] = True
    return SemanticMask(cls="lane", bits=bits)


def _rasterize_poles(spec: SceneSpec) -> SemanticMask:
    k = spec.intrinsics
    bits = np.zeros((k.height, k.width), dtype=bool)
    for (px, py), h, r in zip(spec.pole_xy, spec.pole_heights, spec.pole_radii):
        zs = np.arange(0.0, h, 0.01)
        axis = np.column_stack([np.full(len(zs), px), np.full(len(zs), py), zs])
        u, v, ok, depth = _project_w(spec, axis)
        r_px = k.fx * r / np.where(ok, depth, 1.0)
        _fill_spans(bits, u - r_px, u + r_px, v, ok)
    for gx_, gy0, gy1, gz, gr in spec.gantries:
        ys = np.arange(gy0, gy1, 0.01)
        axis = np.column_stack([np.full(len(ys), gx_), ys, np.full(len(ys), gz)])
        u, v, ok, depth = _project_w(spec, axis)
        r_px = k.fy * gr / np.where(ok, depth, 1.0)
        # a horizontal beam fills columns: the same spans, transposed
        _fill_spans(bits.T, v - r_px, v + r_px, u, ok)
    return SemanticMask(cls="pole", bits=bits)


def true_lines(spec: SceneSpec):
    """Analytic center-lines (LiDAR frame) and their exact image projections.

    Returns (lane Line3D list, pole Line3D list, lane Line2D list,
    pole Line2D list), ordered as in the spec fields.
    """
    lanes = [_segment(spec, (spec.lane_x0, off, 0.0), (spec.lane_x1, off, 0.0))
             for off in spec.lane_offsets]
    poles = [_segment(spec, (px, py, 0.0), (px, py, h))
             for (px, py), h in zip(spec.pole_xy, spec.pole_heights)]
    return ([s[0] for s in lanes], [s[0] for s in poles],
            [s[1] for s in lanes], [s[1] for s in poles])


def _segment(spec: SceneSpec, a_w, b_w):
    """The road-frame segment a_w-b_w as a LiDAR-frame Line3D and its
    exact image line."""
    p0, p1 = road_to_lidar(spec, np.array(a_w)), road_to_lidar(spec, np.array(b_w))
    # one apply per endpoint: a stacked (2, 3) transform rounds differently
    e = spec.extrinsic
    uv, _ = project_points(spec.intrinsics, np.stack([e.apply(p0), e.apply(p1)]))
    return Line3D((p0 + p1) / 2.0, p1 - p0), Line2D.through(uv[0], uv[1])


def true_frame(spec: SceneSpec) -> np.ndarray:
    """Rotation R_GL into the ground-parallel frame of the true plane and
    first lane."""
    lanes3d, _, _, _ = true_lines(spec)
    return ground_parallel_rotation(ground_plane_lidar(spec), lanes3d[0])


def random_spec(seed: int) -> SceneSpec:
    """A randomized but well-posed scene, deterministic per seed."""
    rng = np.random.default_rng(seed)
    spacing = rng.uniform(3.0, 4.2)
    n_lanes = int(rng.integers(2, 4))
    offsets = tuple(spacing * (i - (n_lanes - 1) / 2.0) for i in range(n_lanes))
    dashed = tuple(bool(rng.integers(0, 2)) if i else False for i in range(n_lanes))
    n_poles = int(rng.integers(1, 3))
    side = rng.choice([-1.0, 1.0], size=n_poles)
    pole_xy = tuple(
        (float(rng.uniform(18.0, 34.0)), float(side[i] * rng.uniform(4.0, 7.5)))
        for i in range(n_poles)
    )
    pole_heights = tuple(float(rng.uniform(5.0, 8.0)) for _ in range(n_poles))
    pole_radii = tuple(0.15 for _ in range(n_poles))
    d_axis = rng.normal(size=3)
    d_axis /= np.linalg.norm(d_axis)
    d_angle = rng.uniform(0.0, math.radians(3.0))
    R = angle_axis_to_matrix(d_axis * d_angle) @ CAM_BASE_ROTATION
    t = np.array([0.06, -0.3, -0.15]) + rng.uniform(-0.25, 0.25, size=3)
    return SceneSpec(
        lane_offsets=offsets,
        lane_dashed=dashed,
        pole_xy=pole_xy,
        pole_heights=pole_heights,
        pole_radii=pole_radii,
        ground_tilt_deg=float(rng.uniform(-1.5, 1.5)),
        extrinsic=Extrinsic.from_matrix(R, t),
        seed=seed,
    )


def canonical_spec(seed: int = 0, **overrides) -> SceneSpec:
    """The default scene used throughout the tests: three solid lanes at
    uneven offsets, a field of painted ground cells, and three sign poles
    (each with a shorter image-only companion) plus a gantry stub."""
    return replace(SceneSpec(seed=seed), **overrides)


def format_scene_spec(spec: SceneSpec) -> str:
    return format_fields(spec) + format_extrinsic(spec.extrinsic) + format_fields(spec.intrinsics)


def load_scene_spec(path) -> SceneSpec:
    """Read a spec file; a key left out keeps its SceneSpec default."""
    kv = load_kv_file(path)
    objects = {}
    for name, cls in (("extrinsic", Extrinsic), ("intrinsics", Intrinsics)):
        sub = {f.name: kv.pop(f.name) for f in fields(cls) if f.name in kv}
        if sub:
            objects[name] = build_record(cls, sub, path)
    return build_record(SceneSpec, kv, path, **objects)
