"""Procedural road scenes with known ground truth.

A scene lives in a road frame W (ground plane z = 0, lanes along +X).
The LiDAR sits at (0, 0, lidar_height), optionally pitched, and scans by
casting rings of rays against the analytic geometry (ground, painted
stripes, pole cylinders, clutter boxes).  Masks are rasterized from the
true geometry through the ground-truth extrinsic, never from the noisy
cloud, so image-side and cloud-side noise stay independent.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .cloud_features import GroundParallelFrame, PointCloud, ground_parallel_rotation
from .geometry import (
    Extrinsic,
    Intrinsics,
    Line2D,
    Line3D,
    Plane3D,
    angle_axis_to_matrix,
    matrix_to_angle_axis,
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


class InvalidSpec(ValueError):
    pass


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
    # pole elevation gate, so they appear in the image mask only: they
    # widen the pole-mask cost plateau without adding cloud pole lines
    # or disturbing the principal image line ranking.
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
            raise InvalidSpec("pole field lengths disagree")
        if len(self.lane_dashed) != len(self.lane_offsets):
            raise InvalidSpec("lane_dashed length disagrees with lane_offsets")
        if self.lane_width <= 0 or self.lidar_height <= 0:
            raise InvalidSpec("lane_width and lidar_height must be positive")
        if self.rings < 1 or self.azimuth_steps < 1:
            raise InvalidSpec("beam model needs rings >= 1, azimuth_steps >= 1")


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


def _on_stripe(spec: SceneSpec, x, y):
    """Boolean: do the road-frame ground coordinates fall on a painted stripe."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    hit = np.zeros(x.shape, dtype=bool)
    half = spec.lane_width / 2.0
    for off, dashed in zip(spec.lane_offsets, spec.lane_dashed):
        on = (np.abs(y - off) <= half) & (x >= spec.lane_x0) & (x <= spec.lane_x1)
        if dashed:
            on &= np.mod(x, spec.dash_period) < spec.dash_fill * spec.dash_period
        hit |= on
    for x0, x1, y0, y1 in spec.cross_stripes:
        hit |= (x >= x0) & (x <= x1) & (y >= y0) & (y <= y1)
    return hit


def generate(spec: SceneSpec):
    """Ray-cast the scene; returns (PointCloud, lane mask, pole mask, gt extrinsic)."""
    rng = np.random.default_rng(spec.seed)
    tilt = _tilt(spec)
    origin = np.array([0.0, 0.0, spec.lidar_height])

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
    dirs_l = np.stack(
        [np.cos(ee) * np.cos(aa), np.cos(ee) * np.sin(aa), np.sin(ee)], axis=-1
    ).reshape(-1, 3)
    dirs = dirs_l @ tilt.T  # ray directions in the road frame
    n = len(dirs)

    best_t = np.full(n, np.inf)
    material = np.full(n, -1, dtype=int)  # 0 ground, 1 lane, 2 pole, 3 box

    # ground plane z = 0
    dz = dirs[:, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        tg = -origin[2] / dz
    ok = (dz < -1e-9) & (tg > 0) & (tg < spec.max_range)
    best_t[ok] = tg[ok]
    gx = origin[0] + tg[ok] * dirs[ok, 0]
    gy = origin[1] + tg[ok] * dirs[ok, 1]
    material[ok] = np.where(_on_stripe(spec, gx, gy), 1, 0)

    # pole cylinders
    for (px, py), h, r in zip(spec.pole_xy, spec.pole_heights, spec.pole_radii):
        t_hit = _ray_cylinder(origin, dirs, px, py, r, 0.0, h)
        closer = t_hit < best_t
        best_t[closer] = t_hit[closer]
        material[closer] = 2

    # gantry beams (horizontal cylinders along Y)
    for gx_, gy0, gy1, gz, gr in spec.gantries:
        t_hit = _ray_gantry(origin, dirs, gx_, gy0, gy1, gz, gr)
        closer = t_hit < best_t
        best_t[closer] = t_hit[closer]
        material[closer] = 2

    # clutter boxes
    for box in spec.boxes:
        lo = np.array([box.cx - box.sx / 2, box.cy - box.sy / 2, 0.0])
        hi = np.array([box.cx + box.sx / 2, box.cy + box.sy / 2, box.sz])
        t_hit = _ray_box(origin, dirs, lo, hi)
        closer = t_hit < best_t
        best_t[closer] = t_hit[closer]
        material[closer] = 3

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


def _ray_cylinder(origin, dirs, px, py, r, z0, z1):
    """Hit parameter for rays passing within r of the axis, inf where missed.

    Poles are thin relative to the beam spacing, so the return is modeled
    at the ray's closest approach to the axis rather than the entry point
    on the surface; the sub-radius depth difference is negligible but a
    surface-entry model would bias every return toward the sensor side.
    """
    ox, oy = origin[0] - px, origin[1] - py
    dx, dy = dirs[:, 0], dirs[:, 1]
    a = dx * dx + dy * dy
    b = 2.0 * (ox * dx + oy * dy)
    c = ox * ox + oy * oy - r * r
    disc = b * b - 4.0 * a * c
    out = np.full(len(dirs), np.inf)
    ok = (disc >= 0) & (a > 1e-12)
    t1 = -b / np.where(ok, 2.0 * a, 1.0)
    z = origin[2] + t1 * dirs[:, 2]
    good = ok & (t1 > 1e-6) & (z >= z0) & (z <= z1)
    out[good] = t1[good]
    return out


def _ray_gantry(origin, dirs, gx, gy0, gy1, gz, r):
    """Horizontal cylinder along Y at (x, z); closest-approach thin-target
    model as in _ray_cylinder, inf where missed."""
    ox, oz = origin[0] - gx, origin[2] - gz
    dx, dz = dirs[:, 0], dirs[:, 2]
    a = dx * dx + dz * dz
    b = 2.0 * (ox * dx + oz * dz)
    c = ox * ox + oz * oz - r * r
    disc = b * b - 4.0 * a * c
    out = np.full(len(dirs), np.inf)
    ok = (disc >= 0) & (a > 1e-12)
    t1 = -b / np.where(ok, 2.0 * a, 1.0)
    y = origin[1] + t1 * dirs[:, 1]
    good = ok & (t1 > 1e-6) & (y >= gy0) & (y <= gy1)
    out[good] = t1[good]
    return out


def _ray_box(origin, dirs, lo, hi):
    """Slab-method ray/AABB intersection; inf where missed."""
    out = np.full(len(dirs), np.inf)
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = 1.0 / dirs
    t_lo = (lo - origin) * inv
    t_hi = (hi - origin) * inv
    tmin = np.nanmax(np.minimum(t_lo, t_hi), axis=1)
    tmax = np.nanmin(np.maximum(t_lo, t_hi), axis=1)
    good = (tmax >= tmin) & (tmin > 1e-6)
    out[good] = tmin[good]
    return out


def _project_w(spec: SceneSpec, pts_w: np.ndarray):
    """Road-frame points -> pixel coordinates and validity under the gt pose."""
    pts_l = road_to_lidar(spec, pts_w)
    p_c = pts_l @ spec.extrinsic.matrix().T + spec.extrinsic.t
    z = p_c[:, 2]
    valid = z > 1e-6
    zs = np.where(valid, z, 1.0)
    k = spec.intrinsics
    u = k.fx * p_c[:, 0] / zs + k.cx
    v = k.fy * p_c[:, 1] / zs + k.cy
    return u, v, valid


def _fill_spans(bits, u_lo, u_hi, v, valid):
    h, w = bits.shape
    iv = np.rint(v).astype(int)
    lo = np.rint(np.minimum(u_lo, u_hi)).astype(int)
    hi = np.rint(np.maximum(u_lo, u_hi)).astype(int)
    ok = valid & (iv >= 0) & (iv < h) & (hi >= 0) & (lo < w)
    lo = np.clip(lo, 0, w - 1)
    hi = np.clip(hi, 0, w - 1)
    for i in np.nonzero(ok)[0]:
        bits[iv[i], lo[i] : hi[i] + 1] = True


def _fill_spans_v(bits, v_lo, v_hi, u, valid):
    h, w = bits.shape
    iu = np.rint(u).astype(int)
    lo = np.rint(np.minimum(v_lo, v_hi)).astype(int)
    hi = np.rint(np.maximum(v_lo, v_hi)).astype(int)
    ok = valid & (iu >= 0) & (iu < w) & (hi >= 0) & (lo < h)
    lo = np.clip(lo, 0, h - 1)
    hi = np.clip(hi, 0, h - 1)
    for i in np.nonzero(ok)[0]:
        bits[lo[i] : hi[i] + 1, iu[i]] = True


def _rasterize_lanes(spec: SceneSpec) -> SemanticMask:
    k = spec.intrinsics
    bits = np.zeros((k.height, k.width), dtype=bool)
    half = spec.lane_width / 2.0
    xs = np.arange(spec.lane_x0, spec.lane_x1, 0.01)
    for off, dashed in zip(spec.lane_offsets, spec.lane_dashed):
        x = xs
        if dashed:
            x = xs[np.mod(xs, spec.dash_period) < spec.dash_fill * spec.dash_period]
        if len(x) == 0:
            continue
        center = np.column_stack([x, np.full(len(x), off), np.zeros(len(x))])
        left = center + np.array([0.0, -half, 0.0])
        right = center + np.array([0.0, half, 0.0])
        ul, vl, okl = _project_w(spec, left)
        ur, vr, okr = _project_w(spec, right)
        _fill_spans(bits, ul, ur, (vl + vr) / 2.0, okl & okr)
    for x0, x1, y0, y1 in spec.cross_stripes:
        # perpendicular bars cover few rows; dense area sampling is enough
        gx, gy = np.meshgrid(
            np.arange(x0, x1, 0.005), np.arange(y0, y1, 0.005), indexing="ij"
        )
        pts = np.column_stack([gx.ravel(), gy.ravel(), np.zeros(gx.size)])
        u, v, ok = _project_w(spec, pts)
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
        u, v, ok = _project_w(spec, axis)
        pts_l = road_to_lidar(spec, axis)
        depth = (pts_l @ spec.extrinsic.matrix().T + spec.extrinsic.t)[:, 2]
        r_px = k.fx * r / np.where(ok, depth, 1.0)
        _fill_spans(bits, u - r_px, u + r_px, v, ok)
    for gx_, gy0, gy1, gz, gr in spec.gantries:
        ys = np.arange(gy0, gy1, 0.01)
        axis = np.column_stack([np.full(len(ys), gx_), ys, np.full(len(ys), gz)])
        u, v, ok = _project_w(spec, axis)
        pts_l = road_to_lidar(spec, axis)
        depth = (pts_l @ spec.extrinsic.matrix().T + spec.extrinsic.t)[:, 2]
        r_px = k.fy * gr / np.where(ok, depth, 1.0)
        _fill_spans_v(bits, v - r_px, v + r_px, u, ok)
    return SemanticMask(cls="pole", bits=bits)


def true_lines(spec: SceneSpec):
    """Analytic center-lines (LiDAR frame) and their exact image projections.

    Returns (lane Line3D list, pole Line3D list, lane Line2D list,
    pole Line2D list), ordered as in the spec fields.
    """
    lanes3d, poles3d, lanes2d, poles2d = [], [], [], []
    for off in spec.lane_offsets:
        p0 = road_to_lidar(spec, np.array([spec.lane_x0, off, 0.0]))
        p1 = road_to_lidar(spec, np.array([spec.lane_x1, off, 0.0]))
        line = Line3D((p0 + p1) / 2.0, p1 - p0)
        lanes3d.append(line)
        lanes2d.append(_project_line(spec, p0, p1))
    for (px, py), h in zip(spec.pole_xy, spec.pole_heights):
        p0 = road_to_lidar(spec, np.array([px, py, 0.0]))
        p1 = road_to_lidar(spec, np.array([px, py, h]))
        line = Line3D((p0 + p1) / 2.0, p1 - p0)
        poles3d.append(line)
        poles2d.append(_project_line(spec, p0, p1))
    return lanes3d, poles3d, lanes2d, poles2d


def _project_line(spec: SceneSpec, p0_l, p1_l) -> Line2D:
    e, k = spec.extrinsic, spec.intrinsics
    q0 = e.apply(p0_l)
    q1 = e.apply(p1_l)
    uv0 = np.array([k.fx * q0[0] / q0[2] + k.cx, k.fy * q0[1] / q0[2] + k.cy])
    uv1 = np.array([k.fx * q1[0] / q1[2] + k.cx, k.fy * q1[1] / q1[2] + k.cy])
    return Line2D.through(uv0, uv1)


def true_frame(spec: SceneSpec) -> GroundParallelFrame:
    """Ground-parallel frame built from the true plane and first lane."""
    lanes3d, _, _, _ = true_lines(spec)
    return ground_parallel_rotation(ground_plane_lidar(spec), lanes3d[0])


def random_spec(seed: int, noise_sigma: float | None = None) -> SceneSpec:
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
        noise_sigma=noise_sigma if noise_sigma is not None else 0.02,
        extrinsic=Extrinsic(matrix_to_angle_axis(R), t),
        seed=seed,
    )


def canonical_spec(seed: int = 0, **overrides) -> SceneSpec:
    """The default scene used throughout the tests: three solid lanes at
    uneven offsets, a field of painted ground cells, and three sign poles
    (each with a shorter image-only companion) plus a gantry stub."""
    return replace(SceneSpec(seed=seed), **overrides)


_SCALAR_FIELDS = {
    "lane_x0": float,
    "lane_x1": float,
    "lane_width": float,
    "dash_period": float,
    "dash_fill": float,
    "lane_intensity": float,
    "ground_intensity": float,
    "pole_intensity": float,
    "box_intensity": float,
    "lidar_height": float,
    "ground_tilt_deg": float,
    "rings": int,
    "azimuth_steps": int,
    "elevation_min_deg": float,
    "elevation_max_deg": float,
    "max_range": float,
    "noise_sigma": float,
    "intensity_sigma": float,
    "seed": int,
}


def format_scene_spec(spec: SceneSpec) -> str:
    k = spec.intrinsics
    lines = [
        "lane_offsets = " + " ".join("%.17g" % v for v in spec.lane_offsets),
        "lane_dashed = " + " ".join("1" if d else "0" for d in spec.lane_dashed),
        "pole_xy = " + " ".join("%.17g:%.17g" % xy for xy in spec.pole_xy),
        "pole_heights = " + " ".join("%.17g" % v for v in spec.pole_heights),
        "pole_radii = " + " ".join("%.17g" % v for v in spec.pole_radii),
        "boxes = "
        + " ".join(
            "%.17g:%.17g:%.17g:%.17g:%.17g" % (b.cx, b.cy, b.sx, b.sy, b.sz)
            for b in spec.boxes
        ),
        "cross_stripes = "
        + " ".join("%.17g:%.17g:%.17g:%.17g" % s for s in spec.cross_stripes),
        "gantries = "
        + " ".join("%.17g:%.17g:%.17g:%.17g:%.17g" % g for g in spec.gantries),
        'r = "%.17g %.17g %.17g"' % tuple(spec.extrinsic.r),
        't = "%.17g %.17g %.17g"' % tuple(spec.extrinsic.t),
        "fx = %.17g" % k.fx,
        "fy = %.17g" % k.fy,
        "cx = %.17g" % k.cx,
        "cy = %.17g" % k.cy,
        "width = %d" % k.width,
        "height = %d" % k.height,
    ]
    for name, typ in _SCALAR_FIELDS.items():
        v = getattr(spec, name)
        lines.append(f"{name} = " + ("%d" % v if typ is int else "%.17g" % v))
    return "\n".join(lines) + "\n"


def load_scene_spec(path) -> SceneSpec:
    from .errors import ParseError
    from .fileio import load_kv_file

    kv = load_kv_file(path)
    known = (
        set(_SCALAR_FIELDS)
        | {
            "lane_offsets",
            "lane_dashed",
            "pole_xy",
            "pole_heights",
            "pole_radii",
            "boxes",
            "cross_stripes",
            "gantries",
        }
        | {"r", "t", "fx", "fy", "cx", "cy", "width", "height"}
    )
    unknown = set(kv) - known
    if unknown:
        raise ParseError(f"{path}: unknown scene keys {sorted(unknown)}")
    kwargs = {}
    try:
        for name, typ in _SCALAR_FIELDS.items():
            if name in kv:
                kwargs[name] = typ(kv[name])
        if "lane_offsets" in kv:
            kwargs["lane_offsets"] = tuple(float(v) for v in kv["lane_offsets"].split())
        if "lane_dashed" in kv:
            kwargs["lane_dashed"] = tuple(v == "1" for v in kv["lane_dashed"].split())
        if "pole_xy" in kv:
            kwargs["pole_xy"] = tuple(
                tuple(float(c) for c in item.split(":")) for item in kv["pole_xy"].split()
            )
        if "pole_heights" in kv:
            kwargs["pole_heights"] = tuple(float(v) for v in kv["pole_heights"].split())
        if "pole_radii" in kv:
            kwargs["pole_radii"] = tuple(float(v) for v in kv["pole_radii"].split())
        if "boxes" in kv:
            kwargs["boxes"] = tuple(
                Box(*(float(c) for c in item.split(":"))) for item in kv["boxes"].split()
            )
        if "cross_stripes" in kv:
            kwargs["cross_stripes"] = tuple(
                tuple(float(c) for c in item.split(":"))
                for item in kv["cross_stripes"].split()
            )
        if "gantries" in kv:
            kwargs["gantries"] = tuple(
                tuple(float(c) for c in item.split(":"))
                for item in kv["gantries"].split()
            )
        if "r" in kv or "t" in kv:
            r = [float(v) for v in kv["r"].replace('"', "").split()]
            t = [float(v) for v in kv["t"].replace('"', "").split()]
            kwargs["extrinsic"] = Extrinsic(np.array(r), np.array(t))
        intr_keys = {"fx", "fy", "cx", "cy", "width", "height"}
        if intr_keys & set(kv):
            kwargs["intrinsics"] = Intrinsics(
                fx=float(kv["fx"]),
                fy=float(kv["fy"]),
                cx=float(kv["cx"]),
                cy=float(kv["cy"]),
                width=int(kv["width"]),
                height=int(kv["height"]),
            )
    except (KeyError, ValueError, TypeError) as e:
        raise ParseError(f"{path}: bad scene spec ({e})") from e
    try:
        return SceneSpec(**kwargs)
    except InvalidSpec as e:
        raise ParseError(f"{path}: {e}") from e
