"""Point-cloud features: ground plane, lane points, pole points, 3D lines.

The extraction chain: iterated least-squares ground plane, seeded from
the densest height bin -> intensity-thresholded lane points filtered by
fitted lines -> ground-parallel frame from the plane normal and a
reference lane -> elevation-grid pole points -> per-cluster pole lines.
The plane draws no random number; the RANSAC line fits draw from the
seed, so everything is deterministic for a fixed seed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import PipelineConfig
from .errors import (
    DegenerateFrame,
    InsufficientLines,
    NoGroundPlane,
    NoLanePoints,
    NoPolePoints,
)
from .geometry import Line3D, Plane3D, _line_distance, right_singular_vectors

# The P3L direction gates in the ground-parallel frame G: a lane line runs
# within 2 deg of X, a pole line within 15 deg of Z.  FeatureSetCloud holds
# only lines that pass them, re-oriented along +X and +Z.
LANE_COS = math.cos(math.radians(2.0))
POLE_COS = math.cos(math.radians(15.0))

# The ground fit's seed bin height and reach, in meters, and its passes.
_SEED_BIN = 0.1
_SEED_REACH = 0.3
_PLANE_PASSES = 3


@dataclass(frozen=True, eq=False)
class PointCloud:
    xyz: np.ndarray        # (N, 3) meters
    intensity: np.ndarray  # (N,) reflectance >= 0

    def __post_init__(self):
        # copies of its own: a view would move with, and pin, the caller's array
        xyz = np.array(self.xyz, dtype=float, order="C").reshape(-1, 3)
        inten = np.array(self.intensity, dtype=float, order="C").reshape(-1)
        if len(xyz) != len(inten):
            raise ValueError("xyz / intensity length mismatch")
        if not (np.isfinite(xyz).all() and np.isfinite(inten).all()):
            raise ValueError("cloud contains non-finite values")
        xyz.setflags(write=False)
        inten.setflags(write=False)
        object.__setattr__(self, "xyz", xyz)
        object.__setattr__(self, "intensity", inten)

    def __len__(self):
        return len(self.xyz)

    @staticmethod
    def from_array(arr: np.ndarray) -> "PointCloud":
        return PointCloud(arr[:, :3], arr[:, 3])

    def to_array(self) -> np.ndarray:
        return np.column_stack([self.xyz, self.intensity])


@dataclass(frozen=True, eq=False)
class ScoredLine3D:
    line: Line3D
    inliers: np.ndarray  # indices into the point array the fit consumed


@dataclass(frozen=True, eq=False)
class FeatureSetCloud:
    """The cost's point sets, the P3L lines (Line3Ds along +X and +Z of
    G) and frame, the rotation R_GL into G: p @ frame.T is p in G."""

    lane_points: np.ndarray
    pole_points: np.ndarray
    lane_lines: list[Line3D]
    pole_lines: list[Line3D]
    frame: np.ndarray


def fit_ground_plane(cloud: PointCloud, cfg: PipelineConfig):
    """(plane, ground): the ground plane, normal oriented towards +Z, and
    the bool mask of the points within cfg.plane_inlier_band of it.

    Iterated least squares with no random draw (Zermas et al., ICRA
    2017): the seed set is the points within _SEED_REACH of the centre of
    the first fullest _SEED_BIN-high bin of z; each of _PLANE_PASSES
    passes fits the plane of its set and hands the points in its band on.
    A pass whose band set is the set it fitted ends the fit: the next pass
    would fit the same points to the same bits.
    """
    pts = cloud.xyz
    n = len(pts)
    if n < 1000:
        raise NoGroundPlane(f"cloud too small ({n} points, need 1000)")
    # np.compress keeps each pass's rows contiguous (xyz[:, mask] does not):
    # a mean over strided columns is many times slower
    xyz = np.ascontiguousarray(pts.T)
    z, lo = xyz[2], xyz[2].min()
    off = z - lo  # one buffer: each z's bin, then its offset from the seed bin
    off /= _SEED_BIN
    bins, counts = np.unique(np.floor(off, out=off), return_counts=True)
    np.subtract(z, lo + (bins[np.argmax(counts)] + 0.5) * _SEED_BIN, out=off)
    inside = np.abs(off, out=off) <= _SEED_REACH
    for _ in range(_PLANE_PASSES):
        plane = _lsq_plane(xyz, inside)
        if plane is None:
            raise NoGroundPlane(f"best plane has 0/{n} inliers (the points span no plane)")
        off = plane.signed_distance(pts)
        band = np.abs(off, out=off) <= cfg.plane_inlier_band
        if np.array_equal(band, inside):
            break
        inside = band
    count = np.count_nonzero(inside)
    if count < cfg.plane_min_inlier_ratio * n:
        raise NoGroundPlane(
            f"best plane has {count}/{n} inliers "
            f"(< {cfg.plane_min_inlier_ratio:.0%})"
        )
    return plane, inside


def _lsq_plane(xyz: np.ndarray, inside: np.ndarray):
    """The least-squares plane of the columns of xyz (3, N) where inside:
    through their centroid, normal along the scatter's eigenvector of
    least eigenvalue, oriented towards +Z.  None for fewer than 3 points
    or collinear ones, which every plane through their line holds."""
    c = np.compress(inside, xyz, axis=1)
    if c.shape[1] < 3:
        return None
    centroid = c.mean(axis=1)
    c -= centroid[:, None]
    w, v = np.linalg.eigh(c @ c.T)
    if not w[1] > 1e-9 * w[2]:
        return None
    normal = v[:, 0] if v[2, 0] >= 0 else -v[:, 0]
    return Plane3D(normal, -normal @ centroid)


def ransac_line3d(points: np.ndarray, seed: int, cfg: PipelineConfig) -> list[ScoredLine3D]:
    """Greedy sequential RANSAC line fitting.

    Fits the best-supported line (cfg.line_trials point pairs, inliers
    within cfg.line_inlier_tol), removes its inliers, repeats while a line
    with >= cfg.line_min_inliers support exists.  Each round draws the
    point pairs of all its trials in one call, which yields the same
    stream as one draw per trial in trial order, and counts each
    hypothesis's inliers with _best_hypothesis; the first trial with the
    most inliers wins.  Each line is refined by a principal-axis
    least-squares fit over its inliers, so collinear dashed segments
    merge into a single line.  Fewer than 2 points give no line.
    """
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    return list(_fit_lines(points, seed, cfg))


def _fit_lines(points: np.ndarray, seed: int, cfg: PipelineConfig):
    """The lines of ransac_line3d, one round at a time, so a caller that
    needs only the first line fits only that one."""
    inlier_tol, min_inliers = cfg.line_inlier_tol, cfg.line_min_inliers
    rng = np.random.default_rng(seed)
    pool = np.arange(len(points))
    while len(pool) >= max(2, min_inliers):
        sub = points[pool]
        pairs = rng.integers(0, len(pool), size=(cfg.line_trials, 2))
        best_line, inl = _best_hypothesis(sub, pairs, inlier_tol)
        if best_line is None or np.count_nonzero(inl) < min_inliers:
            return
        refined = _fit_line_lsq(sub[inl])
        inl = refined.distance(sub) <= inlier_tol
        if int(inl.sum()) < min_inliers:
            return
        yield ScoredLine3D(line=refined, inliers=pool[inl])
        pool = pool[~inl]


# Lines x points per block when RANSAC trials are scored, so the block's
# temporaries stay a few MB whatever the point count: one (b, 10) @ (10, N)
# matmul gives the squared distances of the N points from the block's b lines.
_SCORE_BLOCK = 1 << 16


def _best_hypothesis(sub: np.ndarray, pairs: np.ndarray, inlier_tol: float):
    """(line, inlier mask over sub) of the first trial pair with the most
    inliers.

    Pairs that repeat an index or join coincident points are skipped;
    (None, None) if no pair is left.  Directions are normalised as Line3D
    does it (divide by the norm, then renormalise), with the same row
    norms, so each hypothesis has the bits of its per-trial Line3D.

    Each count, and the winner's mask, is that of Line3D.distance(sub)
    <= inlier_tol, without that distance for most points.  Each point's
    squared distance r from each line is a quadratic form in the point,
    one matmul per block of lines (_quadric).  Let s = max|sub| +
    max|anchors|.  r sums 10 terms, each at most about 3 s^2, whose
    coefficients, monomials, products and sum each round by a few eps; the square S of Line3D.distance rounds
    by a few eps |p - a|^2 <= 12 eps s^2.  So r and S differ by at most a
    few hundred eps s^2 (about 1e-13 s^2), and delta = 1e-12 (1 + 3 s^2)
    is over 10 times that: a point with r <= tol^2 - delta is an inlier,
    one with r > tol^2 + delta is not, and the few points in between are
    decided by Line3D.distance's own formula.
    """
    i, j = pairs[:, 0], pairs[:, 1]
    d = sub[j] - sub[i]
    nd = _row_norms(d)
    ok = (i != j) & ~(nd < 1e-9)
    if not ok.any():
        return None, None
    anchors = sub[i[ok]]
    unit = d[ok] / nd[ok, None]
    dirs = unit / _row_norms(unit)[:, None]
    coef, mono = _quadric(sub, anchors, dirs)
    xyz = mono[6:9]
    scale = np.abs(sub).max() + np.abs(anchors).max()
    delta = 1e-12 * (1.0 + 3.0 * scale * scale)
    tol2 = inlier_tol * inlier_tol
    lo, hi = tol2 - delta, tol2 + delta

    def inliers(r, line):
        # the rule for one line's row r of squared distances
        inl = r <= lo
        band = np.flatnonzero((r > lo) & (r <= hi))
        if len(band):
            dist = _line_distances(xyz[:, band], anchors[line:line + 1], dirs[line:line + 1])
            inl[band] = dist[0] <= inlier_tol
        return inl

    best, most, best_inliers = -1, -1, None
    step = max(1, _SCORE_BLOCK // len(sub))
    for k in range(0, len(dirs), step):
        r = coef[k:k + step] @ mono
        inside = np.count_nonzero(r <= lo, axis=1)
        if np.count_nonzero(r <= hi) > inside.sum():  # a point in the band
            near = np.count_nonzero(r <= hi, axis=1)
            for row in np.flatnonzero(near > inside):
                inside[row] = np.count_nonzero(inliers(r[row], k + row))
        row = int(np.argmax(inside))
        if inside[row] > most:  # first best: a later tie does not win
            best, most = k + row, inside[row]
            best_inliers = inliers(r[row], best)
    return Line3D(anchors[best], unit[best]), best_inliers


def _quadric(sub: np.ndarray, anchors: np.ndarray, dirs: np.ndarray):
    """(L, 10) coefficients of the L lines through anchors along unit
    dirs and (10, N) monomials x^2, y^2, z^2, xy, xz, yz, x, y, z, 1 of
    the points sub (N, 3), so that coef @ mono holds each point's squared
    distance |p - a|^2 - ((p - a).d)^2 = p'Pp - 2 p'Pa + a'Pa, P = I - dd',
    from each line.  Rows 6:9 of mono are the points' coordinates."""
    mono = np.empty((10, len(sub)))
    xyz = mono[6:9]
    xyz[...] = sub.T
    np.multiply(xyz, xyz, out=mono[:3])
    np.multiply(xyz[0], xyz[1:], out=mono[3:5])
    np.multiply(xyz[1], xyz[2], out=mono[5])
    mono[9] = 1.0
    proj = np.eye(3) - dirs[:, :, None] * dirs[:, None, :]
    pa = (proj @ anchors[:, :, None])[:, :, 0]
    coef = np.empty((len(dirs), 10))
    coef[:, :3] = proj[:, [0, 1, 2], [0, 1, 2]]
    coef[:, 3:6] = 2.0 * proj[:, [0, 0, 1], [1, 2, 2]]
    coef[:, 6:9] = -2.0 * pa
    coef[:, 9] = (anchors[:, None, :] @ pa[:, :, None])[:, 0, 0]
    return coef, mono


def _row_norms(v: np.ndarray) -> np.ndarray:
    """np.linalg.norm of each row of v, bit for bit: a 1-D norm and a
    vector @ vector matmul both reduce through the same BLAS dot, where
    norm(v, axis=1) sums in another order."""
    return np.sqrt(np.matmul(v[:, None, :], v[:, :, None])[:, 0, 0])


def _line_distances(xyz: np.ndarray, anchors: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """(L, N) distances of the points xyz (3, N) to the L lines through
    anchors (L, 3) along unit dirs (L, 3), equal to Line3D.distance."""
    q = tuple(c - a[:, None] for c, a in zip(xyz, anchors.T))
    return _line_distance(q, dirs.T[:, :, None])


def _near_lines(pts: np.ndarray, lines: list[ScoredLine3D], cfg: PipelineConfig) -> np.ndarray:
    """Mask of the points (N, 3) within cfg.lane_dist_max of a fitted line."""
    anchors = np.stack([s.line.point for s in lines])
    dirs = np.stack([s.line.direction for s in lines])
    return _line_distances(pts.T, anchors, dirs).min(axis=0) < cfg.lane_dist_max


def _fit_line_lsq(pts: np.ndarray) -> Line3D:
    """Centroid + principal axis, direction sign canonicalized."""
    centroid = pts.mean(axis=0)
    d = right_singular_vectors(pts - centroid)[0]
    k = int(np.argmax(np.abs(d)))
    if d[k] < 0:
        d = -d
    return Line3D(centroid, d)


def extract_lane_points(
    ground: np.ndarray, cloud: PointCloud, seed: int, cfg: PipelineConfig
) -> np.ndarray:
    """Lane points (M, 3): the ground points (bool mask) brighter than
    the ground's mean intensity + cfg.intensity_sigma_scale std, then
    those within cfg.lane_dist_max of a line fitted to them."""
    inten = cloud.intensity[ground]
    thr = inten.mean() + cfg.intensity_sigma_scale * inten.std()
    pts = cloud.xyz[ground & (cloud.intensity > thr)]
    lines = ransac_line3d(pts, seed, cfg)
    if not lines:
        raise NoLanePoints("no line structure among high-intensity points")
    keep = pts[_near_lines(pts, lines, cfg)]
    if len(keep) < cfg.min_feature_points:
        raise NoLanePoints(f"only {len(keep)} lane points survive the line filter")
    return keep


def ground_parallel_rotation(plane: Plane3D, reference_lane: Line3D) -> np.ndarray:
    """R_GL, the read-only rotation from the LiDAR frame into the ground-
    parallel frame G (same origin): row 2 is the ground normal, row 0 the
    reference lane direction projected onto the plane."""
    z = plane.normal
    d = reference_lane.direction
    if abs(float(d @ z)) >= math.cos(math.radians(5.0)):
        raise DegenerateFrame("lane direction within 5 deg of the plane normal")
    x = d - (d @ z) * z
    x = x / np.linalg.norm(x)
    y = np.cross(z, x)
    R = np.stack([x, y, z])
    R.setflags(write=False)
    return R


def extract_pole_points(
    ground: np.ndarray,
    cloud: PointCloud,
    frame: np.ndarray,
    cfg: PipelineConfig,
):
    """(points, labels): the pole points (M, 3) and a cluster label per point.

    The points off the ground mask are rotated into the ground-parallel
    frame, binned on an x-y grid, and only cells whose maximum elevation
    clears pole_h1 survive; near-ground points below pole_h0 are dropped.
    The labels are the 8-connected components of the surviving cells.
    """
    pts = cloud.xyz[~ground]
    g = pts @ frame.T
    in_grid = (
        (g[:, 0] >= cfg.grid_x_min)
        & (g[:, 0] < cfg.grid_x_max)
        & (g[:, 1] >= cfg.grid_y_min)
        & (g[:, 1] < cfg.grid_y_max)
    )
    pts, g = pts[in_grid], g[in_grid]
    if len(pts) == 0:
        raise NoPolePoints("no object points inside the pole grid")
    nx = int(math.ceil((cfg.grid_x_max - cfg.grid_x_min) / cfg.grid_cell))
    cx = ((g[:, 0] - cfg.grid_x_min) / cfg.grid_cell).astype(int)
    cy = ((g[:, 1] - cfg.grid_y_min) / cfg.grid_cell).astype(int)
    cell = cy * nx + cx
    # per-cell maximum over the occupied cells: memory follows the points
    occupied, slot = np.unique(cell, return_inverse=True)
    max_z = np.full(len(occupied), -np.inf)
    np.maximum.at(max_z, slot, g[:, 2])
    keep = (max_z[slot] > cfg.pole_h1) & (g[:, 2] > cfg.pole_h0)
    if int(keep.sum()) < cfg.min_feature_points:
        raise NoPolePoints(f"only {int(keep.sum())} pole points survive")
    return pts[keep], cluster_cells(cell[keep], nx)


def cluster_cells(cells: np.ndarray, nx: int) -> np.ndarray:
    """Label points by 8-connected components of their grid cells."""
    unique = np.unique(cells)
    cell_set = set(int(c) for c in unique)
    label_of: dict[int, int] = {}
    next_label = 0
    for c in unique:
        c = int(c)
        if c in label_of:
            continue
        stack = [c]
        label_of[c] = next_label
        while stack:
            cur = stack.pop()
            x, y = cur % nx, cur // nx
            for dy in (-1, 0, 1):
                for dx in (-1, 0, 1):
                    nb = (y + dy) * nx + (x + dx)
                    if nb in cell_set and nb not in label_of and 0 <= x + dx < nx:
                        label_of[nb] = next_label
                        stack.append(nb)
        next_label += 1
    return np.array([label_of[int(c)] for c in cells])


def extract_cloud_features(cloud: PointCloud, seed: int, cfg: PipelineConfig) -> FeatureSetCloud:
    """Run the full point-cloud extraction chain."""
    plane, ground = fit_ground_plane(cloud, cfg)
    lane_pts = extract_lane_points(ground, cloud, seed + 1, cfg)
    lane_lines = ransac_line3d(lane_pts, seed + 2, cfg)
    if not lane_lines:
        raise InsufficientLines("no lane line could be fitted")
    # the dominant paint line sets the driving direction; span keeps short
    # perpendicular markings (stop lines, crosswalk bars) from winning, and
    # the inlier count keeps sparse diagonals that graze two separate lane
    # corridors from out-ranking a dense true lane of similar extent
    reference = max(
        lane_lines,
        key=lambda s: len(s.inliers) * _inlier_span(s, lane_pts),
    )
    frame = ground_parallel_rotation(plane, reference.line)
    ground_lines = [
        s for s in lane_lines if abs((s.line.direction @ frame.T)[2]) < 0.1
    ]
    # cost points come from any ground-parallel paint line; points that
    # only supported rejected lines (e.g. bright clutter edges) are
    # dropped so they cannot bias the alignment cost
    if ground_lines:
        lane_pts = lane_pts[_near_lines(lane_pts, ground_lines, cfg)]
    # P3L uses only the lines that follow the driving direction; the 2 deg
    # gate also rejects diagonal artifacts across dashes
    lane_lines = list(_canonical_lines(lane_lines, frame, 0, LANE_COS))
    pole_pts, labels = extract_pole_points(ground, cloud, frame, cfg)
    pole_lines = []
    for lab in range(labels.max() + 1):
        sub = pole_pts[labels == lab]
        if len(sub) < cfg.line_min_inliers:
            continue
        # a gantry beam can share the cluster: keep its first upright line
        upright = _canonical_lines(_fit_lines(sub, seed + 3 + lab, cfg), frame, 2, POLE_COS)
        first = next(upright, None)
        if first is not None:
            pole_lines.append(first)
    return FeatureSetCloud(
        lane_points=lane_pts,
        pole_points=pole_pts,
        lane_lines=lane_lines,
        pole_lines=pole_lines,
        frame=frame,
    )


def _inlier_span(s: ScoredLine3D, pts: np.ndarray) -> float:
    proj = pts[s.inliers] @ s.line.direction
    return float(proj.max() - proj.min())


def _canonical_lines(lines, frame, axis: int, min_cos: float):
    """The Line3Ds of lines within acos(min_cos) of axis `axis` of G,
    re-oriented along its + direction, one at a time as lines yields them."""
    for s in lines:
        line = s.line
        c = (line.direction @ frame.T)[axis]
        if abs(c) < min_cos:
            continue
        if c < 0:
            line = Line3D(line.point, -line.direction)
        yield line
