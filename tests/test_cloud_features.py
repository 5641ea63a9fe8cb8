"""Ground segmentation, lane/pole extraction, and 3D line fitting."""
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linecalib import cloud_features
from linecalib.cloud_features import (
    LANE_COS,
    POLE_COS,
    PointCloud,
    ScoredLine3D,
    _best_hypothesis,
    _canonical_lines,
    _fit_line_lsq,
    _row_norms,
    cluster_cells,
    extract_cloud_features,
    extract_lane_points,
    extract_pole_points,
    fit_ground_plane,
    ground_parallel_rotation,
    ransac_line3d,
)
from linecalib.config import PipelineConfig
from linecalib.errors import DegenerateFrame, NoGroundPlane
from linecalib.geometry import Line3D, Plane3D, angle_axis_to_matrix
from linecalib.synth import canonical_spec, generate, ground_plane_lidar, random_spec
from test_coarse import FIVE_LANES

MANY = settings(max_examples=1000, deadline=None)
CFG = PipelineConfig()


def line_cfg(tol, trials=100, min_inliers=20):
    """The config of a line fit with these RANSAC thresholds."""
    return PipelineConfig(line_inlier_tol=tol, line_trials=trials, line_min_inliers=min_inliers)


def flat_cloud(rng, n=2000, tilt=0.0):
    x = rng.uniform(2, 40, n)
    y = rng.uniform(-10, 10, n)
    z = x * math.tan(tilt) + rng.normal(0, 0.02, n) - 1.7
    inten = rng.uniform(0, 0.3, n)
    return PointCloud(np.stack([x, y, z], axis=1), inten)


def test_pointcloud_validation():
    with pytest.raises(ValueError):
        PointCloud(np.zeros((3, 3)), np.zeros(2))
    with pytest.raises(ValueError):
        PointCloud(np.array([[np.nan, 0, 0]]), np.zeros(1))


def test_ground_plane_partition_and_determinism():
    rng = np.random.default_rng(5)
    cloud = flat_cloud(rng)
    plane1, ground1 = fit_ground_plane(cloud, CFG)
    plane2, ground2 = fit_ground_plane(cloud, CFG)
    assert np.array_equal(plane1.normal, plane2.normal) and plane1.d == plane2.d
    assert np.array_equal(ground1, ground2)
    # exact partition: one ground-or-object flag per point
    assert ground1.dtype == bool and ground1.shape == (len(cloud),)
    # normal points up
    assert plane1.normal[2] > 0.9


def test_ground_plane_inliers_monotone_in_band():
    rng = np.random.default_rng(6)
    cloud = flat_cloud(rng)
    cfg_narrow = PipelineConfig(plane_inlier_band=0.05)
    cfg_wide = PipelineConfig(plane_inlier_band=0.2)
    n_narrow = np.count_nonzero(fit_ground_plane(cloud, cfg_narrow)[1])
    n_wide = np.count_nonzero(fit_ground_plane(cloud, cfg_wide)[1])
    assert n_wide >= n_narrow


def test_ground_plane_needs_enough_points():
    rng = np.random.default_rng(7)
    cloud = flat_cloud(rng, n=500)
    with pytest.raises(NoGroundPlane):
        fit_ground_plane(cloud, CFG)


def _reference_ground_plane(cloud, cfg):
    """The ground fit written out pass by pass: the seed set is the points
    within 0.3 m of the centre of the first fullest 0.1 m bin of z, found
    by a loop over the bins; then three least-squares fits (the centroid,
    the scatter's eigenvector of least eigenvalue, turned towards +Z), each
    on the band of the fit before; then the inlier-ratio gate."""
    pts, n, band = cloud.xyz, len(cloud), cfg.plane_inlier_band
    z = pts[:, 2]
    lo = float(z.min())
    index = [math.floor((h - lo) / 0.1) for h in z.tolist()]
    fullest, most = 0, 0
    for k in range(max(index) + 1):
        count = index.count(k)
        if count > most:
            fullest, most = k, count
    sub = pts[np.abs(z - (lo + (fullest + 0.5) * 0.1)) <= 0.3]
    for _ in range(3):
        x = np.ascontiguousarray(sub.T)
        centroid = x.mean(axis=1)
        c = x - centroid[:, None]
        normal = np.linalg.eigh(c @ c.T)[1][:, 0]
        if normal[2] < 0:
            normal = -normal
        plane = Plane3D(normal, -normal @ centroid)
        ground = np.abs(plane.signed_distance(pts)) <= band
        sub = pts[ground]
    if ground.sum() < cfg.plane_min_inlier_ratio * n:
        raise NoGroundPlane(f"best plane has {ground.sum()}/{n} inliers")
    return plane, ground


def assert_same_segmentation(got, ref):
    """The same plane and the same ground mask (~ground: the objects)."""
    (plane, ground), (ref_plane, ref_ground) = got, ref
    assert np.array_equal(plane.normal, ref_plane.normal)
    assert plane.d == ref_plane.d
    assert ground.dtype == bool and np.array_equal(ground, ref_ground)


def _road_like_cloud(rng, n_ground=4000, n_objects=300, tilt=0.0):
    """A noisy ground plane plus boxes and poles standing on it."""
    ground = flat_cloud(rng, n=n_ground, tilt=tilt).xyz
    base = rng.uniform((2, -10, 0), (40, 10, 0), (n_objects, 3))
    up = rng.uniform((-0.5, -0.5, 0.15), (0.5, 0.5, 3.0), (n_objects, 3))
    objects = base + up + np.array([0.0, 0.0, -1.7])
    xyz = np.concatenate([ground, objects])
    return PointCloud(xyz, np.zeros(len(xyz)))


def _angle_deg(a, b):
    return math.degrees(math.acos(min(1.0, abs(float(a @ b)))))


@pytest.mark.parametrize("cloud_seed, tilt", [(0, 0.0), (3, 0.05), (5, 0.0)])
def test_ground_plane_matches_the_per_pass_reference(cloud_seed, tilt):
    """The fit is the per-pass reference's, bit for bit: on a plane alone
    and with objects standing on it."""
    rng = np.random.default_rng(cloud_seed)
    for cloud in (flat_cloud(rng, tilt=tilt), _road_like_cloud(rng, tilt=tilt)):
        got = fit_ground_plane(cloud, CFG)
        assert_same_segmentation(got, _reference_ground_plane(cloud, CFG))
        assert _angle_deg(got[0].normal, [-math.sin(tilt), 0.0, math.cos(tilt)]) < 0.2


def test_ground_plane_on_a_weak_plane():
    """About 30% plane points in uniform scatter that reaches 10 m below
    the plane: the densest height bin still seeds the plane, bit for bit
    the reference's."""
    rng = np.random.default_rng(11)
    plane = flat_cloud(rng, n=900)
    scatter = rng.uniform((2, -10, -11.7), (40, 10, 8.3), (2100, 3))
    cloud = PointCloud(np.concatenate([plane.xyz, scatter]), np.zeros(3000))
    got = fit_ground_plane(cloud, CFG)
    assert 0.25 < got[1].sum() / len(cloud) < 0.32
    assert_same_segmentation(got, _reference_ground_plane(cloud, CFG))


def test_ground_plane_on_an_all_inlier_cloud():
    """Every point within the band of the plane: all of them are ground."""
    rng = np.random.default_rng(8)
    xyz = np.column_stack([rng.uniform(2, 40, 2000), rng.uniform(-10, 10, 2000),
                           np.full(2000, -1.7)])
    cloud = PointCloud(xyz, np.zeros(2000))
    got = fit_ground_plane(cloud, CFG)
    assert_same_segmentation(got, _reference_ground_plane(cloud, CFG))
    assert got[1].all()


@pytest.mark.parametrize("overrides", [
    {}, {"ground_tilt_deg": 10.0}, {"ground_tilt_deg": 20.0}, {"rings": 32},
])
def test_ground_plane_is_the_true_plane(overrides):
    """Within 0.01 deg of the scene's true ground plane, tilted or sparse."""
    spec = canonical_spec(0, **overrides)
    plane, ground = fit_ground_plane(generate(spec)[0], CFG)
    assert _angle_deg(plane.normal, ground_plane_lidar(spec).normal) < 0.01


def test_ground_plane_ignores_a_ditch_below_the_road():
    """1,500 points 0.5-3 m below the road, where the lowest points lie:
    the height-bin seed still finds the road."""
    rng = np.random.default_rng(16)
    road = _road_like_cloud(rng).xyz
    ditch = rng.uniform((2, -10, -4.7), (40, 10, -2.2), (1500, 3))
    cloud = PointCloud(np.concatenate([road, ditch]), np.zeros(len(road) + 1500))
    plane, ground = fit_ground_plane(cloud, CFG)
    assert _angle_deg(plane.normal, [0.0, 0.0, 1.0]) < 0.01
    assert not ground[len(road):].any()


def test_ground_plane_rejects_a_cloud_without_a_dominant_plane():
    rng = np.random.default_rng(12)
    cloud = PointCloud(rng.uniform(-10, 10, (3000, 3)), np.zeros(3000))
    with pytest.raises(NoGroundPlane, match="inliers"):
        fit_ground_plane(cloud, CFG)


def test_ground_plane_between_two_layers():
    """Two equal layers 0.25 m apart both fall in the seed set; their
    least-squares plane lies midway, farther than the band from every
    point, so the next pass has no point to fit."""
    xy = np.random.default_rng(17).uniform((2, -10), (40, 10), (1000, 2))
    xyz = np.concatenate([np.column_stack([xy, np.full(1000, z)]) for z in (0.0, 0.25)])
    with pytest.raises(NoGroundPlane, match=r"best plane has 0/2000 inliers"):
        fit_ground_plane(PointCloud(xyz, np.zeros(2000)), CFG)


def test_ground_plane_on_collinear_points_reports_no_inlier():
    """A line's points span no plane, and every plane through the line
    holds them all: the fit finds none, and says 0 inliers."""
    xyz = np.outer(np.arange(2000.0), [1.0, 0.5, 0.0])
    with pytest.raises(NoGroundPlane, match=r"best plane has 0/2000 inliers"):
        fit_ground_plane(PointCloud(xyz, np.zeros(2000)), CFG)


@MANY
@given(st.integers(0, 2**32 - 1))
def test_ransac_line_recovers_exact_line(seed):
    rng = np.random.default_rng(seed)
    p0 = rng.uniform(-5, 5, 3)
    d = rng.normal(size=3)
    d /= np.linalg.norm(d)
    ts = rng.uniform(-10, 10, 40)
    pts = p0 + ts[:, None] * d
    lines = ransac_line3d(pts, int(rng.integers(2**31)), line_cfg(0.05))
    assert len(lines) == 1
    got = lines[0].line
    assert abs(abs(got.direction @ d) - 1.0) < 1e-9
    assert got.distance(p0)[0] < 1e-9


def test_ransac_separates_two_lines():
    rng = np.random.default_rng(9)
    a = np.stack([np.linspace(0, 20, 60), np.full(60, 1.8), np.zeros(60)], axis=1)
    b = np.stack([np.linspace(0, 20, 60), np.full(60, -1.8), np.zeros(60)], axis=1)
    pts = np.concatenate([a, b]) + rng.normal(0, 0.01, (120, 3))
    lines = ransac_line3d(pts, 4, line_cfg(0.1))
    assert len(lines) == 2
    ys = sorted(l.line.point[1] for l in lines)
    assert abs(ys[0] + 1.8) < 0.05 and abs(ys[1] - 1.8) < 0.05


def _ransac_line3d_per_trial(points, inlier_tol, seed, trials=100, min_inliers=20):
    """The loop ransac_line3d batches: one draw, one Line3D and one
    distance call per trial.  Kept as the oracle of the batched scorer."""
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    rng = np.random.default_rng(seed)
    pool = np.arange(len(points))
    out = []
    while len(pool) >= max(2, min_inliers):
        sub = points[pool]
        best_count = -1
        best_line = None
        for _ in range(trials):
            i, j = rng.integers(0, len(pool), size=2)
            if i == j:
                continue
            d = sub[j] - sub[i]
            nd = np.linalg.norm(d)
            if nd < 1e-9:
                continue
            line = Line3D(sub[i], d / nd)
            count = int((line.distance(sub) <= inlier_tol).sum())
            if count > best_count:
                best_count, best_line = count, line
        if best_line is None or best_count < min_inliers:
            break
        inl = best_line.distance(sub) <= inlier_tol
        refined = _fit_line_lsq(sub[inl])
        inl = refined.distance(sub) <= inlier_tol
        if int(inl.sum()) < min_inliers:
            break
        out.append(ScoredLine3D(line=refined, inliers=pool[inl]))
        pool = pool[~inl]
    return out


def assert_same_fits(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.array_equal(g.line.point, w.line.point)
        assert np.array_equal(g.line.direction, w.line.direction)
        assert np.array_equal(g.inliers, w.inliers)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_ransac_matches_per_trial_oracle(seed):
    """Noisy lines, clutter and repeated points: the batched scorer fits
    the same lines with the same inliers as the per-trial loop."""
    rng = np.random.default_rng(seed)
    parts = []
    for _ in range(int(rng.integers(1, 5))):
        p0 = rng.uniform(-20, 20, 3)
        d = rng.normal(size=3)
        ts = rng.uniform(-15, 15, int(rng.integers(10, 200)))
        parts.append(p0 + ts[:, None] * d / np.linalg.norm(d))
    parts.append(rng.uniform(-20, 20, (int(rng.integers(0, 100)), 3)))
    pts = np.concatenate(parts)
    pts = pts + rng.normal(0, 0.03, pts.shape)
    pts = np.concatenate([pts, pts[rng.integers(0, len(pts), int(rng.integers(0, 50)))]])
    tol = float(rng.uniform(0.02, 0.2))
    trials = int(rng.integers(1, 150))
    min_inl = int(rng.integers(2, 30))
    s = int(rng.integers(2**31))
    assert_same_fits(
        ransac_line3d(pts, s, line_cfg(tol, trials, min_inl)),
        _ransac_line3d_per_trial(pts, tol, s, trials=trials, min_inliers=min_inl),
    )


def _trial_lines(sub, pairs):
    """Line3D of each usable trial pair, as the per-trial loop builds it."""
    return [
        (t, Line3D(sub[i], (sub[j] - sub[i]) / np.linalg.norm(sub[j] - sub[i])))
        for t, (i, j) in enumerate(pairs)
        if i != j and np.linalg.norm(sub[j] - sub[i]) >= 1e-9
    ]


def test_best_hypothesis_bits_match_per_trial_line():
    """Each hypothesis is scored with the bits of its per-trial Line3D:
    with the tolerance set to one of its distances exactly, a point on
    the boundary still counts, the first best trial wins, and its inlier
    mask is that of Line3D.distance.  The last
    pools hold more than _SCORE_BLOCK points, so each block scores one
    line."""
    rng = np.random.default_rng(13)
    big = cloud_features._SCORE_BLOCK + 4000
    for k in range(303):
        n = int(rng.integers(2, 300)) if k < 300 else big
        sub = rng.normal(0, 10.0 ** rng.uniform(-2, 2), (n, 3))
        pairs = rng.integers(0, len(sub), size=(int(rng.integers(1, 8)), 2))
        lines = [line for _, line in _trial_lines(sub, pairs)]
        if not lines:
            assert _best_hypothesis(sub, pairs, 1.0) == (None, None)
            continue
        dist = lines[int(rng.integers(len(lines)))].distance(sub)
        tol = float(dist[int(rng.integers(len(sub)))])
        counts = [int((line.distance(sub) <= tol).sum()) for line in lines]
        want = lines[int(np.argmax(counts))]
        got, got_inliers = _best_hypothesis(sub, pairs, tol)
        assert np.array_equal(got_inliers, want.distance(sub) <= tol)
        assert np.array_equal(got.point, want.point)
        assert np.array_equal(got.direction, want.direction)


def _pools_at_the_tolerance(shift):
    """(sub, pairs, lines, tol) of 20 pools about `shift` m from the
    origin, where the rounding band is at its widest: points at the
    tolerance from each trial line and one ulp either side of it, the
    tolerance one of these points' exact distance."""
    rng = np.random.default_rng(int(shift))
    for _ in range(20):
        base = rng.normal(size=3) * shift + rng.normal(0, 5.0, (150, 3))
        pairs = rng.integers(0, len(base), size=(12, 2))
        lines = _trial_lines(base, pairs)
        if not lines:
            continue
        on_tol = []
        tol = float(rng.uniform(0.05, 2.0))
        for _, line in lines:
            perp = np.cross(line.direction, rng.normal(size=3))
            for t in rng.uniform(-5.0, 5.0, 2):
                on_tol.append(line.point + t * line.direction + tol * perp / np.linalg.norm(perp))
        tol = float(lines[0][1].distance(on_tol[0])[0])
        ulps = [np.nextafter(p, p + sign * np.eye(3)[k] * np.abs(p).max())
                for p in on_tol for k in range(3) for sign in (-1.0, 1.0)]
        yield np.concatenate([base, on_tol, ulps]), pairs, lines, tol


@pytest.mark.parametrize("shift", [1e2, 1e3, 1e4])
def test_best_hypothesis_decides_the_rounding_band_exactly(shift, monkeypatch):
    """Every trial's inlier mask (each trial scored alone) and the winner
    with its mask are the per-trial loop's on the pools at the tolerance,
    and the band's points were decided by the distance formula."""
    band_calls = []
    exact = cloud_features._line_distances

    def counted(*args):
        band_calls.append(1)
        return exact(*args)

    monkeypatch.setattr(cloud_features, "_line_distances", counted)
    for sub, pairs, lines, tol in _pools_at_the_tolerance(shift):
        counts = {t: int((line.distance(sub) <= tol).sum()) for t, line in lines}
        for t, line in lines:
            assert np.array_equal(_best_hypothesis(sub, pairs[t:t + 1], tol)[1], line.distance(sub) <= tol)
        first = max(counts, key=lambda t: (counts[t], -t))
        got, got_inliers = _best_hypothesis(sub, pairs, tol)
        want = dict(lines)[first]
        assert np.array_equal(got_inliers, want.distance(sub) <= tol)
        assert np.array_equal(got.point, want.point)
        assert np.array_equal(got.direction, want.direction)
    assert band_calls


@pytest.mark.parametrize("shift", [1e2, 1e3, 1e4])
def test_quadric_distances_stay_within_a_tenth_of_the_band(shift):
    """The margin _best_hypothesis's docstring claims: on the first pools
    at the tolerance, the squared distance _quadric gives each (line,
    point) is within delta / 10 of |(p - a) x d|^2 computed exactly with
    Fractions from the same float points, anchors and directions."""
    frac = np.vectorize(Fraction, otypes=[object])
    for sub, _, lines, _ in itertools.islice(_pools_at_the_tolerance(shift), 4):
        anchors = np.stack([line.point for _, line in lines])
        dirs = np.stack([line.direction for _, line in lines])
        coef, mono = cloud_features._quadric(sub, anchors, dirs)
        r = coef @ mono
        q = frac(sub)[None, :, :] - frac(anchors)[:, None, :]
        d = frac(dirs)[:, None, :]
        cross = [q[..., k] * d[..., m] - q[..., m] * d[..., k] for k, m in ((1, 2), (2, 0), (0, 1))]
        exact = sum(c * c for c in cross)
        scale = np.abs(sub).max() + np.abs(anchors).max()
        delta = 1e-12 * (1.0 + 3.0 * scale * scale)
        off = np.vectorize(lambda a, b: abs(Fraction(a) - b), otypes=[object])(r, exact)
        assert off.max() <= Fraction(delta) / 10


def test_ransac_matches_oracle_on_bright_ground_points(canonical_frame):
    """The lane fit of extract_lane_points, fit as the per-trial loop
    fits it: on the benchmark's frames (canonical scene 0 and five-lane
    scene 0, 2,400-3,100 points with x up to 75 m), on the 32-ring
    canonical scene 0 (646 points) and on random_spec(0)."""
    cfg = PipelineConfig()
    five_lane = canonical_spec(0, lane_offsets=FIVE_LANES, lane_dashed=(False,) * 5)
    scenes = [(canonical_frame[1], 2000, 70.0), (generate(five_lane)[0], 2000, 70.0),
              (generate(canonical_spec(0, rings=32))[0], 600, 45.0),
              (generate(random_spec(0))[0], 2000, 70.0)]
    for cloud, min_points, min_x in scenes:
        ground = fit_ground_plane(cloud, cfg)[1]
        inten = cloud.intensity[ground]
        pts = cloud.xyz[ground][inten > inten.mean() + cfg.intensity_sigma_scale * inten.std()]
        assert len(pts) > min_points and pts[:, 0].max() > min_x
        got = ransac_line3d(pts, cfg.seed + 1, cfg)
        assert len(got) >= 3
        assert_same_fits(got, _ransac_line3d_per_trial(
            pts, cfg.line_inlier_tol, cfg.seed + 1, cfg.line_trials, cfg.line_min_inliers))


def test_row_norms_bits_match_linalg_norm():
    rng = np.random.default_rng(12)
    v = rng.normal(0, 10.0 ** rng.uniform(-3, 3, (20000, 1)), (20000, 3))
    assert np.array_equal(_row_norms(v), [np.linalg.norm(r) for r in v])


def test_ransac_matches_oracle_on_degenerate_pools():
    rng = np.random.default_rng(11)
    p = rng.uniform(-5, 5, 3)
    q = p + np.array([1.0, 0.5, 0.0])
    all_same_seeds = 0
    for seed in range(100):
        cases = [
            (np.empty((0, 3)), 10, 2),                     # no point
            (p[None], 10, 2),                              # one point
            (np.tile(p, (30, 1)), 10, 5),                  # one point repeated
            (np.array([p, q]), 3, 2),                      # two points
            (np.concatenate([np.tile(p, (20, 1)), np.tile(q, (20, 1))]), 20, 2),
            (np.concatenate([np.tile(p, (25, 1)), rng.uniform(-5, 5, (5, 3))]), 40, 3),
        ]
        for pts, trials, min_inl in cases:
            assert_same_fits(
                ransac_line3d(pts, seed, line_cfg(0.05, trials, min_inl)),
                _ransac_line3d_per_trial(pts, 0.05, seed, trials=trials, min_inliers=min_inl),
            )
        # a two-point pool whose every draw repeats an index fits nothing
        draws = np.random.default_rng(seed).integers(0, 2, size=(3, 2))
        if (draws[:, 0] == draws[:, 1]).all():
            all_same_seeds += 1
            assert ransac_line3d(np.array([p, q]), seed, line_cfg(0.05, 3, 2)) == []
        # fewer than 2 points hold no line: no fit, and no error
        for pts in (np.empty((0, 3)), p[None]):
            assert ransac_line3d(pts, seed, line_cfg(0.05, 10, 2)) == []
    assert all_same_seeds > 0


def test_line_filters_match_per_line_distance_loop(canonical_frame, canonical_features):
    """The d_min filters of extract_lane_points and extract_cloud_features
    keep exactly the points a per-line Line3D.distance loop keeps."""
    spec, cloud, lane_mask, pole_mask, gt = canonical_frame
    _, cf, _, _ = canonical_features
    cfg = PipelineConfig()

    def nearest(pts, lines):
        return np.min(np.stack([s.line.distance(pts) for s in lines]), axis=0)

    ground = fit_ground_plane(cloud, cfg)[1]
    inten = cloud.intensity[ground]
    bright = cloud.xyz[ground][inten > inten.mean() + cfg.intensity_sigma_scale * inten.std()]
    near = nearest(bright, ransac_line3d(bright, cfg.seed + 1, cfg)) < cfg.lane_dist_max
    assert 0 < near.sum() < len(near)
    lane_pts = extract_lane_points(ground, cloud, cfg.seed + 1, cfg)
    assert np.array_equal(lane_pts, bright[near])

    ground_lines = [
        s for s in ransac_line3d(lane_pts, cfg.seed + 2, cfg)
        if abs((s.line.direction @ cf.frame.T)[2]) < 0.1
    ]
    near = nearest(lane_pts, ground_lines) < cfg.lane_dist_max
    assert near.sum() > 0
    assert np.array_equal(cf.lane_points, lane_pts[near])


def test_ground_parallel_rotation_frame_axes():
    plane = Plane3D(np.array([0.0, 0.0, 1.0]), 1.7)
    lane = Line3D(np.array([0.0, 1.8, -1.7]), np.array([1.0, 0.02, 0.0]))
    R = ground_parallel_rotation(plane, lane)
    assert np.abs(R @ R.T - np.eye(3)).max() < 1e-9
    assert np.abs(R[2] - plane.normal).max() < 1e-9
    # X axis follows the lane projected into the plane
    assert R[0] @ lane.direction > 0.999


def test_ground_parallel_rotation_degenerate():
    plane = Plane3D(np.array([0.0, 0.0, 1.0]), 1.7)
    vertical = Line3D(np.zeros(3), np.array([0.0, 0.0, 1.0]))
    with pytest.raises(DegenerateFrame):
        ground_parallel_rotation(plane, vertical)


def test_cluster_cells_components():
    nx = 10
    # two 8-connected blobs: {0, 1, 11} and {55}
    cells = np.array([0, 1, 11, 55, 0, 55])
    labels = cluster_cells(cells, nx)
    assert labels[0] == labels[1] == labels[2] == labels[4]
    assert labels[3] == labels[5]
    assert labels[0] != labels[3]


def _rows_of(a, b):
    """Whether every row of a is, bit for bit, a row of b."""
    return set(map(bytes, a)) <= set(map(bytes, b))


def test_extraction_subsets_and_determinism(canonical_frame):
    spec, cloud, lane_mask, pole_mask, gt = canonical_frame
    cfg = PipelineConfig()
    plane, ground = fit_ground_plane(cloud, cfg)
    lane_pts = extract_lane_points(ground, cloud, 1, cfg)
    assert len(lane_pts) and _rows_of(lane_pts, cloud.xyz[ground])
    lines = ransac_line3d(lane_pts, 2, cfg)
    frame = ground_parallel_rotation(plane, lines[0].line)
    pole_pts, labels = extract_pole_points(ground, cloud, frame, cfg)
    assert len(pole_pts) and _rows_of(pole_pts, cloud.xyz[~ground])
    assert len(labels) == len(pole_pts)
    # determinism of the full chain
    a = extract_cloud_features(cloud, seed=0, cfg=cfg)
    b = extract_cloud_features(cloud, seed=0, cfg=cfg)
    assert np.array_equal(a.lane_points, b.lane_points)
    assert np.array_equal(a.pole_points, b.pole_points)


def test_pole_grid_memory_follows_the_points(canonical_frame, canonical_features):
    """The per-cell maximum is kept for occupied cells only: a dense-grid
    buffer grew as 1 / grid_cell**2 (51.5 MB at 0.02 m, 20 GiB at 1 mm)."""
    _, cloud, _, _, _ = canonical_frame
    _, cf, _, _ = canonical_features
    cfg = PipelineConfig(grid_cell=0.02)
    ground = fit_ground_plane(cloud, cfg)[1]
    tracemalloc.start()
    try:
        pole_pts, labels = extract_pole_points(ground, cloud, cf.frame, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(labels) == len(pole_pts) > 0
    assert peak < 5e6


def test_pole_line_directions_vertical_in_frame(canonical_features):
    _, cf, _, _ = canonical_features
    for line in cf.pole_lines:
        dg = line.direction @ cf.frame.T
        assert abs(dg[2]) > 0.9


def _line_at(deg, axis, flip=False):
    """A unit line tilted `deg` degrees off G's `axis` toward the next axis."""
    d = np.zeros(3)
    d[axis] = math.cos(math.radians(deg))
    d[(axis + 1) % 3] = math.sin(math.radians(deg))
    return ScoredLine3D(Line3D(np.zeros(3), -d if flip else d), np.arange(3))


def test_direction_gates_keep_lanes_within_2_and_poles_within_15_deg():
    frame = np.eye(3)
    lanes = [_line_at(1.9, 0, flip=True), _line_at(2.1, 0), _line_at(0.0, 0)]
    kept = list(_canonical_lines(lanes, frame, 0, LANE_COS))
    assert [line.direction[0] > 0 for line in kept] == [True, True]
    assert np.allclose(kept[0].direction, -lanes[0].line.direction)
    # 20 deg passes a |z| > 0.9 test but not the 15 deg P3L gate
    poles = [_line_at(14.0, 2, flip=True), _line_at(20.0, 2), _line_at(16.0, 2)]
    kept = list(_canonical_lines(poles, frame, 2, POLE_COS))
    assert len(kept) == 1 and kept[0].direction[2] > 0


def test_extracted_lines_pass_the_p3l_checks(canonical_features):
    """Every extracted lane runs along +X of G within 2 degrees and every
    pole along +Z within 15, as the P3L solver assumes of each cloud line.
    The lines are plain Line3Ds, and the frame is R_GL itself: a
    read-only proper rotation."""
    _, cf, _, _ = canonical_features
    assert cf.lane_lines and cf.pole_lines
    assert all(type(line) is Line3D for line in cf.lane_lines + cf.pole_lines)
    R = cf.frame
    assert isinstance(R, np.ndarray) and R.shape == (3, 3) and not R.flags.writeable
    assert np.abs(R @ R.T - np.eye(3)).max() < 1e-12
    assert abs(np.linalg.det(R) - 1.0) < 1e-12
    for lane in cf.lane_lines:
        assert (lane.direction @ R.T)[0] >= LANE_COS
    for pole in cf.pole_lines:
        assert (pole.direction @ R.T)[2] >= POLE_COS


def test_extraction_commutes_with_z_rotation(canonical_frame):
    """Rotating the cloud about +Z and re-extracting yields features that map
    back onto the originals."""
    spec, cloud, lane_mask, pole_mask, gt = canonical_frame
    cfg = PipelineConfig()
    base = extract_cloud_features(cloud, seed=0, cfg=cfg)
    rng = np.random.default_rng(77)
    for _ in range(3):
        ang = float(rng.uniform(-math.pi / 6, math.pi / 6))
        R = angle_axis_to_matrix(np.array([0.0, 0.0, ang]))
        rotated = PointCloud(cloud.xyz @ R.T, cloud.intensity)
        out = extract_cloud_features(rotated, seed=0, cfg=cfg)
        # lane lines map onto originals after un-rotating
        for line in out.lane_lines:
            d_back = R.T @ line.direction
            p_back = R.T @ line.point
            best = min(
                (
                    math.degrees(
                        math.acos(min(1.0, abs(float(d_back @ b.direction))))
                    ),
                    float(b.distance(p_back)[0]),
                )
                for b in base.lane_lines
            )
            assert best[0] < 1.0
            assert best[1] < 0.1
