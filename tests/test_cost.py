"""Alignment-cost properties on small synthetic evaluators and real scenes."""
import collections
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import linecalib.cost as cost_module
from linecalib.cost import (
    CostEvaluator,
    best_in_batch,
    cost,
    cost_batch,
    finish_gradient,
    value_pass,
)
from linecalib.errors import DimensionMismatch
from linecalib.evaluation import perturb
from linecalib.geometry import (
    EPS_Z,
    Extrinsic,
    Intrinsics,
    angle_axis_to_matrix,
    matrix_to_angle_axis,
    project_points,
)
from linecalib.image_features import HeightMap

MANY = settings(max_examples=1000, deadline=None)

K = Intrinsics(fx=500.0, fy=500.0, cx=64.0, cy=48.0, width=128, height=96)


def small_evaluator(rng, n_terms=2):
    """n_terms terms of 2 to 39 points in front of the camera, on random maps."""
    sets = [rng.uniform([-2, -2, 4], [2, 2, 30], size=(int(rng.integers(2, 40)), 3))
            for _ in range(n_terms)]
    maps = [HeightMap(rng.random((96, 128))) for _ in range(n_terms)]
    return CostEvaluator(tuple(zip(sets, maps)), K)


def term_points(ev):
    """Each term's points, in term order."""
    return [ev.points[rows] for rows, _ in ev.terms]


def with_points(ev, sets):
    """An evaluator of ev's maps and intrinsics over the point sets sets,
    one for each of ev's terms."""
    return CostEvaluator(tuple((pts, hmap) for pts, (_, hmap) in zip(sets, ev.terms)),
                         ev.intrinsics)


@MANY
@given(st.integers(0, 2**32 - 1))
def test_cost_bounded_zero_to_two(seed):
    rng = np.random.default_rng(seed)
    ev = small_evaluator(rng)
    e = Extrinsic(rng.normal(size=3) * 0.5, rng.normal(size=3))
    c = cost(e, ev)
    assert 0.0 <= c <= 2.0


@MANY
@given(st.integers(0, 2**32 - 1))
def test_cost_permutation_invariant(seed):
    rng = np.random.default_rng(seed)
    ev = small_evaluator(rng)
    e = Extrinsic(rng.normal(size=3) * 0.2, rng.normal(size=3) * 0.5)
    ev2 = with_points(ev, [pts[rng.permutation(len(pts))] for pts in term_points(ev)])
    assert abs(cost(e, ev) - cost(e, ev2)) < 1e-12


def test_behind_camera_contributes_zero():
    rng = np.random.default_rng(0)
    ev = small_evaluator(rng)
    # translate everything far behind the camera
    e = Extrinsic(np.zeros(3), np.array([0.0, 0.0, -1000.0]))
    assert cost(e, ev) == 0.0


def test_out_of_frame_contributes_zero():
    lane = np.array([[0.0, 0.0, 10.0]])
    pole = np.array([[0.0, 0.0, 10.0]])
    hm = HeightMap(np.ones((96, 128)))
    ev = CostEvaluator(((lane, hm), (pole, hm)), K)
    # push the projection far off the left edge
    e = Extrinsic(np.zeros(3), np.array([-50.0, 0.0, 0.0]))
    assert cost(e, ev) == 0.0


def test_empty_point_sets_rejected():
    hm = HeightMap(np.ones((4, 4)))
    with pytest.raises(ValueError):
        CostEvaluator(((np.zeros((0, 3)), hm), (np.ones((1, 3)), hm)), K)


@pytest.mark.parametrize("cls", ["lane", "pole"])
@pytest.mark.parametrize("shape", [(128, 96), (375, 1242)])
def test_height_map_of_another_frame_rejected(cls, shape):
    """A map must cover the intrinsics' (height, width) pixel grid; a
    transposed or foreign one would be scored against the wrong pixels.
    The error names the term by its index: the lane term is 0, the pole
    term 1, as build_evaluator orders them."""
    right, wrong = HeightMap(np.ones((96, 128))), HeightMap(np.ones(shape))
    index = ("lane", "pole").index(cls)
    maps = (wrong, right) if index == 0 else (right, wrong)
    named = (rf"term {index} height map has shape \({shape[0]}, {shape[1]}\), "
             r"intrinsics need \(96, 128\)")
    with pytest.raises(DimensionMismatch, match=named):
        CostEvaluator(tuple(zip((np.ones((2, 3)), np.ones((3, 3))), maps)), K)


def test_evaluator_points_are_one_read_only_array():
    rng = np.random.default_rng(1)
    lane, pole = rng.normal(size=(5, 3)), rng.normal(size=(2, 3))
    hm = HeightMap(np.ones((96, 128)))
    ev = CostEvaluator(((lane, hm), (pole, hm)), K)
    assert ev.points.tolist() == lane.tolist() + pole.tolist()
    assert [rows for rows, _ in ev.terms] == [slice(0, 5), slice(5, 7)]
    assert ev.lane_points.base is ev.points and ev.pole_points.base is ev.points
    for array in (ev.points, ev.lane_points, ev.pole_points):
        assert not array.flags.writeable
    lane[0] = 0.0
    assert ev.lane_points[0].tolist() == ev.points[0].tolist() != [0.0] * 3


def test_ground_truth_cost_high_on_canonical_scene(canonical_evaluator):
    ev, gt = canonical_evaluator
    assert cost(gt, ev) > 1.8


def test_ground_truth_beats_100_random_perturbations(canonical_evaluator):
    ev, gt = canonical_evaluator
    c_gt = cost(gt, ev)
    rng = np.random.default_rng(123)
    for _ in range(100):
        p = perturb(gt, rng, 0.5, math.radians(3.0))
        assert cost(p, ev) < c_gt


def test_package_attributes_are_the_modules():
    """The package re-exports no function under a submodule's name, so
    these imports bind the modules the README's module table names."""
    import linecalib.cost as cost_module
    import linecalib.refine as refine_module

    assert callable(cost_module.cost)
    assert callable(refine_module.refine)


# ---------------------------------------------------------------------------
# the batched kernel against the per-pose cost it replaced


def _oracle_cell(u, v, g):
    """In-frame mask, offsets (fu, fv) into each point's cell and the
    cell's four corners, read by 2-D fancy indexing of the grid g."""
    h, w = g.shape
    ok = (u >= 0) & (u <= w - 1) & (v >= 0) & (v <= h - 1)
    uc = np.where(ok, u, 0.0)
    vc = np.where(ok, v, 0.0)
    u0 = np.minimum(uc.astype(int), w - 2)
    v0 = np.minimum(vc.astype(int), h - 2)
    corners = (g[v0, u0], g[v0, u0 + 1], g[v0 + 1, u0], g[v0 + 1, u0 + 1])
    return ok, uc - u0, vc - v0, corners


def _oracle_class_term(R, t, pts, hmap, k):
    """One class term as cost() computed it pose by pose, with the 2-D
    fancy-indexing bilinear lookup: every point is projected and sampled,
    and a point behind the camera or out of frame is a 0 in the one sum."""
    p_c = pts @ R.T + t
    valid = p_c[:, 2] > EPS_Z
    z = np.where(valid, p_c[:, 2], 1.0)
    u = k.fx * p_c[:, 0] / z + k.cx
    v = k.fy * p_c[:, 1] / z + k.cy
    ok, fu, fv, (g00, g01, g10, g11) = _oracle_cell(u, v, hmap.values)
    val = g00 * (1 - fu) * (1 - fv) + g01 * fu * (1 - fv) + g10 * (1 - fu) * fv + g11 * fu * fv
    return float(np.where(ok & valid, val, 0.0).sum()) / len(pts)


def oracle_cost(e, ev):
    """The terms of ev, each scored alone, added left to right."""
    R, t = e.matrix(), e.t
    total, *rest = [_oracle_class_term(R, t, pts, hmap, ev.intrinsics)
                    for pts, (_, hmap) in zip(term_points(ev), ev.terms)]
    for term in rest:
        total += term
    return total


def _assert_batch_matches_oracle(poses, ev):
    """One cost_batch call per rotation scores its poses as the oracle does."""
    want = [oracle_cost(p, ev) for p in poses]
    got = {}
    for r in {p.r.tobytes() for p in poses}:
        mine = [j for j, p in enumerate(poses) if p.r.tobytes() == r]
        scores = cost_batch(poses[mine[0]].matrix(), np.stack([poses[j].t for j in mine]), ev)
        got.update(zip(mine, scores.tolist()))
    assert [got[j] for j in range(len(poses))] == want
    assert [cost(p, ev) for p in poses] == want
    return want


def _behind_fraction(pose, ev):
    """The share of the first (lane) term's points behind the camera."""
    return float((pose.apply(term_points(ev)[0])[:, 2] <= EPS_Z).mean())


def test_cost_batch_bits_match_oracle_near_ground_truth(canonical_evaluator):
    ev, gt = canonical_evaluator
    rng = np.random.default_rng(5)
    poses = [gt] + [perturb(gt, rng, 0.2, math.radians(1.0)) for _ in range(30)]
    assert min(_assert_batch_matches_oracle(poses, ev)) > 1.0


def test_cost_batch_bits_match_oracle_with_points_behind(canonical_evaluator):
    ev, gt = canonical_evaluator
    rng = np.random.default_rng(6)
    poses = [perturb(gt, rng, 30.0, math.radians(90.0)) for _ in range(60)]
    partly = [p for p in poses if 0.0 < _behind_fraction(p, ev) < 1.0]
    assert len(partly) >= 10
    _assert_batch_matches_oracle(poses, ev)


def test_cost_batch_all_behind_and_out_of_frame(canonical_evaluator):
    ev, gt = canonical_evaluator
    behind = Extrinsic(gt.r, gt.t - [0.0, 0.0, 1000.0])
    assert _behind_fraction(behind, ev) == 1.0
    off_frame = [Extrinsic(gt.r, gt.t + [dx, dy, 0.0]) for dx, dy in
                 ((-400.0, 0.0), (400.0, 0.0), (0.0, -300.0), (0.0, 300.0))]
    costs = _assert_batch_matches_oracle([behind] + off_frame, ev)
    assert costs == [0.0] * 5


def test_cost_batch_straddles_block_boundary(canonical_evaluator):
    """Poses sharing one rotation, more of them than one block holds."""
    ev, gt = canonical_evaluator
    per_block = cost_module._BLOCK // len(term_points(ev)[0])
    rng = np.random.default_rng(7)
    n = 2 * per_block + 3
    poses = [Extrinsic(gt.r, gt.t + rng.normal(size=3) * 2.0) for _ in range(n)]
    _assert_batch_matches_oracle(poses, ev)


def test_cost_batch_of_no_pose_is_empty(canonical_evaluator):
    ev, _ = canonical_evaluator
    assert cost_batch(np.eye(3), np.zeros((0, 3)), ev).shape == (0,)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_cost_batch_bits_match_oracle_small_evaluators(seed):
    """Evaluators of one to three terms: two, as build_evaluator gives, and
    the one- and three-term forms."""
    rng = np.random.default_rng(seed)
    ev = small_evaluator(rng, int(rng.integers(1, 4)))
    poses = [Extrinsic(rng.normal(size=3) * 0.3, rng.normal(size=3) * 3.0) for _ in range(6)]
    poses.append(Extrinsic(poses[0].r, poses[0].t + 1.0))
    _assert_batch_matches_oracle(poses, ev)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_behind_and_out_of_frame_are_the_same_zero(seed):
    """Moving some points behind the camera, or the same points far out of
    frame instead, gives a pose the same score, bit for bit, from both
    kernels: either way each is a 0 in its row's one sum."""
    rng = np.random.default_rng(seed)
    ev = small_evaluator(rng)
    e = Extrinsic(rng.normal(size=3) * 0.1, rng.normal(size=3))
    R, t = e.matrix(), e.t

    def moved(points):
        """points with a random subset put behind the camera, and with the
        same subset put far out of frame instead."""
        pick = rng.random(len(points)) < 0.4
        z = rng.uniform(1.0, 30.0, int(pick.sum()))
        zero = np.zeros_like(z)
        behind, off = points.copy(), points.copy()
        # on the axis at depth -z: unguarded, it would project in frame
        behind[pick] = (np.column_stack([zero, zero, -z]) - t) @ R
        off[pick] = (np.column_stack([1e3 * z, 1e3 * z, z]) - t) @ R
        return behind, off

    (lane_b, lane_o), (pole_b, pole_o) = map(moved, term_points(ev))
    ev_b = with_points(ev, (lane_b, pole_b))
    ev_o = with_points(ev, (lane_o, pole_o))
    score_b = cost_batch(R, t[None], ev_b)
    score_o = cost_batch(R, t[None], ev_o)
    assert score_b.tobytes() == score_o.tobytes()
    assert value_pass(e, ev_b).value == value_pass(e, ev_o).value == score_b[0]


# ---------------------------------------------------------------------------
# the staged bound and the pruned best of a batch


def _pruning_case(rng, equal_counts=False):
    """A small evaluator over maps in [lo, 1), and one rotation with its
    translations: some rows near identity, some scattered, some with points
    behind the camera (all of them in the first row) or out of frame, every
    row twice or more (exact ties), and now and then a batch that scores 0
    throughout.  With lo high, the bound can drop the rows with few points
    in frame.  With equal_counts, both terms keep only as many points as
    the smaller one has."""
    lane, pole = term_points(small_evaluator(rng))
    n = min(len(lane), len(pole)) if equal_counts else None
    lo = rng.uniform(0.0, 0.95)
    ev = CostEvaluator(((lane[:n], HeightMap(lo + (1 - lo) * rng.random((96, 128)))),
                        (pole[:n], HeightMap(lo + (1 - lo) * rng.random((96, 128))))), K)
    R = angle_axis_to_matrix(rng.normal(size=3) * 0.05)
    n = int(rng.integers(1, 20))
    t = rng.normal(size=(n, 3)) * rng.choice([0.3, 3.0], size=(n, 1))
    t[:, 2] -= rng.uniform(0.0, 20.0, n) * (rng.random(n) < 0.3)
    t[0, 2] = -1000.0
    t = np.vstack([t, t[rng.integers(0, n, int(rng.integers(1, 20)))]])
    if rng.random() < 0.2:
        t[:, 2] -= 1000.0
    return ev, R, t


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_staged_bound_covers_the_full_score(seed):
    """At every stage, whichever rows are still live, each one's bound is at
    least its cost_batch score."""
    rng = np.random.default_rng(seed)
    ev, R, t = _pruning_case(rng)
    full = cost_batch(R, t, ev)
    staged = cost_module._StagedBound(R, t, ev)
    live = np.arange(len(t))
    for _ in cost_module._STAGE_FRACTIONS:
        assert (staged.tighten(live) >= full[live]).all()
        live = live[rng.random(len(live)) < 0.7]


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_best_in_batch_is_the_first_argmax(seed):
    rng = np.random.default_rng(seed)
    ev, R, t = _pruning_case(rng)
    full = cost_batch(R, t, ev)
    for floor in (0.0, float(full[rng.integers(len(full))])):
        k, score, scored = best_in_batch(R, t, ev, floor)
        assert 0 < scored <= len(t)
        if full.max() > floor:
            assert k == int(np.argmax(full))
            assert np.float64(score).tobytes() == full[k].tobytes()
        else:
            assert (k, score) == (None, floor)
    assert best_in_batch(R, t[:0], ev, 0.5) == (None, 0.5, 0)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_best_in_batch_scores_each_row_once(seed, equal_counts):
    """No row reaches cost_batch twice in one call, and scored counts the
    rows that did.  Rows are told apart by value: a row that t holds m
    times may reach cost_batch at most m times."""
    rng = np.random.default_rng(seed)
    ev, R, t = _pruning_case(rng, equal_counts)
    rows = collections.Counter(row.tobytes() for row in t)
    full = cost_batch(R, t, ev)
    for floor in (0.0, float(full[rng.integers(len(full))])):
        passed = collections.Counter()

        def counting(R, t, ev):
            passed.update(row.tobytes() for row in t)
            return cost_batch(R, t, ev)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cost_module, "cost_batch", counting)
            _, _, scored = best_in_batch(R, t, ev, floor)
        assert all(passed[key] <= rows[key] for key in passed)
        assert scored == sum(passed.values())


@pytest.mark.parametrize("n_lane, n_pole, first", [(5, 9, "lane"), (9, 5, "pole"), (7, 7, "lane")])
def test_staged_bound_reads_the_term_with_fewer_points_first(n_lane, n_pole, first):
    """The first stage sums only the term with fewer points; on a tie the
    terms keep their order, lane first."""
    rng = np.random.default_rng(0)
    ev = small_evaluator(rng)
    pts = rng.uniform([-2, -2, 4], [2, 2, 30], size=(9, 3))
    ev = with_points(ev, (pts[:n_lane], pts[:n_pole]))
    sums, read = cost_module._sums, []

    def recording(q, t, hmap, k):
        read.append(hmap)
        return sums(q, t, hmap, k)

    staged = cost_module._StagedBound(np.eye(3), np.zeros((2, 3)), ev)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cost_module, "_sums", recording)
        staged.tighten(np.arange(2))
    assert len(read) == 1 and read[0] is ev.terms[("lane", "pole").index(first)][1]


# ---------------------------------------------------------------------------
# the value-plus-gradient kernel


def _assert_values_match_cost_batch(poses, ev):
    """The two kernels that score a pose, value_pass alone and cost_batch
    with one translation, give it the same value."""
    for p in poses:
        vp = value_pass(p, ev)
        assert vp.value == cost_batch(p.matrix(), p.t[None], ev)[0]
        grad = finish_gradient(vp)
        assert grad.shape == (6,) and np.isfinite(grad).all()


def test_value_pass_value_is_cost_batch_near_ground_truth(canonical_evaluator):
    ev, gt = canonical_evaluator
    rng = np.random.default_rng(8)
    _assert_values_match_cost_batch([gt] + [perturb(gt, rng, 1.0, math.radians(6.0)) for _ in range(30)], ev)


def test_value_pass_value_is_cost_batch_with_points_behind(canonical_evaluator):
    ev, gt = canonical_evaluator
    rng = np.random.default_rng(9)
    poses = [perturb(gt, rng, 30.0, math.radians(90.0)) for _ in range(60)]
    assert sum(0.0 < _behind_fraction(p, ev) < 1.0 for p in poses) >= 10
    behind = Extrinsic(gt.r, gt.t - [0.0, 0.0, 1000.0])
    _assert_values_match_cost_batch(poses + [behind], ev)
    assert finish_gradient(value_pass(behind, ev)).tolist() == [0.0] * 6


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_value_pass_value_is_cost_batch_small_evaluators(seed):
    rng = np.random.default_rng(seed)
    ev = small_evaluator(rng)
    _assert_values_match_cost_batch(
        [Extrinsic(rng.normal(size=3) * 0.3, rng.normal(size=3) * 3.0) for _ in range(4)], ev
    )


def _class_value_grad(rotated, t, hmap, k):
    """One class term of cost() and its gradient (6,), computed for that
    class alone as the kernel did before both classes shared one pass,
    with the 2-D fancy-indexing bilinear lookup: rotated = pts @ R.T."""
    n = len(rotated)
    q = np.ascontiguousarray(rotated.T)          # (3, N)
    p_c = q + t[:, None]
    uv, valid = project_points(k, p_c.T)
    ok, fu, fv, (g00, g01, g10, g11) = _oracle_cell(uv[:, 0], uv[:, 1], hmap.values)
    gu, gv = 1 - fu, 1 - fv
    vals = np.where(ok, g00 * gu * gv + g01 * fu * gv + g10 * gu * fv + g11 * fu * fv, 0.0)
    du = np.where(ok, (g01 - g00) * gv + (g11 - g10) * fv, 0.0)
    dv = np.where(ok, (g10 - g00) * gu + (g11 - g01) * fu, 0.0)
    value = np.where(valid, vals, 0.0).sum() / n
    inv_z = np.where(valid, 1.0 / np.where(valid, p_c[2], 1.0), 0.0)
    a = np.empty((3, n))
    np.multiply(du, k.fx * inv_z, out=a[0])
    np.multiply(dv, k.fy * inv_z, out=a[1])
    np.multiply(-(a[0] * p_c[0] + a[1] * p_c[1]), inv_z, out=a[2])
    m = a @ q.T
    d_w = (m[2, 1] - m[1, 2], m[0, 2] - m[2, 0], m[1, 0] - m[0, 1])
    return value, np.concatenate([a.sum(axis=1), d_w]) / n


def oracle_value_and_gradient(e, ev):
    """The terms of ev, each with its gradient taken alone, added left to
    right."""
    R_T = e.matrix().T
    (value, grad), *rest = [_class_value_grad(pts @ R_T, e.t, hmap, ev.intrinsics)
                            for pts, (_, hmap) in zip(term_points(ev), ev.terms)]
    for v, g in rest:
        value, grad = value + v, grad + g
    return float(value), grad


def _assert_kernel_matches_oracle(poses, ev):
    for p in poses:
        vp = value_pass(p, ev)
        value, grad = vp.value, finish_gradient(vp)
        want_value, want_grad = oracle_value_and_gradient(p, ev)
        assert np.float64(value).tobytes() == np.float64(want_value).tobytes()
        assert grad.tobytes() == want_grad.tobytes()


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_value_pass_bits_match_per_class_oracle(seed):
    """One to three terms of 1 to 39 points each, some behind the camera
    and some out of frame, scored at poses near identity and far from it."""
    rng = np.random.default_rng(seed)
    lo, hi = [-3, -3, -10], [3, 3, 30]
    n_terms = int(rng.integers(1, 4))
    sets = [rng.uniform(lo, hi, size=(int(rng.integers(1, 40)), 3)) for _ in range(n_terms)]
    ev = CostEvaluator(tuple((pts, HeightMap(rng.random((96, 128)))) for pts in sets), K)
    poses = [Extrinsic(rng.normal(size=3) * s, rng.normal(size=3) * 3 * s)
             for s in (0.05, 0.3, 1.0)]
    _assert_kernel_matches_oracle(poses, ev)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_one_point_terms_match_per_class_oracles(seed):
    """numpy multiplies a one-point term by gemv, whose bits differ from
    that point's row of a larger product: with one lane point and one pole
    point, cost_batch, value_pass with finish_gradient, and best_in_batch
    still score as the per-class oracles do, in frame, out of frame and
    behind."""
    rng = np.random.default_rng(seed)
    e = Extrinsic(rng.normal(size=3) * 0.3, rng.normal(size=3))

    def one_point():
        """A point that e puts in frame, 3 to 30 m ahead."""
        z = rng.uniform(3.0, 30.0)
        return ((np.array([*(rng.uniform(-0.08, 0.08, 2) * z), z]) - e.t) @ e.matrix())[None]

    hmaps = HeightMap(rng.random((96, 128))), HeightMap(rng.random((96, 128)))
    ev = CostEvaluator(((one_point(), hmaps[0]), (one_point(), hmaps[1])), K)
    poses = [e] + [Extrinsic(e.r, e.t + rng.normal(size=3) * s) for s in (0.1, 0.5, 5.0) * 4]
    poses.append(Extrinsic(e.r, e.t - [0.0, 0.0, 100.0]))
    want = _assert_batch_matches_oracle(poses, ev)
    assert want[0] > 0.0 and want[-1] == 0.0
    _assert_kernel_matches_oracle(poses, ev)
    t = np.stack([p.t for p in poses])
    for floor in (0.0, want[0]):
        k, score, _ = best_in_batch(e.matrix(), t, ev, floor)
        if max(want) > floor:
            assert (k, score) == (want.index(max(want)), max(want))
        else:
            assert (k, score) == (None, floor)


def test_value_pass_bits_match_per_class_oracle_on_canonical_scene(canonical_evaluator):
    ev, gt = canonical_evaluator
    rng = np.random.default_rng(13)
    poses = [perturb(gt, rng, dt, math.radians(dtheta))
             for dt, dtheta in ((0.05, 0.3), (1.0, 6.0), (5.0, 30.0), (30.0, 90.0))
             for _ in range(25)]
    assert sum(0.0 < _behind_fraction(p, ev) for p in poses) >= 5
    _assert_kernel_matches_oracle(poses, ev)


def _moved(e, x):
    """e moved by the increment x = (dt, w) the gradient is taken in."""
    R = angle_axis_to_matrix(x[3:]) @ e.matrix()
    return Extrinsic(matrix_to_angle_axis(R), e.t + x[:3])


def _affine_evaluator(ev):
    """ev's points over height maps affine in (u, v), on which the bilinear
    lookup is exact and the cost smooth wherever no point crosses the
    frame border."""
    h, w = ev.intrinsics.height, ev.intrinsics.width
    u, v = np.meshgrid(np.arange(w, dtype=float), np.arange(h, dtype=float))
    lane, pole = term_points(ev)
    return CostEvaluator(((lane, HeightMap(0.3 + 2e-4 * u + 5e-4 * v)),
                          (pole, HeightMap(0.9 - 3e-4 * u + 1e-4 * v))), ev.intrinsics)


def test_cost_gradient_matches_central_differences(canonical_evaluator):
    ev, gt = canonical_evaluator
    ev = _affine_evaluator(ev)
    rng = np.random.default_rng(10)
    h = 1e-6
    for pose in [gt] + [perturb(gt, rng, 0.5, math.radians(3.0)) for _ in range(5)]:
        grad = finish_gradient(value_pass(pose, ev))
        fd = np.array([
            (cost(_moved(pose, h * e), ev) - cost(_moved(pose, -h * e), ev)) / (2 * h)
            for e in np.eye(6)
        ])
        assert np.abs(grad - fd).max() <= 1e-6 * np.abs(grad).max()


def test_points_behind_or_out_of_frame_add_no_gradient(canonical_evaluator):
    """Adding to each class as many points again, half behind the camera
    (placed so that their unguarded projection lands in frame) and half in
    front but out of frame, halves both class means: the value and the
    gradient halve, so the added points contribute nothing."""
    ev, gt = canonical_evaluator
    R, t = gt.matrix(), gt.t

    def with_unseen(points, rng):
        n = len(points)
        behind = np.column_stack([rng.uniform(-0.05, 0.05, (n, 2)), rng.uniform(-30, -1, n)])
        off = np.column_stack([rng.uniform(100, 200, (n, 2)), rng.uniform(2, 30, n)])
        p_c = np.where(np.arange(n)[:, None] % 2 == 0, behind, off)
        return np.vstack([points, (p_c - t) @ R])

    rng = np.random.default_rng(11)
    padded = with_points(ev, [with_unseen(pts, rng) for pts in term_points(ev)])
    for pose in [gt, perturb(gt, rng, 0.2, math.radians(1.0))]:
        vp, vp2 = value_pass(pose, ev), value_pass(pose, padded)
        value, grad = vp.value, finish_gradient(vp)
        value2, grad2 = vp2.value, finish_gradient(vp2)
        assert value2 == pytest.approx(value / 2, rel=1e-12)
        np.testing.assert_allclose(grad2, grad / 2, rtol=1e-9, atol=1e-12 * np.abs(grad).max())
