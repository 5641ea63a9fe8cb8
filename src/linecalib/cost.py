"""Semantic line-alignment cost.

For each class (lane, pole) the extracted LiDAR points are projected
through the candidate extrinsic and looked up in the class height map;
the cost is the sum of the two per-class means.  A point behind the
camera or outside the image is a 0 in its class's one sum over all the
points, in every kernel here, so the cost is bounded by 2.

cost_batch scores many translations of one rotation at once;
best_in_batch finds the best of them, scoring in full only those that an
upper bound from a subset of the points cannot rule out;
value_pass scores one pose in one pass over both classes and keeps its
intermediates, from which finish_gradient takes the cost's analytic
gradient; the refine stage finishes only the poses it moves to, and
cost_and_gradient is the two in turn.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch
from .geometry import Extrinsic, Intrinsics, project_points
from .image_features import HeightMap, bilinear, bilinear_cells

# poses x points per block: each temporary of the kernel stays at 128 KB,
# so its working memory is a few MB whatever K is
_BLOCK = 16384


@dataclass(frozen=True, eq=False)
class CostEvaluator:
    lane_points: np.ndarray   # (N, 3) LiDAR frame
    pole_points: np.ndarray   # (M, 3)
    lane_height: HeightMap
    pole_height: HeightMap
    intrinsics: Intrinsics
    # (N + M, 3): the lane points, then the pole points; lane_points and
    # pole_points are read-only views into it
    points: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        lp = np.asarray(self.lane_points, dtype=float).reshape(-1, 3)
        pp = np.asarray(self.pole_points, dtype=float).reshape(-1, 3)
        if len(lp) == 0 or len(pp) == 0:
            raise ValueError("cost evaluator needs non-empty point sets")
        k = self.intrinsics
        for cls, hmap in (("lane", self.lane_height), ("pole", self.pole_height)):
            if hmap.values.shape != (k.height, k.width):
                raise DimensionMismatch(
                    f"{cls} height map has shape {hmap.values.shape}, "
                    f"intrinsics need {(k.height, k.width)}"
                )
        points = np.concatenate([lp, pp])
        points.setflags(write=False)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "lane_points", points[:len(lp)])
        object.__setattr__(self, "pole_points", points[len(lp):])

    def __call__(self, e: Extrinsic) -> float:
        return cost(e, self)


def _class_sums(rotated, t, hmap: HeightMap, k: Intrinsics) -> np.ndarray:
    """Summed height-map value of the points rotated (N, 3) = pts @ R.T
    translated by each row of t (K, 3); rotated may be any subset of a
    class's points."""
    n = len(rotated)
    planes = np.ascontiguousarray(rotated.T)
    out = np.empty(len(t))
    step = max(1, _BLOCK // n)
    for s in range(0, len(t), step):
        p_c = planes[:, None, :] + t[s:s + step].T[:, :, None]   # (3, B, N)
        uv, valid = project_points(k, p_c.transpose(1, 2, 0))
        vals = hmap.sample_bilinear(uv[..., 0], uv[..., 1])
        out[s:s + step] = np.where(valid, vals, 0.0).sum(axis=1)
    return out


def cost_batch(R, t, ev: CostEvaluator) -> np.ndarray:
    """Alignment cost of the K poses p_C = R @ p_L + t[j] that share the
    rotation R (3, 3): t (K, 3) gives a (K,) array.

    The poses share one pts @ R.T, and each score is bit-identical to
    scoring its pose alone.
    """
    R_T = np.asarray(R, dtype=float).reshape(3, 3).T
    t = np.asarray(t, dtype=float).reshape(-1, 3)
    lane = _class_sums(ev.lane_points @ R_T, t, ev.lane_height, ev.intrinsics)
    pole = _class_sums(ev.pole_points @ R_T, t, ev.pole_height, ev.intrinsics)
    return lane / len(ev.lane_points) + pole / len(ev.pole_points)


# best_in_batch bounds every score from nested prefixes of each class's
# points before it scores any pose in full.  The prefixes follow a strided
# order, so each one samples the whole extracted point set.
_STAGE_FRACTIONS = (0.125, 0.25, 0.5)
_STRIDE_ORDER = (0, 4, 2, 6, 1, 5, 3, 7)
# poses scored in full after the first stage, to raise the floor
_FLOOR_PICKS = 4
# per unit of height: covers the summation order, and bilinear weights
# that sum to a hair over 1
_ROUNDING = 1e-9


class _StagedBound:
    """Upper bounds on the cost_batch(R, t, ev) scores, one stage of
    _STAGE_FRACTIONS at a time.  A stage scores only the points new to it;
    a point not yet scored adds at most the map's highest value, or the 0
    of a point behind the camera or out of frame if that is higher."""

    def __init__(self, R, t, ev: CostEvaluator):
        R_T = np.asarray(R, dtype=float).reshape(3, 3).T
        self.t = t
        self.k = ev.intrinsics
        self.classes = []
        for pts, hmap in ((ev.lane_points, ev.lane_height), (ev.pole_points, ev.pole_height)):
            n = len(pts)
            order = np.concatenate([np.arange(o, n, len(_STRIDE_ORDER)) for o in _STRIDE_ORDER])
            # rows of the product cost_batch takes, so that each point's
            # value has the bits it has in the full score
            rotated = (pts @ R_T)[order]
            lo, hi = hmap.value_range
            self.classes.append((rotated, hmap, max(0.0, hi), _ROUNDING * max(1.0, hi, -lo)))
        self.sums = np.zeros((len(self.classes), len(t)))
        self.stage = 0         # stages summed so far

    def tighten(self, live) -> np.ndarray:
        """Sum the next stage's new points for the rows live of t, and bound
        each of their scores."""
        f0 = _STAGE_FRACTIONS[self.stage - 1] if self.stage else 0.0
        f = _STAGE_FRACTIONS[self.stage]
        bound = np.zeros(len(live))
        for c, (rotated, hmap, top, margin) in enumerate(self.classes):
            n = len(rotated)
            m0, m = int(f0 * n), int(f * n)
            if m > m0:
                self.sums[c, live] += _class_sums(rotated[m0:m], self.t[live], hmap, self.k)
            bound += (self.sums[c, live] + (n - m) * top) / n + margin
        self.stage += 1
        return bound


def best_in_batch(R, t, ev: CostEvaluator, floor: float):
    """(k, score, scored): the first row k of t (K, 3) whose
    cost_batch(R, t, ev) score is the highest, and that score, if it is
    above floor; else (None, floor, scored).  scored counts the rows
    scored in full.

    The result is bit-identical to scoring every row: a row is dropped only
    when its bound falls below a score another row reaches, so it can
    neither win nor tie.
    """
    t = np.asarray(t, dtype=float).reshape(-1, 3)
    if len(t) == 0:
        return None, floor, 0
    live = np.arange(len(t))
    full = np.zeros(len(t), dtype=bool)
    staged = _StagedBound(R, t, ev)
    cut = floor
    for stage in range(len(_STAGE_FRACTIONS)):
        bound = staged.tighten(live)
        if stage == 0:
            picks = live[np.argsort(-bound, kind="stable")[:_FLOOR_PICKS]]
            full[picks] = True
            cut = max(cut, float(cost_batch(R, t[picks], ev).max()))
        live = live[bound >= cut]
    scores = cost_batch(R, t[live], ev)
    full[live] = True
    # strict: a row that only ties floor does not win
    if not len(live) or scores.max() <= floor:
        return None, floor, int(full.sum())
    j = int(np.argmax(scores))
    return int(live[j]), float(scores[j]), int(full.sum())


def cost(e: Extrinsic, ev: CostEvaluator) -> float:
    return float(cost_batch(e.matrix(), e.t[None], ev)[0])


class ValuePass(NamedTuple):
    """One pose scored by value_pass: its cost, and the intermediates that
    finish_gradient reuses."""

    value: float
    ev: CostEvaluator
    q: np.ndarray          # (3, N + M) pts @ R.T, transposed
    p_c: np.ndarray        # (3, N + M) camera-frame points
    valid: np.ndarray      # in front of the camera
    ok: np.ndarray         # in frame
    cell: tuple            # (fu, fv, gu, gv) offsets into each point's cell
    corners: np.ndarray    # (4, N + M) the cell corners of each point's map


def value_pass(e: Extrinsic, ev: CostEvaluator) -> ValuePass:
    """cost(e, ev), bit-identical to cost(), with what the gradient needs.

    Both classes share one projection and one bilinear lookup, each class
    reading its corners from its own map; only the per-class sums are
    taken apart.  Points behind the camera or out of frame add 0.
    """
    k = ev.intrinsics
    n = len(ev.lane_points)
    lane, pole = slice(0, n), slice(n, None)
    # q = pts @ R.T, taken class by class as cost_batch takes it: numpy
    # multiplies a one-point class by another BLAS routine, whose bits
    # differ from that point's row of a larger product
    R_T = e.matrix().T
    rotated = np.empty_like(ev.points)
    for c in (lane, pole):
        np.matmul(ev.points[c], R_T, out=rotated[c])
    q = np.ascontiguousarray(rotated.T)                          # (3, N + M)
    p_c = q + e.t[:, None]
    uv, valid = project_points(k, p_c.T)
    # one grid for both maps: each has the intrinsics' shape
    ok, i, cell = bilinear_cells(uv[..., 0], uv[..., 1], (k.height, k.width))
    corners = np.empty((4, len(i)))
    ev.lane_height.corners(i[lane], out=corners[:, lane])
    ev.pole_height.corners(i[pole], out=corners[:, pole])
    vals = np.where(valid & ok, bilinear(corners, *cell), 0.0)
    # the same sums as _class_sums, so the value keeps its bits
    value = vals[lane].sum() / n + vals[pole].sum() / len(ev.pole_points)
    return ValuePass(float(value), ev, q, p_c, valid, ok, cell, corners)


def finish_gradient(vp: ValuePass) -> np.ndarray:
    """The gradient (6,) of vp's cost with respect to the pose increment
    (dt, w) that maps its pose e to p_C = exp([w]x) R p_L + t + dt,
    translation first, from the intermediates of its value pass.  Points
    behind the camera or out of frame add 0."""
    ev, q, p_c, valid, ok = vp.ev, vp.q, vp.p_c, vp.valid, vp.ok
    k = ev.intrinsics
    n = len(ev.lane_points)
    fu, fv, gu, gv = vp.cell
    g00, g01, g10, g11 = vp.corners
    # the bilinear surface's exact slopes inside the cell, 0 out of frame
    du = np.where(ok, (g01 - g00) * gv + (g11 - g10) * fv, 0.0)
    dv = np.where(ok, (g10 - g00) * gu + (g11 - g01) * fu, 0.0)
    # chain rule through the pinhole: a = d value / d p_c, 0 for a point
    # behind the camera (inv_z = 0) or out of frame (du = dv = 0)
    inv_z = np.where(valid, 1.0 / np.where(valid, p_c[2], 1.0), 0.0)
    a = np.empty_like(q)
    np.multiply(du, k.fx * inv_z, out=a[0])
    np.multiply(dv, k.fy * inv_z, out=a[1])
    np.multiply(-(a[0] * p_c[0] + a[1] * p_c[1]), inv_z, out=a[2])
    terms = []
    for c in (slice(0, n), slice(n, None)):
        ac, qc = a[:, c], q[:, c]
        # d/dt = sum a; d/dw = sum q x a, read off the 3 x 3 moments sum a q^T
        m = ac @ qc.T
        d_w = (m[2, 1] - m[1, 2], m[0, 2] - m[2, 0], m[1, 0] - m[0, 1])
        terms.append(np.concatenate([ac.sum(axis=1), d_w]) / ac.shape[1])
    return terms[0] + terms[1]


def cost_and_gradient(e: Extrinsic, ev: CostEvaluator):
    """(cost(e, ev), gradient): value_pass, then finish_gradient."""
    vp = value_pass(e, ev)
    return vp.value, finish_gradient(vp)
