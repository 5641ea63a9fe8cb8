"""Semantic line-alignment cost.

The cost is a sum of terms, any number of (points, height map) pairs:
the mean value of the term's LiDAR points, projected through the
candidate extrinsic, on its height map; no kernel here names a class.  A
point behind the camera or outside the image is a 0 in its term's one
sum over all its points, in every kernel here, so no term exceeds the
higher of 0 and its map's highest value.

cost_batch scores many translations of one rotation at once;
best_in_batch finds the best of them, scoring in full only those that an
upper bound from a subset of the points cannot rule out, and each of
those once; the bound reads the term with fewer points first, since the
cost adds the terms' means, so each of its points weighs more;
value_pass scores one pose in one pass over every term and keeps its
intermediates, from which finish_gradient takes the cost's analytic
gradient; the refine stage finishes only the poses it moves to, and cost
is value_pass's value.  Every kernel reads the height maps through one
bilinear lookup, _lookup.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch
from .geometry import Extrinsic, Intrinsics, project_points
from .image_features import HeightMap

# poses x points per block: each temporary of the kernel stays at 128 KB,
# so its working memory is a few MB whatever K is
_BLOCK = 16384


@dataclass(frozen=True, eq=False)
class CostEvaluator:
    """The cost of terms ((points (n, 3) LiDAR frame, HeightMap), ...), added
    in that order.  It keeps every term's points as one read-only array,
    points, and each term as (rows of points, HeightMap)."""

    terms: tuple = field(repr=False)
    intrinsics: Intrinsics
    points: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        sets = [np.asarray(pts, dtype=float).reshape(-1, 3) for pts, _ in self.terms]
        if not sets or min(map(len, sets)) == 0:
            raise ValueError("cost evaluator needs non-empty point sets")
        k = self.intrinsics
        for i, (_, hmap) in enumerate(self.terms):
            if hmap.values.shape != (k.height, k.width):
                raise DimensionMismatch(f"term {i} height map has shape {hmap.values.shape}, "
                                        f"intrinsics need {(k.height, k.width)}")
        points = np.concatenate(sets)
        points.setflags(write=False)
        edges = np.cumsum([0] + [len(p) for p in sets]).tolist()
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "terms", tuple((slice(a, b), hmap) for a, b, (_, hmap)
                                                in zip(edges, edges[1:], self.terms)))

    # the first and second terms' rows, which perfbench/tracer.py counts as
    # an evaluator's points (until ROADMAP item 17)
    lane_points = property(lambda self: self.points[self.terms[0][0]])
    pole_points = property(lambda self: self.points[self.terms[1][0]])

    def __call__(self, e: Extrinsic) -> float:
        return cost(e, self)


def _rotated(R, ev: CostEvaluator) -> np.ndarray:
    """q = R @ ev.points.T, (3, n), one product per term: numpy
    multiplies a one-point term by another BLAS routine (gemv), whose bits
    differ from that point's column of a larger product."""
    R = np.asarray(R, dtype=float).reshape(3, 3)
    q = np.empty((3, len(ev.points)))
    for rows, _ in ev.terms:
        np.matmul(R, ev.points[rows].T, out=q[:, rows])
    return q


def _lookup(p_c, terms, k: Intrinsics):
    """(values, valid, ok, cell, corners) of the camera-frame points p_c
    (3, ..., P), each term's rows read from its own map: a point behind the
    camera (not valid) or out of frame (not ok) has the value 0.  cell holds
    the offsets (fu, fv) into each point's cell and their complements
    (gu, gv); corners (4, ..., P) the cell's top-left, top-right,
    bottom-left and bottom-right values, in the order finish_gradient
    differentiates."""
    uv, valid = project_points(k, p_c.transpose(*range(1, p_c.ndim), 0))
    u, v = uv[..., 0], uv[..., 1]
    # one grid for every map: each has the intrinsics' shape.  An
    # out-of-frame point is given cell 0.
    h, w = k.height, k.width
    ok = (u >= 0) & (u <= w - 1) & (v >= 0) & (v <= h - 1)
    uc = np.where(ok, u, 0.0)
    vc = np.where(ok, v, 0.0)
    u0 = uc.astype(int)
    np.minimum(u0, w - 2, out=u0)
    v0 = vc.astype(int)
    np.minimum(v0, h - 2, out=v0)
    fu = np.subtract(uc, u0, out=uc)
    fv = np.subtract(vc, v0, out=vc)
    gu, gv = 1 - fu, 1 - fv
    i = v0 * w                 # flat index of each cell's top-left corner
    i += u0
    corners = np.empty((4,) + i.shape)
    for rows, hmap in terms:
        g = hmap.values.ravel()
        # flat gathers of the four neighbours: the same values as 2-D fancy
        # indexing, at a fraction of its cost.  Every index is in range, so
        # mode="clip" changes no value; it only spares take() the buffered
        # copy that mode="raise" makes of out.
        for row, offset in zip(corners[..., rows], (0, 1, w, w + 1)):
            g[offset:].take(i[..., rows], out=row, mode="clip")
    # the blend in place, in the order that sets its bits: each corner
    # times its u weight, times its v weight, added to val in turn
    val = corners[0] * gu
    val *= gv
    term = np.multiply(corners[1], fu)
    term *= gv
    val += term
    np.multiply(corners[2], gu, out=term)
    term *= fv
    val += term
    np.multiply(corners[3], fu, out=term)
    term *= fv
    val += term
    return np.where(valid & ok, val, 0.0), valid, ok, (fu, fv, gu, gv), corners


def _sums(q, t, hmap: HeightMap, k: Intrinsics) -> np.ndarray:
    """Summed value on hmap of the points q (3, n), rotated into the camera
    frame, translated by each row of t (K, 3); q may be any subset of the
    points of hmap's term."""
    out = np.empty(len(t))
    step = max(1, _BLOCK // q.shape[1])
    for s in range(0, len(t), step):
        p_c = q[:, None, :] + t[s:s + step].T[:, :, None]   # (3, B, n)
        out[s:s + step] = _lookup(p_c, ((slice(None), hmap),), k)[0].sum(axis=1)
    return out


def _total(sums, terms):
    """The terms' means, added left to right: sum() starts from 0, and 0 + -0.0 is +0.0."""
    return reduce(np.add, (s / (rows.stop - rows.start) for s, (rows, _) in zip(sums, terms)))


def cost_batch(R, t, ev: CostEvaluator) -> np.ndarray:
    """Alignment cost of the K poses p_C = R @ p_L + t[j] that share the
    rotation R (3, 3): t (K, 3) gives a (K,) array.

    The poses share one R @ pts.T, and each score is bit-identical to
    scoring its pose alone.
    """
    t = np.asarray(t, dtype=float).reshape(-1, 3)
    q = _rotated(R, ev)
    return _total([_sums(q[:, rows], t, hmap, ev.intrinsics) for rows, hmap in ev.terms], ev.terms)


# best_in_batch bounds every score from nested prefixes of each term's
# points before it scores any pose in full.  The prefixes follow a strided
# order, so each one samples the whole extracted point set.  Each stage
# gives one fraction per term of the coarse stage's two: the first for the
# term with fewer points, which it reads first.  The cost adds the terms'
# means, so each of its points weighs more; on the frames measured that
# is the thinner mask's term, off which a wrong pose puts most points.
_STAGE_FRACTIONS = ((0.25, 0.0), (0.5, 0.0), (1.0, 0.125), (1.0, 0.5))
_STRIDE_ORDER = (0, 4, 2, 6, 1, 5, 3, 7)
# poses scored in full after the first stage, to raise the floor
_FLOOR_PICKS = 4
# per unit of height: covers the summation order, and bilinear weights
# that sum to a hair over 1
_ROUNDING = 1e-9


class _StagedBound:
    """Upper bounds on the cost_batch(R, t, ev) scores, one stage of
    _STAGE_FRACTIONS at a time, with the terms ordered by point count
    (fewer first; on a tie, in ev.terms order).  A stage scores only the
    points new to it; a point not yet scored adds at most the map's
    highest value, or the 0 of a point behind the camera or out of frame
    if that is higher."""

    def __init__(self, R, t, ev: CostEvaluator):
        # columns of the product cost_batch takes, so that each point's
        # value has the bits it has in the full score
        q = _rotated(R, ev)
        self.t = t
        self.k = ev.intrinsics
        self.terms = []
        for rows, hmap in sorted(ev.terms, key=lambda term: term[0].stop - term[0].start):
            strided = [q[:, rows][:, o::len(_STRIDE_ORDER)] for o in _STRIDE_ORDER]
            lo, hi = hmap.value_range
            self.terms.append((np.hstack(strided), hmap, max(0.0, hi), _ROUNDING * max(1.0, hi, -lo)))
        self.sums = np.zeros((len(self.terms), len(t)))
        self.stage = 0         # stages summed so far

    def tighten(self, live) -> np.ndarray:
        """Sum the next stage's new points for the rows live of t, and bound
        each of their scores."""
        f0 = _STAGE_FRACTIONS[self.stage - 1] if self.stage else (0.0,) * len(self.terms)
        f = _STAGE_FRACTIONS[self.stage]
        bound = np.zeros(len(live))
        for c, (q, hmap, top, margin) in enumerate(self.terms):
            n = q.shape[1]
            m0, m = int(f0[c] * n), int(f[c] * n)
            if m > m0:
                self.sums[c, live] += _sums(q[:, m0:m], self.t[live], hmap, self.k)
            bound += (self.sums[c, live] + (n - m) * top) / n + margin
        self.stage += 1
        return bound


def best_in_batch(R, t, ev: CostEvaluator, floor: float):
    """(k, score, scored): the first row k of t (K, 3) whose
    cost_batch(R, t, ev) score is the highest, and that score, if it is
    above floor; else (None, floor, scored).  scored counts the rows
    scored in full, each once: the floor picks keep their scores, and the
    last cost_batch call gets only the live rows not yet scored.  ev has
    two terms: _STAGE_FRACTIONS is the coarse stage's two-term schedule.

    The result is bit-identical to scoring every row: a row's score has
    the same bits in any batch, and a row is dropped only when its bound
    falls below a score another row reaches, so it can neither win nor
    tie.
    """
    t = np.asarray(t, dtype=float).reshape(-1, 3)
    if len(t) == 0:
        return None, floor, 0
    live = np.arange(len(t))
    full = np.zeros(len(t), dtype=bool)
    scores = np.empty(len(t))
    staged = _StagedBound(R, t, ev)
    cut = floor
    for stage in range(len(_STAGE_FRACTIONS)):
        bound = staged.tighten(live)
        if stage == 0:
            picks = live[np.argsort(-bound, kind="stable")[:_FLOOR_PICKS]]
            scores[picks] = cost_batch(R, t[picks], ev)
            full[picks] = True
            cut = max(cut, float(scores[picks].max()))
        live = live[bound >= cut]
    rest = live[~full[live]]
    scores[rest] = cost_batch(R, t[rest], ev)
    full[rest] = True
    # strict: a row that only ties floor does not win
    if not len(live) or scores[live].max() <= floor:
        return None, floor, int(full.sum())
    k = int(live[np.argmax(scores[live])])
    return k, float(scores[k]), int(full.sum())


def cost(e: Extrinsic, ev: CostEvaluator) -> float:
    """Alignment cost of the pose e: value_pass's value."""
    return value_pass(e, ev).value


class ValuePass(NamedTuple):
    """One pose scored by value_pass: its cost, and the intermediates that
    finish_gradient reuses."""

    value: float
    ev: CostEvaluator
    q: np.ndarray          # (3, n) R @ ev.points.T
    p_c: np.ndarray        # (3, n) camera-frame points
    valid: np.ndarray      # in front of the camera
    ok: np.ndarray         # in frame
    cell: tuple            # (fu, fv, gu, gv) offsets into each point's cell
    corners: np.ndarray    # (4, n) the cell corners of each point's map


def value_pass(e: Extrinsic, ev: CostEvaluator) -> ValuePass:
    """The cost of the pose e, bit-identical to its cost_batch score, with
    what the gradient needs: every term shares one projection and one
    bilinear lookup, and only the per-term sums are taken apart."""
    q = _rotated(e.matrix(), ev)
    p_c = q + e.t[:, None]
    vals, *lookup = _lookup(p_c, ev.terms, ev.intrinsics)
    # the same sums as _sums, so the value keeps its bits
    value = _total([vals[rows].sum() for rows, _ in ev.terms], ev.terms)
    return ValuePass(float(value), ev, q, p_c, *lookup)


def finish_gradient(vp: ValuePass) -> np.ndarray:
    """The gradient (6,) of vp's cost with respect to the pose increment
    (dt, w) that maps its pose e to p_C = exp([w]x) R p_L + t + dt,
    translation first, from the intermediates of its value pass.  Points
    behind the camera or out of frame add 0."""
    ev, q, p_c, valid, ok = vp.ev, vp.q, vp.p_c, vp.valid, vp.ok
    k = ev.intrinsics
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
    sums = []
    for rows, _ in ev.terms:
        ac, qc = a[:, rows], q[:, rows]
        # d/dt = sum a; d/dw = sum q x a, read off the 3 x 3 moments sum a q^T
        m = ac @ qc.T
        d_w = (m[2, 1] - m[1, 2], m[0, 2] - m[2, 0], m[1, 0] - m[0, 1])
        sums.append(np.concatenate([ac.sum(axis=1), d_w]))
    return _total(sums, ev.terms)
