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
those once; the bound reads the term with the fewest points first, since
the cost adds the terms' means, so each of its points weighs more, and
reads each point's one-byte cell ceiling (HeightMap.cell_ceilings), not
its value; value_pass scores one pose in one pass over every term and
keeps its intermediates, its depth among them, from which finish_gradient
takes the cost's analytic gradient; the refine stage finishes only the
poses it moves to, and cost is value_pass's value.  Every exact score
reads the height maps through one bilinear lookup, _lookup, which gathers
each cell corner's code and then that code's level (no float map is
built), and the bound reads the ceilings at the same cells: both take a
point's cell from one rule, _cell.  A point is in frame when clamping its
pixel coordinates to the frame leaves them unchanged.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch
from .geometry import Extrinsic, Intrinsics, project_planes
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
            if hmap.codes.shape != (k.height, k.width):
                raise DimensionMismatch(f"term {i} height map has shape {hmap.codes.shape}, "
                                        f"intrinsics need {(k.height, k.width)}")
        points = np.concatenate(sets)
        if not np.isfinite(points).all():
            raise ValueError("cost evaluator needs finite points")
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


def _cell(p_c, k: Intrinsics):
    """(i, (u0, v0), (u, v), (uc, vc), valid, zs): the cell at which every
    kernel reads a height map for the camera-frame points p_c (3, ..., P).
    (u, v), valid and zs are project_planes'; (uc, vc) is (u, v) clamped
    to the frame, (u0, v0) the cell's top-left corner and i its flat
    index.  An out-of-frame point reads the cell of its clamped (u, v), a
    point on the last column or row the cell to its left or above."""
    (u, v), valid, zs = project_planes(k, p_c)
    # one grid for every map: each has the intrinsics' shape
    h, w = k.height, k.width
    uc = u.clip(0.0, w - 1)
    vc = v.clip(0.0, h - 1)
    u0 = uc.astype(int)
    np.minimum(u0, w - 2, out=u0)
    v0 = vc.astype(int)
    np.minimum(v0, h - 2, out=v0)
    i = v0 * w
    i += u0
    return i, (u0, v0), (u, v), (uc, vc), valid, zs


def _lookup(p_c, terms, k: Intrinsics):
    """(values, valid, ok, zs, cell, corners) of the camera-frame points p_c
    (3, ..., P), each term's rows read from its own map at its _cell: a
    point behind the camera (not valid) or out of frame (not ok) has the
    value 0.  ok is where clamping (u, v) to the frame leaves them
    unchanged: 0 <= u <= w - 1 and 0 <= v <= h - 1, as CostEvaluator
    refuses non-finite points and Extrinsic non-finite values (a caller of
    cost_batch or best_in_batch hands in finite translations), so no
    coordinate is NaN.  zs is the depth divided by; cell holds the offsets
    (fu, fv) into each point's cell and their complements (gu, gv);
    corners (4, ..., P) the cell's top-left, top-right, bottom-left and
    bottom-right values, in the order finish_gradient differentiates: each
    corner's code, gathered from the term's map, then that code's level."""
    i, (u0, v0), (u, v), (uc, vc), valid, zs = _cell(p_c, k)
    w = k.width
    ok = uc == u
    ok &= vc == v
    fu = np.subtract(uc, u0, out=uc)
    fv = np.subtract(vc, v0, out=vc)
    gu, gv = 1 - fu, 1 - fv
    corners = np.empty((4,) + i.shape)
    for rows, hmap in terms:
        flat, cell = hmap.codes.ravel(), i[..., rows]
        # flat gathers of the four neighbours' codes: the same as 2-D fancy
        # indexing, at a fraction of its cost.  Every index is in range, so
        # mode="clip" changes no value; it only spares take() the buffered
        # copy that mode="raise" makes of out.
        for row, offset in zip(corners[..., rows], (0, 1, w, w + 1)):
            hmap.levels.take(flat[offset:].take(cell, mode="clip"), out=row, mode="clip")
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
    return np.where(valid & ok, val, 0.0), valid, ok, zs, (fu, fv, gu, gv), corners


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


def _ceiling_sums(q, t, hmap: HeightMap, k: Intrinsics) -> np.ndarray:
    """Summed cell ceilings (int64, in 255ths of a unit of height) on hmap
    of the points q (3, n), translated as in _sums: one byte per point,
    read at the point's _cell, so at least 255 times its value there, and
    at least the 0 of a point behind the camera or out of frame."""
    ceilings = hmap.cell_ceilings.ravel()
    out = np.empty(len(t), dtype=np.int64)
    step = max(1, _BLOCK // q.shape[1])
    for s in range(0, len(t), step):
        p_c = q[:, None, :] + t[s:s + step].T[:, :, None]   # (3, B, n)
        # every index is in range: mode="clip" changes no value (see _lookup)
        read = ceilings.take(_cell(p_c, k)[0], mode="clip")
        out[s:s + step] = read.sum(axis=1, dtype=np.int64)
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
# order, so each one samples the whole extracted point set.  A stage reads
# the term with the fewest points, first, to its first fraction and every
# other term to its second.  The cost adds the terms' means, so each of its
# points weighs more; on the frames measured that is the thinner mask's,
# off which a wrong pose puts most points.
_STAGE_FRACTIONS = ((0.25, 0.0), (0.5, 0.0), (1.0, 0.125), (1.0, 0.5))
_STRIDE_ORDER = (0, 4, 2, 6, 1, 5, 3, 7)
# poses scored in full after the first stage, to raise a floor of 0: once
# an earlier batch has set the floor, it is the cut
_FLOOR_PICKS = 4
# per unit of height: covers the summation order, and bilinear weights
# that sum to a hair over 1
_ROUNDING = 1e-9


class _StagedBound:
    """Upper bounds on the cost_batch(R, t, ev) scores, one stage of
    _STAGE_FRACTIONS at a time, with the terms ordered by point count
    (fewer first; on a tie, in ev.terms order).  A stage reads only the
    points new to it, each at its cell ceiling (_ceiling_sums); a point
    not yet read adds its map's highest level, which bounds every value."""

    def __init__(self, R, t, ev: CostEvaluator):
        # columns of the product cost_batch takes, so that each point reads
        # the cell it reads in the full score
        q = _rotated(R, ev)
        self.t = t
        self.k = ev.intrinsics
        self.terms = []
        for rows, hmap in sorted(ev.terms, key=lambda term: term[0].stop - term[0].start):
            strided = [q[:, rows][:, o::len(_STRIDE_ORDER)] for o in _STRIDE_ORDER]
            self.terms.append((np.hstack(strided), hmap, hmap.levels.max()))
        self.sums = np.zeros((len(self.terms), len(t)), dtype=np.int64)
        self.stage = 0         # stages summed so far

    def tighten(self, live) -> np.ndarray:
        """Sum the next stage's new points for the rows live of t, and bound
        each of their scores."""
        f0 = _STAGE_FRACTIONS[self.stage - 1] if self.stage else (0.0, 0.0)
        f = _STAGE_FRACTIONS[self.stage]
        bound = np.zeros(len(live))
        for c, (q, hmap, top) in enumerate(self.terms):
            n = q.shape[1]
            m0, m = (int(fr[min(c, 1)] * n) for fr in (f0, f))
            if m > m0:
                self.sums[c, live] += _ceiling_sums(q[:, m0:m], self.t[live], hmap, self.k)
            bound += (self.sums[c, live] / 255 + (n - m) * top) / n + _ROUNDING
        self.stage += 1
        return bound


def best_in_batch(R, t, ev: CostEvaluator, floor: float):
    """(k, score, scored): the first row k of t (K, 3) whose
    cost_batch(R, t, ev) score is the highest, and that score, if it is
    above floor; else (None, floor, scored).  scored counts the rows
    scored in full, each once: at a floor of 0 or below, the floor picks
    keep their scores, and the last cost_batch call gets only the live
    rows not yet scored.  ev may have any number of terms (see
    _STAGE_FRACTIONS).

    The result is bit-identical to scoring every row: a row's score has
    the same bits in any batch, and a row is dropped only when its bound
    falls below floor or a score another row reaches, so it can neither
    win nor tie.
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
        # a floor above 0 is an earlier best, already a cut
        if stage == 0 and floor <= 0.0:
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
    ok: np.ndarray         # in frame: the clamped (u, v) equal (u, v)
    zs: np.ndarray         # depth p_c[2], 1 where not valid
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
    # the bilinear surface's exact slopes inside the cell, in place:
    # du = (g01 - g00) * gv + (g11 - g10) * fv, dv likewise; 0 out of frame
    out = ~ok
    du, dv, slope = g01 - g00, g10 - g00, np.empty_like(g00)
    for d, wd, far, near, ws in ((du, gv, g11, g10, fv), (dv, gu, g11, g01, fu)):
        d *= wd
        np.multiply(np.subtract(far, near, out=slope), ws, out=slope)
        d += slope
        d[out] = 0.0
    # chain rule through the pinhole: a = d value / d p_c, 0 for a point
    # behind the camera (inv_z = 0) or out of frame (du = dv = 0)
    inv_z = np.divide(1.0, vp.zs)
    inv_z[~valid] = 0.0
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
