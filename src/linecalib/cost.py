"""Semantic line-alignment cost.

For each class (lane, pole) the extracted LiDAR points are projected
through the candidate extrinsic and looked up in the class height map;
the cost is the sum of the two per-class means.  Points behind the
camera or outside the image contribute zero, so the cost is bounded by 2.

cost_batch scores many translations of one rotation at once;
cost_and_gradient scores one pose and also returns the cost's analytic
gradient, for the refine stage.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import Extrinsic, Intrinsics, project_points
from .image_features import HeightMap

# poses x points per block: each temporary of the kernel stays at 128 KB,
# so its working memory is a few MB whatever K is
_BLOCK = 16384


@dataclass(frozen=True)
class CostEvaluator:
    lane_points: np.ndarray   # (N, 3) LiDAR frame
    pole_points: np.ndarray   # (M, 3)
    lane_height: HeightMap
    pole_height: HeightMap
    intrinsics: Intrinsics

    def __post_init__(self):
        lp = np.ascontiguousarray(np.asarray(self.lane_points, dtype=float).reshape(-1, 3))
        pp = np.ascontiguousarray(np.asarray(self.pole_points, dtype=float).reshape(-1, 3))
        if len(lp) == 0 or len(pp) == 0:
            raise ValueError("cost evaluator needs non-empty point sets")
        lp.setflags(write=False)
        pp.setflags(write=False)
        object.__setattr__(self, "lane_points", lp)
        object.__setattr__(self, "pole_points", pp)

    def __call__(self, e: Extrinsic) -> float:
        return cost(e, self)


def _class_terms(rotated, t, hmap: HeightMap, k: Intrinsics) -> np.ndarray:
    """Mean height-map value of the points rotated (N, 3) = pts @ R.T
    translated by each row of t (K, 3)."""
    n = len(rotated)
    planes = np.ascontiguousarray(rotated.T)
    out = np.empty(len(t))
    step = max(1, _BLOCK // n)
    for s in range(0, len(t), step):
        p_c = planes[:, None, :] + t[s:s + step].T[:, :, None]   # (3, B, N)
        uv, valid = project_points(k, p_c.transpose(1, 2, 0))
        vals = hmap.sample_bilinear(uv[..., 0], uv[..., 1])
        # A row with points behind the camera sums only the others: zeros
        # left in it would regroup its pairwise sum and move the last bits.
        sums = vals.sum(axis=1)
        for j in np.flatnonzero(~valid.all(axis=1)):
            sums[j] = vals[j][valid[j]].sum()
        out[s:s + step] = sums / n
    return out


def cost_batch(R, t, ev: CostEvaluator) -> np.ndarray:
    """Alignment cost of the K poses p_C = R @ p_L + t[j] that share the
    rotation R (3, 3): t (K, 3) gives a (K,) array.

    The poses share one pts @ R.T, and each score is bit-identical to
    scoring its pose alone.
    """
    R_T = np.asarray(R, dtype=float).reshape(3, 3).T
    t = np.asarray(t, dtype=float).reshape(-1, 3)
    return _class_terms(
        ev.lane_points @ R_T, t, ev.lane_height, ev.intrinsics
    ) + _class_terms(ev.pole_points @ R_T, t, ev.pole_height, ev.intrinsics)


def cost(e: Extrinsic, ev: CostEvaluator) -> float:
    return float(cost_batch(e.matrix(), e.t[None], ev)[0])


def _class_value_grad(rotated, t, hmap: HeightMap, k: Intrinsics):
    """One class term of cost(), and its gradient (6,) with respect to the
    increment (dt, w) that moves each point to exp([w]x) q + t + dt, q a
    row of rotated = pts @ R.T."""
    n = len(rotated)
    q = np.ascontiguousarray(rotated.T)          # (3, N)
    p_c = q + t[:, None]
    uv, valid = project_points(k, p_c.T)
    vals, du, dv = hmap.sample_bilinear_grad(uv[..., 0], uv[..., 1])
    # the same pairwise sums as _class_terms, so the value keeps its bits
    value = (vals.sum() if valid.all() else vals[valid].sum()) / n
    # chain rule through the pinhole: a = d value / d p_c, 0 for a point
    # behind the camera (inv_z = 0) or out of frame (du = dv = 0)
    inv_z = np.where(valid, 1.0 / np.where(valid, p_c[2], 1.0), 0.0)
    a = np.empty((3, n))
    np.multiply(du, k.fx * inv_z, out=a[0])
    np.multiply(dv, k.fy * inv_z, out=a[1])
    np.multiply(-(a[0] * p_c[0] + a[1] * p_c[1]), inv_z, out=a[2])
    # d/dt = sum a; d/dw = sum q x a, read off the 3 x 3 moments sum a q^T
    m = a @ q.T
    d_w = (m[2, 1] - m[1, 2], m[0, 2] - m[2, 0], m[1, 0] - m[0, 1])
    return value, np.concatenate([a.sum(axis=1), d_w]) / n


def cost_and_gradient(e: Extrinsic, ev: CostEvaluator):
    """(cost(e, ev), gradient): the value bit-identical to cost(), the
    gradient (6,) with respect to the pose increment (dt, w) that maps e to
    p_C = exp([w]x) R p_L + t + dt, translation first.  Points behind the
    camera or out of frame add 0 to both."""
    R_T = e.matrix().T
    lane, d_lane = _class_value_grad(ev.lane_points @ R_T, e.t, ev.lane_height, ev.intrinsics)
    pole, d_pole = _class_value_grad(ev.pole_points @ R_T, e.t, ev.pole_height, ev.intrinsics)
    return float(lane + pole), d_lane + d_pole

