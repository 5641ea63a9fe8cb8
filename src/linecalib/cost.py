"""Semantic line-alignment cost.

For each class (lane, pole) the extracted LiDAR points are projected
through the candidate extrinsic and looked up in the class height map;
the cost is the sum of the two per-class means.  Points behind the
camera or outside the image contribute zero, so the cost is bounded by 2.
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
    """Alignment cost of K poses p_C = R[j] @ p_L + t[j]: R (K, 3, 3) and
    t (K, 3) give a (K,) array.

    Poses with the same rotation matrix share one pts @ R.T, and each
    score is bit-identical to scoring its pose alone.
    """
    R = np.asarray(R, dtype=float).reshape(-1, 3, 3)
    t = np.asarray(t, dtype=float).reshape(-1, 3)
    groups: dict = {}
    for j, r in enumerate(R):
        groups.setdefault(r.tobytes(), []).append(j)
    out = np.empty(len(R))
    for poses in groups.values():
        R_T = R[poses[0]].T
        out[poses] = _class_terms(
            ev.lane_points @ R_T, t[poses], ev.lane_height, ev.intrinsics
        ) + _class_terms(ev.pole_points @ R_T, t[poses], ev.pole_height, ev.intrinsics)
    return out


def cost(e: Extrinsic, ev: CostEvaluator) -> float:
    return float(cost_batch(e.matrix()[None], e.t[None], ev)[0])
