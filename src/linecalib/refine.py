"""Refinement: BFGS ascent on the alignment cost from the given pose.

The ascent moves the pose by an increment (dt, w), measured in units of
1 m (translation) and 6 degrees (rotation): a rotation by exp([w]x)
about a pivot point of the camera frame, then a shift by dt.  It is
BFGS on that 6-vector, with the cost's analytic gradient and a
backtracking line search that accepts only strict improvements.
It pivots on the centroid of the cost points: about the camera, a small
yaw and a sideways shift move distant points almost alike, a narrow
ridge that stalls the ascent millimetres to centimetres short of the
maximum.  It ends when an accepted step is below step_final in every
component, or when no step of that size improves the cost.

The line search scores each candidate by its value alone (value_pass)
and finishes the gradient from that pass (finish_gradient) only for the
start and for each accepted step the ascent goes on from: a rejected
candidate's gradient would go unread.  Every value evaluation, the
start's included, is one unit of max_samples.  Every pose is scored at
its own Extrinsic(...).matrix(), so the result never scores below the
start.  An ascent that ends at zero cost has no alignment to refine and
fails with RefineError.
"""
from __future__ import annotations

import math

import numpy as np

from .config import RefinementConfig
from .cost import CostEvaluator, finish_gradient, value_pass
from .errors import RefineError
from .geometry import Extrinsic, angle_axis_to_matrix, vector_norm

# one unit of the increment (dt, w): 1 m of translation, 6 degrees of rotation
_SCALE = np.repeat([1.0, math.radians(6.0)], 3)
# line search: the first steepest-ascent step is this long in scaled units
# (0.1 m / 0.6 degrees; a restart reuses the last accepted length), a step
# must gain ARMIJO of its predicted gain, and a failed step shrinks by
# BACKTRACK
_FIRST_STEP = 0.1
_ARMIJO = 1e-4
_BACKTRACK = 0.25
_EYE6 = np.eye(6)
_EYE6.setflags(write=False)


def _moved(e: Extrinsic, dt, w, pivot) -> Extrinsic:
    """e rotated by exp([w]x) about the camera-frame point pivot, then
    translated by dt."""
    R_w = angle_axis_to_matrix(w)
    return Extrinsic.from_matrix(R_w @ e.matrix(), R_w @ (e.t - pivot) + pivot + dt)


def refine(initial: Extrinsic, ev: CostEvaluator, cfg: RefinementConfig) -> Extrinsic:
    """BFGS ascent on the alignment cost, rotating about the centroid of
    the cost points, with at most cfg.max_samples value evaluations;
    never returns a worse pose."""
    centroid = ev.points.mean(axis=0)

    def climb_state(e, scored):
        """Scaled gradient and pivot of the increment at e, from e's value
        pass scored."""
        g = finish_gradient(scored)
        pivot = e.matrix() @ centroid + e.t
        # the gradient is about e.t; moving the pivot to c adds w x (t - c)
        # to the translation, so (t - c) x d/dt to d/dw.  The cross product
        # is spelled out: the bits of np.cross, without its overhead.
        c0, c1, c2 = (e.t - pivot).tolist()
        d0, d1, d2 = g[:3].tolist()
        g[3:] += (c1 * d2 - c2 * d1, c2 * d0 - c0 * d2, c0 * d1 - c1 * d0)
        return g * _SCALE, pivot

    best = initial
    scored = value_pass(best, ev)
    f = scored.value
    g, pivot = climb_state(best, scored)
    budget = cfg.max_samples - 1
    H = None            # inverse-Hessian estimate; None: steepest ascent
    length = _FIRST_STEP
    while budget > 0:
        gn = vector_norm(g)
        if not gn > 0.0:
            break
        d = H @ g if H is not None else g * (length / gn)
        slope = float(g @ d)
        if not slope > 0.0:
            H = None
            continue
        alpha, accepted = 1.0, False
        while budget > 0 and not accepted:
            s = alpha * d
            x = s * _SCALE
            cand = _moved(best, x[:3], x[3:], pivot)
            scored = value_pass(cand, ev)
            budget -= 1
            accepted = scored.value > f and scored.value >= f + _ARMIJO * alpha * slope
            alpha *= _BACKTRACK
            if np.abs(s).max() * _BACKTRACK < cfg.step_final:
                break
        if not accepted:
            if H is None:
                break       # no steepest step of at least step_final improves
            H = None
            continue
        best, f = cand, scored.value
        if np.abs(s).max() < cfg.step_final:
            break
        g_new, pivot = climb_state(best, scored)
        length = vector_norm(s)
        y = g - g_new       # gradient change of the minimised -cost
        g = g_new
        sy = float(s @ y)
        if sy > 0.0:
            if H is None:
                H = _EYE6 * (sy / float(y @ y))
            rho = 1.0 / sy
            V = _EYE6 - rho * np.outer(s, y)
            H = V @ H @ V.T + rho * np.outer(s, s)
    if not f > 0.0:
        raise RefineError(f"best cost {f:.6f} after refinement is not above zero")
    return best
