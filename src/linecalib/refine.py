"""Derivative-free refinement: random search around the current best pose.

At step size eta the translation perturbation is uniform per axis in
[-eta * t_range, eta * t_range] and the rotation perturbation is a
uniform-sphere axis with angle uniform in
[-eta * theta_range_deg, eta * theta_range_deg] degrees.  Only strict
cost improvements are accepted; after reject_limit consecutive rejections
eta decays by step_decay, and the search stops when eta < step_final or
the sample budget runs out.  A search that never rises above zero cost has no
alignment to refine and fails with RefineError.
"""
from __future__ import annotations

import math

import numpy as np

from .config import RefinementConfig
from .cost import CostEvaluator
from .errors import RefineError
from .geometry import Extrinsic, angle_axis_to_matrix, matrix_to_angle_axis


def refine(initial: Extrinsic, ev: CostEvaluator, cfg: RefinementConfig) -> Extrinsic:
    """Hill-climb the alignment cost; never returns a worse pose."""
    rng = np.random.default_rng(cfg.seed)
    theta_max = math.radians(cfg.theta_range_deg)

    best = initial
    best_R = initial.matrix()
    best_cost = ev(initial)
    eta = cfg.step_init
    rejects = 0
    for _ in range(cfg.max_samples):
        if eta < cfg.step_final:
            break
        dt = rng.uniform(-1.0, 1.0, size=3) * (eta * cfg.t_range)
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        angle = rng.uniform(-1.0, 1.0) * (eta * theta_max)
        dR = angle_axis_to_matrix(axis * angle)
        cand_R = dR @ best_R
        cand = Extrinsic(matrix_to_angle_axis(cand_R), best.t + dt)
        c = ev(cand)
        if c > best_cost:
            best, best_R, best_cost = cand, cand_R, c
            rejects = 0
        else:
            rejects += 1
            if rejects >= cfg.reject_limit:
                eta *= cfg.step_decay
                rejects = 0
    if not best_cost > 0.0:
        raise RefineError(f"best cost {best_cost:.6f} after refinement is not above zero")
    return best
