"""Output checks against the synthetic ground truth, and their self-test.

Everything here is plain numpy: the pose files are parsed and the pose
errors computed without calling linecalib, so a fault in the program's
own error or rotation code cannot hide a wrong result.

Run `python3 perfbench/checks.py` to self-test the checks alone; every
benchmark run also self-tests them before it measures anything.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Bound:
    """A pose passes when both errors are at most these."""

    dt_m: float
    dtheta_deg: float

    def admits(self, dt_m: float, dtheta_deg: float) -> bool:
        return dt_m <= self.dt_m and dtheta_deg <= self.dtheta_deg


# acceptance criterion 4: refined pose within 0.05 m / 0.5 deg
REFINED_BOUND = Bound(0.05, 0.5)
# coarse P3L pose on the five-lane scenes; see README "Coarse bound"
COARSE_BOUND = Bound(0.75, 2.0)


def rodrigues(r) -> np.ndarray:
    """Angle-axis vector -> rotation matrix."""
    r = np.asarray(r, dtype=float).reshape(3)
    theta = float(np.linalg.norm(r))
    if theta < 1e-15:
        return np.eye(3)
    k = r / theta
    K = np.array([[0.0, -k[2], k[1]], [k[2], 0.0, -k[0]], [-k[1], k[0], 0.0]])
    return np.eye(3) + math.sin(theta) * K + (1.0 - math.cos(theta)) * (K @ K)


def read_pose(path) -> tuple[np.ndarray, np.ndarray]:
    """(R, t) from an extrinsic or scene-spec file: `r = "x y z"`, `t = "x y z"`."""
    vals = {}
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0]
        if "=" not in line:
            continue
        key, value = (s.strip() for s in line.split("=", 1))
        if key in ("r", "t"):
            vals[key] = np.array([float(x) for x in value.strip('"').split()])
    if set(vals) != {"r", "t"} or any(v.shape != (3,) for v in vals.values()):
        raise ValueError(f"{path}: no r/t pose")
    return rodrigues(vals["r"]), vals["t"]


def is_rotation(R, tol: float = 1e-6) -> bool:
    R = np.asarray(R, dtype=float)
    return (
        R.shape == (3, 3)
        and bool(np.isfinite(R).all())
        and float(np.abs(R @ R.T - np.eye(3)).max()) <= tol
        and abs(float(np.linalg.det(R)) - 1.0) <= tol
    )


def pose_error(R, t, R_ref, t_ref) -> tuple[float, float]:
    """(translation error in m, geodesic rotation error in degrees)."""
    dt = float(np.linalg.norm(np.asarray(t) - np.asarray(t_ref)))
    c = (float(np.trace(np.asarray(R) @ np.asarray(R_ref).T)) - 1.0) / 2.0
    return dt, math.degrees(math.acos(max(-1.0, min(1.0, c))))


def never_worse(start_cost: float, end_cost: float) -> bool:
    """Refinement keeps its starting pose unless it finds a better one."""
    return math.isfinite(end_cost) and end_cost >= start_cost


def self_test() -> list[str]:
    """Every check must pass ground truth and reject known-bad poses.

    Returns the list of failures (empty when the checks are sound).
    """
    fails = []
    R_gt = rodrigues([1.2, -1.2, 1.2])
    t_gt = np.array([0.06, -0.3, -0.15])
    off_dir = np.array([1.0, 2.0, -2.0]) / 3.0
    R_off = rodrigues(off_dir * math.radians(3.0)) @ R_gt
    t_off = t_gt + off_dir * 1.0
    cases = [("ground truth", R_gt, t_gt, True), ("1 m / 3 deg off", R_off, t_off, False)]
    for axis in np.eye(3):
        cases.append((f"flipped 180 deg about {axis}", rodrigues(axis * math.pi) @ R_gt, t_gt, False))
    for name, bound in (("refined", REFINED_BOUND), ("coarse", COARSE_BOUND)):
        for what, R, t, want in cases:
            if bound.admits(*pose_error(R, t, R_gt, t_gt)) != want:
                fails.append(f"{name} bound {'rejects' if want else 'admits'} {what}")
    for what, R, _, _ in cases:
        if not is_rotation(R):
            fails.append(f"is_rotation rejects {what}")
    if is_rotation(R_gt * 1.01) or is_rotation(R_gt @ np.diag([1.0, 1.0, -1.0])):
        fails.append("is_rotation admits a scaled or reflected matrix")
    if not never_worse(0.8, 0.8) or not never_worse(0.8, 0.9) or never_worse(0.8, 0.79):
        fails.append("never_worse misjudges a cost pair")
    if never_worse(0.8, float("nan")):
        fails.append("never_worse admits a non-finite cost")
    return fails


if __name__ == "__main__":
    problems = self_test()
    for p in problems:
        print("FAIL:", p)
    print("checks self-test:", "failed" if problems else "ok")
    sys.exit(1 if problems else 0)
