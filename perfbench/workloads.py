"""The three workloads: their inputs, one operation each, and its check.

Each workload is a closed loop with one client in one process.  Its
operations are a fixed list (the frames, and for sweep the trials) that
depends only on the run length; the seed sets the order in which they
run.  So every run of a given length does the same work, and the
figures of different seeds differ only by the host.  An operation's
`run` is the timed call into linecalib; its `check` runs afterwards,
untimed and untraced, against the ground truth that `linecalib synth`
wrote beside the bundle.
"""
from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from checks import (
    COARSE_BOUND,
    REFINED_BOUND,
    is_rotation,
    never_worse,
    pose_error,
    read_pose,
    rodrigues,
)

# robustness protocol bounds: perturbation up to 1 m / 6 deg
SWEEP_MAX_T = 1.0
SWEEP_MAX_THETA_DEG = 6.0
SWEEP_SCENES = 4


@dataclass
class Outcome:
    failed: bool              # the program reported an error
    ok: bool = True           # the output passed its check
    dt_m: float = math.nan
    dtheta_deg: float = math.nan
    why: str = ""


def _bundle_args(b: Path) -> list[str]:
    return [
        "--cloud", str(b / "frame_cloud.bin"),
        "--lane-mask", str(b / "frame_lane.pgm"),
        "--pole-mask", str(b / "frame_pole.pgm"),
        "--intrinsics", str(b / "intrinsics.txt"),
    ]


def ground_truth(b: Path):
    """The bundle's ground-truth pose, cross-checked against its scene spec."""
    R, t = read_pose(b / "extrinsic_gt.txt")
    R_spec, t_spec = read_pose(b / "spec.txt")
    if float(np.abs(R - R_spec).max()) > 1e-9 or float(np.abs(t - t_spec).max()) > 1e-9:
        raise ValueError(f"{b}: extrinsic_gt.txt disagrees with the scene spec")
    return R, t


class CliOp:
    """One frame through a `linecalib` subcommand, called via cli.main."""

    def __init__(self, cli, command: str, bundle: Path, bound):
        self.cli = cli
        self.bound = bound
        self.out = bundle / f"{command}-out.txt"
        self.argv = [command, *_bundle_args(bundle), "--out", str(self.out)]
        self.gt = ground_truth(bundle)

    def run(self):
        with contextlib.redirect_stdout(io.StringIO()):
            return self.cli.main(self.argv)

    def check(self, code) -> Outcome:
        if code != 0:
            return Outcome(failed=True, why=f"exit code {code}")
        R, t = read_pose(self.out)
        self.out.unlink()
        dt, dth = pose_error(R, t, *self.gt)
        ok = self.bound.admits(dt, dth) and is_rotation(R)
        return Outcome(False, ok, dt, dth, "" if ok else f"pose {dt:.4f} m / {dth:.4f} deg off")


class SweepOp:
    """One robustness_sweep trial: perturb the ground truth, then refine."""

    def __init__(self, lc, scene, trial_seed: int):
        self.lc = lc
        self.scene = scene
        self.trial_seed = trial_seed
        self._captured = None

    def run(self):
        evaluation = self.lc.evaluation
        inner = evaluation.refine

        def capture(initial, ev, cfg=None):
            result = inner(initial, ev, cfg)
            self._captured = (initial, result)
            return result

        evaluation.refine = capture
        try:
            return evaluation.robustness_sweep(
                [self.scene.ev], self.scene.ref, 1, SWEEP_MAX_T,
                math.radians(SWEEP_MAX_THETA_DEG), self.trial_seed,
                refine_cfg=self.scene.refine_cfg,
            )
        finally:
            evaluation.refine = inner

    def check(self, trials) -> Outcome:
        if len(trials) != 1 or trials[0].failure or self._captured is None:
            why = trials[0].failure if trials else "no trial"
            return Outcome(failed=True, why=str(why))
        initial, result = self._captured
        self._captured = None
        ev = self.scene.ev
        R = result.matrix()
        dt, dth = pose_error(R, result.t, *self.scene.gt)
        rep = trials[0].refined_error
        checks = {
            "cost fell below the start": never_worse(ev(initial), ev(result)),
            "not a rotation": is_rotation(R)
            and float(np.abs(R - rodrigues(result.r)).max()) < 1e-9
            and bool(np.isfinite(result.t).all()),
            "reported error disagrees with the pose": abs(rep.dt - dt) < 1e-9
            and abs(math.degrees(rep.dtheta) - dth) < 1e-6,
        }
        bad = [k for k, v in checks.items() if not v]
        return Outcome(False, not bad, dt, dth, "; ".join(bad))


@dataclass
class SweepScene:
    ev: object
    ref: object
    gt: tuple
    refine_cfg: object


class Workload:
    name = ""
    layout = "canonical"
    nominal_op_s = 1.0   # host-normalised seconds; sets the op count per run

    def n_ops(self, seconds: int) -> int:
        return max(4, round(seconds / self.nominal_op_s))

    def scene_seeds(self, n_ops: int) -> list[int]:
        """The synth seeds of the scenes to write: one frame per operation."""
        return list(range(n_ops))

    def prepare(self, lc, bundles: list[Path], timed):
        """Set-up in the measuring process; returns one raw time per bundle
        (empty when there is none).  `timed(fn)` runs fn and returns its raw
        seconds and its result."""
        return []

    def ops(self, lc, bundles: list[Path], n_ops: int):
        raise NotImplementedError


class Calibrate(Workload):
    """The user path: `linecalib calibrate` on one canonical frame."""

    name = "calibrate"
    nominal_op_s = 1.9

    def ops(self, lc, bundles, n_ops):
        return [CliOp(lc.cli, "calibrate", b, REFINED_BOUND) for b in bundles]


class CoarseDense(Workload):
    """`linecalib coarse` on five-lane scenes: hundreds of P3L candidates."""

    name = "coarse_dense"
    layout = "five_lane"
    nominal_op_s = 2.4

    def ops(self, lc, bundles, n_ops):
        return [CliOp(lc.cli, "coarse", b, COARSE_BOUND) for b in bundles]


class Sweep(Workload):
    """The miscalibration protocol on features extracted at set-up."""

    name = "sweep"
    nominal_op_s = 0.85

    def scene_seeds(self, n_ops):
        return list(range(SWEEP_SCENES))

    def prepare(self, lc, bundles, timed):
        self.scenes = []
        cfg = lc.config.PipelineConfig()
        out = []
        for b in bundles:

            def setup(b=b):
                intr = lc.fileio.load_intrinsics(b / "intrinsics.txt")
                cloud = lc.cloud_features.PointCloud.from_array(
                    lc.fileio.load_cloud(b / "frame_cloud.bin"))
                lane = lc.image_features.load_mask(b / "frame_lane.pgm", "lane", intr)
                pole = lc.image_features.load_mask(b / "frame_pole.pgm", "pole", intr)
                cf = lc.cloud_features.extract_cloud_features(cloud, seed=cfg.seed, cfg=cfg)
                imf = lc.image_features.extract_image_features(lane, pole, cfg)
                return (lc.pipeline.build_evaluator(cf, imf, intr),
                        lc.fileio.load_extrinsic(b / "extrinsic_gt.txt"))

            raw, (ev, ref) = timed(setup)
            out.append(raw)
            self.scenes.append(SweepScene(ev, ref, ground_truth(b), cfg.refinement()))
        return out

    def ops(self, lc, bundles, n_ops):
        # trial i perturbs scene i mod SWEEP_SCENES with robustness_sweep seed i
        return [SweepOp(lc, self.scenes[i % len(self.scenes)], i) for i in range(n_ops)]


WORKLOADS = {w.name: w for w in (Calibrate, Sweep, CoarseDense)}
