"""Command-line interface.

Subcommands: calibrate, coarse, refine, evaluate, project, synth, sweep.
Pipeline failures map to stable exit codes: 1 parse, 2 extraction,
3 coarse, 4 refine.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import math
import sys
from pathlib import Path

import numpy as np

from . import evaluation, synth
from .cloud_features import PointCloud, extract_cloud_features
from .config import PipelineConfig, load_config
from .cost import cost
from .errors import STAGE_EXIT_CODES, CalibError, DimensionMismatch, ParseError
from .fileio import (
    check_writable,
    format_fields,
    load_cloud,
    load_extrinsic,
    load_image,
    load_intrinsics,
    save_cloud,
    save_extrinsic,
    save_pnm,
    save_text,
)
from .geometry import project_points
from .image_features import hough_lines, l1_distance_field, load_mask
from .pipeline import CalibrationReport, calibrate, coarse_calibrate, extract_features
from .refine import refine

# the files of a frame bundle: the `synth` output and a `sweep` frame
BUNDLE_FILES = {
    "cloud": "frame_cloud.bin",
    "lane_mask": "frame_lane.pgm",
    "pole_mask": "frame_pole.pgm",
    "intrinsics": "intrinsics.txt",
}

# the input files of a subcommand that reads a bundle, by argparse dest
BUNDLE_INPUTS = (*BUNDLE_FILES, "config")


def _add_bundle_args(p):
    p.add_argument("--cloud", required=True, help="point cloud (.bin or ascii)")
    p.add_argument("--lane-mask", required=True, help="lane PGM mask")
    p.add_argument("--pole-mask", required=True, help="pole PGM mask")
    p.add_argument("--intrinsics", required=True, help="intrinsics text file")


def _add_common(p):
    p.add_argument("--config", default=None, help="pipeline config file")
    p.add_argument("--seed", type=int, default=None, help="override config seed")


def _with_seed(record, seed):
    """The config or scene spec with its seed set by --seed, if given."""
    if seed is None:
        return record
    try:
        return dataclasses.replace(record, seed=seed)
    except ValueError as e:
        raise ParseError(f"--seed: {e}") from e


def _load_cfg(args) -> PipelineConfig:
    return _with_seed(load_config(args.config) if args.config else PipelineConfig(), args.seed)


def _load_bundle(paths):
    """Cloud, masks and intrinsics from the paths under BUNDLE_FILES' keys."""
    intr = load_intrinsics(paths["intrinsics"])
    cloud = PointCloud.from_array(load_cloud(paths["cloud"]))
    lane_mask = load_mask(paths["lane_mask"], "lane", intr)
    pole_mask = load_mask(paths["pole_mask"], "pole", intr)
    return cloud, lane_mask, pole_mask, intr


def cmd_calibrate(args) -> int:
    cfg = _load_cfg(args)
    extrinsic, report = calibrate(*_load_bundle(vars(args)), cfg)
    save_extrinsic(args.out, extrinsic)
    report_text = report.format()
    if args.report:
        save_text(args.report, report_text)
    sys.stdout.write(report_text)
    return 0


def cmd_coarse(args) -> int:
    cfg = _load_cfg(args)
    cloud, lane_mask, pole_mask, intr = _load_bundle(vars(args))
    cf, ev = extract_features(cloud, lane_mask, pole_mask, intr, cfg)
    lines = (hough_lines(lane_mask, cfg), hough_lines(pole_mask, cfg))
    report = CalibrationReport()
    extrinsic = coarse_calibrate(cf, lines, ev, report)
    save_extrinsic(args.out, extrinsic)
    sys.stdout.write(f"candidates: {report.candidates}\n")
    sys.stdout.write(f"coarse_cost: {report.coarse_cost:.6f}\n")
    return 0


def cmd_refine(args) -> int:
    cfg = _load_cfg(args)
    bundle = _load_bundle(vars(args))
    initial = load_extrinsic(args.init)
    _, ev = extract_features(*bundle, cfg)
    result = refine(initial, ev, cfg.refinement())
    save_extrinsic(args.out, result)
    sys.stdout.write(f"initial_cost: {cost(initial, ev):.6f}\n")
    sys.stdout.write(f"refined_cost: {cost(result, ev):.6f}\n")
    return 0


def cmd_evaluate(args) -> int:
    est = load_extrinsic(args.estimated)
    ref = load_extrinsic(args.reference)
    err = evaluation.calibration_error(est, ref)
    sys.stdout.write(
        f"dt_m: {err.dt:.6f}\n"
        f"dtheta_deg: {math.degrees(err.dtheta):.6f}\n"
    )
    out = csv.writer(sys.stdout, lineterminator="\n")
    out.writerow(evaluation.CSV_HEADER)
    out.writerow(err.csv_row())
    return 0


def cmd_project(args) -> int:
    if args.stats and not args.lane_mask:
        raise ParseError("--stats needs --lane-mask")
    cfg = _load_cfg(args)
    intr = load_intrinsics(args.intrinsics)
    cloud = PointCloud.from_array(load_cloud(args.cloud))
    extrinsic = load_extrinsic(args.extrinsic)
    img = load_image(args.image)
    h, w = img.shape[:2]
    if (w, h) != (intr.width, intr.height):
        # the points are projected through the intrinsics onto the image
        raise DimensionMismatch(
            f"{args.image}: image is {w}x{h}, intrinsics say {intr.width}x{intr.height}"
        )
    lane_mask = load_mask(args.lane_mask, "lane", intr) if args.lane_mask else None

    try:
        cf = extract_cloud_features(cloud, cfg.seed, cfg)
        lane_pts, pole_pts = cf.lane_points, cf.pole_points
    except CalibError:
        # plain intensity overlay when feature extraction fails
        lane_pts = pole_pts = np.zeros((0, 3))

    def pixels(pts):
        """Rows, columns and in-frame flags of the points' rounded pixels."""
        uv, valid = project_points(intr, extrinsic.apply(pts))
        iu, iv = np.rint(uv).astype(int).T
        ok = valid & (iu >= 0) & (iu < w) & (iv >= 0) & (iv < h)
        return iv[ok], iu[ok], ok

    imax = cloud.intensity.max() if cloud.intensity.max() > 0 else 1.0
    shade = np.clip(cloud.intensity / imax * 255.0, 0, 255).astype(np.uint8)
    iv, iu, ok = pixels(cloud.xyz)
    img[iv, iu] = np.column_stack([shade[ok]] * 3)
    lane_iv, lane_iu, _ = pixels(lane_pts)
    img[lane_iv, lane_iu] = (0, 255, 0)
    iv, iu, _ = pixels(pole_pts)
    img[iv, iu] = (255, 0, 0)
    save_pnm(args.out, img)

    if args.stats:
        total = len(lane_iv)
        near = l1_distance_field(lane_mask.bits) <= 2
        inside = int(near[lane_iv, lane_iu].sum())
        frac = inside / total if total else 0.0
        sys.stdout.write(f"lane_points_projected: {total}\n")
        sys.stdout.write(f"lane_points_in_mask: {inside}\n")
        sys.stdout.write(f"lane_in_mask_fraction: {frac:.4f}\n")
    return 0


def cmd_synth(args) -> int:
    spec = _with_seed(synth.load_scene_spec(args.spec), args.seed)
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise ParseError(f"cannot create {out}: {e.strerror or e}") from e
    cloud, lane_mask, pole_mask, gt = synth.generate(spec)
    save_cloud(out / BUNDLE_FILES["cloud"], cloud.to_array())
    save_pnm(out / BUNDLE_FILES["lane_mask"], np.where(lane_mask.bits, 255, 0).astype(np.uint8))
    save_pnm(out / BUNDLE_FILES["pole_mask"], np.where(pole_mask.bits, 255, 0).astype(np.uint8))
    save_text(out / BUNDLE_FILES["intrinsics"], format_fields(spec.intrinsics))
    save_extrinsic(out / "extrinsic_gt.txt", gt)
    sys.stdout.write(f"wrote 5 files to {out}\n")
    return 0


def cmd_sweep(args) -> int:
    for flag, value in (("--max-t", args.max_t), ("--max-theta-deg", args.max_theta_deg)):
        # the sweep draws offsets up to the bound and divides by it
        if not (0.0 < value < math.inf):
            raise ParseError(f"{flag} must be a positive finite number, got {value}")
    if args.trials < 1:
        raise ParseError(f"--trials must be at least 1, got {args.trials}")
    cfg = _load_cfg(args)
    ref = load_extrinsic(args.ref)
    rows = []
    for fi, frame in enumerate(args.frames):
        bundle = {key: Path(frame) / name for key, name in BUNDLE_FILES.items()}
        _, ev = extract_features(*_load_bundle(bundle), cfg)
        # a frame's trials are seeded by its index alone, so its rows do not
        # depend on the other frames of the list
        rows += evaluation.robustness_sweep(
            [ev], ref, args.trials, args.max_t, math.radians(args.max_theta_deg),
            cfg.seed + 10007 * fi, refine_cfg=cfg.refinement(),
        )
    out = csv.writer(sys.stdout, lineterminator="\n")
    out.writerow(["magnitude", *evaluation.CSV_HEADER, "failure"])
    for t in rows:
        # a failed trial keeps its start error and names its CalibError
        out.writerow([f"{t.initial_magnitude:.9g}", *t.refined_error.csv_row(), t.failure or ""])
    mae = evaluation.aggregate([t.refined_error for t in rows])
    out.writerow(["MAE", *mae.csv_row(), ""])
    return 0


class _ArgumentParser(argparse.ArgumentParser):
    """A usage error is a ParseError, which main reports and exits 1 on."""

    def error(self, message):
        raise ParseError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    ap = _ArgumentParser(
        prog="linecalib",
        description="LiDAR-camera extrinsic calibration from lane/pole line features",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("calibrate", help="full pipeline: extract, coarse solve, refine")
    _add_bundle_args(p)
    _add_common(p)
    p.add_argument("--out", required=True, help="output extrinsic file")
    p.add_argument("--report", default=None, help="optional report file")
    p.set_defaults(func=cmd_calibrate, outputs=("out", "report"), inputs=BUNDLE_INPUTS)

    p = sub.add_parser("coarse", help="stop after the coarse P3L solve")
    _add_bundle_args(p)
    _add_common(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_coarse, outputs=("out",), inputs=BUNDLE_INPUTS)

    p = sub.add_parser("refine", help="refine a provided initial extrinsic")
    _add_bundle_args(p)
    _add_common(p)
    p.add_argument("--init", required=True, help="initial extrinsic file")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_refine, outputs=("out",), inputs=(*BUNDLE_INPUTS, "init"))

    p = sub.add_parser("evaluate", help="compare two extrinsic files")
    p.add_argument("estimated")
    p.add_argument("reference")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("project", help="render a point-cloud overlay image")
    p.add_argument("--cloud", required=True)
    p.add_argument("--intrinsics", required=True)
    p.add_argument("--extrinsic", required=True)
    p.add_argument("--image", required=True, help="background PGM/PPM image")
    p.add_argument("--out", required=True, help="output PPM")
    p.add_argument("--lane-mask", default=None)
    p.add_argument("--stats", action="store_true", help="print lane-in-mask stats")
    _add_common(p)
    p.set_defaults(func=cmd_project, outputs=("out",), inputs=(
        "cloud", "intrinsics", "extrinsic", "image", "lane_mask", "config"))

    p = sub.add_parser("synth", help="generate a synthetic frame bundle")
    p.add_argument("--spec", required=True, help="scene spec file")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("sweep", help="miscalibration robustness protocol")
    p.add_argument("--frames", nargs="+", required=True, help="frame bundle directories")
    p.add_argument("--ref", required=True, help="reference extrinsic file")
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--max-t", type=float, default=1.0)
    p.add_argument("--max-theta-deg", type=float, default=6.0)
    _add_common(p)
    p.set_defaults(func=cmd_sweep)

    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # output paths are refused before any input is read
        written = {}
        for name in getattr(args, "outputs", ()):
            path = getattr(args, name)
            if path is not None:
                check_writable(path)
                other = written.setdefault(Path(path).resolve(), name)
                if other != name:
                    raise ParseError(f"--{other} and --{name} are the same file: {path}")
        for name in getattr(args, "inputs", ()):
            path = getattr(args, name)
            out = path is not None and written.get(Path(path).resolve())
            if out:
                flag = name.replace("_", "-")
                raise ParseError(f"--{out} would overwrite the input --{flag}: {path}")
        return args.func(args)
    except CalibError as e:
        code = STAGE_EXIT_CODES.get(e.stage, 1)
        sys.stderr.write(f"error ({e.stage}): {e}\n")
        return code


if __name__ == "__main__":
    sys.exit(main())
