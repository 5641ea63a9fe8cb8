"""End-to-end CLI tests: subcommands, determinism, exit codes."""
import argparse
import csv
import io
import math
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from linecalib.cli import build_parser, main
from linecalib.cloud_features import POLE_COS, PointCloud, extract_cloud_features
from linecalib.config import PipelineConfig
from linecalib.errors import STAGE_EXIT_CODES
from linecalib.fileio import load_cloud, load_extrinsic, save_extrinsic
from linecalib.geometry import Extrinsic, angle_axis_to_matrix, project_points
from linecalib.image_features import hough_lines
from linecalib.synth import canonical_spec, format_scene_spec, random_spec


@pytest.fixture(scope="session")
def bundle(tmp_path_factory):
    """A synthetic frame bundle generated through the CLI itself."""
    root = tmp_path_factory.mktemp("bundle")
    spec_path = root / "scene.txt"
    spec_path.write_text(format_scene_spec(canonical_spec(0)), encoding="utf-8")
    out = root / "frame0"
    assert main(["synth", "--spec", str(spec_path), "--out", str(out)]) == 0
    return out


def _bundle_args(bundle):
    return [
        "--cloud", str(bundle / "frame_cloud.bin"),
        "--lane-mask", str(bundle / "frame_lane.pgm"),
        "--pole-mask", str(bundle / "frame_pole.pgm"),
        "--intrinsics", str(bundle / "intrinsics.txt"),
    ]


def test_synth_writes_expected_files(bundle):
    for name in (
        "frame_cloud.bin", "frame_lane.pgm", "frame_pole.pgm",
        "intrinsics.txt", "extrinsic_gt.txt",
    ):
        assert (bundle / name).exists()


def test_synth_deterministic(bundle, tmp_path):
    spec_path = tmp_path / "scene.txt"
    spec_path.write_text(format_scene_spec(canonical_spec(0)), encoding="utf-8")
    again = tmp_path / "again"
    assert main(["synth", "--spec", str(spec_path), "--out", str(again)]) == 0
    for name in ("frame_cloud.bin", "frame_lane.pgm", "extrinsic_gt.txt"):
        assert (again / name).read_bytes() == (bundle / name).read_bytes()


def test_calibrate_end_to_end(bundle, tmp_path, capsys):
    out = tmp_path / "extr.txt"
    report = tmp_path / "report.txt"
    code = main(
        ["calibrate", *_bundle_args(bundle), "--out", str(out),
         "--report", str(report)]
    )
    assert code == 0
    est = load_extrinsic(out)
    gt = load_extrinsic(bundle / "extrinsic_gt.txt")
    assert np.linalg.norm(est.t - gt.t) < 0.05
    assert report.exists()
    assert "refined_cost" in report.read_text()


def test_calibrate_deterministic_and_nonmutating(bundle, tmp_path):
    """Same inputs, same seed: byte-identical output; inputs untouched."""
    before = {
        p.name: p.read_bytes() for p in bundle.iterdir()
    }
    out1, out2 = tmp_path / "a.txt", tmp_path / "b.txt"
    assert main(["calibrate", *_bundle_args(bundle), "--out", str(out1)]) == 0
    assert main(["calibrate", *_bundle_args(bundle), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    after = {p.name: p.read_bytes() for p in bundle.iterdir()}
    assert before == after


def test_calibrate_text_cloud_matches_binary(bundle, tmp_path):
    """A text cloud of the same float32 values calibrates to the same
    extrinsic bytes as the binary one (%.17g is exact for a double)."""
    text = tmp_path / "frame_cloud.txt"
    np.savetxt(text, load_cloud(bundle / "frame_cloud.bin"), fmt="%.17g")
    args = _bundle_args(bundle)
    out_bin, out_text = tmp_path / "bin.txt", tmp_path / "text.txt"
    assert main(["calibrate", *args, "--out", str(out_bin)]) == 0
    args[args.index("--cloud") + 1] = str(text)
    assert main(["calibrate", *args, "--out", str(out_text)]) == 0
    assert out_text.read_bytes() == out_bin.read_bytes()


def test_coarse_subcommand(bundle, tmp_path, capsys):
    out = tmp_path / "coarse.txt"
    assert main(["coarse", *_bundle_args(bundle), "--out", str(out)]) == 0
    est = load_extrinsic(out)
    gt = load_extrinsic(bundle / "extrinsic_gt.txt")
    assert np.linalg.norm(est.t - gt.t) < 0.5
    stdout = capsys.readouterr().out
    assert "candidates:" in stdout and "coarse_cost:" in stdout


def test_refine_subcommand_improves_cost(bundle, tmp_path, capsys):
    from linecalib.fileio import save_extrinsic
    from linecalib.geometry import Extrinsic

    gt = load_extrinsic(bundle / "extrinsic_gt.txt")
    init = tmp_path / "init.txt"
    save_extrinsic(init, Extrinsic(gt.r, gt.t + np.array([0.2, -0.1, 0.1])))
    out = tmp_path / "refined.txt"
    code = main(
        ["refine", *_bundle_args(bundle), "--init", str(init), "--out", str(out)]
    )
    assert code == 0
    lines = dict(
        l.split(": ") for l in capsys.readouterr().out.strip().splitlines()
    )
    assert float(lines["refined_cost"]) >= float(lines["initial_cost"])
    est = load_extrinsic(out)
    assert np.linalg.norm(est.t - gt.t) < 0.1


def test_evaluate_subcommand(bundle, tmp_path, capsys):
    from linecalib.fileio import save_extrinsic
    from linecalib.geometry import Extrinsic

    gt = load_extrinsic(bundle / "extrinsic_gt.txt")
    est = tmp_path / "est.txt"
    save_extrinsic(est, Extrinsic(gt.r, gt.t + np.array([0.3, 0.0, 0.4])))
    code = main(["evaluate", str(est), str(bundle / "extrinsic_gt.txt")])
    assert code == 0
    out = capsys.readouterr().out
    dt = float(out.splitlines()[0].split(": ")[1])
    assert abs(dt - 0.5) < 1e-9


def test_evaluate_non_finite_extrinsic_exits_1(bundle, tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text('r = "nan 0 0"\nt = "0 0 0"\n', encoding="utf-8")
    code = main(["evaluate", str(bad), str(bundle / "extrinsic_gt.txt")])
    assert code == STAGE_EXIT_CODES["parse"] == 1
    assert "error (parse)" in capsys.readouterr().err


def test_evaluate_extrinsic_with_overflowing_magnitude_exits_1(bundle, tmp_path, capfd):
    """Finite components whose squared norm overflows: a parse error that
    names r, and no warning on stderr."""
    bad = tmp_path / "bad.txt"
    bad.write_text('r = "1e308 1e308 0"\nt = "0 0 0"\n', encoding="utf-8")
    code = main(["evaluate", str(bad), str(bundle / "extrinsic_gt.txt")])
    err = capfd.readouterr().err
    assert code == STAGE_EXIT_CODES["parse"] == 1
    assert re.fullmatch(r"error \(parse\): .*bad\.txt: r: \[.*\] has no finite magnitude\n", err)


def test_project_rejects_lane_mask_smaller_than_image(bundle, tmp_path, capsys):
    from linecalib.fileio import load_intrinsics, load_pgm, save_pnm

    intr = load_intrinsics(bundle / "intrinsics.txt")
    img = tmp_path / "bg.pgm"
    save_pnm(img, np.zeros((intr.height, intr.width), dtype=np.uint8))
    crop = tmp_path / "lane_crop.pgm"
    save_pnm(crop, load_pgm(bundle / "frame_lane.pgm")[:200, :600])
    code = main(
        ["project",
         "--cloud", str(bundle / "frame_cloud.bin"),
         "--intrinsics", str(bundle / "intrinsics.txt"),
         "--extrinsic", str(bundle / "extrinsic_gt.txt"),
         "--image", str(img), "--out", str(tmp_path / "overlay.ppm"),
         "--lane-mask", str(crop), "--stats"]
    )
    assert code == STAGE_EXIT_CODES["parse"] == 1
    assert "600x200" in capsys.readouterr().err


def test_project_rejects_image_of_another_size_than_the_intrinsics(bundle, tmp_path, capsys):
    """The points are projected through the intrinsics, so an image of
    another size would place them wrong; it is refused before any output."""
    from linecalib.fileio import load_intrinsics, save_pnm

    intr = load_intrinsics(bundle / "intrinsics.txt")
    img = tmp_path / "bg.pgm"
    save_pnm(img, np.zeros((intr.height // 2, intr.width // 2), dtype=np.uint8))
    out = tmp_path / "overlay.ppm"
    code = main(
        ["project",
         "--cloud", str(bundle / "frame_cloud.bin"),
         "--intrinsics", str(bundle / "intrinsics.txt"),
         "--extrinsic", str(bundle / "extrinsic_gt.txt"),
         "--image", str(img), "--out", str(out)]
    )
    assert code == STAGE_EXIT_CODES["parse"] == 1
    assert capsys.readouterr().err == (
        f"error (parse): {img}: image is {intr.width // 2}x{intr.height // 2}, "
        f"intrinsics say {intr.width}x{intr.height}\n"
    )
    assert not out.exists()


def test_project_falls_back_to_the_plain_overlay(bundle, tmp_path, capsys):
    """Under 1,000 points the ground plane cannot be fitted: the overlay
    shows the cloud's intensity alone, with no lane or pole point."""
    from linecalib.fileio import load_image, load_intrinsics, save_cloud, save_pnm

    intr = load_intrinsics(bundle / "intrinsics.txt")
    img = tmp_path / "bg.pgm"
    save_pnm(img, np.zeros((intr.height, intr.width), dtype=np.uint8))
    small = tmp_path / "small.bin"
    save_cloud(small, load_cloud(bundle / "frame_cloud.bin")[::200][:999])
    out = tmp_path / "overlay.ppm"
    code = main(
        ["project",
         "--cloud", str(small),
         "--intrinsics", str(bundle / "intrinsics.txt"),
         "--extrinsic", str(bundle / "extrinsic_gt.txt"),
         "--image", str(img), "--out", str(out),
         "--lane-mask", str(bundle / "frame_lane.pgm"), "--stats"]
    )
    assert code == 0
    stats = dict(line.split(": ") for line in capsys.readouterr().out.strip().splitlines())
    assert stats == {"lane_points_projected": "0", "lane_points_in_mask": "0",
                     "lane_in_mask_fraction": "0.0000"}
    overlay = load_image(out)
    # intensity is painted grey; no pixel is a lane's green or a pole's red
    assert (overlay[..., 0] == overlay[..., 1]).all() and (overlay[..., 1] == overlay[..., 2]).all()
    assert overlay.any()


def test_calibrate_rejects_lane_mask_of_another_size(bundle, tmp_path, capsys):
    from linecalib.fileio import load_intrinsics, load_pgm, save_pnm

    intr = load_intrinsics(bundle / "intrinsics.txt")
    crop = tmp_path / "lane_crop.pgm"
    save_pnm(crop, load_pgm(bundle / "frame_lane.pgm")[:200, :600])
    args = _bundle_args(bundle)
    args[args.index("--lane-mask") + 1] = str(crop)
    out = tmp_path / "e.txt"
    code = main(["calibrate", *args, "--out", str(out)])
    assert code == STAGE_EXIT_CODES["parse"] == 1
    assert capsys.readouterr().err == (
        f"error (parse): {crop}: mask is 600x200, "
        f"intrinsics say {intr.width}x{intr.height}\n"
    )
    assert not out.exists()


def test_project_subcommand(bundle, tmp_path, capsys):
    from linecalib.fileio import load_image, save_pnm

    img = tmp_path / "bg.pgm"
    from linecalib.fileio import load_intrinsics

    intr = load_intrinsics(bundle / "intrinsics.txt")
    save_pnm(img, np.zeros((intr.height, intr.width), dtype=np.uint8))
    out = tmp_path / "overlay.ppm"
    code = main(
        ["project",
         "--cloud", str(bundle / "frame_cloud.bin"),
         "--intrinsics", str(bundle / "intrinsics.txt"),
         "--extrinsic", str(bundle / "extrinsic_gt.txt"),
         "--image", str(img), "--out", str(out),
         "--lane-mask", str(bundle / "frame_lane.pgm"), "--stats"]
    )
    assert code == 0
    stats = dict(line.split(": ") for line in capsys.readouterr().out.strip().splitlines())
    assert float(stats["lane_in_mask_fraction"]) > 0.95
    # the lane points counted are the cost's, the ones calibrate extracts
    cloud = PointCloud.from_array(load_cloud(bundle / "frame_cloud.bin"))
    lane_pts = extract_cloud_features(cloud, 0, PipelineConfig()).lane_points
    uv, valid = project_points(intr, load_extrinsic(bundle / "extrinsic_gt.txt").apply(lane_pts))
    iu, iv = np.rint(uv).T
    in_frame = valid & (iu >= 0) & (iu < intr.width) & (iv >= 0) & (iv < intr.height)
    assert int(stats["lane_points_projected"]) == int(in_frame.sum()) > 0
    overlay = load_image(out)
    # some lane pixels were painted green
    green = (overlay == np.array([0, 255, 0])).all(axis=2)
    assert green.sum() > 100


def test_project_stats_with_empty_lane_mask(bundle, tmp_path, capsys):
    """A lane mask with no set pixel has no lane point near it."""
    from linecalib.fileio import load_intrinsics, save_pnm

    intr = load_intrinsics(bundle / "intrinsics.txt")
    blank = tmp_path / "blank.pgm"
    save_pnm(blank, np.zeros((intr.height, intr.width), dtype=np.uint8))
    code = main(
        ["project",
         "--cloud", str(bundle / "frame_cloud.bin"),
         "--intrinsics", str(bundle / "intrinsics.txt"),
         "--extrinsic", str(bundle / "extrinsic_gt.txt"),
         "--image", str(blank), "--out", str(tmp_path / "overlay.ppm"),
         "--lane-mask", str(blank), "--stats"]
    )
    assert code == 0
    stats = dict(line.split(": ") for line in capsys.readouterr().out.strip().splitlines())
    assert int(stats["lane_points_projected"]) > 0
    assert stats["lane_points_in_mask"] == "0"


def test_sweep_subcommand(bundle, tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("max_samples = 300\n", encoding="utf-8")
    code = main(
        ["sweep", "--frames", str(bundle),
         "--ref", str(bundle / "extrinsic_gt.txt"),
         "--trials", "2", "--config", str(cfg)]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("magnitude,") and lines[0].endswith(",failure")
    assert lines[-1].startswith("MAE,")
    assert len(lines) == 4  # header + 2 trials + aggregate
    # every trial refined: its failure column is empty
    assert all(line.count(",") == 9 and line.endswith(",") for line in lines[1:])

    # from a reference facing away from every cost point, each trial fails
    # in refine and the column names the error
    gt = load_extrinsic(bundle / "extrinsic_gt.txt")
    flip = angle_axis_to_matrix(np.array([0.0, math.pi, 0.0]))
    away = tmp_path / "away.txt"
    save_extrinsic(away, Extrinsic.from_matrix(flip @ gt.matrix(), flip @ gt.t))
    code = main(["sweep", "--frames", str(bundle), "--ref", str(away),
                 "--trials", "2", "--config", str(cfg)])
    assert code == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[0][-1] == "failure" and len(rows) == 4
    for row in rows[1:3]:
        assert len(row) == 10 and "not above zero" in row[-1]
    assert rows[3][0] == "MAE" and rows[3][-1] == ""


def test_sweep_seeds_each_frame_by_its_index(bundle, tmp_path, capsys):
    """Frame i's trials are seeded by cfg.seed + 10007 * i alone, so its rows
    do not depend on the other frames of the list.  Swept alone with that
    --seed, the frame draws the same starts (the magnitude column); the
    seed also seeds its extraction, so the refined columns may differ."""
    spec_path = tmp_path / "scene1.txt"
    spec_path.write_text(format_scene_spec(canonical_spec(1)), encoding="utf-8")
    frame1 = tmp_path / "frame1"
    assert main(["synth", "--spec", str(spec_path), "--out", str(frame1)]) == 0
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("seed = 3\nmax_samples = 200\n", encoding="utf-8")
    capsys.readouterr()

    def trial_rows(frames, *extra):
        code = main(["sweep", "--frames", *map(str, frames),
                     "--ref", str(bundle / "extrinsic_gt.txt"),
                     "--trials", "2", "--config", str(cfg), *extra])
        assert code == 0
        return capsys.readouterr().out.splitlines()[1:-1]  # no header, no MAE

    both = trial_rows([bundle, frame1])
    assert len(both) == 4
    assert both[:2] == trial_rows([bundle])
    assert both[2:] == trial_rows([frame1, frame1])[2:]
    alone = trial_rows([frame1], "--seed", str(3 + 10007))
    assert [r.split(",")[0] for r in alone] == [r.split(",")[0] for r in both[2:]]


@pytest.mark.parametrize("flag,value", [
    ("--max-t", "0"), ("--max-t", "-1"), ("--max-t", "nan"), ("--max-t", "inf"),
    ("--max-theta-deg", "0"), ("--max-theta-deg", "nan"),
    ("--trials", "0"),
])
def test_sweep_rejects_bad_bounds_and_counts(bundle, monkeypatch, capsys, flag, value):
    """A perturbation bound that is not a positive finite number, or fewer
    than one trial, is a parse error before any frame is swept."""
    import linecalib.cli as cli

    def never(*args, **kwargs):
        raise AssertionError("the sweep started")

    monkeypatch.setattr(cli, "extract_features", never)
    code = main(["sweep", "--frames", str(bundle), "--ref", str(bundle / "extrinsic_gt.txt"),
                 flag, value])
    assert code == STAGE_EXIT_CODES["parse"] == 1
    assert f"error (parse): {flag} must be" in capsys.readouterr().err


def test_sweep_reads_the_reference_before_any_frame(bundle, tmp_path, monkeypatch, capsys):
    """An unreadable --ref, here a directory, exits 1 before a frame is extracted."""
    import linecalib.cli as cli

    def never(*args, **kwargs):
        raise AssertionError("a frame was extracted")

    monkeypatch.setattr(cli, "extract_features", never)
    code = main(["sweep", "--frames", str(bundle), "--ref", str(tmp_path)])
    assert code == STAGE_EXIT_CODES["parse"] == 1
    assert "error (parse)" in capsys.readouterr().err


def test_exit_code_parse_error(tmp_path, capsys):
    code = main(
        ["calibrate",
         "--cloud", str(tmp_path / "missing.bin"),
         "--lane-mask", str(tmp_path / "missing.pgm"),
         "--pole-mask", str(tmp_path / "missing.pgm"),
         "--intrinsics", str(tmp_path / "missing.txt"),
         "--out", str(tmp_path / "out.txt")]
    )
    assert code == STAGE_EXIT_CODES["parse"] == 1
    assert "error (parse)" in capsys.readouterr().err


def _unreadable_argv(bundle, tmp_path, target):
    """The argv of a run that passes the directory tmp_path as `target`."""
    if target == "synth --spec":
        return ["synth", "--spec", str(tmp_path), "--out", str(tmp_path / "out")]
    if target == "evaluate":
        return ["evaluate", str(tmp_path), str(bundle / "extrinsic_gt.txt")]
    args = _bundle_args(bundle)
    if target == "--config":
        args += ["--config", str(tmp_path)]
    else:
        args[args.index(target) + 1] = str(tmp_path)
    return ["coarse", *args, "--out", str(tmp_path / "out.txt")]


@pytest.mark.parametrize("target", [
    "--cloud", "--lane-mask", "--intrinsics", "--config", "synth --spec", "evaluate",
])
def test_unreadable_input_exits_1(bundle, tmp_path, capsys, target):
    """A path that cannot be read, here a directory, is a parse error."""
    code = main(_unreadable_argv(bundle, tmp_path, target))
    err = capsys.readouterr().err
    assert code == STAGE_EXIT_CODES["parse"] == 1
    assert "error (parse)" in err and "Traceback" not in err


def _project_argv(bundle, out):
    return ["project",
            "--cloud", str(bundle / "frame_cloud.bin"),
            "--intrinsics", str(bundle / "intrinsics.txt"),
            "--extrinsic", str(bundle / "extrinsic_gt.txt"),
            "--image", str(bundle / "frame_lane.pgm"), "--out", str(out)]


def _unwritable_argv(bundle, tmp_path, target):
    """The argv of a run whose `target` output cannot be written: the
    directory tmp_path, an existing file, or a path under a file."""
    spec = tmp_path / "scene.txt"
    spec.write_text(format_scene_spec(canonical_spec(0)), encoding="utf-8")
    bundle_args, here = _bundle_args(bundle), str(tmp_path)
    return {
        "coarse --out": ["coarse", *bundle_args, "--out", here],
        "refine --out": ["refine", *bundle_args, "--init", str(bundle / "extrinsic_gt.txt"),
                         "--out", here],
        "calibrate --report": ["calibrate", *bundle_args, "--out", str(tmp_path / "e.txt"),
                               "--report", here],
        "project --out": _project_argv(bundle, tmp_path),
        "synth --out <file>": ["synth", "--spec", str(spec), "--out", str(spec)],
        "synth --out <file>/x": ["synth", "--spec", str(spec), "--out", str(spec / "x")],
    }[target]


@pytest.mark.parametrize("target", [
    "coarse --out", "refine --out", "calibrate --report", "project --out",
    "synth --out <file>", "synth --out <file>/x",
])
def test_unwritable_output_exits_1(bundle, tmp_path, capsys, target):
    """An output path that cannot be written is a parse error."""
    code = main(_unwritable_argv(bundle, tmp_path, target))
    err = capsys.readouterr().err
    assert code == STAGE_EXIT_CODES["parse"] == 1
    assert "error (parse): cannot" in err and "Traceback" not in err


@pytest.mark.parametrize("target", [
    "calibrate --report", "calibrate --out", "coarse --out", "refine --out", "project --out",
])
def test_unwritable_output_fails_before_the_pipeline(bundle, tmp_path, monkeypatch, capsys,
                                                     target):
    """An output path that is a directory, or lies under a file, is refused
    before any input is read or any stage runs, and no other output is left
    behind."""
    import linecalib.cli as cli

    def must_not_run(*args, **kwargs):
        raise AssertionError("an input was read or the pipeline ran")

    for stage in ("calibrate", "extract_features", "extract_cloud_features", "_load_cfg",
                  "_load_bundle", "load_intrinsics", "load_cloud", "load_extrinsic",
                  "load_image", "load_mask"):
        monkeypatch.setattr(cli, stage, must_not_run)
    (tmp_path / "f").write_text("", encoding="utf-8")
    bad, out = {
        "calibrate --report": (str(tmp_path), tmp_path / "e.txt"),
        "calibrate --out": (str(tmp_path / "f" / "x"), tmp_path / "f" / "x"),
        "coarse --out": (str(tmp_path / "f" / "x"), tmp_path / "f" / "x"),
        "refine --out": (str(tmp_path), tmp_path),
        "project --out": (str(tmp_path), tmp_path),
    }[target]
    command, flag = target.split()
    argv = {
        "calibrate": ["calibrate", *_bundle_args(bundle), "--out", str(out)],
        "coarse": ["coarse", *_bundle_args(bundle)],
        "refine": ["refine", *_bundle_args(bundle), "--init", str(bundle / "extrinsic_gt.txt")],
        "project": _project_argv(bundle, bad)[:-2],
    }[command]
    code = main([*argv, flag, bad])
    err = capsys.readouterr().err
    assert code == STAGE_EXIT_CODES["parse"] == 1
    assert f"error (parse): cannot write {bad}" in err and "Traceback" not in err
    assert not (tmp_path / "e.txt").exists()


@pytest.mark.parametrize("spelling", ["same", "dotted"])
def test_two_outputs_on_one_file_fail_before_the_pipeline(bundle, tmp_path, monkeypatch,
                                                          capsys, spelling):
    """`calibrate --out P --report P` wrote the report over the extrinsic
    and exited 0; two outputs that resolve to one file are a parse error
    before any input is read."""
    import linecalib.cli as cli

    def must_not_run(*args, **kwargs):
        raise AssertionError("an input was read or the pipeline ran")

    for stage in ("_load_cfg", "_load_bundle", "calibrate"):
        monkeypatch.setattr(cli, stage, must_not_run)
    out = tmp_path / "e.txt"
    report = out if spelling == "same" else tmp_path / "." / "e.txt"
    code = main(["calibrate", *_bundle_args(bundle), "--out", str(out), "--report", str(report)])
    err = capsys.readouterr().err
    assert code == STAGE_EXIT_CODES["parse"] == 1
    assert "error (parse): --out and --report are the same file" in err
    assert "Traceback" not in err and not out.exists()


@pytest.mark.parametrize("command, given, out_flag", [
    ("calibrate", "--intrinsics", "--out"),
    ("calibrate", "--cloud", "--report"),
    ("calibrate", "--config", "--out"),
    ("coarse", "--lane-mask", "--out"),
    ("refine", "--init", "--out"),
    ("refine", "--pole-mask", "--out"),
    ("project", "--extrinsic", "--out"),
    ("project", "--image", "--out"),
    ("project", "--lane-mask", "--out"),
])
def test_output_over_an_input_fails_before_the_pipeline(bundle, tmp_path, monkeypatch, capsys,
                                                        command, given, out_flag):
    """`calibrate --intrinsics f/intrinsics.txt --out f/intrinsics.txt`
    wrote the extrinsic over the intrinsics and exited 0; an output that
    resolves to one of the command's inputs is a parse error before any
    input is read."""
    import linecalib.cli as cli

    def must_not_run(*args, **kwargs):
        raise AssertionError("an input was read or the pipeline ran")

    for stage in ("_load_cfg", "_load_bundle", "load_intrinsics", "load_cloud",
                  "load_extrinsic", "load_image", "load_mask"):
        monkeypatch.setattr(cli, stage, must_not_run)
    frame = tmp_path / "frame"
    shutil.copytree(bundle, frame)
    (frame / "cfg.txt").write_text("seed = 0\n", encoding="utf-8")
    shutil.copy(frame / "frame_lane.pgm", frame / "mask.pgm")  # apart from --image
    argv = {
        "calibrate": ["calibrate", *_bundle_args(frame), "--out", str(tmp_path / "e.txt")],
        "coarse": ["coarse", *_bundle_args(frame), "--out", str(tmp_path / "e.txt")],
        "refine": ["refine", *_bundle_args(frame), "--init", str(frame / "extrinsic_gt.txt"),
                   "--out", str(tmp_path / "e.txt")],
        "project": [*_project_argv(frame, tmp_path / "o.ppm"),
                    "--lane-mask", str(frame / "mask.pgm")],
    }[command] + ["--config", str(frame / "cfg.txt")]
    path = argv[argv.index(given) + 1]
    # the same file by another spelling
    other = str(Path(path).parent / "." / Path(path).name)
    if out_flag in argv:
        argv[argv.index(out_flag) + 1] = other
    else:
        argv += [out_flag, other]
    before = Path(path).read_bytes()
    code = main(argv)
    err = capsys.readouterr().err
    assert code == STAGE_EXIT_CODES["parse"] == 1
    assert f"error (parse): {out_flag} would overwrite the input {given}" in err
    assert "Traceback" not in err
    assert Path(path).read_bytes() == before


@pytest.mark.parametrize("text", ["line_min_inliers = 1\n", "min_feature_points = 0\n"])
def test_config_below_two_points_exits_1(bundle, tmp_path, capsys, text):
    """Each value crashed a stage with a traceback; now it is refused as a
    parse error before any stage runs."""
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(text, encoding="utf-8")
    code = main(["calibrate", *_bundle_args(bundle), "--config", str(cfg),
                 "--out", str(tmp_path / "e.txt")])
    err = capsys.readouterr().err
    assert code == STAGE_EXIT_CODES["parse"] == 1
    assert "error (parse)" in err and "at least 2" in err and "Traceback" not in err
    assert not (tmp_path / "e.txt").exists()


def test_project_stats_without_lane_mask_exits_1(bundle, tmp_path, capsys):
    """--stats needs a lane mask: a usage error before anything is written."""
    out = tmp_path / "overlay.ppm"
    code = main([*_project_argv(bundle, out), "--stats"])
    assert code == STAGE_EXIT_CODES["parse"] == 1
    assert "error (parse): --stats needs --lane-mask" in capsys.readouterr().err
    assert not out.exists()


def test_negative_seed_exits_1(bundle, tmp_path, capsys):
    spec = tmp_path / "scene.txt"
    spec.write_text(format_scene_spec(canonical_spec(0)), encoding="utf-8")
    for argv in (
        ["coarse", *_bundle_args(bundle), "--out", str(tmp_path / "e.txt")],
        ["synth", "--spec", str(spec), "--out", str(tmp_path / "frame")],
    ):
        assert main([*argv, "--seed", "-1"]) == STAGE_EXIT_CODES["parse"] == 1
        assert "error (parse): --seed" in capsys.readouterr().err


def test_exit_code_extraction_error(bundle, tmp_path, capsys):
    from linecalib.fileio import save_cloud

    # a cloud too small for ground plane estimation
    rng = np.random.default_rng(0)
    tiny = tmp_path / "tiny.bin"
    save_cloud(tiny, rng.normal(size=(50, 4)))
    code = main(
        ["calibrate",
         "--cloud", str(tiny),
         "--lane-mask", str(bundle / "frame_lane.pgm"),
         "--pole-mask", str(bundle / "frame_pole.pgm"),
         "--intrinsics", str(bundle / "intrinsics.txt"),
         "--out", str(tmp_path / "out.txt")]
    )
    assert code == STAGE_EXIT_CODES["extraction"] == 2
    assert "error (extraction)" in capsys.readouterr().err


def test_exit_code_refine_error(bundle, tmp_path, capsys):
    """From the ground truth turned 180 degrees about the camera's y axis
    no cost point is in view, so refinement cannot rise above zero."""
    gt = load_extrinsic(bundle / "extrinsic_gt.txt")
    flip = angle_axis_to_matrix(np.array([0.0, math.pi, 0.0]))
    init = tmp_path / "init.txt"
    save_extrinsic(init, Extrinsic.from_matrix(flip @ gt.matrix(), flip @ gt.t))
    out = tmp_path / "out.txt"
    code = main(["refine", *_bundle_args(bundle), "--init", str(init), "--out", str(out)])
    assert code == STAGE_EXIT_CODES["refine"] == 4
    assert "error (refine)" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, says", [
    (["calibrate", "--cloud", "x"], "the following arguments are required"),
    (["sweep", "--frames", "f", "--ref", "r", "--trials", "two"], "invalid int value: 'two'"),
    (["sweep", "--frames", "f", "--ref", "r", "--jobs", "2"],
     "linecalib: unrecognized arguments: --jobs 2"),
], ids=["missing option", "non-integer --trials", "sweep --jobs"])
def test_usage_error_exits_1(argv, says, capsys):
    """A usage error is a parse error, reported as any other: exit 1."""
    assert main(argv) == STAGE_EXIT_CODES["parse"] == 1
    err = capsys.readouterr().err
    assert err.startswith("error (parse): linecalib") and says in err


def test_readme_cli_section_names_every_flag():
    """The README's CLI section and the parser name the same flags: each
    flag the section names is taken by some subcommand, and each flag of a
    subcommand but --help is named in the section."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", section))
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    taken = {flag for p in sub.choices.values() for a in p._actions for flag in a.option_strings}
    assert named - taken == set()
    assert taken - named == {"-h", "--help"}


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["calibrate", "--help"])
    assert exit_info.value.code == 0
    assert "--lane-mask" in capsys.readouterr().out


SHORT_OF_LINES = {
    "short_poles": canonical_spec(0, pole_heights=(2.5,) * 6),
    "random4": random_spec(4),
}


@pytest.fixture(scope="module", params=sorted(SHORT_OF_LINES))
def short_of_lines(request, tmp_path_factory):
    """Canonical scene 0 with 2.5 m poles yields 8 lane and 0 pole cloud
    lines, random_spec(4) 1 lane and 5 pole image lines: enough to refine,
    too few for P3L."""
    root = tmp_path_factory.mktemp(request.param)
    spec_path = root / "scene.txt"
    spec_path.write_text(format_scene_spec(SHORT_OF_LINES[request.param]), encoding="utf-8")
    assert main(["synth", "--spec", str(spec_path), "--out", str(root)]) == 0
    return request.param, root


def test_refine_runs_where_the_coarse_stage_lacks_lines(short_of_lines, tmp_path, capsys):
    _, root = short_of_lines
    gt = load_extrinsic(root / "extrinsic_gt.txt")
    turn = angle_axis_to_matrix(np.radians([1.0, -1.0, 1.0]))
    init = tmp_path / "init.txt"
    save_extrinsic(init, Extrinsic.from_matrix(turn @ gt.matrix(), gt.t + [0.2, -0.1, 0.1]))
    out = tmp_path / "out.txt"
    assert main(["refine", *_bundle_args(root), "--init", str(init), "--out", str(out)]) == 0
    assert "refined_cost" in capsys.readouterr().out
    assert np.linalg.norm(load_extrinsic(out).t - gt.t) < np.linalg.norm(load_extrinsic(init).t - gt.t)


def test_calibrate_names_the_missing_lines(short_of_lines, tmp_path, capsys):
    name, root = short_of_lines
    code = main(["calibrate", *_bundle_args(root), "--out", str(tmp_path / "e.txt")])
    assert code == STAGE_EXIT_CODES["extraction"] == 2
    counts = {"short_poles": "cloud lines, got 8 / 0", "random4": "image lines, got 1 / 5"}[name]
    assert capsys.readouterr().err == (
        f"error (extraction): need >= 2 lane and >= 1 pole {counts}\n"
    )


def test_pole_sharing_a_cluster_with_the_gantry_is_kept(tmp_path):
    """random_spec(8)'s one pole stands 1-2 m from the end of the gantry
    beam, in one grid cluster with it, and the beam is the cluster's first
    fitted line: the pole is its first upright one."""
    spec_path = tmp_path / "scene.txt"
    spec_path.write_text(format_scene_spec(random_spec(8)), encoding="utf-8")
    assert main(["synth", "--spec", str(spec_path), "--out", str(tmp_path)]) == 0
    cloud = PointCloud.from_array(load_cloud(tmp_path / "frame_cloud.bin"))
    cf = extract_cloud_features(cloud, 0, PipelineConfig())
    assert len(cf.pole_lines) == 1
    assert (cf.pole_lines[0].direction @ cf.frame.T)[2] >= POLE_COS
    out = tmp_path / "e.txt"
    assert main(["calibrate", *_bundle_args(tmp_path), "--out", str(out)]) == 0
    gt, got = load_extrinsic(tmp_path / "extrinsic_gt.txt"), load_extrinsic(out)
    assert np.linalg.norm(got.t - gt.t) < 0.1


@pytest.fixture(scope="module")
def lineless_bundle(tmp_path_factory):
    """random_spec(1)'s bundle: no line of its lane mask reaches the Hough
    support threshold."""
    root = tmp_path_factory.mktemp("lineless")
    spec_path = root / "scene.txt"
    spec_path.write_text(format_scene_spec(random_spec(1)), encoding="utf-8")
    assert main(["synth", "--spec", str(spec_path), "--out", str(root)]) == 0
    return root


def test_calibrate_names_the_mask_without_lines(lineless_bundle, tmp_path, rebind_everywhere,
                                                capsys):
    """Hough returns no lane line, and the coarse stage, the one that needs
    image lines, refuses the frame and counts the lines of each mask.
    calibrate and coarse run Hough once on each mask."""
    masks = []

    def counted(mask, cfg):
        masks.append(mask.cls)
        return hough_lines(mask, cfg)

    rebind_everywhere(hough_lines, counted)
    for command in ("calibrate", "coarse"):
        masks.clear()
        code = main([command, *_bundle_args(lineless_bundle), "--out", str(tmp_path / "e.txt")])
        assert code == STAGE_EXIT_CODES["extraction"] == 2
        assert capsys.readouterr().err == (
            "error (extraction): need >= 2 lane and >= 1 pole image lines, got 0 / 4\n"
        )
        assert masks == ["lane", "pole"]


def test_refine_and_sweep_run_without_image_lines(lineless_bundle, tmp_path, rebind_everywhere,
                                                  capsys):
    """refine and sweep read the height maps, never the Hough lines, so a
    frame without a lane line is no error for them: they, and project,
    finish with Hough raising wherever a module holds it."""

    def never(mask, cfg):
        raise AssertionError(f"Hough ran on the {mask.cls} mask")

    rebind_everywhere(hough_lines, never)
    gt = lineless_bundle / "extrinsic_gt.txt"
    out = tmp_path / "refined.txt"
    assert main(["refine", *_bundle_args(lineless_bundle), "--init", str(gt),
                 "--out", str(out)]) == 0
    assert capsys.readouterr().out.startswith("initial_cost: ")
    assert np.linalg.norm(load_extrinsic(out).t - load_extrinsic(gt).t) < 0.05
    assert main(["sweep", "--frames", str(lineless_bundle), "--ref", str(gt),
                 "--trials", "2"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()
    # header, two refined trials (empty failure column) and the MAE row
    assert len(rows) == 4 and all(row.endswith(",") for row in rows[1:])
    lane = str(lineless_bundle / "frame_lane.pgm")
    assert main(["project", "--cloud", str(lineless_bundle / "frame_cloud.bin"),
                 "--intrinsics", str(lineless_bundle / "intrinsics.txt"),
                 "--extrinsic", str(gt), "--image", lane, "--lane-mask", lane, "--stats",
                 "--out", str(tmp_path / "overlay.ppm")]) == 0
    assert capsys.readouterr().out.startswith("lane_points_projected: ")


def test_stage_exit_codes_table():
    assert STAGE_EXIT_CODES == {
        "parse": 1, "internal": 1, "extraction": 2, "coarse": 3, "refine": 4,
    }
