"""End-to-end CLI tests: subcommands, determinism, exit codes."""
import csv
import io
import math

import numpy as np
import pytest

from linecalib.cli import build_parser, main
from linecalib.cloud_features import PointCloud, extract_cloud_features
from linecalib.config import PipelineConfig
from linecalib.errors import STAGE_EXIT_CODES
from linecalib.fileio import load_cloud, load_extrinsic, save_extrinsic
from linecalib.geometry import Extrinsic, angle_axis_to_matrix, project_points
from linecalib.synth import canonical_spec, format_scene_spec


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


def test_sweep_output_independent_of_jobs(bundle, tmp_path, capsys):
    """Two frames swept serially and by two worker processes print the
    same bytes: each trial's seed depends only on its frame and index."""
    spec_path = tmp_path / "scene1.txt"
    spec_path.write_text(format_scene_spec(canonical_spec(1)), encoding="utf-8")
    frame1 = tmp_path / "frame1"
    assert main(["synth", "--spec", str(spec_path), "--out", str(frame1)]) == 0
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("max_samples = 200\n", encoding="utf-8")
    capsys.readouterr()
    outputs = []
    for jobs in ("1", "2"):
        code = main(
            ["sweep", "--frames", str(bundle), str(frame1),
             "--ref", str(bundle / "extrinsic_gt.txt"),
             "--trials", "2", "--config", str(cfg), "--jobs", jobs]
        )
        assert code == 0
        outputs.append(capsys.readouterr().out)
    assert len(outputs[0].splitlines()) == 6  # header + 2 frames x 2 trials + MAE
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("flag,value", [
    ("--max-t", "0"), ("--max-t", "-1"), ("--max-t", "nan"), ("--max-t", "inf"),
    ("--max-theta-deg", "0"), ("--max-theta-deg", "nan"),
    ("--trials", "0"), ("--jobs", "0"), ("--jobs", "-2"),
])
def test_sweep_rejects_bad_bounds_and_counts(bundle, monkeypatch, capsys, flag, value):
    """A perturbation bound that is not a positive finite number, or fewer
    than one trial or job, is a parse error before any frame is swept."""
    import linecalib.cli as cli

    def never(*args, **kwargs):
        raise AssertionError("the sweep started")

    monkeypatch.setattr(cli, "_sweep_worker", never)
    monkeypatch.setattr(cli, "ProcessPoolExecutor", never)
    code = main(["sweep", "--frames", str(bundle), "--ref", str(bundle / "extrinsic_gt.txt"),
                 "--jobs", "2", flag, value])
    assert code == STAGE_EXIT_CODES["parse"] == 1
    assert f"error (parse): {flag} must be" in capsys.readouterr().err


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


def test_only_sweep_takes_jobs(bundle):
    parser = build_parser()
    argv = {
        "calibrate": [*_bundle_args(bundle), "--out", "e.txt"],
        "coarse": [*_bundle_args(bundle), "--out", "e.txt"],
        "refine": [*_bundle_args(bundle), "--init", "e0.txt", "--out", "e.txt"],
        "project": ["--cloud", "c.bin", "--intrinsics", "k.txt", "--extrinsic", "e.txt",
                    "--image", "bg.pgm", "--out", "o.ppm"],
    }
    for command, args in argv.items():
        parser.parse_args([command, *args])
        with pytest.raises(SystemExit):
            parser.parse_args([command, *args, "--jobs", "2"])
    assert parser.parse_args(["sweep", "--frames", "f", "--ref", "r", "--jobs", "2"]).jobs == 2


def test_stage_exit_codes_table():
    assert STAGE_EXIT_CODES == {
        "parse": 1, "internal": 1, "extraction": 2, "coarse": 3, "refine": 4,
    }
