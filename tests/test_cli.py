"""End-to-end CLI tests: subcommands, determinism, exit codes."""
import math

import numpy as np
import pytest

from linecalib.cli import main
from linecalib.errors import STAGE_EXIT_CODES
from linecalib.fileio import load_extrinsic
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


def test_project_subcommand(bundle, tmp_path, capsys):
    from linecalib.fileio import load_image, save_pgm

    img = tmp_path / "bg.pgm"
    from linecalib.fileio import load_intrinsics

    intr = load_intrinsics(bundle / "intrinsics.txt")
    save_pgm(img, np.zeros((intr.height, intr.width), dtype=np.uint8))
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
    stdout = capsys.readouterr().out
    frac = float(stdout.strip().splitlines()[-1].split(": ")[1])
    assert frac > 0.95
    overlay = load_image(out)
    # some lane pixels were painted green
    green = (overlay == np.array([0, 255, 0])).all(axis=2)
    assert green.sum() > 100


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
    assert lines[0].startswith("magnitude,")
    assert lines[-1].startswith("MAE,")
    assert len(lines) == 4  # header + 2 trials + aggregate


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


def test_stage_exit_codes_table():
    assert STAGE_EXIT_CODES == {
        "parse": 1, "internal": 1, "extraction": 2, "coarse": 3, "refine": 4,
    }
