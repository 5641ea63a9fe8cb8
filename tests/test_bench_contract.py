"""What the benchmark under perfbench/ reaches of the program still exists.

perfbench/run.py, workloads.py, tracer.py and gen.py look linecalib up by
module attribute and call it with fixed arguments; the tracer rebinds the
functions it wraps by identity.  A cleanup that renames or reshapes one
of them would break the benchmark without failing any other test, so
each name and call shape they use is listed here.
"""
import dataclasses
import importlib
import inspect
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from linecalib import cli, cloud_features, config, cost, evaluation, image_features, pipeline
from linecalib import refine as refine_module
from linecalib.geometry import Extrinsic, Line3D

# module -> attributes the benchmark reads (workloads.py, tracer.py, gen.py)
REACHED = {
    "cli": ("main", "build_parser", "load_intrinsics", "load_cloud", "load_mask",
            "load_extrinsic", "save_extrinsic"),
    "cloud_features": ("PointCloud", "fit_ground_plane", "extract_lane_points",
                       "ransac_line3d", "extract_pole_points", "cluster_cells",
                       "extract_cloud_features"),
    "config": ("PipelineConfig",),
    "cost": ("cost", "CostEvaluator"),
    "evaluation": ("refine", "robustness_sweep"),
    "fileio": ("load_intrinsics", "load_cloud", "load_extrinsic"),
    "geometry": ("Line3D",),
    "image_features": ("load_mask", "hough_lines", "idt_height_map",
                       "extract_image_features"),
    "p3l": ("solve_p3l",),
    "pipeline": ("build_evaluator", "coarse_calibrate", "calibrate", "P3LProblem"),
    "refine": ("refine",),
    "synth": ("canonical_spec", "format_scene_spec"),
}


# the modules perfbench/run.py imports, and the ones tracer.install() then
# reads from sys.modules
RUN_IMPORTS = ("cli", "cloud_features", "config", "evaluation", "fileio", "image_features",
               "pipeline")
TRACED = ("cli", "cloud_features", "cost", "evaluation", "geometry", "image_features", "p3l",
          "pipeline", "refine")


@pytest.mark.parametrize("module", sorted(REACHED))
def test_every_reached_attribute_exists(module):
    mod = importlib.import_module(f"linecalib.{module}")
    missing = [a for a in REACHED[module] if not hasattr(mod, a)]
    assert not missing, f"linecalib.{module} lacks {missing}"


def test_the_tracer_wraps_the_functions_the_callers_hold():
    """The tracer rebinds every module global that *is* the wrapped
    function, so the callers must hold the defining module's object."""
    assert cli.load_mask is image_features.load_mask
    assert pipeline.extract_cloud_features is cloud_features.extract_cloud_features
    assert pipeline.extract_image_features is image_features.extract_image_features
    assert pipeline.hough_lines is cli.hough_lines is image_features.hough_lines
    assert pipeline.cost is cost.cost
    assert pipeline.refine is evaluation.refine is refine_module.refine
    assert callable(Line3D.distance)  # wrapped on the class


def test_the_benchmark_imports_load_every_traced_module():
    """The package imports no module of its own, so the tracer finds the
    modules it patches only if run.py's imports bring them in."""
    code = ("import importlib, sys\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "for n in sys.argv[2:]: importlib.import_module('linecalib.' + n)\n"
            "print(*sys.modules)")
    src = Path(cli.__file__).parents[1]
    proc = subprocess.run([sys.executable, "-c", code, str(src), *RUN_IMPORTS],
                          capture_output=True, text=True, check=True)
    missing = {f"linecalib.{n}" for n in TRACED} - set(proc.stdout.split())
    assert not missing


def test_calling_the_evaluator_is_the_cost(canonical_evaluator):
    """perfbench's sweep check scores its start pose as ev(initial)."""
    ev, gt = canonical_evaluator
    for dt in ([0.0, 0.0, 0.0], [0.2, -0.1, 0.1], [50.0, 0.0, 0.0]):
        e = Extrinsic(gt.r, gt.t + np.array(dt))
        assert ev(e).hex() == cost.cost(e, ev).hex()


# (module, function, positional arguments, keyword arguments) of each call;
# a method is named Class.method and its first argument is the instance
CALLS = (
    ("cloud_features", "extract_cloud_features", ("cloud",), {"seed": 0, "cfg": "cfg"}),
    ("image_features", "extract_image_features", ("lane", "pole", "cfg"), {}),
    ("image_features", "load_mask", ("path", "lane", "intrinsics"), {}),
    ("pipeline", "build_evaluator", ("cf", "imf", "intrinsics"), {}),
    ("evaluation", "robustness_sweep", ("evs", "ref", 1, 1.0, 0.1, 0), {"refine_cfg": "r"}),
    ("evaluation", "refine", ("initial", "ev", "cfg"), {}),
    ("pipeline", "coarse_calibrate", ("cf", "lines", "ev", "report"), {}),
    ("cost", "cost", ("e", "ev"), {}),
    ("synth", "canonical_spec", (0,), {"lane_offsets": (), "lane_dashed": ()}),
    ("synth", "format_scene_spec", ("spec",), {}),
    ("cli", "main", (["argv"],), {}),
    ("cost", "CostEvaluator.__call__", ("ev", "e"), {}),
    ("cloud_features", "PointCloud.from_array", ("arr",), {}),
)


@pytest.mark.parametrize("module, name, args, kwargs", CALLS)
def test_every_call_shape_binds(module, name, args, kwargs):
    fn = importlib.import_module(f"linecalib.{module}")
    for part in name.split("."):
        fn = getattr(fn, part)
    inspect.signature(fn).bind(*args, **kwargs)


def test_the_sweep_setup_builds_the_evaluator_of_extract_features(canonical_frame,
                                                                  canonical_evaluator):
    """perfbench's sweep set-up chains the extraction itself, as
    workloads.py writes it: its evaluator is extract_features', bit for bit."""
    spec, cloud, lane, pole, _ = canonical_frame
    ev, _ = canonical_evaluator
    cfg = config.PipelineConfig()
    cf = cloud_features.extract_cloud_features(cloud, seed=cfg.seed, cfg=cfg)
    imf = image_features.extract_image_features(lane, pole, cfg)
    got = pipeline.build_evaluator(cf, imf, spec.intrinsics)
    assert np.array_equal(got.points, ev.points)
    assert np.array_equal(got.lane_height.values, ev.lane_height.values)
    assert np.array_equal(got.pole_height.values, ev.pole_height.values)


def test_the_tracer_finds_the_report_as_fourth_argument():
    assert list(inspect.signature(pipeline.coarse_calibrate).parameters)[3] == "report"


def test_results_carry_the_fields_the_checks_read():
    cfg = config.PipelineConfig()
    assert isinstance(cfg.seed, int)
    assert isinstance(cfg.refinement(), config.RefinementConfig)
    trial_fields = {f.name for f in dataclasses.fields(evaluation.SweepTrial)}
    assert {"failure", "refined_error"} <= trial_fields
    error_fields = {f.name for f in dataclasses.fields(evaluation.CalibrationError)}
    assert {"dt", "dtheta"} <= error_fields
    report = pipeline.CalibrationReport()
    assert report.candidates == 0
    e = Extrinsic.identity()
    assert e.matrix().shape == (3, 3) and e.r.shape == e.t.shape == (3,)
    cloud_fields = {f.name for f in dataclasses.fields(cloud_features.FeatureSetCloud)}
    assert {"lane_lines", "pole_lines", "lane_points", "pole_points"} <= cloud_fields
    ev_fields = {f.name for f in dataclasses.fields(cost.CostEvaluator)}
    assert {"lane_points", "pole_points"} <= ev_fields


def test_the_cli_accepts_the_benchmark_argv():
    parser = cli.build_parser()
    bundle = ["--cloud", "c.bin", "--lane-mask", "l.pgm", "--pole-mask", "p.pgm",
              "--intrinsics", "k.txt"]
    for command in ("calibrate", "coarse"):
        assert parser.parse_args([command, *bundle, "--out", "e.txt"]).command == command
    assert parser.parse_args(["synth", "--spec", "s.txt", "--out", "d"]).command == "synth"


def test_image_extraction_calls_each_traced_kernel_once_per_mask(rebind_everywhere,
                                                                 canonical_frame):
    """perfbench's image_features.hough_lines_s and idt_height_map_s spans
    wrap every linecalib module global bound to these two kernels, as the
    tracer does.  extract_image_features (the sweep set-up) must reach
    idt_height_map once for each mask, and the calibrate path must reach
    both once for each mask, or the spans read 0."""
    spec, cloud, lane, pole, _ = canonical_frame
    cfg = config.PipelineConfig()
    calls = []
    for name in ("hough_lines", "idt_height_map"):
        original = getattr(image_features, name)

        def counted(mask, cfg, name=name, original=original):
            calls.append((name, mask.cls))
            return original(mask, cfg)

        rebind_everywhere(original, counted)
    image_features.extract_image_features(lane, pole, cfg)
    assert sorted(calls) == [("idt_height_map", "lane"), ("idt_height_map", "pole")]
    calls.clear()
    pipeline.calibrate(cloud, lane, pole, spec.intrinsics, cfg)
    assert sorted(calls) == [("hough_lines", "lane"), ("hough_lines", "pole"),
                             ("idt_height_map", "lane"), ("idt_height_map", "pole")]


def test_pole_extraction_reaches_cluster_cells_through_the_module_global(monkeypatch,
                                                                        canonical_frame):
    """perfbench's cloud_features.cluster_cells_s span wraps the module
    global, which extract_pole_points must call once per frame."""
    _, cloud, _, _, _ = canonical_frame
    calls = []
    original = cloud_features.cluster_cells

    def counted(cells, nx):
        calls.append(len(cells))
        return original(cells, nx)

    monkeypatch.setattr(cloud_features, "cluster_cells", counted)
    cf = cloud_features.extract_cloud_features(cloud, 0, config.PipelineConfig())
    assert calls == [len(cf.pole_points)]
