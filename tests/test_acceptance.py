"""Acceptance gate: one test (one pass/fail line under pytest -v) per criterion.

Run with `pytest -v tests/test_acceptance.py`.  Each test prints its
measured numbers so the tolerances can be audited from the log.
"""
import math
import re
import time
from pathlib import Path

import numpy as np
import pytest

from linecalib.config import PipelineConfig
from linecalib.errors import DegenerateNormals
from linecalib.evaluation import (
    calibration_error,
    robustness_sweep,
    rotation_error,
    translation_error,
)
from linecalib.image_features import SemanticMask, hough_lines, idt_height_map
from linecalib.pipeline import calibrate, coarse_calibrate, extract_features
from linecalib.synth import canonical_spec, generate, random_spec
from test_p3l import exact_triple, solve_triple

CFG = PipelineConfig(seed=0)


# ---------------------------------------------------------------------------
# shared expensive fixtures


@pytest.fixture(scope="module")
def fifty_scene_runs():
    """Full pipeline on 50 canonical noisy scenes; also coarse-only errors."""
    runs = []
    for s in range(50):
        spec = canonical_spec(s)
        cloud, lane_mask, pole_mask, gt = generate(spec)
        cf, ev = extract_features(cloud, lane_mask, pole_mask, spec.intrinsics, CFG)
        lines = (hough_lines(lane_mask, CFG), hough_lines(pole_mask, CFG))
        t0 = time.perf_counter()
        coarse = coarse_calibrate(cf, lines, ev)
        coarse_time = time.perf_counter() - t0
        t0 = time.perf_counter()
        refined, _ = calibrate(cloud, lane_mask, pole_mask, spec.intrinsics, CFG)
        total_time = time.perf_counter() - t0
        runs.append(
            dict(
                coarse=calibration_error(coarse, gt),
                refined=calibration_error(refined, gt),
                coarse_time=coarse_time,
                total_time=total_time,
            )
        )
    return runs


# ---------------------------------------------------------------------------
# criterion 1: minimal solver oracle


def test_criterion_1_three_line_solver_oracle():
    n, solvable, hits, times = 500, 0, 0, []
    for i in range(n):
        spec = random_spec(seed=i)
        tri = exact_triple(spec)
        t0 = time.perf_counter()
        try:
            cands = solve_triple(tri)
        except DegenerateNormals:
            continue
        if not cands:
            continue
        times.append(time.perf_counter() - t0)
        solvable += 1
        gt = spec.extrinsic
        best = min(
            max(translation_error(e, gt), rotation_error(e, gt)) for e in cands
        )
        hits += best < 1e-6
    frac = hits / solvable
    mean_ms = 1e3 * float(np.mean(times))
    print(
        f"\n[criterion 1] {hits}/{solvable} solvable within 1e-6 "
        f"({100 * frac:.1f}%), mean {mean_ms:.3f} ms/solve"
    )
    assert solvable > 400
    assert frac >= 0.99
    assert mean_ms < 1.0


# ---------------------------------------------------------------------------
# criterion 2: distance-field oracle equivalence


def _brute_l1(target):
    h, w = target.shape
    ys, xs = np.nonzero(target)
    out = np.empty((h, w), dtype=np.int64)
    for y in range(h):
        for x in range(w):
            out[y, x] = np.min(np.abs(ys - y) + np.abs(xs - x))
    return out


def _brute_idt(bits, gamma0, gamma1):
    # max over target pixels of gamma^L1 == gamma^(min L1 distance);
    # inside the mask the distance runs to the nearest unset pixel with a
    # virtual unset border ring
    padded = np.pad(bits, 1, constant_values=False)
    d_in = _brute_l1(~padded)[1:-1, 1:-1]
    d_out = _brute_l1(bits)
    return np.where(
        bits,
        np.power(gamma0, d_in.astype(float)),
        np.power(gamma1, d_out.astype(float)),
    )


def test_criterion_2_idt_matches_brute_force():
    rng = np.random.default_rng(0)
    for i in range(100):
        bits = rng.random((32, 32)) < rng.uniform(0.05, 0.3)
        if not bits.any() or bits.all():
            bits[16, 16] = True
            bits[0, 0] = False
        mask = SemanticMask("lane", bits)
        fast = idt_height_map(mask, CFG)
        brute = _brute_idt(bits, CFG.gamma0, CFG.gamma1)
        assert np.array_equal(fast.values, brute), f"mask {i} differs"
    print("\n[criterion 2] 100/100 masks bitwise equal to brute force")


# ---------------------------------------------------------------------------
# criteria 3 and 4: coarse and refined accuracy on 50 scenes


def test_criterion_3_coarse_bound(fifty_scene_runs):
    dts = [r["coarse"].dt for r in fifty_scene_runs]
    dths = [math.degrees(r["coarse"].dtheta) for r in fifty_scene_runs]
    times = [r["coarse_time"] for r in fifty_scene_runs]
    ok = sum(t < 0.5 and a < 3.0 for t, a in zip(dts, dths))
    print(
        f"\n[criterion 3] coarse within (0.5 m, 3 deg) in {ok}/50, "
        f"max dt {max(dts):.3f} m, max dtheta {max(dths):.3f} deg, "
        f"median time {np.median(times) * 1e3:.1f} ms"
    )
    assert ok == 50
    # the accuracy bound above is the hard criterion; runtime scales with
    # the number of extracted cloud lines (the candidate enumeration is
    # cubic-ish in line count) and is reported for auditing with a loose cap
    assert float(np.median(times)) < 0.5


def test_criterion_4_refined_accuracy(fifty_scene_runs):
    dts = [r["refined"].dt for r in fifty_scene_runs]
    dths = [math.degrees(r["refined"].dtheta) for r in fifty_scene_runs]
    ok = sum(t < 0.05 and a < 0.5 for t, a in zip(dts, dths))
    print(
        f"\n[criterion 4] refined within (0.05 m, 0.5 deg) in {ok}/50 "
        f"({2 * ok}%), median dt {np.median(dts):.4f} m"
    )
    assert ok >= 45  # >= 90% of 50


# ---------------------------------------------------------------------------
# criterion 5: robustness sweep


def _robustness_ratios(scenes, seed):
    """Criterion 5's protocol: 10 trials per canonical scene, each perturbed
    by up to 1 m / 6 degrees, then refined; the refined-to-initial
    perturbation-magnitude ratio of every trial."""
    evaluators, ref = [], None
    for s in scenes:
        spec = canonical_spec(s)
        cloud, lane_mask, pole_mask, gt = generate(spec)
        evaluators.append(
            extract_features(cloud, lane_mask, pole_mask, spec.intrinsics, CFG)[1]
        )
        ref = gt
    trials = robustness_sweep(
        evaluators, ref, 10, 1.0, math.radians(6.0), seed=seed,
        refine_cfg=CFG.refinement(),
    )
    return np.array([t.refined_magnitude / t.initial_magnitude for t in trials])


def test_criterion_5_robustness_sweep():
    ratios = _robustness_ratios(range(20), seed=0)
    frac5 = float((ratios <= 0.2).mean())
    med = float(np.median(ratios))
    print(
        f"\n[criterion 5] error/5 reached in {(ratios <= 0.2).sum()}/200 "
        f"({100 * frac5:.1f}%), median ratio {med:.3f}"
    )
    assert frac5 >= 0.90
    assert med <= 0.10


def test_robustness_holds_off_the_gate_set():
    """Criterion 5's protocol on scenes and trial seeds it never sees."""
    ratios = _robustness_ratios(range(20, 40), seed=5000)
    frac5 = float((ratios <= 0.2).mean())
    print(
        f"\n[criterion 5, scenes 20..39] error/5 reached in {(ratios <= 0.2).sum()}/200 "
        f"({100 * frac5:.1f}%), median ratio {np.median(ratios):.3f}, "
        f"{(ratios > 1).sum()} trials end farther off than they started"
    )
    assert frac5 >= 0.90


# ---------------------------------------------------------------------------
# criterion 6: end-to-end runtime


def test_criterion_6_runtime(fifty_scene_runs):
    times = [r["total_time"] for r in fifty_scene_runs]
    print(
        f"\n[criterion 6] end-to-end median {np.median(times):.2f} s, "
        f"max {max(times):.2f} s"
    )
    assert float(np.median(times)) < 2.0


# ---------------------------------------------------------------------------
# criterion 7: byte-identical determinism


def test_criterion_7_determinism(tmp_path):
    from linecalib.cli import main
    from linecalib.synth import format_scene_spec

    spec_path = tmp_path / "scene.txt"
    spec_path.write_text(format_scene_spec(canonical_spec(0)), encoding="utf-8")
    bundle = tmp_path / "frame"
    assert main(["synth", "--spec", str(spec_path), "--out", str(bundle)]) == 0
    args = [
        "calibrate",
        "--cloud", str(bundle / "frame_cloud.bin"),
        "--lane-mask", str(bundle / "frame_lane.pgm"),
        "--pole-mask", str(bundle / "frame_pole.pgm"),
        "--intrinsics", str(bundle / "intrinsics.txt"),
    ]
    outs, reports = [], []
    for tag in ("a", "b"):
        out = tmp_path / f"extr_{tag}.txt"
        rep = tmp_path / f"report_{tag}.txt"
        assert main(args + ["--out", str(out), "--report", str(rep)]) == 0
        outs.append(out.read_bytes())
        reports.append(rep.read_bytes())
    assert outs[0] == outs[1]
    # timings legitimately differ between runs; everything else must match
    strip = lambda b: re.sub(rb"time_\w+_s: [\d.]+\n", b"", b)
    assert strip(reports[0]) == strip(reports[1])
    print("\n[criterion 7] two runs byte-identical (extrinsic) and "
          "field-identical (report, timings excluded)")


# ---------------------------------------------------------------------------
# criterion 8: property suites present at >= 1000 cases


def test_criterion_8_property_suites():
    here = Path(__file__).parent
    required = {
        "test_geometry.py",
        "test_image_features.py",
        "test_cloud_features.py",
        "test_cost.py",
        "test_refine.py",
        "test_p3l.py",
    }
    found = 0
    for name in sorted(required):
        src = (here / name).read_text(encoding="utf-8")
        assert "settings(max_examples=1000" in src, name
        assert "@given" in src, name
        found += 1
    print(f"\n[criterion 8] {found}/{len(required)} modules carry "
          "1000-case property suites")
