"""linecalib benchmark: one workload, one seed, one run.

Usage (from the repository root):

    python3 perfbench/run.py --workload calibrate|sweep|coarse_dense \
        --seed N --seconds S --trace 0|1

Set-up writes the run's frame bundles with `linecalib synth` in a child
process, then the measuring process runs a fixed list of operations
(about S host-normalised seconds of work; the list depends only on the
workload and S, the seed sets its order) and checks every output
against the synthetic ground truth.  Every time is host-normalised: a fixed probe (perfbench/probe.py)
is timed between operations, and each time is scaled by NOMINAL_PROBE_S /
(mean of the two probe times just before and just after it).

--trace 0 prints the end-to-end metrics.  --trace 1 runs each operation
twice, untraced and then traced, and prints the per-layer metrics and
the tracing overhead; its spans go to perfbench/out/.  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.
"""
from __future__ import annotations

import argparse
import importlib
import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

from checks import self_test  # noqa: E402
from probe import Probe, host_factor  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

GEN_TIMEOUT_S = 150


def local_factors(probes: list[float]) -> list[float]:
    """Host factor of each interval between two consecutive probes."""
    return [host_factor(pair) for pair in zip(probes, probes[1:])]


def load_linecalib():
    sys.path.insert(0, str(SRC))
    names = ("cli", "cloud_features", "config", "evaluation", "fileio",
             "image_features", "pipeline")
    return types.SimpleNamespace(
        **{n: importlib.import_module(f"linecalib.{n}") for n in names})


def generate(layout: str, seeds: list[int], out: Path):
    """Write the bundles in a child process; returns the raw seconds and the
    host factor of each bundle write, and the bundle directories."""
    cmd = [sys.executable, str(HERE / "gen.py"), "--src", str(SRC), "--out", str(out),
           "--layout", layout, *map(str, seeds)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=GEN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"bundle generation failed:\n{proc.stderr}")
    rec = json.loads(proc.stdout.strip().splitlines()[-1])
    return rec["raw_s"], local_factors(rec["probe_s"]), [out / f"scene-{s}" for s in seeds]


def run(workload_name: str, seed: int, seconds: int, trace: bool, work: Path) -> dict:
    wl = WORKLOADS[workload_name]()
    probe = Probe()
    probe.measure()  # warm-up
    n_ops = wl.n_ops(seconds)

    t_setup = time.perf_counter()
    gen_raw, gen_factors, bundles = generate(wl.layout, wl.scene_seeds(n_ops), work)
    lc = load_linecalib()
    prep_probes = [probe.measure()]

    def timed(fn):
        t0 = time.perf_counter()
        out = fn()
        raw = time.perf_counter() - t0
        prep_probes.append(probe.measure())
        return raw, out

    prep_raw = wl.prepare(lc, bundles, timed)
    ops = wl.ops(lc, bundles, n_ops)
    random.Random(seed).shuffle(ops)
    setup_wall = time.perf_counter() - t_setup
    # one set-up unit per bundle: writing it, plus any in-process preparation
    units = [[r * f, r] for r, f in zip(gen_raw, gen_factors)]
    for unit, r, f in zip(units, prep_raw, local_factors(prep_probes)):
        unit[0] += r * f
        unit[1] += r

    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
    raw, traced_raw, outcomes = [], [], []
    probes = [probe.measure()]
    t_run = time.perf_counter()
    for i, op in enumerate(ops):
        t0 = time.perf_counter()
        res = op.run()
        raw.append(time.perf_counter() - t0)
        probes.append(probe.measure())
        outcomes.append(op.check(res))
        if tracer is not None:
            tracer.op = i
            tracer.install()
            try:
                t0 = time.perf_counter()
                res = op.run()
                traced_raw.append(time.perf_counter() - t0)
            finally:
                tracer.uninstall()
            probes.append(probe.measure())
            outcomes.append(op.check(res))
    run_wall = time.perf_counter() - t_run

    factors = local_factors(probes)
    step = 2 if tracer is not None else 1
    f_plain, f_traced = factors[0::step], factors[1::step]
    norm = [r * f for r, f in zip(raw, f_plain)]
    done = [o for o in outcomes if not o.failed]
    record = {
        "workload": workload_name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "n_ops": n_ops, "setup_wall_s": setup_wall, "run_wall_s": run_wall,
        "setup_units": units, "op_raw_s": raw, "probe_s": probes,
        "errors": [[o.dt_m, o.dtheta_deg] for o in outcomes],
        "problems": [o.why for o in outcomes if o.why],
    }
    result = {
        "correct": all(o.ok for o in done),
        "attempted": len(outcomes),
        "failed": len(outcomes) - len(done),
    }
    if tracer is None:
        setup_norm = statistics.median(u[0] for u in units)
        setup_raw = statistics.median(u[1] for u in units)
        metrics = {
            "setup_s": (setup_norm, "s", setup_raw),
            "ops_per_s": (len(norm) / sum(norm), "1/s", len(raw) / sum(raw)),
            "latency_p50_s": (statistics.median(norm), "s", statistics.median(raw)),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "MB", None),
            "dt_p50_m": (statistics.median(o.dt_m for o in done) if done else 0.0, "m", None),
            "dtheta_p50_deg": (
                statistics.median(o.dtheta_deg for o in done) if done else 0.0, "deg", None),
        }
    else:
        overhead = statistics.median(
            t * ft - u * fu for t, ft, u, fu in zip(traced_raw, f_traced, raw, f_plain))
        metrics = {k: (v, unit, None)
                   for k, (v, unit) in tracer.metrics(f_traced, overhead).items()}
        record["traced_raw_s"] = traced_raw
        trace_path = HERE / "out" / f"trace-{workload_name}-seed{seed}.json"
        tracer.write(trace_path, t_run)
        print(f"spans: {len(tracer.spans)} written to {trace_path.relative_to(ROOT)}")
    record["metrics"] = {k: v[0] for k, v in metrics.items()}
    record_path = HERE / "out" / f"run-{workload_name}-seed{seed}-trace{int(trace)}.json"
    record_path.write_text(json.dumps(record, indent=1), encoding="utf-8")

    print(f"workload {workload_name}  seed {seed}  ops {n_ops}  "
          f"host factor {host_factor(probes):.4f}  "
          f"set-up {setup_wall:.1f} s  run {run_wall:.1f} s (wall, raw)")
    for p in record["problems"]:
        print(f"  problem: {p}")
    for name, (value, unit, raw_value) in metrics.items():
        beside = ""
        if raw_value is not None:
            f = value / raw_value if unit == "s" else raw_value / value
            beside = f"   raw {raw_value:.6g} {unit}, factor {f:.4f}"
        print(f"  {name:48s} {value:14.6g} {unit}{beside}")
    result["metrics"] = {k: {"value": v[0], "unit": v[1]} for k, v in metrics.items()}
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (SRC / "linecalib" / "__init__.py").is_file():
        sys.stderr.write(f"no linecalib package under {SRC}; run from a full checkout\n")
        return 2
    problems = self_test()
    if problems:
        sys.stderr.write("output checks failed their self-test: " + "; ".join(problems) + "\n")
        return 3
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out))
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
