#!/usr/bin/env python3
"""Timing and accuracy micro-benchmark of the three-line pose solver.

Builds exact (noise-free) line correspondences from random scene specs
and times the minimal solver alone.

    python scripts/bench_p3l.py --n 500
"""
import argparse
import sys
import time

import numpy as np

from linecalib.errors import DegenerateNormals, MisalignedLine, NoSolution
from linecalib.evaluation import rotation_error, translation_error
from linecalib.p3l import P3LProblem, solve_p3l
from linecalib.synth import random_spec, true_frame, true_lines


def exact_problem(spec):
    lanes3d, poles3d, lanes2d, poles2d = true_lines(spec)
    frame = true_frame(spec)
    return P3LProblem(
        lane1_img=lanes2d[0],
        lane2_img=lanes2d[1],
        pole_img=poles2d[0],
        lane1_cloud=lanes3d[0],
        lane2_cloud=lanes3d[1],
        pole_cloud=poles3d[0],
        frame=frame,
        intrinsics=spec.intrinsics,
    )


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=500)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    solved = failed = hits = 0
    times = []
    for i in range(args.n):
        spec = random_spec(seed=args.seed + i)
        try:
            prob = exact_problem(spec)
        except (ValueError, MisalignedLine):
            failed += 1
            continue
        t0 = time.perf_counter()
        try:
            cands = solve_p3l(prob)
        except (NoSolution, DegenerateNormals):
            failed += 1
            continue
        times.append(time.perf_counter() - t0)
        solved += 1
        gt = spec.extrinsic
        best = min(
            max(translation_error(e, gt), rotation_error(e, gt)) for e in cands
        )
        hits += best < 1e-6
    times = np.array(times)
    print(
        f"{solved}/{args.n} solvable ({failed} degenerate/skipped), "
        f"ground truth recovered to 1e-6 in {hits}/{solved} "
        f"({100.0 * hits / max(solved, 1):.1f}%)"
    )
    print(
        f"solve time: mean {1e3 * times.mean():.3f} ms, "
        f"max {1e3 * times.max():.3f} ms"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
