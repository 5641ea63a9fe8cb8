"""Write synthetic frame bundles with `linecalib synth`, in a process of its own.

Usage: python3 perfbench/gen.py --src SRC --out DIR --layout canonical|five_lane SEED...

For each scene seed it writes DIR/scene-SEED/spec.txt (the scene spec)
and the bundle `linecalib synth` makes from it (cloud, lane and pole
masks, intrinsics, ground-truth extrinsic).  Generating here keeps the
generator's memory out of the measuring process, so its peak RSS is the
program's own.  Each bundle write is one set-up unit; the last line of
stdout is JSON with the raw seconds of each unit and the probe times
taken around them.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import time
from pathlib import Path

from probe import Probe

# five solid lanes: the canonical three plus two more at y = 5.4 and 8.8,
# keeping the spacing uneven; poles, gantry, box and paint cells stay
# canonical
FIVE_LANE_OFFSETS = (-5.0, -1.8, 1.8, 5.4, 8.8)


def scene_spec(layout: str, seed: int):
    from linecalib.synth import canonical_spec

    if layout == "five_lane":
        return canonical_spec(
            seed,
            lane_offsets=FIVE_LANE_OFFSETS,
            lane_dashed=(False,) * len(FIVE_LANE_OFFSETS),
        )
    return canonical_spec(seed)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True, help="directory holding the linecalib package")
    ap.add_argument("--out", required=True)
    ap.add_argument("--layout", required=True, choices=("canonical", "five_lane"))
    ap.add_argument("seeds", type=int, nargs="+")
    args = ap.parse_args(argv)
    sys.path.insert(0, args.src)
    from linecalib import cli
    from linecalib.synth import format_scene_spec

    probe = Probe()
    probe.measure()  # warm-up
    raw, probes = [], [probe.measure()]
    for seed in args.seeds:
        scene = Path(args.out) / f"scene-{seed}"
        scene.mkdir(parents=True)
        spec_path = scene / "spec.txt"
        spec_path.write_text(format_scene_spec(scene_spec(args.layout, seed)), encoding="utf-8")
        argv = ["synth", "--spec", str(spec_path), "--out", str(scene)]
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            code = cli.main(argv)
            raw.append(time.perf_counter() - t0)
        if code != 0:
            sys.stderr.write(f"linecalib synth exited {code} for seed {seed}\n")
            return 1
        probes.append(probe.measure())
    print(json.dumps({"raw_s": raw, "probe_s": probes}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
