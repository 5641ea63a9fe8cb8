"""Per-layer tracing from outside the program.

The tracer wraps linecalib's public functions under every name callers
look them up by (module globals are rebound, so `pipeline.cost`,
`cli.cost` and `linecalib.cost.cost` all reach one wrapper).  Each call
becomes a span (operation, span id, parent span id, name, start, end)
kept in memory and written out when the run ends; self time is a span's
duration minus that of its direct children.  Install it only around
traced executions: untraced executions run the program unwrapped.
"""
from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

_perf = time.perf_counter

# reported name -> (inclusive|self|calls, span name)
_SPAN_METRICS = {
    "cli.load_s": ("incl", "cli.load"),
    "cli.save_s": ("incl", "cli.save"),
    "cloud_features.fit_ground_plane_s": ("incl", "cloud_features.fit_ground_plane"),
    "cloud_features.extract_lane_points_s": ("incl", "cloud_features.extract_lane_points"),
    "cloud_features.ransac_line3d_s": ("incl", "cloud_features.ransac_line3d"),
    "cloud_features.ransac_line3d_calls": ("calls", "cloud_features.ransac_line3d"),
    "cloud_features.extract_pole_points_s": ("incl", "cloud_features.extract_pole_points"),
    "cloud_features.cluster_cells_s": ("incl", "cloud_features.cluster_cells"),
    "cloud_features.extract_cloud_features_self_s": (
        "self", "cloud_features.extract_cloud_features"),
    "geometry.line3d_distance_calls": ("calls", "geometry.Line3D.distance"),
    "geometry.line3d_distance_s": ("incl", "geometry.Line3D.distance"),
    "image_features.hough_lines_s": ("incl", "image_features.hough_lines"),
    "image_features.idt_height_map_s": ("incl", "image_features.idt_height_map"),
    "p3l.solve_calls": ("calls", "p3l.solve_p3l"),
    "p3l.solve_s": ("incl", "p3l.solve_p3l"),
    "pipeline.coarse_calibrate_s": ("incl", "pipeline.coarse_calibrate"),
    "pipeline.coarse_self_s": ("self", "pipeline.coarse_calibrate"),
    "cost.coarse_s": ("incl", "cost.cost@coarse"),
    "cost.coarse_calls": ("calls", "cost.cost@coarse"),
    "cost.refine_s": ("incl", "cost.cost@refine"),
    "cost.refine_calls": ("calls", "cost.cost@refine"),
    "refine.refine_s": ("incl", "refine.refine"),
    "refine.evals": ("calls", "cost.cost@refine"),
    "evaluation.robustness_sweep_self_s": ("self", "evaluation.robustness_sweep"),
}
# reported name -> counter filled by the result hooks
_COUNT_METRICS = (
    "cloud_features.lane_lines",
    "cloud_features.pole_lines",
    "cloud_features.lane_points",
    "cloud_features.pole_points",
    "image_features.hough_lines_emitted",
    "p3l.candidates",
    "p3l.rejected",
    "pipeline.candidates",
    "refine.accepted",
)

# every per-layer metric the traced run prints, with its unit
PER_LAYER_UNITS = {
    **{k: ("count" if mode == "calls" else "s") for k, (mode, _) in _SPAN_METRICS.items()},
    **{k: "count" for k in _COUNT_METRICS},
    "cost.us_per_call": "us",
    "cost.points": "count",
    "tracing_overhead_s": "s",
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []          # (op, span id, parent id, name, start, end)
        self.counts: dict = defaultdict(float)
        self.op = -1
        self._stack: list = []         # open span ids
        self._names: list = []         # their names
        self._patches: list = []       # (owner, attribute, original)
        self._refine_best = None
        self._evaluators: dict = {}    # (op, id(evaluator)) -> cost points

    # ---- wrapping -------------------------------------------------------

    def _wrap(self, name, fn, on_result=None, on_error=None):
        spans, stack, names = self.spans, self._stack, self._names

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            names.append(name)
            t0 = _perf()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                if on_error is not None:
                    on_error()
                raise
            finally:
                t1 = _perf()
                stack.pop()
                names.pop()
                spans[sid] = (self.op, sid, parent, name, t0, t1)
            if on_result is not None:
                on_result(args, out)
            return out

        return traced

    def _wrap_cost(self, fn):
        """Cost calls are attributed to the coarse or the refine stage by
        their nearest enclosing span of either kind."""
        spans, stack, names = self.spans, self._stack, self._names

        def traced_cost(e, ev, *args, **kwargs):
            where = "other"
            for n in reversed(names):
                if n == "refine.refine":
                    where = "refine"
                    break
                if n == "pipeline.coarse_calibrate":
                    where = "coarse"
                    break
            name = "cost.cost@" + where
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            t0 = _perf()
            try:
                c = fn(e, ev, *args, **kwargs)
            finally:
                t1 = _perf()
                spans[sid] = (self.op, sid, parent, name, t0, t1)
            key = (self.op, id(ev))
            if key not in self._evaluators:
                self._evaluators[key] = len(ev.lane_points) + len(ev.pole_points)
            if where == "refine":
                if self._refine_best is None:
                    self._refine_best = c
                elif c > self._refine_best:
                    self._refine_best = c
                    self.counts["refine.accepted"] += 1
            return c

        return traced_cost

    def _patch_everywhere(self, original, replacement, only=None):
        """Rebind every linecalib module global that is `original`."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "linecalib" or mod_name.startswith("linecalib.")):
                continue
            if only is not None and mod_name not in only:
                continue
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self._patches.append((mod, attr, val))
                    setattr(mod, attr, replacement)

    def _count(self, key, f):
        def hook(args, out):
            self.counts[key] += f(args, out)
        return hook

    def _inc(self, key):
        def hook():
            self.counts[key] += 1
        return hook

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        m = {k: sys.modules[f"linecalib.{k}"] for k in (
            "cli", "cloud_features", "cost", "evaluation", "geometry",
            "image_features", "p3l", "pipeline", "refine")}
        cf, imf = m["cloud_features"], m["image_features"]

        def on_cloud(args, out):
            self.counts["cloud_features.lane_lines"] += len(out.lane_lines)
            self.counts["cloud_features.pole_lines"] += len(out.pole_lines)
            self.counts["cloud_features.lane_points"] += len(out.lane_points)
            self.counts["cloud_features.pole_points"] += len(out.pole_points)

        def on_coarse(args, out):
            report = args[3] if len(args) > 3 else None
            if report is not None:
                self.counts["pipeline.candidates"] += report.candidates

        plain = [
            (cf.fit_ground_plane, "cloud_features.fit_ground_plane", None, None),
            (cf.extract_lane_points, "cloud_features.extract_lane_points", None, None),
            (cf.ransac_line3d, "cloud_features.ransac_line3d", None, None),
            (cf.extract_pole_points, "cloud_features.extract_pole_points", None, None),
            (cf.cluster_cells, "cloud_features.cluster_cells", None, None),
            (cf.extract_cloud_features, "cloud_features.extract_cloud_features", on_cloud, None),
            (imf.hough_lines, "image_features.hough_lines",
             self._count("image_features.hough_lines_emitted", lambda a, o: len(o)), None),
            (imf.idt_height_map, "image_features.idt_height_map", None, None),
            (imf.extract_image_features, "image_features.extract_image_features", None, None),
            (m["p3l"].solve_p3l, "p3l.solve_p3l",
             self._count("p3l.candidates", lambda a, o: len(o)), self._inc("p3l.rejected")),
            (m["pipeline"].coarse_calibrate, "pipeline.coarse_calibrate", on_coarse, None),
            (m["pipeline"].calibrate, "pipeline.calibrate", None, None),
            (m["evaluation"].robustness_sweep, "evaluation.robustness_sweep", None, None),
        ]
        for fn, name, on_result, on_error in plain:
            self._patch_everywhere(fn, self._wrap(name, fn, on_result, on_error))

        refine_fn = m["refine"].refine
        wrapped_refine = self._wrap("refine.refine", refine_fn)

        def refine_entry(*args, **kwargs):
            self._refine_best = None
            return wrapped_refine(*args, **kwargs)

        self._patch_everywhere(refine_fn, refine_entry)
        cost_fn = m["cost"].cost
        self._patch_everywhere(cost_fn, self._wrap_cost(cost_fn))

        # the direction check in the problem constructor rejects candidates too
        problem = m["pipeline"].P3LProblem
        self._patch_everywhere(
            problem, self._wrap("p3l.P3LProblem", problem, None, self._inc("p3l.rejected")),
            only={"linecalib.pipeline"},
        )
        # file I/O as the CLI reaches it
        cli_names = {"linecalib.cli"}
        for attr in ("load_intrinsics", "load_cloud", "load_mask", "load_extrinsic"):
            fn = getattr(m["cli"], attr)
            self._patch_everywhere(fn, self._wrap("cli.load", fn), only=cli_names)
        fn = m["cli"].save_extrinsic
        self._patch_everywhere(fn, self._wrap("cli.save", fn), only=cli_names)

        line3d = m["geometry"].Line3D
        dist = line3d.distance
        self._patches.append((line3d, "distance", dist))
        line3d.distance = self._wrap("geometry.Line3D.distance", dist)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ---- results --------------------------------------------------------

    def metrics(self, op_factors: list[float], overhead_s: float) -> dict:
        """Per-operation means; times host-normalised with the factor of the
        traced execution they ran in."""
        n_ops = len(op_factors)
        incl, self_t, calls = defaultdict(float), defaultdict(float), defaultdict(int)
        child = defaultdict(float)
        for op, sid, parent, name, t0, t1 in self.spans:
            d = (t1 - t0) * op_factors[op]
            incl[name] += d
            calls[name] += 1
            if parent >= 0:
                child[parent] += d
        for op, sid, parent, name, t0, t1 in self.spans:
            self_t[name] += (t1 - t0) * op_factors[op] - child[sid]
        out = {}
        for key, (mode, name) in _SPAN_METRICS.items():
            src = {"incl": incl, "self": self_t, "calls": calls}[mode]
            out[key] = src[name] / n_ops
        for key in _COUNT_METRICS:
            out[key] = self.counts[key] / n_ops
        cost_names = [n for n in calls if n.startswith("cost.cost@")]
        n_cost = sum(calls[n] for n in cost_names)
        out["cost.us_per_call"] = (
            1e6 * sum(incl[n] for n in cost_names) / n_cost if n_cost else 0.0
        )
        out["cost.points"] = (
            sum(self._evaluators.values()) / len(self._evaluators) if self._evaluators else 0.0
        )
        out["tracing_overhead_s"] = overhead_s
        return {k: (v, PER_LAYER_UNITS[k]) for k, v in out.items()}

    def write(self, path, t_origin: float) -> None:
        rows = [
            [op, sid, parent, name, round(t0 - t_origin, 7), round(t1 - t_origin, 7)]
            for op, sid, parent, name, t0, t1 in self.spans
        ]
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"columns": ["op", "id", "parent", "name", "start_s", "end_s"],
                       "spans": rows}, f, separators=(",", ":"))
