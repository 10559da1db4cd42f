"""Per-layer spans recorded from outside refugebif, and the metrics they give.

``Tracer.install`` rebinds each layer's entry point to a wrapper that records
one span per call: name, start, end, parent span and run id, plus counts read
off the call's arguments or result.  A function is rebound under every name
any refugebif module binds it to, so names brought in with
``from .x import f`` are covered; SciPy's ``splu`` is rebound per importing
module instead, so each caller's factorizations stay apart.  The two layers
without a public entry point are the class attributes
``continuation._Corrector.solve`` (one corrector solve) and
``timestepping._Stepper.advance`` (one IMEX step).  ``uninstall`` puts the
originals back.  Spans stay in memory until the benchmark writes them out.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from refugebif import (
    analytics, cli, config, continuation, geometry, model, newton, output,
    svgplot, timestepping,
)

# (metric, unit, better, end-to-end metric it should move, workload it moves on)
LAYERS = (
    ("continuation.splu_calls", "count", "lower", "nonlinear_s, linear_s", "fig1; unchanged on simulate"),
    ("continuation.splu_s", "s", "lower", "nonlinear_s, linear_s", "fig1; unchanged on simulate"),
    ("continuation.factor_nnz", "count", "lower", "nonlinear_s, linear_s", "fig1; unchanged on simulate"),
    ("continuation.corrector_calls", "count", "lower", "nonlinear_s", "default-trace"),
    ("continuation.corrector_iters", "count", "lower", "nonlinear_s", "default-trace"),
    ("continuation.points", "count", "lower", "nonlinear_s", "default-trace; unchanged on fig1"),
    ("continuation.accept_ratio", "ratio", "higher", "nonlinear_s", "default-trace; unchanged on fig1"),
    ("continuation.step_ms_p50", "ms", "lower", "nonlinear_s", "default-trace"),
    ("continuation.step_ms_p90", "ms", "lower", "nonlinear_s", "default-trace"),
    ("continuation.self_s", "s", "lower", "nonlinear_s", "default-trace"),
    ("model.residual_calls", "count", "lower", "wall_s", "default-trace; smaller share on fig1"),
    ("model.residual_s", "s", "lower", "wall_s", "default-trace; smaller share on fig1"),
    ("model.jacobian_calls", "count", "lower", "wall_s", "default-trace; smaller share on fig1"),
    ("model.jacobian_s", "s", "lower", "wall_s", "default-trace; smaller share on fig1"),
    ("newton.solve_calls", "count", "lower", "nonlinear_s", "default-trace"),
    ("newton.solve_iters", "count", "lower", "nonlinear_s", "default-trace"),
    ("newton.solve_s", "s", "lower", "nonlinear_s", "default-trace"),
    ("newton.splu_calls", "count", "lower", "nonlinear_s", "default-trace"),
    ("newton.splu_s", "s", "lower", "nonlinear_s", "default-trace"),
    ("timestepping.steps", "count", "lower", "wall_s", "simulate"),
    ("timestepping.step_ms_p50.nonlinear", "ms", "lower", "nonlinear_s", "simulate"),
    ("timestepping.step_ms_p99.nonlinear", "ms", "lower", "nonlinear_s", "simulate"),
    ("timestepping.step_ms_p50.linear", "ms", "lower", "linear_s", "simulate; unchanged"),
    ("timestepping.step_ms_p99.linear", "ms", "lower", "linear_s", "simulate; unchanged"),
    ("timestepping.splu_calls", "count", "lower", "nonlinear_s", "simulate"),
    ("timestepping.splu_s", "s", "lower", "nonlinear_s", "simulate"),
    ("analytics.bifurcation_data_calls", "count", "lower", "wall_s", "fig1"),
    ("analytics.bifurcation_data_s", "s", "lower", "wall_s", "fig1"),
    ("geometry.build_grid_s", "s", "lower", "setup_s", "all"),
    ("geometry.laplacian_cold_s", "s", "lower", "setup_s", "all"),
    ("config.load_s", "s", "lower", "wall_s", "default-trace"),
    ("output.write_csv_s", "s", "lower", "wall_s", "default-trace"),
    ("svgplot.render_s", "s", "lower", "wall_s", "default-trace"),
    ("splu_share", "ratio", "lower", "wall_s", "fig1 (at least 0.8 at the seed code)"),
    ("trace_overhead", "ratio", "lower", "-", "all"),
)


def _targets():
    """(owner, attribute, span name, rebind every binding?, span filter,
    counts from (args, result)) for each layer entry point."""

    def is_cold_laplacian(args, kwargs):
        region = args[1] if len(args) > 1 else kwargs.get("region", geometry.Region.ALL)
        return ("laplacian", region) not in args[0]._cache

    def iters(args, result):
        return {"iters": result[1].iterations}

    targets = [
        (geometry, "build_grid", "geometry.build_grid", True, None, None),
        (geometry, "neumann_laplacian", "geometry.laplacian_cold", True, is_cold_laplacian, None),
        (model, "residual", "model.residual", True, None, None),
        (model, "jacobian", "model.jacobian", True, None, None),
        (analytics, "bifurcation_data", "analytics.bifurcation_data", True, None, None),
        (newton, "newton_solve", "newton.solve", True, None, iters),
        (continuation, "trace_branch", "continuation.trace_branch", True, None, None),
        (continuation._Corrector, "solve", "continuation.corrector", False, None,
         lambda args, result: {"iters": result[1]}),
        (continuation, "BranchPoint", "continuation.point", False, None, None),
        (timestepping, "evolve_to_steady", "timestepping.evolve", True, None, None),
        (timestepping._Stepper, "advance", "timestepping.step", False, None,
         lambda args, result: {"variant": args[0].params.variant.value}),
        (config, "load_config", "config.load", True, None, None),
        (output, "write_csv", "output.write_csv", True, None, None),
        (svgplot, "render", "svgplot.render", True, None, None),
        (cli, "main", "cli.main", True, None, None),
    ]
    for module in (continuation, newton, timestepping, analytics):
        layer = module.__name__.rsplit(".", 1)[1]
        targets.append(
            (module, "splu", f"{layer}.splu", False, None, lambda args, lu: {"nnz": lu.nnz})
        )
    return targets


class Tracer:
    """In-memory span recorder; spans are dicts with id, name, start, end,
    parent, run and any counts the wrapped call yielded."""

    def __init__(self):
        self.spans: list[dict] = []
        self.run_id = ""
        self.enabled = False
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, when, attrs):
        tracer = self

        @functools.wraps(fn, updated=())
        def wrapper(*args, **kwargs):
            if not tracer.enabled or (when is not None and not when(args, kwargs)):
                return fn(*args, **kwargs)
            span = {
                "id": len(tracer.spans),
                "name": name,
                "parent": tracer._stack[-1] if tracer._stack else None,
                "run": tracer.run_id,
            }
            tracer.spans.append(span)
            tracer._stack.append(span["id"])
            span["start"] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = perf_counter()
                tracer._stack.pop()
            if attrs is not None:
                span.update(attrs(args, result))
            return result

        return wrapper

    def install(self) -> None:
        """Rebind every layer entry point; idempotent until ``uninstall``."""
        if self._patches:
            return
        modules = [m for k, m in sys.modules.items() if k == "refugebif" or k.startswith("refugebif.")]
        for owner, attr, name, everywhere, when, attrs in _targets():
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, when, attrs)
            owners = [owner]
            if everywhere:
                owners = [m for m in modules if vars(m).get(attr) is original]
            for holder in owners:
                self._patches.append((holder, attr, original))
                setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches.clear()

    @contextmanager
    def recording(self, run_id: str):
        self.run_id, self.enabled = run_id, True
        try:
            yield
        finally:
            self.enabled = False

    def write(self, path) -> None:
        """Write the spans as JSON lines, each with its derived self time."""
        self_s = self_times(self.spans)
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(dict(s, self=self_s[s["id"]])) + "\n")


def self_times(spans: list[dict]) -> dict:
    """Span id -> span time minus the time of its direct child spans."""
    out = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def _pct(values, q) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def layer_metrics(spans: list[dict], traced_wall: float, trace_overhead: float) -> dict:
    """Per-layer metrics (name -> value) from the traced set-up and calls;
    ``traced_wall`` is the traced calls' seconds as timed."""
    by_name = defaultdict(list)
    children = defaultdict(list)
    self_s = self_times(spans)
    for s in spans:
        by_name[s["name"]].append(s)
        if s["parent"] is not None:
            children[s["parent"]].append(s)

    def dur(s):
        return s["end"] - s["start"]

    def calls(name):
        return float(len(by_name[name]))

    def seconds(name):
        return float(sum(dur(s) for s in by_name[name]))

    def total(name, key):
        return float(sum(s[key] for s in by_name[name]))

    accepted = 0
    step_ms = []
    for branch in by_name["continuation.trace_branch"]:
        kids = sorted(children[branch["id"]], key=lambda s: s["start"])
        last_solver = None
        point_times = []
        for s in kids:
            if s["name"] == "continuation.point":
                accepted += last_solver == "continuation.corrector"
                point_times.append(s["start"])
            else:
                last_solver = s["name"]
        # the two seed points are made back to back; steps start at the third
        step_ms += [1e3 * (b - a) for a, b in zip(point_times[1:], point_times[2:])]

    steps = defaultdict(list)
    for s in by_name["timestepping.step"]:
        steps[s["variant"]].append(1e3 * dur(s))
    splu_nnz = [s["nnz"] for s in by_name["continuation.splu"]]
    splu_total = sum(seconds(f"{m}.splu") for m in ("continuation", "newton", "timestepping", "analytics"))
    corrector_calls = calls("continuation.corrector")

    return {
        "continuation.splu_calls": calls("continuation.splu"),
        "continuation.splu_s": seconds("continuation.splu"),
        "continuation.factor_nnz": float(np.mean(splu_nnz)) if splu_nnz else 0.0,
        "continuation.corrector_calls": corrector_calls,
        "continuation.corrector_iters": total("continuation.corrector", "iters"),
        "continuation.points": calls("continuation.point"),
        "continuation.accept_ratio": accepted / corrector_calls if corrector_calls else 0.0,
        "continuation.step_ms_p50": _pct(step_ms, 50),
        "continuation.step_ms_p90": _pct(step_ms, 90),
        "continuation.self_s": float(sum(self_s[s["id"]] for s in by_name["continuation.trace_branch"])),
        "model.residual_calls": calls("model.residual"),
        "model.residual_s": seconds("model.residual"),
        "model.jacobian_calls": calls("model.jacobian"),
        "model.jacobian_s": seconds("model.jacobian"),
        "newton.solve_calls": calls("newton.solve"),
        "newton.solve_iters": total("newton.solve", "iters"),
        "newton.solve_s": seconds("newton.solve"),
        "newton.splu_calls": calls("newton.splu"),
        "newton.splu_s": seconds("newton.splu"),
        "timestepping.steps": calls("timestepping.step"),
        "timestepping.step_ms_p50.nonlinear": _pct(steps["nonlinear"], 50),
        "timestepping.step_ms_p99.nonlinear": _pct(steps["nonlinear"], 99),
        "timestepping.step_ms_p50.linear": _pct(steps["linear"], 50),
        "timestepping.step_ms_p99.linear": _pct(steps["linear"], 99),
        "timestepping.splu_calls": calls("timestepping.splu"),
        "timestepping.splu_s": seconds("timestepping.splu"),
        "analytics.bifurcation_data_calls": calls("analytics.bifurcation_data"),
        "analytics.bifurcation_data_s": seconds("analytics.bifurcation_data"),
        "geometry.build_grid_s": seconds("geometry.build_grid"),
        "geometry.laplacian_cold_s": seconds("geometry.laplacian_cold"),
        "config.load_s": seconds("config.load"),
        "output.write_csv_s": seconds("output.write_csv"),
        "svgplot.render_s": seconds("svgplot.render"),
        "splu_share": splu_total / traced_wall,
        "trace_overhead": trace_overhead,
    }
