"""Self-test of the benchmark harness on a tiny grid.

    python3 perfbench/selftest.py

For each workload at n = 16 (seed 0) it checks that
1. the real program's results pass their checks, traced and untraced;
2. a deliberately wrong result -- a branch with its onset shifted by 2 %,
   a branch CSV whose first mu is shifted by 2 %, a simulate end state moved
   by 1e-3 -- fails its check and is counted as failed by ``run_units``;
and that the metric names, units and directions the harness prints are
the ones BENCHMARK.json lists.  Exits 0 when all of this holds.
"""

import json
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import run  # pins the BLAS threads before numpy is imported

sys.path.insert(0, str(run.SRC))

import numpy as np  # noqa: E402

import refugebif as rb  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TINY_N = 16
SHIFT = 1.02
problems = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        problems.append(what)


def shifted_branch(branch):
    return replace(branch, points=tuple(replace(p, mu=p.mu * SHIFT) for p in branch.points))


def shifted_csv(code, out: Path, variant: str):
    path = next(out.glob(f"branch_{variant}_*.csv"))
    lines = path.read_text().splitlines()
    cells = lines[1].split(",")
    cells[2] = repr(float(cells[2]) * SHIFT)
    lines[1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    return code


def moved_state(result):
    final, steady = result
    u = rb.ScalarField(final.grid, final.u.values + 1e-3, rb.Region.ALL)
    return rb.State(u, final.v), steady


def corrupt(name: str, unit, workdir: Path):
    """The unit with its result made wrong after the real call."""
    if name == "fig1":
        return replace(unit, run=lambda: shifted_branch(unit.run()))
    if name == "default-trace":
        out = workdir / unit.variant
        return replace(unit, run=lambda: shifted_csv(unit.run(), out, unit.variant))
    return replace(unit, run=lambda: moved_state(unit.run()))


def benchmark_file_agrees() -> None:
    spec = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())
    printed = [(name, unit, "lower") for name, unit in run.END_TO_END]
    listed = [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
    expect(printed == listed, "end-to-end metrics match BENCHMARK.json")
    printed = [(name, unit, better) for name, unit, better, *_ in tracing.LAYERS]
    listed = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    expect(printed == listed, "per-layer metrics match BENCHMARK.json")
    names = [w["name"] for w in spec["workloads"]]
    expect(
        tuple(names) == run.WORKLOAD_NAMES == tuple(workloads.WORKLOADS),
        "workloads match BENCHMARK.json",
    )


def main() -> int:
    benchmark_file_agrees()
    run.OUT.mkdir(exist_ok=True)
    for name in run.WORKLOAD_NAMES:
        with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
            workdir = Path(tmp)
            tracer = tracing.Tracer()
            tracer.install()
            with tracer.recording("setup"):
                units = workloads.prepare(name, 0, workdir, n=TINY_N)
            samples, failures, attempted = run.run_units(units, 0.0, tracer.recording)
            tracer.uninstall()
            expect(not failures and attempted == 2, f"{name}: real results pass {failures}")
            wall = run.medians(samples)["wall_s"]
            metrics = tracing.layer_metrics(tracer.spans, wall, 1.0)
            expect(
                set(metrics) == {m[0] for m in tracing.LAYERS}
                and all(np.isfinite(v) for v in metrics.values()),
                f"{name}: traced calls give every per-layer metric",
            )

            bad = [corrupt(name, units[0], workdir), units[1]]
            _, failures, attempted = run.run_units(bad, 0.0)
            expect(
                len(failures) == 1 and attempted == 2 and units[0].variant in failures[0],
                f"{name}: a wrong {units[0].variant} result counts as 1 failure of 2 {failures}",
            )
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
