"""Run one workload of the refugebif benchmark and print its metrics.

    python3 perfbench/run.py --workload fig1 --seed 0 --seconds 34 --trace 0

Benchmarks the package under ``src/`` of this checkout.  One process, one
Python thread, BLAS/OpenMP threads pinned to 1; each unit (one branch
trace, one CLI call or one simulate run) starts after the previous one
ends.  The variants' units take turns until ``--seconds`` are spent.  A
timer signal stops the benchmark every half second to time a small fixed
kernel, and each call's seconds (less those stops) are scaled to the
reference speed by the kernel's timings during the call
(``reference_kernel.py``), so that the host's slow stretches cancel out.
Each result is checked outside the timed region; a unit that raises, exits
nonzero or fails its check counts as failed.

``--trace 0`` reports the end-to-end metrics (per-variant medians).
``--trace 1`` runs untraced units for half the time, then each unit once with
spans recorded around each layer, and reports the per-layer metrics; the
spans are written to ``perfbench/out/``.  The last line of standard output
is always one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

import os

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:  # must precede the first numpy import
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402
from typing import NamedTuple  # noqa: E402

import reference_kernel  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("fig1", "default-trace", "simulate")
# fresh-interpreter set-ups per run; setup_s is their median
SETUP_PROBES = 7
END_TO_END = (
    ("wall_s", "s"),
    ("nonlinear_s", "s"),
    ("linear_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment(seed: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "seed": seed,
    }


def probe_setup(workload: str, seed: int, gauge) -> list["Call"]:
    """Set-up seconds measured in SETUP_PROBES fresh interpreters, with a
    speed reading before the first and after each (the gauge's timer is
    off, so that the kernel never runs beside a probe)."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]
    samples = []
    gauge.read()
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        t1 = perf_counter()
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        gauge.read()
        samples.append(Call(float(proc.stdout.split()[-1]), t0, t1))
    return samples


def run_units(units, budget: float, recording=None, gauge=None):
    """Run the units, interleaved, until ``budget`` seconds are spent.

    Each unit runs once, in order.  After that the unit with the least time
    spent so far runs next, as long as its mean call (check included) still
    fits in what is left of ``budget``; so each variant's calls spread over
    the whole run rather than one stretch of it.  Returns ({variant:
    [Call]}, failure messages, attempted).  ``recording(run_id)`` wraps each
    timed call (tracing); checks stay outside it.  The time a running
    ``gauge`` pauses a call for is taken out of the call's seconds.
    """
    samples = {unit.variant: [] for unit in units}
    spent = dict.fromkeys(samples, 0.0)
    failures, attempted = [], 0
    start = perf_counter()

    def call(unit):
        nonlocal attempted
        attempted += 1
        times = samples[unit.variant]
        run_id = f"{unit.variant}.{len(times) + 1}"
        ctx = recording(run_id) if recording else contextlib.nullcontext()
        error = None
        paused = gauge.paused if gauge else 0.0
        t0 = perf_counter()
        try:
            with ctx:
                result = unit.run()
        except Exception as exc:  # a unit that raises is a failed operation
            error = f"raised {type(exc).__name__}: {exc}"
        t1 = perf_counter()
        seconds = t1 - t0 - ((gauge.paused if gauge else 0.0) - paused)
        times.append(Call(seconds, t0, t1))
        if error is None:
            try:
                error = unit.check(result)
            except Exception as exc:  # so is one whose check cannot run
                error = f"check raised {type(exc).__name__}: {exc}"
        spent[unit.variant] += perf_counter() - t0
        status = "ok" if error is None else f"FAILED: {error}"
        print(f"  {run_id}: {seconds:.3f} s {status}", flush=True)
        if error is not None:
            failures.append(f"{run_id}: {error}")

    for unit in units:
        call(unit)
    while True:
        left = budget - (perf_counter() - start)
        fits = [u for u in units if spent[u.variant] / len(samples[u.variant]) <= left]
        if not fits:
            break
        call(min(fits, key=lambda u: spent[u.variant]))
    return samples, failures, attempted


class Call(NamedTuple):
    """One timed call: its seconds and its perf_counter start and end."""

    seconds: float
    start: float
    end: float

    def value(self, gauge) -> float:
        """The call's seconds at the reference speed, or as timed if
        ``gauge`` is None."""
        if gauge is None:
            return self.seconds
        reference = gauge.reference(self.start, self.end)
        return self.seconds * reference_kernel.REFERENCE_S / reference


def medians(samples, gauge=None) -> dict:
    """Per-variant median seconds (at the reference speed that ``gauge``
    gives, or as timed), and their sum as wall_s."""
    out = {
        f"{variant}_s": statistics.median(c.value(gauge) for c in calls)
        for variant, calls in samples.items()
    }
    out["wall_s"] = sum(out.values())
    return out


def end_to_end(samples, setup_samples, gauge) -> dict:
    return {
        **medians(samples, gauge),
        "setup_s": statistics.median(c.value(gauge) for c in setup_samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "refugebif" / "__init__.py").is_file():
        print(f"error: no refugebif sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    gauge = reference_kernel.SpeedGauge()
    setup_samples = [] if args.trace else probe_setup(args.workload, args.seed, gauge)

    import tracing
    import workloads

    print("env " + json.dumps(environment(args.seed)), flush=True)
    tracer = tracing.Tracer()
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        if args.trace:
            # no speed gauge here: its readings would land inside the spans
            tracer.install()
            with tracer.recording("setup"):
                units = workloads.prepare(args.workload, args.seed, Path(workdir))
            tracer.uninstall()
            untraced, failures, attempted = run_units(units, args.seconds / 2)
            tracer.install()
            traced, more, more_attempted = run_units(units, 0.0, tracer.recording)
            tracer.uninstall()
            failures += more
            attempted += more_attempted
            values = tracing.layer_metrics(
                tracer.spans,
                medians(traced)["wall_s"],
                medians(traced)["wall_s"] / medians(untraced)["wall_s"],
            )
            units_of = {name: unit for name, unit, *_ in tracing.LAYERS}
            spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
            tracer.write(spans_file)
            print(f"{args.workload}: {len(tracer.spans)} spans written to {spans_file}")
            for name, unit, _, moves, on in tracing.LAYERS:
                print(f"  {name:36s} {values[name]:14.6g} {unit:6s} moves {moves} on {on}")
        else:
            units = workloads.prepare(args.workload, args.seed, Path(workdir))
            with gauge:
                samples, failures, attempted = run_units(units, args.seconds, gauge=gauge)
            values = end_to_end(samples, setup_samples, gauge)
            units_of = dict(END_TO_END)
            raw = medians(samples)
            raw["setup_s"] = statistics.median(c.seconds for c in setup_samples)
            kernel_s = statistics.median(s for _, s in gauge.readings)
            counts = ", ".join(f"{len(t)} {v}" for v, t in samples.items())
            print(f"{args.workload}: medians of {counts} call(s) at the reference speed "
                  f"({len(gauge.readings)} speed readings, median {kernel_s:.4f} s against "
                  f"{reference_kernel.REFERENCE_S} s); wall_s is their sum; "
                  f"setup_s median of {len(setup_samples)} fresh interpreters")
            for name, unit in END_TO_END:
                seconds = f"  ({raw[name]:.6g} s as timed)" if name in raw else ""
                print(f"  {name:12s} {values[name]:12.6g} {unit}{seconds}")
    for failure in failures:
        print(f"FAILED {failure}")
    print(f"  fail_ratio   {len(failures)}/{attempted} = {len(failures) / attempted:.3g}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": units_of[name]} for name in values},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
