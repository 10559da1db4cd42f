"""Command-line entry points: analyze, trace, simulate, reproduce-fig1.

Runners only compute; ``_write`` alone writes their files, after the whole
run, and ``main`` alone turns failures into exit codes.  All numeric output
goes through round-trip decimal formatting, so rerunning any subcommand with
the same config reproduces the files byte for byte.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import analytics, continuation, svgplot, timestepping
from .config import RunConfig, load_config
from .errors import (
    ComparisonError,
    ConfigError,
    EstimationError,
    GeometryError,
    GuessError,
    NumericalError,
    ParameterError,
    SingularResponseError,
    StepError,
)
from .geometry import Region, ScalarField, integrate
from .model import Diffusion, State
from .output import fmt, write_csv

_CONFIG_ERRORS = (ConfigError, GeometryError, ParameterError, GuessError)
_RUNTIME_ERRORS = (
    NumericalError,
    StepError,
    SingularResponseError,
    EstimationError,
    ComparisonError,
    OSError,  # a failed write
    MemoryError,  # a grid or a factor too large for the memory
)

FIG1_LAMBDAS = (0.5, 1.0, 1.5)


def _say(quiet: bool, message: str) -> None:
    if not quiet:
        print(message)


def _write(cfg: RunConfig, files, svg, quiet) -> None:
    """Write each ``(name, header, rows, footer)`` CSV and, if the config asks
    for SVG, the ``(name, panels)`` chart ``svg`` into the output directory."""
    out = Path(cfg.output.directory)
    out.mkdir(parents=True, exist_ok=True)
    for name, header, rows, footer in files:
        write_csv(out / name, header, rows, footer)
        _say(quiet, f"wrote {out / name}")
    if svg is not None and cfg.output.emit_svg:
        name, panels = svg
        (out / name).write_text(svgplot.render(panels))
        _say(quiet, f"wrote {out / name}")


def run_analyze(cfg: RunConfig, variants, quiet=False):
    files, rows = [], []
    for variant in variants:
        data = analytics.bifurcation_data(cfg.grid, replace(cfg.params, variant=variant))
        kern = data.kernel_profile
        rows.append(
            (
                variant.value,
                data.mu_lambda,
                data.slope_at_onset,
                data.omega1_area,
                float(kern.values.min()),
                float(kern.values.max()),
                integrate(kern, Region.ALL),
            )
        )
        kernel_rows = zip(cfg.grid.cell_x, cfg.grid.cell_y, kern.values)
        files.append((f"kernel_{variant.value}.csv", ["x", "y", "value"], kernel_rows, ()))
    header = ["variant", "mu_lambda", "slope_at_onset", "omega1_area",
              "kernel_min", "kernel_max", "kernel_integral"]
    return files + [("analytics.csv", header, rows, ())], None


def _branch_file(branch: continuation.Branch):
    """The branch's CSV file entry: one row per point."""
    name = f"branch_{branch.variant.value}_lambda_{fmt(branch.params.lam)}.csv"
    rows = (
        (branch.variant.value, branch.params.lam, p.mu, p.avg_v, p.max_v, p.min_u, p.newton_iters)
        for p in branch.points
    )
    header = ["variant", "lambda", "mu", "avg_v", "max_v", "min_u", "newton_iters"]
    footer = [f"truncated: {branch.diagnostic}"] if branch.truncated else []
    return name, header, rows, footer


def _branch_series(branch: continuation.Branch) -> svgplot.Series:
    if branch.variant is Diffusion.NONLINEAR:
        color, marker, label = svgplot.NONLINEAR_COLOR, "x", "nonlinear diffusion"
    else:
        color, marker, label = svgplot.LINEAR_COLOR, "o", "linear diffusion"
    return svgplot.Series(
        xs=tuple(branch.mus), ys=tuple(branch.avg_vs), label=label,
        color=color, marker=marker,
    )


def _run_branches(cfg: RunConfig, lambdas, variants, svg_name: str, quiet):
    """Trace one branch per variant for each lambda: their CSV files and the
    chart with one panel per lambda."""
    files, panels = [], []
    for lam in lambdas:
        branches = []
        for variant in variants:
            params = replace(cfg.params, lam=lam, variant=variant)
            branch = continuation.trace_branch(
                cfg.grid, params, cfg.mu_min, cfg.continuation
            )
            branches.append(branch)
            files.append(_branch_file(branch))
            _say(
                quiet,
                f"traced {variant.value} branch at lambda={lam:g}: "
                f"{len(branch.points)} points, mu in "
                f"[{branch.points[-1].mu:g}, {branch.points[0].mu:g}]"
                + (f" (truncated: {branch.diagnostic})" if branch.truncated else ""),
            )
        panels.append(
            svgplot.Panel(
                title=f"lambda = {fmt(lam)}",
                series=tuple(_branch_series(b) for b in branches),
                x_label="mu",
                y_label="average v",
            )
        )
    return files, (svg_name, panels)


def run_trace(cfg: RunConfig, variants, quiet=False):
    return _run_branches(cfg, (cfg.params.lam,), variants, "trace.svg", quiet)


def run_reproduce_fig1(cfg: RunConfig, variants, quiet=False):
    paper = replace(cfg, params=replace(cfg.params, c=1.0, m=1.0))
    return _run_branches(paper, FIG1_LAMBDAS, variants, "fig1.svg", quiet)


def _sim_row(t: float, state: State, clamped_fraction: float):
    grid = state.grid
    area = grid.n_cells * grid.cell_area
    ext_area = grid.n_exterior * grid.cell_area
    v_ext = state.v.values[grid.exterior_cells]
    return (
        t,
        integrate(state.u, Region.ALL) / area,
        integrate(state.v, Region.EXTERIOR) / ext_area,
        float(state.u.values.min()),
        float(v_ext.max(initial=0.0)),
        clamped_fraction,
    )


def run_simulate(cfg: RunConfig, variants, quiet=False):
    files = []
    for variant in variants:
        params = replace(cfg.params, variant=variant)
        initial = State(
            ScalarField.constant(cfg.grid, cfg.initial.u, Region.ALL),
            ScalarField.constant(cfg.grid, cfg.initial.v, Region.EXTERIOR),
        )
        rows = [_sim_row(0.0, initial, 0.0)]
        n_slots = cfg.grid.n_cells + cfg.grid.n_exterior
        clamped_total = 0
        every = cfg.output.snapshot_every

        def observer(k, t, state, clamped):
            nonlocal clamped_total
            clamped_total += clamped
            if k % every == 0:
                rows.append(_sim_row(t, state, clamped_total / (n_slots * k)))

        final, steady = timestepping.evolve_to_steady(
            params, initial, cfg.time, observer
        )
        _say(quiet, f"simulated {variant.value} run: steady={steady}")
        header = ["t", "avg_u", "avg_v", "min_u", "max_v", "clamped_fraction"]
        files.append((f"simulate_{variant.value}.csv", header, rows, [f"steady: {fmt(steady)}"]))
    return files, None


# subcommand -> (help, runner); a runner returns its CSV file entries and its
# chart, or None
_COMMANDS = {
    "analyze": ("emit closed-form onset data (CSV)", run_analyze),
    "trace": ("trace the positive branch in mu (CSV, optional SVG)", run_trace),
    "simulate": ("integrate the parabolic system in time (CSV)", run_simulate),
    "reproduce-fig1": (
        "trace branches for lambda = 0.5, 1.0, 1.5 with c = m = 1",
        run_reproduce_fig1,
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="refugebif",
        description=(
            "Trace and analyze steady predator-prey states with a refuge zone, "
            "for density-dependent and linear prey diffusion."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", type=Path, default=None, help="JSON config file")
        cmd.add_argument("--out", type=Path, default=None, help="output directory")
        cmd.add_argument(
            "--variant",
            choices=["nonlinear", "linear", "both"],
            default=None,
            help="diffusion variant(s) to run",
        )
        cmd.add_argument("--quiet", action="store_true", help="suppress progress output")
    return parser


def main(argv=None) -> int:
    """Run one subcommand and write its files: exit 0, or 2 for a config that
    cannot be read or is invalid, 1 for a failed computation or a failed
    write, each with one ``error:`` line on stderr."""
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.out is not None:
            cfg = replace(cfg, output=replace(cfg.output, directory=str(args.out)))
        if args.variant is None and args.command == "simulate":
            variants = (cfg.params.variant,)
        elif args.variant in (None, "both"):
            variants = (Diffusion.NONLINEAR, Diffusion.LINEAR)
        else:
            variants = (Diffusion(args.variant),)
        files, svg = _COMMANDS[args.command][1](cfg, variants, args.quiet)
        _write(cfg, files, svg, args.quiet)
    except _CONFIG_ERRORS + _RUNTIME_ERRORS as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2 if isinstance(exc, _CONFIG_ERRORS) else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
