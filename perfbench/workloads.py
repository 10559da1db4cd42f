"""The benchmark workloads: set-up, timed units and correctness checks.

A workload's ``prepare`` does the set-up (grid build or config load, and
the first, cold Laplacian assembly) and returns its units, one per
diffusion variant.  A unit's ``run`` is the timed call into refugebif; its
``check`` runs afterwards, outside the timed region, and returns ``None``
for a correct result or a one-line reason why it is not.
"""

from __future__ import annotations

import json
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import refugebif as rb
from refugebif import cli, config
from refugebif.output import fmt

from inputs import Inputs, draw

VARIANTS = (rb.Diffusion.NONLINEAR, rb.Diffusion.LINEAR)
REFERENCE = Path(__file__).with_name("reference.json")

# fig1 keeps one of the paper's three lambdas so a run fits its time budget;
# lambda = 0.5 is the cheapest branch pair (51 points per variant at n = 64)
FIG1_LAMBDA = 0.5
FIG1_MU_MIN_FACTOR = 0.15
# time-to-steady-state setting of the simulate workload
SIM_MU, SIM_DT, SIM_STEADY_TOL, SIM_T_MAX = 0.4, 0.05, 1e-6, 500.0
SIM_INITIAL_U, SIM_INITIAL_V = 0.5, 0.1
# criterion 10's tolerance between the IMEX end state and a Newton steady state
CROSS_SOLVER_TOL = 1e-4


@dataclass
class Unit:
    variant: str
    run: Callable[[], object]
    check: Callable[[object], "str | None"]


def avg_v(state: rb.State) -> float:
    """Exterior mean of the predator density."""
    grid = state.grid
    return float(state.v.values[grid.exterior_cells].mean())


def _grid(inputs: Inputs) -> rb.Grid:
    grid = rb.build_grid(inputs.n, refuge_box=inputs.refuge_box)
    for region in (rb.Region.ALL, rb.Region.EXTERIOR):
        rb.neumann_laplacian(grid, region)
    return grid


def _params(inputs: Inputs, mu: float, variant: rb.Diffusion) -> rb.ModelParams:
    return rb.ModelParams(
        lam=inputs.lam, mu=mu, c=1.0, m=inputs.m, b=inputs.b, variant=variant
    )


# ---------------------------------------------------------------- fig1


def fig1_reference(inputs: Inputs):
    """Committed avg_v at 0.5*mu* per variant, for the inputs it was made on."""
    ref = json.loads(REFERENCE.read_text())["fig1"]
    return ref["avg_v"] if (inputs.seed, inputs.n) == (ref["seed"], ref["n"]) else None


def check_branch(branch: rb.Branch, inputs: Inputs, mu_min: float, reference) -> str | None:
    mu_star = inputs.mu_star
    onset_err = abs(rb.detect_onset(branch) - mu_star) / mu_star
    if onset_err >= 0.01:
        return f"onset estimate off by {onset_err:.2e} of mu*"
    pts = branch.points[:5]
    secant = (pts[-1].mu - pts[0].mu) / (pts[-1].avg_v - pts[0].avg_v)
    slope = branch.onset.slope_at_onset
    slope_err = abs(secant - slope) / abs(slope)
    if slope_err >= 0.05:
        return f"onset secant slope off by {slope_err:.2e} of mu'(0)"
    if np.any(np.diff(branch.mus) >= 0.0):
        return "mu does not decrease strictly along the branch"
    if branch.truncated or branch.points[-1].mu != mu_min:
        return f"branch stops at mu={branch.points[-1].mu!r}, not mu_min={mu_min!r}"
    if reference is not None:
        state, rep = rb.solve_at_mu(branch, 0.5 * mu_star)
        want = reference[branch.variant.value]
        if not rep.converged or abs(avg_v(state) - want) > 1e-8 * abs(want):
            return f"avg_v at 0.5*mu* is {avg_v(state)!r}, reference {want!r}"
    return None


def fig1(inputs: Inputs, workdir: Path) -> list[Unit]:
    """Trace both variants' branches from onset to 0.15*mu* in process."""
    grid = _grid(inputs)
    mu_min = FIG1_MU_MIN_FACTOR * inputs.mu_star
    reference = fig1_reference(inputs)
    units = []
    for variant in VARIANTS:
        params = _params(inputs, inputs.mu_star, variant)
        units.append(
            Unit(
                variant.value,
                lambda p=params: rb.trace_branch(grid, p, mu_min, rb.ContinuationOptions()),
                lambda branch: check_branch(branch, inputs, mu_min, reference),
            )
        )
    return units


# ------------------------------------------------------- default-trace


def trace_config(inputs: Inputs) -> dict:
    """The default config with the grid size and the drawn parameters."""
    return {
        "geometry": {"n": inputs.n, "refuge_box": list(inputs.refuge_box)},
        "params": {"lambda": inputs.lam, "b": inputs.b, "m": inputs.m},
    }


def read_branch_csv(path: Path):
    """(rows as float tuples, comment lines) of a branch CSV."""
    lines = path.read_text().splitlines()
    if not lines or lines[0] != "variant,lambda,mu,avg_v,max_v,min_u,newton_iters":
        raise ValueError("missing or wrong CSV header")
    rows, comments = [], []
    for line in lines[1:]:
        if line.startswith("#"):
            comments.append(line)
        elif comments:
            raise ValueError("data row after the footer")
        else:
            rows.append(tuple(float(x) for x in line.split(",")[1:]))
    return rows, comments


def check_trace_output(code, out: Path, variant: str, inputs: Inputs) -> str | None:
    if code != 0:
        return f"refugebif trace exited with {code}"
    svg = out / "trace.svg"
    if not svg.is_file() or not svg.read_text().endswith("</svg>\n"):
        return "trace.svg missing or incomplete"
    try:
        rows, comments = read_branch_csv(out / f"branch_{variant}_lambda_{fmt(inputs.lam)}.csv")
    except (OSError, ValueError) as exc:
        return f"branch CSV unreadable: {exc}"
    if len(rows) < 3:
        return f"branch CSV has {len(rows)} rows"
    mus = np.array([r[1] for r in rows])
    first_err = abs(mus[0] - inputs.mu_star) / inputs.mu_star
    if first_err >= 0.01:
        return f"first mu off by {first_err:.2e} of mu*"
    if np.any(np.diff(mus) >= 0.0):
        return "mu does not decrease strictly"
    if any(r[4] <= 0.0 or r[2] <= 0.0 for r in rows):
        return "a row has min_u <= 0 or avg_v <= 0"
    landed = mus[-1] == config.DEFAULT_MU_MIN and not comments
    truncated = len(comments) == 1 and comments[0].startswith("# truncated: ")
    if not landed and not (variant == "nonlinear" and truncated):
        return f"branch ends at mu={mus[-1]!r} with footer {comments!r}"
    return None


def default_trace(inputs: Inputs, workdir: Path) -> list[Unit]:
    """`refugebif trace` on the default config at n = 32, one call per variant."""
    config_path = workdir / "config.json"
    config_path.write_text(json.dumps(trace_config(inputs)))
    grid = config.load_config(config_path).grid
    for region in (rb.Region.ALL, rb.Region.EXTERIOR):
        rb.neumann_laplacian(grid, region)
    units = []
    for variant in VARIANTS:
        out = workdir / variant.value
        argv = ["trace", "--config", str(config_path), "--out", str(out),
                "--variant", variant.value, "--quiet"]

        def check(code, out=out, variant=variant.value):
            try:
                return check_trace_output(code, out, variant, inputs)
            finally:
                shutil.rmtree(out, ignore_errors=True)

        units.append(Unit(variant.value, lambda argv=argv: cli.main(argv), check))
    return units


# ------------------------------------------------------------ simulate


def check_steady(result, params: rb.ModelParams) -> str | None:
    final, steady = result
    if not steady:
        return "evolve_to_steady did not reach the steady tolerance"
    cls, _ = rb.classify_state(final)
    if cls is not rb.SolutionClass.POSITIVE:
        return f"final state classifies as {cls.value}"
    refined, rep = rb.newton_solve(params, final)
    if not rep.converged:
        return f"Newton from the final state did not converge: {rep.diagnostic}"
    gap = max(
        float(np.abs(refined.u.values - final.u.values).max()),
        float(np.abs(refined.v.values - final.v.values).max()),
    )
    if not gap < CROSS_SOLVER_TOL:
        return f"IMEX end state is {gap:.2e} from the Newton steady state"
    return None


def simulate(inputs: Inputs, workdir: Path) -> list[Unit]:
    """IMEX time stepping from (0.5, 0.1) to a steady state, per variant."""
    grid = _grid(inputs)
    initial = rb.State(
        rb.ScalarField.constant(grid, SIM_INITIAL_U, rb.Region.ALL),
        rb.ScalarField.constant(grid, SIM_INITIAL_V, rb.Region.EXTERIOR),
    )
    opts = rb.TimeOptions(dt=SIM_DT, t_max=SIM_T_MAX, steady_tol=SIM_STEADY_TOL)
    units = []
    for variant in VARIANTS:
        params = _params(inputs, SIM_MU, variant)
        units.append(
            Unit(
                variant.value,
                lambda p=params: rb.evolve_to_steady(p, initial, opts),
                lambda result, p=params: check_steady(result, p),
            )
        )
    return units


# name: (base lambda, grid size n, set-up)
WORKLOADS = {
    "fig1": (FIG1_LAMBDA, 64, fig1),
    "default-trace": (1.0, 32, default_trace),
    "simulate": (1.0, 64, simulate),
}


def prepare(name: str, seed: int, workdir: Path, n: int | None = None) -> list[Unit]:
    """Set up workload ``name`` for ``seed`` (on an n x n grid if ``n`` is given)."""
    lam, default_n, build = WORKLOADS[name]
    return build(draw(seed, n or default_n, lam), workdir)

