"""Damped Newton solver for discrete steady states, with branch-form guesses."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import GuessError, ParameterError, SingularResponseError
# splu is not called here; it stays bound because perfbench/tracing.py wraps it
from .geometry import Grid, Region, ScalarField, splu
from .model import ModelParams, State, residual
from . import analytics

# max-norm threshold below which a component counts as identically zero
ZERO_THRESHOLD = 1e-8


class SolutionClass(Enum):
    TRIVIAL = "trivial"
    SEMI_TRIVIAL = "semi_trivial"
    POSITIVE = "positive"
    INDEFINITE = "indefinite"


@dataclass(frozen=True)
class NewtonOptions:
    tol_residual: float = 1e-10
    max_iters: int = 50
    damping: float = 0.5
    min_step: float = 1e-8

    def __post_init__(self):
        if not self.tol_residual > 0.0:
            raise ParameterError("tol_residual must be positive")
        if not 0.0 < self.damping < 1.0:
            raise ParameterError("damping must lie in (0, 1)")
        if not (self.max_iters >= 1 and self.min_step > 0.0):
            raise ParameterError("max_iters >= 1 and min_step > 0 required")


@dataclass(frozen=True)
class NewtonReport:
    converged: bool
    iterations: int
    final_residual_norm: float
    positivity: bool
    classification: SolutionClass
    residual_history: tuple[float, ...]
    diagnostic: str = ""


def classify_state(state: State) -> tuple[SolutionClass, bool]:
    """Solution taxonomy by max-norm thresholding, plus a positivity flag."""
    u = state.u.values
    v_ext = state.v.values[state.grid.exterior_cells]
    positivity = bool(np.all(u > 0.0)) and bool(np.all(v_ext >= 0.0))
    u_abs = float(np.abs(u).max())
    v_abs = float(np.abs(v_ext).max(initial=0.0))
    if u_abs < ZERO_THRESHOLD and v_abs < ZERO_THRESHOLD:
        return SolutionClass.TRIVIAL, positivity
    if v_abs < ZERO_THRESHOLD and u.min() > ZERO_THRESHOLD:
        return SolutionClass.SEMI_TRIVIAL, positivity
    if u.min() > ZERO_THRESHOLD and v_ext.min(initial=np.inf) > ZERO_THRESHOLD:
        return SolutionClass.POSITIVE, positivity
    return SolutionClass.INDEFINITE, positivity


def _damped_newton(x, fun, solve, opts: NewtonOptions):
    """Damped Newton with backtracking on the max-norm of ``fun``.

    ``solve(x, f)`` returns the Newton step at ``x``; it may raise
    RuntimeError or SingularResponseError, and ``fun`` the latter.  Returns
    (x, f, history, diagnostic): the last accepted iterate and its residual
    (None if the start is inadmissible), the max-norm residual history, and
    why the iteration stopped early ("" if it converged or ran out of
    iterations).
    """
    try:
        f = fun(x)
    except SingularResponseError as exc:
        return x, None, [np.inf], f"initial state inadmissible: {exc}"
    norm = float(np.abs(f).max())
    history = [norm]
    while norm > opts.tol_residual and len(history) <= opts.max_iters:
        try:
            delta = solve(x, f)
        except (RuntimeError, SingularResponseError) as exc:
            return x, f, history, f"Newton step failed: {exc}"
        if not np.all(np.isfinite(delta)):
            return x, f, history, "non-finite Newton step (singular Jacobian)"

        step = 1.0
        while step >= opts.min_step:
            trial = x + step * delta
            try:
                f_trial = fun(trial)
                trial_norm = float(np.abs(f_trial).max())
            except SingularResponseError:
                trial_norm = np.inf
            if trial_norm < norm:
                break
            step *= opts.damping
        else:
            return x, f, history, "backtracking stalled (no descent direction)"
        x, f, norm = trial, f_trial, trial_norm
        history.append(norm)
    return x, f, history, ""


def newton_solve(
    params: ModelParams,
    initial: State,
    opts: NewtonOptions | None = None,
) -> tuple[State, NewtonReport]:
    """Solve residual(params, .) = 0 by damped Newton from ``initial``.

    Each step is the continuation corrector's guarded step with mu pinned
    (a zero constraint row, c_mu = 1, so its mu part is exactly 0): GMRES
    preconditioned by the last LU of J, then a fresh LU, then the bordered
    LU.  Failures (singular Jacobian, stalled backtracking, inadmissible
    iterates) are reported through the returned :class:`NewtonReport`,
    never raised.
    """
    from .continuation import _Corrector  # continuation imports this module

    opts = opts or NewtonOptions()
    grid = initial.grid
    corrector = _Corrector(grid, params, opts)
    zero_row = np.zeros(grid.n_cells + grid.n_exterior)

    def fun(x):
        return residual(params, State.unpack(grid, x))

    def solve(x, f):
        return corrector.step(np.append(x, params.mu), np.append(f, 0.0), zero_row, 1.0)[:-1]

    try:
        x, _, history, diagnostic = _damped_newton(initial.pack(), fun, solve, opts)
    finally:
        corrector.release()
    out = State.unpack(grid, x)
    cls, positivity = classify_state(out)
    return out, NewtonReport(
        converged=history[-1] <= opts.tol_residual,
        iterations=len(history) - 1,
        final_residual_norm=history[-1],
        positivity=positivity,
        classification=cls,
        residual_history=tuple(history),
        diagnostic=diagnostic,
    )


def initial_guess_on_branch(grid: Grid, params: ModelParams, s: float) -> State:
    """First-order branch state (lam - s*kernel, s); valid for small s >= 0."""
    if not s >= 0.0:
        raise GuessError("branch parameter s must be non-negative")
    kern = analytics.kernel_profile(grid, params)
    u = params.lam - s * kern.values
    if u.min() <= 0.0:
        raise GuessError(
            f"s={s} drives the prey density non-positive; outside the onset regime"
        )
    v = np.zeros(grid.n_cells)
    v[grid.exterior_cells] = s
    return State(
        ScalarField(grid, u, Region.ALL),
        ScalarField(grid, v, Region.EXTERIOR),
    )
