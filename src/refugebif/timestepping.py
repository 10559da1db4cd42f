"""Semi-implicit (IMEX) integrator for the parabolic predator-prey system.

Diffusion is implicit with coefficients frozen at the current step (prey
flux div(u^n grad u^{n+1}), predator d L v^{n+1}) and the reactions are
explicit, so the fixed points of a step are the discrete steady states for
any dt.  The stepper works on full-grid arrays, with v zero on the refuge.

The constant matrices, I/dt - L for the linear prey and I/dt - d L_ext for
the predator, are solved by geometry.shifted_laplacian_solver and never
factored.  The nonlinear prey matrix A = I/dt - div(ubar grad .) is kept as
five diagonals, rewritten in place each step.  A x = b is solved by
conjugate gradients with a kept preconditioner, from an extrapolation of
the last prey states, and x is accepted at the round-off floor of a direct
solve.  A refresh tries the DCT solve at the mean u first (Concus & Golub
1973) and factors A only when CG with it needs more than REFRESH_ITERS
iterations or is refused.  No acceptance within MAX_CG_ITERS, or a
curvature that is not positive and finite, refreshes at once and, failing
that, solves directly with the LU of A.  evolve_to_steady drops the
preconditioner before it returns (geometry.release_free_memory).  README's
"Numerical design notes" give the formulas and the references.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np
import scipy.sparse as sp

from .errors import ParameterError, StepError
from .geometry import (
    LU_OPTIONS, ROUNDOFF_FACTOR, Grid, Region, ScalarField, _interior_faces, dct_solver,
    dia_matvec, release_free_memory, shifted_laplacian_solver, splu,
)
from .model import Diffusion, ModelParams, State, _holling_denominator

# clamped negative-undershoot budget before a run is flagged
CLAMP_WARN_FRACTION = 1e-3
# preconditioned CG on the nonlinear prey matrix: refresh the preconditioner
# after a solve that took more than REFRESH_ITERS iterations; refresh at once
# after MAX_CG_ITERS; accept at geometry.ROUNDOFF_FACTOR times the round-off scale
REFRESH_ITERS = 3
MAX_CG_ITERS = 12
# a prey right-hand side smaller than this in the max-norm is scaled up for
# CG, whose products of two such vectors would underflow past about 1e-154
TINY_RHS = 2.0**-500


@dataclass(frozen=True)
class TimeOptions:
    """Step size, horizon and steady test of evolve_to_steady.  The explicit
    reactions bound ``dt`` by the state: at small mu a large ``dt`` can clamp
    the prey to 0 everywhere and settle on the prey-free state."""

    dt: float = 1e-3
    t_max: float = 500.0
    steady_tol: float = 1e-8
    clamp_negative: bool = True

    def __post_init__(self):
        if not (self.dt > 0.0 and self.steady_tol > 0.0 and self.t_max >= 0.0):
            raise ParameterError("dt > 0, steady_tol > 0 and t_max >= 0 required")
        if not all(math.isfinite(x) for x in (self.dt, self.t_max, self.steady_tol)):
            raise ParameterError("dt, t_max and steady_tol must be finite")
        if not math.isfinite(self.t_max / self.dt):
            raise ParameterError(f"t_max / dt = {self.t_max} / {self.dt} overflows")


def _preconditioned_cg(matvec, b: np.ndarray, solve, x0: np.ndarray, a_norm: float,
                       max_iters: int = MAX_CG_ITERS):
    """Solve the symmetric system ``a x = b`` by CG preconditioned with
    ``solve``, an approximate inverse of ``a`` (the DCT solve of a constant
    coefficient matrix, or the LU solve of a nearby one) that returns a new
    array, from the start ``x0``; ``matvec(x, out)`` writes ``a @ x`` into
    ``out`` and returns it, and ``a_norm`` is |a|_inf.

    The residual is formed as b - a x0 once and then updated recursively,
    r -= alpha a p, which costs no product of its own.  The recursive
    residual drifts from the true one near round-off (Greenbaum 1997), so
    when it passes ROUNDOFF_FACTOR * eps * (|a| |x| + |b|) in the max-norm,
    the true residual b - a x is formed once and must pass too.  If it does
    not, CG goes on from the true residual with p reset to its
    preconditioned value (van der Vorst & Ye 2000).

    Returns ``(x, k)`` for the first iterate whose true residual passes, or
    None if none does within ``max_iters`` or a curvature p.Ap (or r.z) is
    not positive and finite.  ``k`` counts both the iterations and the
    ``solve`` calls (0 when ``x0`` already passes); ``x`` is a new array,
    never ``x0`` itself.  Every product lands in one array made per call,
    and the updates and max-norms go through a second one.

    Below |b|_inf = TINY_RHS, r.z and p.Ap would underflow.  CG then runs on
    2^-e (b, x0), e the exponent that brings |b|_inf into [1/2, 1), and
    returns 2^e times its x.  A power of two scales every product, sum and
    test of CG exactly, so ``k`` and x are those of CG on (b, x0) in an
    arithmetic without underflow, up to the rounding of x back to its scale.
    """
    product, scratch = np.empty((2, b.size))
    b_norm = np.abs(b, out=scratch).max()
    if 0.0 < b_norm < TINY_RHS:
        e = math.frexp(b_norm)[1]
        solved = _preconditioned_cg(matvec, np.ldexp(b, -e), solve, np.ldexp(x0, -e), a_norm,
                                    max_iters)
        return None if solved is None else (np.ldexp(solved[0], e), solved[1])
    scale = ROUNDOFF_FACTOR * np.finfo(float).eps
    x = x0.copy()
    r = np.subtract(b, matvec(x, product))
    true = True  # r is b - a x, not the recursive residual
    for k in range(max_iters + 1):
        floor = scale * (a_norm * np.abs(x, out=scratch).max() + b_norm)
        if np.abs(r, out=scratch).max() <= floor:
            if true:
                return x, k
            np.subtract(b, matvec(x, product), out=r)
            true = True
            if np.abs(r, out=scratch).max() <= floor:
                return x, k
        if k == max_iters:
            return None
        z = solve(r)
        rz = r @ z
        if true:
            p = z
        else:
            p *= rz / rz_old
            p += z
        ap = matvec(p, product)
        curvature = p @ ap
        if not (rz > 0.0 and 0.0 < curvature < np.inf):
            return None
        alpha = rz / curvature
        x += np.multiply(p, alpha, out=scratch)
        r -= np.multiply(ap, alpha, out=scratch)
        true = False
        rz_old = rz


class _Stepper:
    """Caches everything constant across steps for one (params, grid, dt)."""

    def __init__(self, params: ModelParams, grid: Grid, dt: float):
        self.params = params
        self.grid = grid
        self.dt = dt
        self._precond = None  # solve() of the kept prey preconditioner (nonlinear)
        # v/den and the prey and predator right-hand sides, rewritten each step
        self._v_den, self._prey_rhs, self._pred_rhs = np.empty((3, grid.n_cells))
        self.pred_solve = shifted_laplacian_solver(grid, 1.0 / dt, params.d, Region.EXTERIOR)
        if params.variant is Diffusion.LINEAR:
            self.prey_solve = shifted_laplacian_solver(grid, 1.0 / dt, 1.0)
        else:
            self.prey_solve = None
            self._kept = ()  # the prey states u of the last two steps, newest first
            # A = I/dt - div(ubar grad .) as its diagonals at offsets (-n_x, -1, 0,
            # 1, n_x): row k holds A[j - offset_k, j] at column j, so -c on the
            # north, east, west and south face of cell j, and 0 off the grid
            n = grid.n_cells
            offsets = [-grid.n_x, -1, 0, 1, grid.n_x]
            self._a = sp.dia_matrix((np.zeros((5, n)), offsets), shape=(n, n))
            self._matvec = partial(dia_matvec, self._a)
            # the CG start, and west + south while the diagonals are written
            self._x0 = np.empty(n)
            (_, _, wx), (_, _, wy) = _interior_faces(grid, Region.ALL)
            # -c on a face is -(face mean of u) * weight; the 1/2 is folded in
            self._wx, self._wy = -0.5 * wx, -0.5 * wy

    def _write_diagonals(self, u: np.ndarray) -> float:
        """Write A, with arithmetic face means of the frozen u, into its
        diagonals in place, and return |A|_inf."""
        n_x = self.grid.n_x
        north, east, diag, west, south = self._a.data
        # -c on the x-face (j, j + 1) goes to east at j and to west at j + 1;
        # the sum across the end of a grid row is no face, and is zeroed
        np.add(u[:-1], u[1:], out=east[:-1])
        east[:-1] *= self._wx
        east[n_x - 1::n_x] = 0.0
        west[1:] = east[:-1]
        # -c on the y-face (j, j + n_x) goes to north at j and to south at j + n_x
        np.add(u[:-n_x], u[n_x:], out=north[:-n_x])
        north[:-n_x] *= self._wy
        south[n_x:] = north[:-n_x]
        # 1/dt, plus c over the faces (j, q), plus c over the faces (p, j)
        np.subtract(1.0 / self.dt, np.add(east, north, out=diag), out=diag)
        diag -= np.add(west, south, out=self._x0)
        if u.min() < 0.0:
            # a column of the diagonals is a column of A, with 0 off the grid
            return float(np.abs(self._a.data).sum(axis=0).max())
        # A is symmetric and its rows sum to 1/dt; on u >= 0 the off-diagonals
        # are <= 0, so every row of |A| sums to 2 a_jj - 1/dt
        return 2.0 * float(diag.max()) - 1.0 / self.dt

    def _solve_prey(self, u: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """Solve the nonlinear prey system by CG with the kept preconditioner,
        refreshing it, by the DCT first and an LU if that is refused."""
        a_norm = self._write_diagonals(u)
        kept, self._kept = self._kept, (u, *self._kept[:1])
        x0 = self._x0
        if len(kept) == 2:  # 3 (u - u_1) + u_2
            np.add(np.multiply(np.subtract(u, kept[0], out=x0), 3.0, out=x0), kept[1], out=x0)
        elif kept:  # 2 u - u_1
            np.subtract(np.multiply(u, 2.0, out=x0), kept[0], out=x0)
        else:
            x0 = u
        if self._precond is not None:
            solved = _preconditioned_cg(self._matvec, rhs, self._precond, x0, a_norm)
            if solved is not None:
                if solved[1] > REFRESH_ITERS:
                    self._precond = None
                return solved[0]
        # the DCT replaces an old factor first, so that two are never alive at
        # once; past REFRESH_ITERS + 1 iterations the LU is factored anyway
        self._precond = dct_solver(self.grid, 1.0 / self.dt, max(float(u.mean()), 0.0))
        solved = _preconditioned_cg(self._matvec, rhs, self._precond, x0, a_norm,
                                    REFRESH_ITERS + 1)
        if solved is not None and solved[1] <= REFRESH_ITERS:
            return solved[0]
        self._precond = splu(self._a.tocsc(), **LU_OPTIONS).solve
        return self._precond(rhs) if solved is None else solved[0]

    def release(self):
        """Drop the kept prey preconditioner, and return the free heap pages,
        which a factor dropped during the run may have left, to the system."""
        if self._precond is not None:
            self._precond = None
            release_free_memory()

    def advance(self, u: np.ndarray, v: np.ndarray):
        """One IMEX step on full-grid arrays, v zero on the refuge (so that
        predation vanishes there, as b does); returns (u_new, v_new)."""
        params, dt = self.params, self.dt
        v_den, rhs, pred_rhs = self._v_den, self._prey_rhs, self._pred_rhs
        np.divide(v, _holling_denominator(params, u), out=v_den)
        # u/dt + lam u - u^2 - b u v / den, with b v / den in pred_rhs for now
        np.multiply(params.b, v_den, out=pred_rhs)
        np.subtract(1.0 / dt + params.lam, u, out=rhs)
        rhs -= pred_rhs
        rhs *= u
        if self.prey_solve is not None:
            u_new = self.prey_solve(rhs)
        else:
            try:
                u_new = self._solve_prey(u, rhs)
            except RuntimeError as exc:
                raise StepError(f"implicit diffusion solve failed: {exc}") from exc
        # v/dt - mu v + c u v / den
        np.multiply(u, v_den, out=pred_rhs)
        pred_rhs *= params.c
        pred_rhs += np.multiply(1.0 / dt - params.mu, v, out=v_den)
        v_new = self.pred_solve(pred_rhs)
        return u_new, v_new


def _state(grid: Grid, u: np.ndarray, v: np.ndarray) -> State:
    return State(ScalarField(grid, u, Region.ALL), ScalarField(grid, v, Region.EXTERIOR))


def step(params: ModelParams, state: State, dt: float) -> State:
    """Advance one semi-implicit step (no clamping; refuge v stays exactly 0)."""
    if not (dt > 0.0 and math.isfinite(dt)):
        raise ParameterError("dt must be positive and finite")
    grid = state.grid
    u_new, v_new = _Stepper(params, grid, dt).advance(state.u.values, state.v.values)
    return _state(grid, u_new, v_new)


def evolve_to_steady(
    params: ModelParams,
    initial: State,
    opts: TimeOptions | None = None,
    observer=None,
) -> tuple[State, bool]:
    """Integrate until the state change per unit time drops below steady_tol.

    Hitting t_max first is reported through the flag, not an error.  The
    optional ``observer(step_index, t, state, clamped_cells)`` is called
    after every step.  Runs clamping more than 0.1% of cell-steps are
    flagged with a RuntimeWarning.  A run from u > 0 stops, not steady and
    with a RuntimeWarning, at the first step whose clamp leaves u = 0 in
    every cell: the sign of a ``dt`` above the state's bound (TimeOptions);
    at n = 16 and mu = 1e-3, ``dt = 2`` does it.
    """
    opts = opts or TimeOptions()
    grid = initial.grid
    stepper = _Stepper(params, grid, opts.dt)
    u, v = initial.u.values, initial.v.values
    had_prey = u.max() > 0.0

    n_steps = int(np.floor(opts.t_max / opts.dt + 1e-12))
    n_slots = grid.n_cells + grid.n_exterior
    diff = np.empty(grid.n_cells)  # the change of u, then of v, over a step
    clamped_total = 0
    steady = False
    t = 0.0
    for k in range(1, n_steps + 1):
        u_new, v_new = stepper.advance(u, v)
        clamped = 0
        if opts.clamp_negative and min(u_new.min(), v_new.min()) < 0.0:
            clamped = int((u_new < 0.0).sum() + (v_new < 0.0).sum())
            np.maximum(u_new, 0.0, out=u_new)
            np.maximum(v_new, 0.0, out=v_new)
        clamped_total += clamped
        t = k * opts.dt

        change = max(
            float(np.abs(np.subtract(u_new, u, out=diff), out=diff).max()),
            float(np.abs(np.subtract(v_new, v, out=diff), out=diff).max()),
        ) / opts.dt
        u, v = u_new, v_new
        if observer is not None:
            observer(k, t, _state(grid, u, v), clamped)
        if clamped and had_prey and not u.any():
            break  # with u = 0 no later step moves u
        if change < opts.steady_tol:
            steady = True
            break

    stepper.release()
    if n_steps > 0 and clamped_total > CLAMP_WARN_FRACTION * n_slots * max(1, k):
        warnings.warn(
            f"clamped {clamped_total} negative cell-steps "
            f"({clamped_total / (n_slots * k):.2%} of the run); the degenerate "
            "diffusion left its admissible regime",
            RuntimeWarning,
            stacklevel=2,
        )
    if had_prey and not u.any():
        warnings.warn(
            f"prey died out: u = 0 in every cell at t = {t:g}, from u > 0; clamped "
            f"undershoots did this, so dt = {opts.dt:g} is likely too large for this state",
            RuntimeWarning, stacklevel=2,
        )
    return _state(grid, u, v), steady
