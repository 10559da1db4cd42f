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

import numpy as np
import scipy.sparse as sp

from .errors import ParameterError, StepError
from .geometry import (
    LU_OPTIONS, ROUNDOFF_FACTOR, Grid, Region, ScalarField, _interior_faces, dct_solver,
    neumann_laplacian, release_free_memory, shifted_laplacian_solver, splu,
)
from .model import Diffusion, ModelParams, State, _holling_denominator

# clamped negative-undershoot budget before a run is flagged
CLAMP_WARN_FRACTION = 1e-3
# preconditioned CG on the nonlinear prey matrix: refresh the preconditioner
# after a solve that took more than REFRESH_ITERS iterations; refresh at once
# after MAX_CG_ITERS; accept at geometry.ROUNDOFF_FACTOR times the round-off scale
REFRESH_ITERS = 3
MAX_CG_ITERS = 12


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


def _preconditioned_cg(a, b: np.ndarray, solve, x0: np.ndarray, a_norm: float,
                       max_iters: int = MAX_CG_ITERS):
    """Solve the symmetric system ``a x = b`` by CG preconditioned with
    ``solve``, an approximate inverse of ``a`` (the DCT solve of a constant
    coefficient matrix, or the LU solve of a nearby one) that returns a new
    array, from the start ``x0``; ``a_norm`` is |a|_inf.

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
    ``solve`` calls (0 when ``x0`` already passes); ``x`` is never ``x0``
    itself.
    """
    scale = ROUNDOFF_FACTOR * np.finfo(float).eps
    b_norm = max(b.max(), -b.min())
    x = x0.copy()
    r = b - a @ x
    true = True  # r is b - a x, not the recursive residual
    for k in range(max_iters + 1):
        floor = scale * (a_norm * max(x.max(), -x.min()) + b_norm)
        if max(r.max(), -r.min()) <= floor:
            if true:
                return x, k
            r = b - a @ x
            true = True
            if max(r.max(), -r.min()) <= floor:
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
        ap = a @ p
        curvature = p @ ap
        if not (rz > 0.0 and 0.0 < curvature < np.inf):
            return None
        alpha = rz / curvature
        x += alpha * p
        r -= alpha * ap
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
            lap = neumann_laplacian(grid, Region.ALL).matrix
            offsets = np.array([-grid.n_x, -1, 0, 1, grid.n_x])
            self._a = sp.dia_matrix((np.zeros((5, grid.n_cells)), offsets), shape=lap.shape)
            self._sums = np.empty(grid.n_cells)  # |A|'s column sums, and scratch
            (_, _, wx), (_, _, wy) = _interior_faces(grid, Region.ALL)
            # -c on a face is -(face mean of u) * weight; the 1/2 is folded in
            self._wx, self._wy = -0.5 * wx, -0.5 * wy
            # the slot of each entry of the Laplacian's (symmetric) pattern
            self._pattern = (lap.indices, lap.indptr)
            cols = np.repeat(np.arange(grid.n_cells), np.diff(lap.indptr))
            self._slots = np.searchsorted(offsets, cols - lap.indices) * grid.n_cells + cols

    def _write_diagonals(self, u: np.ndarray) -> float:
        """Write A, with arithmetic face means of the frozen u, in place, and
        return |A|_inf summed as geometry.row_sum_norm sums A's CSC columns:
        the first stored entry plus the others, in row order."""
        n_x = self.grid.n_x
        north, east, diag, west, south = self._a.data
        sums = self._sums
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
        diag -= np.add(west, south, out=sums)
        # the sums subtract the off-diagonals: on u >= 0 they are <= 0 and the
        # diagonal is positive, so this adds their absolute values exactly;
        # on a u with negatives, they are replaced by -|x| and the diagonal by |x|
        data = self._a.data
        if u.min() < 0.0:
            data = -np.abs(data)
            data[2] *= -1.0
        north, east, diag, west, south = data
        np.subtract(diag, west, out=sums)
        sums -= east
        sums -= north
        sums -= south
        # columns 0 .. n_x - 1 have no south entry, and column 0 no west one
        sums[1:n_x] = ((diag[1:n_x] - east[1:n_x]) - north[1:n_x]) - west[1:n_x]
        sums[0] = diag[0] - (east[0] + north[0])
        return float(sums.max())

    def _prey_matrix(self, u: np.ndarray) -> sp.csc_matrix:
        """A for the frozen u in CSC form, in the Laplacian's pattern."""
        self._write_diagonals(u)
        return sp.csc_matrix((self._a.data.ravel()[self._slots], *self._pattern), self._a.shape)

    def _solve_prey(self, u: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """Solve the nonlinear prey system by CG with the kept preconditioner,
        refreshing it, by the DCT first and an LU if that is refused."""
        a_norm = self._write_diagonals(u)
        kept, self._kept = self._kept, (u, *self._kept[:1])
        x0 = (3.0 * (u - kept[0]) + kept[1] if len(kept) == 2
              else 2.0 * u - kept[0] if kept else u)
        if self._precond is not None:
            solved = _preconditioned_cg(self._a, rhs, self._precond, x0, a_norm)
            if solved is not None:
                if solved[1] > REFRESH_ITERS:
                    self._precond = None
                return solved[0]
        # the DCT replaces an old factor first, so that two are never alive at
        # once; past REFRESH_ITERS + 1 iterations the LU is factored anyway
        self._precond = dct_solver(self.grid, 1.0 / self.dt, max(float(u.mean()), 0.0))
        solved = _preconditioned_cg(self._a, rhs, self._precond, x0, a_norm, REFRESH_ITERS + 1)
        if solved is not None and solved[1] <= REFRESH_ITERS:
            return solved[0]
        self._precond = splu(self._prey_matrix(u), **LU_OPTIONS).solve
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
    flagged with a RuntimeWarning, and so are runs that end with u = 0
    everywhere from u > 0, the sign of a ``dt`` above the state's bound
    (TimeOptions): at n = 16 and mu = 1e-3, ``dt = 2`` does it.
    """
    opts = opts or TimeOptions()
    grid = initial.grid
    stepper = _Stepper(params, grid, opts.dt)
    u, v = initial.u.values, initial.v.values

    n_steps = int(np.floor(opts.t_max / opts.dt + 1e-12))
    n_slots = grid.n_cells + grid.n_exterior
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
            float(np.abs(u_new - u).max()),
            float(np.abs(v_new - v).max()),
        ) / opts.dt
        u, v = u_new, v_new
        if observer is not None:
            observer(k, t, _state(grid, u, v), clamped)
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
    if initial.u.values.max() > 0.0 and not u.any():
        warnings.warn(
            f"prey died out: u = 0 in every cell at t = {t:g}, from u > 0; clamped "
            f"undershoots did this, so dt = {opts.dt:g} is likely too large for this state",
            RuntimeWarning, stacklevel=2,
        )
    return _state(grid, u, v), steady
