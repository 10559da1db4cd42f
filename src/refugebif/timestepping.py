"""Semi-implicit (IMEX) integrator for the parabolic predator-prey system.

Diffusion is implicit with coefficients frozen at the current step (prey
flux div(u^n grad u^{n+1}), predator d * L v^{n+1}); the reaction terms
stay explicit.  Fixed points of one step are exactly the
discrete steady states of the model residual, independent of dt.

The linear variant's prey matrix I/dt - L and the predator matrix
I/dt - d L_ext are constant, and neither is factored:
geometry.shifted_laplacian_solver solves the first by a DCT-II transform,
which diagonalises it, and the second by the same transform corrected on
the faces cut by the refuge through a capacitance matrix (kept by the grid).
The nonlinear prey matrix A = I/dt - div(ubar grad .) changes every step
but slowly, since u moves by O(dt); it is kept as five diagonals rewritten
in place.  Each step solves A x = b by conjugate gradients with a kept
preconditioner, started from the extrapolation 3u - 3u_1 + u_2 of the prey
states of the last steps (2u - u_1 with one kept), and accepts x only when
the true residual is at the round-off floor a direct solve reaches,
|b - A x|_inf <= 10 eps (|A|_inf |x|_inf + |b|_inf).  A refresh, as on a
stepper's first step, first builds the DCT solve of I/dt - mean(u) L
(geometry.dct_solver), exact for a uniform u and close while u is smooth
(Concus & Golub 1973).  Only when CG with that fresh preconditioner needs
more than REFRESH_ITERS iterations, or is refused, is A built in CSC form
and factored, and its LU kept in its place; the next refresh tries the DCT
again.  A solve with a kept preconditioner that needed more than
REFRESH_ITERS iterations is accepted and the next step refreshes.  With no
acceptance within MAX_CG_ITERS, or a curvature p.Ap that is not positive
and finite (unclamped, A can be indefinite), the step refreshes at once,
and if the fresh DCT is refused too, falls back to the LU of A and a
direct solve.  evolve_to_steady drops the preconditioner before it returns
and gives the free heap pages of the factors it dropped back
(geometry.release_free_memory), so that they do not add to the caller's
next allocations.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .errors import ParameterError, StepError
from .geometry import (
    LU_OPTIONS, ROUNDOFF_FACTOR, Grid, Region, _interior_faces, dct_solver, neumann_laplacian,
    release_free_memory, shifted_laplacian_solver,
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
    dt: float = 1e-3
    t_max: float = 500.0
    steady_tol: float = 1e-8
    clamp_negative: bool = True

    def __post_init__(self):
        if not (self.dt > 0.0 and self.steady_tol > 0.0 and self.t_max >= 0.0):
            raise ParameterError("dt > 0, steady_tol > 0 and t_max >= 0 required")
        if not all(math.isfinite(x) for x in (self.dt, self.t_max, self.steady_tol)):
            raise ParameterError("dt, t_max and steady_tol must be finite")


def _preconditioned_cg(a, b: np.ndarray, solve, x0: np.ndarray, a_norm: float):
    """Solve the symmetric system ``a x = b`` by CG preconditioned with
    ``solve``, an approximate inverse of ``a`` (the DCT solve of a constant
    coefficient matrix, or the LU solve of a nearby one), from the start
    ``x0``; ``a_norm`` is |a|_inf.

    Returns ``(x, k)`` for the first iterate whose true residual is within
    ROUNDOFF_FACTOR * eps * (|a| |x| + |b|) in the max-norm, or None if none
    is within MAX_CG_ITERS or a curvature p.Ap (or r.z) is not positive and
    finite.  ``k`` counts both the iterations and the ``solve`` calls (0
    when ``x0`` already passes); ``x`` is never ``x0`` itself.
    """
    b_norm = np.abs(b).max()
    scale = ROUNDOFF_FACTOR * np.finfo(float).eps
    x = x0.copy()
    for k in range(MAX_CG_ITERS + 1):
        r = b - a @ x
        if np.abs(r).max() <= scale * (a_norm * np.abs(x).max() + b_norm):
            return x, k
        if k == MAX_CG_ITERS:
            return None
        z = solve(r)
        rz = r @ z
        p = z if k == 0 else z + (rz / rz_old) * p
        ap = a @ p
        curvature = p @ ap
        if not (rz > 0.0 and 0.0 < curvature < np.inf):
            return None
        x = x + (rz / curvature) * p
        rz_old = rz


class _Stepper:
    """Caches everything constant across steps for one (params, grid, dt)."""

    def __init__(self, params: ModelParams, grid: Grid, dt: float):
        self.params = params
        self.grid = grid
        self.dt = dt
        self.ext = grid.exterior_cells
        self._precond = None  # solve() of the kept prey preconditioner (nonlinear)
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
            (_, _, self._wx), (_, _, self._wy) = _interior_faces(grid, Region.ALL)
            # the slot of each entry of the Laplacian's (symmetric) pattern
            self._pattern = (lap.indices, lap.indptr)
            cols = np.repeat(np.arange(grid.n_cells), np.diff(lap.indptr))
            self._slots = np.searchsorted(offsets, cols - lap.indices) * grid.n_cells + cols

    def _write_diagonals(self, u: np.ndarray) -> float:
        """Write A, with arithmetic face means of the frozen u, in place, and
        return |A|_inf summed as geometry.row_sum_norm sums A's CSC columns:
        the first stored entry plus the others, in row order."""
        n_y, n_x = self.grid.n_y, self.grid.n_x
        north, east, diag, west, south = self._a.data.reshape(5, n_y, n_x)
        grid_u = u.reshape(n_y, n_x)
        east[:, :-1] = -0.5 * (grid_u[:, :-1] + grid_u[:, 1:]) * self._wx
        west[:, 1:] = east[:, :-1]
        north[:-1] = -0.5 * (grid_u[:-1] + grid_u[1:]) * self._wy
        south[1:] = north[:-1]
        # 1/dt, plus c over the faces (j, q), plus c over the faces (p, j)
        diag[:] = (1.0 / self.dt - (east + north)) - (west + south)
        north, east, diag, west, south = np.abs(self._a.data)
        sums = south + (((west + diag) + east) + north)
        # columns 0 .. n_x - 1 have no south entry, and column 0 no west one
        sums[1:n_x] = west[1:n_x] + ((diag[1:n_x] + east[1:n_x]) + north[1:n_x])
        sums[0] = diag[0] + (east[0] + north[0])
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
        # the DCT replaces an old factor first, so that two are never alive at once
        self._precond = dct_solver(self.grid, 1.0 / self.dt, max(float(u.mean()), 0.0))
        solved = _preconditioned_cg(self._a, rhs, self._precond, x0, a_norm)
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

    def advance(self, u: np.ndarray, v_ext: np.ndarray):
        """One IMEX step on raw arrays; returns (u_new, v_ext_new)."""
        params, dt, ext = self.params, self.dt, self.ext
        den = _holling_denominator(params, u)
        u_ext, den_ext = u[ext], den[ext]
        # predation is 0 on refuge cells, where b is 0 and v is 0
        prey_reaction = params.lam * u - u * u
        prey_reaction[ext] -= params.b * u_ext * v_ext / den_ext
        rhs = u / dt + prey_reaction
        if self.prey_solve is not None:
            u_new = self.prey_solve(rhs)
        else:
            try:
                u_new = self._solve_prey(u, rhs)
            except RuntimeError as exc:
                raise StepError(f"implicit diffusion solve failed: {exc}") from exc
        pred_reaction = -params.mu * v_ext + params.c * u_ext * v_ext / den_ext
        v_new = self.pred_solve(v_ext / dt + pred_reaction)
        return u_new, v_new


def step(params: ModelParams, state: State, dt: float) -> State:
    """Advance one semi-implicit step (no clamping; refuge v stays exactly 0)."""
    if not (dt > 0.0 and math.isfinite(dt)):
        raise ParameterError("dt must be positive and finite")
    grid = state.grid
    u_new, v_new = _Stepper(params, grid, dt).advance(
        state.u.values, state.v.values[grid.exterior_cells]
    )
    return State.unpack(grid, np.concatenate([u_new, v_new]))


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
    flagged with a RuntimeWarning.
    """
    opts = opts or TimeOptions()
    grid = initial.grid
    stepper = _Stepper(params, grid, opts.dt)
    u = initial.u.values.copy()
    v_ext = initial.v.values[grid.exterior_cells].copy()

    n_steps = int(np.floor(opts.t_max / opts.dt + 1e-12))
    n_slots = grid.n_cells + grid.n_exterior
    clamped_total = 0
    steady = False
    t = 0.0
    for k in range(1, n_steps + 1):
        u_new, v_new = stepper.advance(u, v_ext)
        clamped = 0
        if opts.clamp_negative:
            clamped = int((u_new < 0.0).sum() + (v_new < 0.0).sum())
            if clamped:
                np.maximum(u_new, 0.0, out=u_new)
                np.maximum(v_new, 0.0, out=v_new)
        clamped_total += clamped
        t = k * opts.dt

        change = max(
            float(np.abs(u_new - u).max()),
            float(np.abs(v_new - v_ext).max(initial=0.0)),
        ) / opts.dt
        u, v_ext = u_new, v_new
        if observer is not None:
            observer(k, t, State.unpack(grid, np.concatenate([u, v_ext])), clamped)
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
    return State.unpack(grid, np.concatenate([u, v_ext])), steady
