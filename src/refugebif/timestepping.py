"""Semi-implicit (IMEX) integrator for the parabolic predator-prey system.

Diffusion is implicit with coefficients frozen at the current step (prey
flux div(u^n grad u^{n+1}), predator d * L v^{n+1}); the reaction terms
stay explicit.  Fixed points of one step are exactly the
discrete steady states of the model residual, independent of dt.

The linear variant's prey matrix and the predator matrix are constant, so
each is factored once.  The nonlinear prey matrix A = I/dt - div(ubar grad .)
changes every step but slowly, since u moves by O(dt).  A stepper's first
step factors it.  Later steps solve A x = b by conjugate gradients
preconditioned with the last LU, started from x = LU^-1 b, and accept x only
when the true residual is at the round-off floor a direct solve reaches,
|b - A x|_inf <= 10 eps (|A|_inf |x|_inf + |b|_inf).  A solve that needed
more than REFRESH_ITERS iterations is accepted and A is factored for the
next steps.  With no acceptance within MAX_CG_ITERS, or a curvature p.Ap
that is not positive and finite (unclamped, A can be indefinite), the step
falls back to a fresh LU of A and a direct solve, as on the first step.
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
    LU_OPTIONS, ROUNDOFF_FACTOR, Grid, Region, _interior_faces, exterior_laplacian_block,
    neumann_laplacian, predation_field,
)
from .model import Diffusion, ModelParams, State, _holling_denominator

# clamped negative-undershoot budget before a run is flagged
CLAMP_WARN_FRACTION = 1e-3
# stale-LU CG on the nonlinear prey matrix: refactor after a solve that took
# more than REFRESH_ITERS iterations; fall back to a direct solve after
# MAX_CG_ITERS; accept at geometry.ROUNDOFF_FACTOR times the round-off scale
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


def _csr_positions(mat: sp.csr_matrix, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Indices into ``mat.data`` of the stored entries (rows[k], cols[k]);
    ``mat`` must be canonical (sorted indices, no duplicates)."""
    n = mat.shape[1]
    stored = np.repeat(np.arange(mat.shape[0]), np.diff(mat.indptr)) * n + mat.indices
    return np.searchsorted(stored, rows * n + cols)


def _stale_lu_cg(a: sp.csc_matrix, b: np.ndarray, lu):
    """Solve the symmetric system ``a x = b`` by CG preconditioned with ``lu``,
    the LU of a nearby matrix, from x = lu^-1 b.

    Returns ``(x, iterations)`` for the first iterate whose true residual is
    within ROUNDOFF_FACTOR * eps * (|a| |x| + |b|) in the max-norm, or None
    if none is within MAX_CG_ITERS or a curvature p.Ap (or r.z) is not
    positive and finite.
    """
    # a is symmetric, so its column sums are its row sums
    a_norm = np.add.reduceat(np.abs(a.data), a.indptr[:-1]).max()
    b_norm = np.abs(b).max()
    scale = ROUNDOFF_FACTOR * np.finfo(float).eps
    x = lu.solve(b)
    for k in range(MAX_CG_ITERS + 1):
        r = b - a @ x
        if np.abs(r).max() <= scale * (a_norm * np.abs(x).max() + b_norm):
            return x, k
        if k == MAX_CG_ITERS:
            return None
        z = lu.solve(r)
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
        self.bf = predation_field(grid, params.b).values
        self.ext = grid.exterior_cells
        n_ext = grid.n_exterior

        pred_matrix = (
            sp.identity(n_ext, format="csr") / dt
            - params.d * exterior_laplacian_block(grid)
        )
        self.pred_lu = splu(pred_matrix.tocsc(), **LU_OPTIONS)

        lap_all = neumann_laplacian(grid, Region.ALL).matrix
        if params.variant is Diffusion.LINEAR:
            prey_matrix = sp.identity(grid.n_cells, format="csr") / dt - lap_all
            self.prey_lu = splu(prey_matrix.tocsc(), **LU_OPTIONS)
        else:
            self.prey_lu = None
            self._lu = None  # the LU of the last factored prey matrix
            # I/dt - div(ubar grad .) has the Laplacian's pattern: each face
            # (p, q) writes -c_f at (p, q) and (q, p) and adds c_f to both
            # diagonals.  The pattern is symmetric, so its CSC arrays are
            # the CSR ones.
            (px, qx, wx), (py, qy, wy) = _interior_faces(grid, Region.ALL)
            self._p, self._q = np.concatenate([px, py]), np.concatenate([qx, qy])
            self._w = np.concatenate([np.full(px.size, wx), np.full(py.size, wy)])
            self._pattern = (lap_all.indices, lap_all.indptr)
            cells = np.arange(grid.n_cells)
            self._pq = _csr_positions(lap_all, self._p, self._q)
            self._qp = _csr_positions(lap_all, self._q, self._p)
            self._diag = _csr_positions(lap_all, cells, cells)

    def _prey_matrix(self, u: np.ndarray) -> sp.csc_matrix:
        """I/dt - div(ubar grad .) with arithmetic face means of the frozen u."""
        n = self.grid.n_cells
        coeff = 0.5 * (u[self._p] + u[self._q]) * self._w
        data = np.empty(self._pattern[0].size)
        data[self._pq] = -coeff
        data[self._qp] = -coeff
        data[self._diag] = (
            1.0 / self.dt
            + np.bincount(self._p, coeff, minlength=n)
            + np.bincount(self._q, coeff, minlength=n)
        )
        return sp.csc_matrix((data, *self._pattern), shape=(n, n))

    def _solve_prey(self, u: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """Solve the nonlinear prey system, by stale-LU CG when it is accepted."""
        a = self._prey_matrix(u)
        solved = None if self._lu is None else _stale_lu_cg(a, rhs, self._lu)
        if solved is not None and solved[1] <= REFRESH_ITERS:
            return solved[0]
        # drop the old factor first, so that two are never alive at once
        self._lu = None
        self._lu = splu(a, **LU_OPTIONS)
        return self._lu.solve(rhs) if solved is None else solved[0]

    def advance(self, u: np.ndarray, v_ext: np.ndarray):
        """One IMEX step on raw arrays; returns (u_new, v_ext_new)."""
        params, dt, ext = self.params, self.dt, self.ext
        den = _holling_denominator(params, u)
        v_full = np.zeros(self.grid.n_cells)
        v_full[ext] = v_ext

        prey_reaction = params.lam * u - u * u - self.bf * u * v_full / den
        try:
            if self.prey_lu is not None:
                u_new = self.prey_lu.solve(u / dt + prey_reaction)
            else:
                u_new = self._solve_prey(u, u / dt + prey_reaction)
            pred_reaction = -params.mu * v_ext + params.c * u[ext] * v_ext / den[ext]
            v_new = self.pred_lu.solve(v_ext / dt + pred_reaction)
        except RuntimeError as exc:
            raise StepError(f"implicit diffusion solve failed: {exc}") from exc
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

    if n_steps > 0 and clamped_total > CLAMP_WARN_FRACTION * n_slots * max(1, k):
        warnings.warn(
            f"clamped {clamped_total} negative cell-steps "
            f"({clamped_total / (n_slots * k):.2%} of the run); the degenerate "
            "diffusion left its admissible regime",
            RuntimeWarning,
            stacklevel=2,
        )
    return State.unpack(grid, np.concatenate([u, v_ext])), steady
