"""Pseudo-arclength tracing of the positive-solution branch in mu.

trace_branch seeds two points under the constraint avg_v = s with mu free,
walks down to mu_min by a secant predictor and an arclength corrector, and
solves its last point under mu = mu_min, so that it lands there exactly.
newton.newton_solve is that landing solve at a fixed mu.

_Corrector runs damped Newton on the bordered map [residual(U, mu);
c.U + c_mu mu - target].  A trial with mu < 0 is inadmissible, as is one
that takes 1 + m u to its floor, so backtracking shortens it.  Each step solves
the bordered system by Keller's block elimination with an LU of J.  Since J
is singular at the onset, a step is kept only if its true bordered residual
is within STEP_RTOL of |(f, g)| or at the round-off floor.  The routes,
each tried when the one before fails the guard: GMRES_ITERS iterations of
GMRES preconditioned by the last kept LU of J (Uecker, Wetzel & Rademacher
2014; Saad & Schultz 1986); a fresh LU of J, refined by REFINE_ITERS
iteration; an LU of the bordered matrix (Govaerts 2000, ch. 3).  README's
"Numerical design notes" give the metric, the formulas and the LU ordering.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp

from .analytics import BifurcationData, bifurcation_data
from .errors import (
    ComparisonError, EstimationError, GeometryError, NumericalError, ParameterError,
    SingularResponseError,
)
from .geometry import (
    LU_OPTIONS, ROUNDOFF_FACTOR, Grid, csr_matvec, exterior_connected, release_free_memory,
    row_sum_norm, splu,
)
from .model import Diffusion, ModelParams, State, jacobian, residual
from .newton import ZERO_THRESHOLD, NewtonOptions, _damped_newton, newton_solve

# avg_v of the first seed point, relative to lam; the second sits at twice that
SEED_AVG_V = 1e-3
# a corrector step is kept when its bordered residual is within STEP_RTOL of
# |(f, g)|, or at the round-off floor, in the max-norm (see the docstring)
STEP_RTOL = 1e-10
# GMRES iterations a step may take with the last LU of J before J is
# factored afresh, and with a fresh LU (one refinement step)
GMRES_ITERS = 10
REFINE_ITERS = 1


@dataclass(frozen=True)
class ContinuationOptions:
    """Step-control knobs; scale factors are relative to the onset mu_lambda."""

    ds_initial_factor: float = 1e-3
    ds_max_factor: float = 0.05
    ds_min: float = 1e-6
    grow_iters: int = 3              # double the step when the corrector is this fast
    max_points: int = 5000
    corrector: NewtonOptions = field(default_factory=lambda: NewtonOptions(max_iters=12))

    def __post_init__(self):
        steps = (self.ds_min, self.ds_initial_factor, self.ds_max_factor)
        if not all(x > 0.0 for x in steps):
            raise ParameterError("ds_min, ds_initial_factor and ds_max_factor must be positive")
        if not (self.grow_iters >= 0 and self.max_points >= 2):
            raise ParameterError("grow_iters >= 0 and max_points >= 2 required")


@dataclass(frozen=True)
class BranchPoint:
    mu: float
    state: State
    avg_v: float
    max_v: float
    min_u: float
    newton_iters: int


@dataclass(frozen=True)
class Branch:
    """Ordered continuation points with strictly decreasing mu."""

    variant: Diffusion
    params: ModelParams
    points: tuple[BranchPoint, ...]
    onset: BifurcationData
    diagnostic: str = ""  # why the branch stops short of mu_min; "" if it does not

    @property
    def truncated(self) -> bool:
        return bool(self.diagnostic)

    @property
    def mus(self) -> np.ndarray:
        return np.array([p.mu for p in self.points])

    @property
    def avg_vs(self) -> np.ndarray:
        return np.array([p.avg_v for p in self.points])


@dataclass(frozen=True)
class BranchComparison:
    """Two branches interpolated onto a common, increasing mu grid."""

    mu: np.ndarray
    avg_v_nonlinear: np.ndarray
    avg_v_linear: np.ndarray
    ratio: np.ndarray


class _Corrector:
    """Damped Newton on the bordered map [residual(U, mu); affine constraint].

    Counters, in Newton steps: ``krylov_steps`` solved with the last LU of J,
    ``factorizations`` of J, and ``fallbacks`` to the LU of the bordered
    matrix (see the module docstring).
    """

    def __init__(self, grid: Grid, params: ModelParams, opts: NewtonOptions):
        self.grid = grid
        self.params = params
        self.opts = opts
        self.krylov_steps = 0
        self.factorizations = 0
        self.fallbacks = 0
        self._lu = None  # the last LU of J that gave a kept step

    def solve(self, y0, c_row, c_mu, c_target):
        """Return (y, iterations, history, diagnostic): the last iterate and
        the stop record of _damped_newton.  The constraint is affine in y, and
        a trial with mu < 0 is inadmissible."""
        grid, params = self.grid, self.params
        last = None, None  # the y of the last fun call, and its (params, state)

        def fun(y):
            nonlocal last
            if not y[-1] >= 0.0:
                raise SingularResponseError(f"mu reached {y[-1]:.3e}")
            last = y, (replace(params, mu=y[-1]), State.unpack(grid, y[:-1]))
            f = residual(*last[1])
            g = float(c_row @ y[:-1] + c_mu * y[-1] - c_target)
            return np.concatenate([f, [g]])

        def step(y, fg):
            # _damped_newton steps from the y of its last fun call, unchanged
            return self.step(y, fg, c_row, c_mu, last[1] if last[0] is y else None)

        y, _, history, diagnostic = _damped_newton(y0, fun, step, self.opts)
        return y, len(history) - 1, history, diagnostic

    def step(self, y, fg, c_row, c_mu, unpacked=None):
        """Newton step of the bordered map at y, whose value there is fg;
        ``unpacked`` is (params at y's mu, the State of y), if made already."""
        grid = self.grid
        params, state = unpacked or (replace(self.params, mu=y[-1]), State.unpack(grid, y[:-1]))
        jac = jacobian(params, state).matrix
        # d(residual)/d(mu): only the predator rows depend on mu, via -mu*v
        f_mu = np.zeros(y.size - 1)
        f_mu[grid.n_cells:] = -y[grid.n_cells:-1]
        system = _Bordered(jac, f_mu, c_row, c_mu, fg)
        delta = self._stale_step(system)
        if delta is not None:
            self.krylov_steps += 1
            return delta
        # drop the stale factor first, so that two are never alive at once
        self.release()
        delta = self._fresh_step(system)
        if delta is not None:
            return delta
        self.fallbacks += 1
        bordered = sp.bmat(
            [
                [jac, f_mu[:, None]],
                [sp.csr_matrix(c_row[None, :]), sp.csr_matrix([[c_mu]])],
            ],
            format="csc",
        )
        return splu(bordered, **LU_OPTIONS).solve(-fg)

    def release(self):
        """Drop the kept LU of J, and return its freed pages to the system."""
        if self._lu is not None:
            self._lu = None
            release_free_memory()

    def _stale_step(self, system):
        """The guarded step preconditioned with the last LU of J, or None."""
        return None if self._lu is None else _guarded_gmres(system, self._lu, GMRES_ITERS)

    def _fresh_step(self, system):
        """The guarded step with a fresh LU of J, which is kept; or None."""
        try:
            lu = splu(system.jac.tocsc(), **LU_OPTIONS)
        except RuntimeError:
            return None
        self.factorizations += 1
        delta = _guarded_gmres(system, lu, REFINE_ITERS)
        if delta is not None:
            self._lu = lu
        return delta


class _Bordered:
    """The corrector's Newton system A d = -fg, A = [[J, f_mu], [c, c_mu]]."""

    def __init__(self, jac, f_mu, c_row, c_mu, fg):
        self.jac, self.f_mu, self.c_row, self.c_mu, self.fg = jac, f_mu, c_row, c_mu, fg
        self._floor = ROUNDOFF_FACTOR * np.finfo(float).eps * row_sum_norm(jac)
        self._rtol = STEP_RTOL * np.abs(fg).max()
        self._f_mu_d = np.empty(f_mu.size)  # f_mu d_mu, rewritten by each product

    def matvec(self, d, out=None):
        """A d, written into ``out`` if it is given: J d_u, plus f_mu d_mu, over
        c d_u + c_mu d_mu."""
        out = np.empty(d.size) if out is None else out
        d_u, d_mu, f = d[:-1], d[-1], out[:-1]
        csr_matvec(self.jac, d_u, f)
        f += np.multiply(self.f_mu, d_mu, out=self._f_mu_d)
        out[-1] = self.c_row @ d_u + self.c_mu * d_mu
        return out

    def tolerance(self, d_max):
        """The step guard's bound on |A d + fg|_inf for a step with |d|_inf = d_max."""
        return max(self._rtol, self._floor * d_max)

    def accepts(self, d, r):
        """The step guard on d, whose bordered residual A d + fg is r."""
        return np.abs(r).max() <= self.tolerance(np.abs(d).max()) and np.all(np.isfinite(d))

    def eliminator(self, lu):
        """(d0, (r, out=None) -> A^-1 r) by block elimination with ``lu``, an LU
        of J or of a nearby matrix (then both are approximate); A^-1 r is
        written into ``out`` if it is given.  The step d0 = A^-1 (-fg) and
        J^-1 f_mu come from one two-column solve."""
        a, b = lu.solve(np.column_stack([-self.fg[:-1], self.f_mu])).T
        den = self.c_mu - self.c_row @ b

        def combine(a, r_mu, out=None):
            """(a - d_mu b, d_mu) for a = J^-1 r_u."""
            out = np.empty(a.size + 1) if out is None else out
            d_mu = (r_mu - self.c_row @ a) / den
            np.subtract(a, np.multiply(d_mu, b, out=out[:-1]), out=out[:-1])
            out[-1] = d_mu
            return out

        return combine(a, -self.fg[-1]), lambda r, out=None: combine(lu.solve(r[:-1]), r[-1], out)


def _guarded_gmres(system: _Bordered, lu, max_iters: int):
    """Solve ``system`` by GMRES right-preconditioned by block elimination with ``lu``.

    Starts from the eliminated step and returns the first iterate that
    passes the step guard on its true residual, within ``max_iters``
    iterations; None if none does.  With a fresh LU of J the start is
    Keller's block elimination, and one iteration refines it.  Givens
    rotations give |g_k+1| = |r_k|_2 (Saad & Schultz 1986), and iterate k is
    formed only when |g_k+1| is within 2 sqrt(size) (|r|_2 <= sqrt(size) |r|_inf,
    2 for round-off) times the guard at |d0|_inf + sum |y_i| |z_i|_inf >= |d_k|_inf.
    Products and preconditioned vectors are written into arrays made once
    per call; the step returned is a new array, never one of them.
    """
    from scipy.linalg.lapack import dtrtrs  # loaded with scipy.sparse.linalg, at the first LU

    d0, apply_inverse = system.eliminator(lu)
    w, tmp = np.empty((2, d0.size))  # A z_k (or A d), and the terms taken from it
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        r = system.matvec(d0, w)
        r += system.fg
        if system.accepts(d0, r):
            return d0
        beta = np.linalg.norm(r)
        if not np.isfinite(beta):
            return None
        # Arnoldi on A M^-1; rotations keep the Hessenberg matrix triangular
        basis, z = np.empty((max_iters + 1, d0.size)), np.empty((max_iters, d0.size))
        hess, g = np.zeros((max_iters + 1, max_iters)), np.zeros(max_iters + 1)
        cos, sin, z_max = np.zeros((3, max_iters))
        np.divide(r, -beta, out=basis[0])
        g[0] = beta
        slack, d0_max = 2.0 * np.sqrt(d0.size), np.abs(d0).max()
        for k in range(max_iters):
            apply_inverse(basis[k], z[k])
            z_max[k] = np.abs(z[k], out=tmp).max()
            w, h = system.matvec(z[k], w), hess[:, k]
            for i in range(k + 1):
                h[i] = basis[i] @ w
                w -= np.multiply(basis[i], h[i], out=tmp)
            h[k + 1] = np.linalg.norm(w)
            if not np.isfinite(h[k + 1]):
                return None
            np.divide(w, h[k + 1], out=basis[k + 1])
            for i in range(k):  # the earlier rotations, then a new one
                h[i : i + 2] = cos[i] * h[i] + sin[i] * h[i + 1], cos[i] * h[i + 1] - sin[i] * h[i]
            rho = np.hypot(h[k], h[k + 1])
            cos[k], sin[k], h[k], h[k + 1] = h[k] / rho, h[k + 1] / rho, rho, 0.0
            g[k], g[k + 1] = cos[k] * g[k], -sin[k] * g[k]
            y = dtrtrs(hess[: k + 1, : k + 1], g[: k + 1])[0]  # R y = g
            if abs(g[k + 1]) <= slack * system.tolerance(d0_max + np.abs(y) @ z_max[: k + 1]):
                d = d0 + y @ z[: k + 1]
                r = system.matvec(d, w)
                r += system.fg
                if system.accepts(d, r):
                    return d
    return None


def trace_branch(
    grid: Grid,
    params: ModelParams,
    mu_min: float,
    opts: ContinuationOptions | None = None,
) -> Branch:
    """Trace the positive branch from just below the onset down to mu_min.

    Corrector failure after exhausting step halvings truncates the branch
    (reported through ``Branch.truncated`` / ``Branch.diagnostic``); only a
    failure to seed the very first point raises.  When the last refused
    attempt converged to a state with u < ZERO_THRESHOLD somewhere, the
    diagnostic names the prey dead zone and the share of cells in it.
    """
    opts = opts or ContinuationOptions()
    onset = bifurcation_data(grid, params)
    mu_l = onset.mu_lambda
    if not 0.0 <= mu_min < mu_l:
        raise ParameterError(f"mu_min must lie in [0, {mu_l}), got {mu_min}")
    if not exterior_connected(grid):
        raise GeometryError("branch tracing needs a connected exterior region")

    n_cells = grid.n_cells
    n_unknowns = n_cells + grid.n_exterior
    area_weight = grid.cell_area
    corrector = _Corrector(grid, params, opts.corrector)

    # share of cells with u < ZERO_THRESHOLD in the converged state that the
    # last attempt refused for it; None if that attempt did not converge or
    # was refused for another reason
    dead_zone = None

    def attempt(y0, c_row, c_mu, c_target):
        """(y, iterations) if the corrector lands on a positive state, else None."""
        nonlocal dead_zone
        y, iters, history, _ = corrector.solve(y0, c_row, c_mu, c_target)
        ok = history[-1] <= opts.corrector.tol_residual
        u = y[:n_cells]
        dead_zone = float(np.mean(u < ZERO_THRESHOLD)) if ok and u.min() < ZERO_THRESHOLD else None
        # classify_state's POSITIVE test, on the packed vector
        positive = u.min() > ZERO_THRESHOLD and y[n_cells:-1].min() > ZERO_THRESHOLD
        return (y, iters) if ok and positive else None

    def make_point(y, iters):
        v_ext = y[n_cells:-1]
        return BranchPoint(
            mu=float(y[-1]),
            state=State.unpack(grid, y[:-1]),
            avg_v=float(v_ext.sum() * area_weight / onset.omega1_area),
            max_v=float(v_ext.max()),
            min_u=float(y[:n_cells].min()),
            newton_iters=iters,
        )

    # seeds at avg_v = k * s1, k = 1, 2: each guess is the previous point,
    # starting from (lam, 0, mu_lambda), plus delta = s1 * (-kernel, 1, mu'(0))
    s1 = SEED_AVG_V * params.lam
    avg_row = np.zeros(n_unknowns)
    avg_row[n_cells:] = area_weight / onset.omega1_area
    delta = np.concatenate(
        [-s1 * onset.kernel_profile.values, np.full(grid.n_exterior, s1),
         [onset.slope_at_onset * s1]]
    )
    y = np.concatenate([np.full(n_cells, params.lam), np.zeros(grid.n_exterior), [mu_l]])
    points = []
    for k in (1, 2):
        seed = attempt(y + delta, avg_row, 0.0, k * s1)
        if seed is None:
            raise NumericalError(
                f"failed to land on the positive branch at avg_v={k * s1:g}"
            )
        y_prev, y = y, seed[0]
        points.append(make_point(*seed))
    if points[1].mu >= points[0].mu:
        raise NumericalError("seed points do not descend in mu; onset data inconsistent")
    if points[0].mu <= mu_min:
        raise ParameterError(
            f"mu_min={mu_min} is above the seeded branch start mu={points[0].mu:g}"
        )

    def weighted_norm(dy):
        return float(np.sqrt(area_weight * (dy[:-1] @ dy[:-1]) + dy[-1] ** 2))

    diagnostic = ""
    ds = opts.ds_initial_factor * mu_l
    ds_max = opts.ds_max_factor * mu_l
    land_row = np.zeros(n_unknowns)

    while points[-1].mu > mu_min:
        if len(points) >= opts.max_points:
            diagnostic = f"point budget ({opts.max_points}) exhausted"
            break
        tangent = y - y_prev
        tangent /= weighted_norm(tangent)

        while True:
            y_pred = y + ds * tangent
            if y_pred[-1] > mu_min:
                c_row, c_mu = area_weight * tangent[:-1], float(tangent[-1])
                accepted = attempt(
                    y_pred, c_row, c_mu, float(c_row @ y_pred[:-1] + c_mu * y_pred[-1])
                )
            if y_pred[-1] <= mu_min or (accepted is not None and accepted[0][-1] < mu_min):
                # final step, also in place of a step that corrected past
                # mu_min: from the last point, a zero row with c_mu = 1 pins
                # mu to mu_min exactly; failing that, creep closer first
                accepted = attempt(np.append(y[:-1], mu_min), land_row, 1.0, mu_min)
            if accepted is not None and accepted[0][-1] < y[-1]:
                break
            accepted = None
            ds *= 0.5
            if ds < opts.ds_min:
                near = f"near mu={y[-1]:g}"
                if dead_zone is None:
                    diagnostic = f"corrector failed at the minimum step {near}"
                else:
                    diagnostic = (f"prey dead zone (min_u < {ZERO_THRESHOLD:g} in "
                                  f"{100.0 * dead_zone:.3g}% of cells) {near}")
                break
        if accepted is None:
            break

        y_prev, (y, iters) = y, accepted
        points.append(make_point(y, iters))
        if iters <= opts.grow_iters:
            ds = min(2.0 * ds, ds_max)

    corrector.release()
    return Branch(
        variant=params.variant,
        params=params,
        points=tuple(points),
        onset=onset,
        diagnostic=diagnostic,
    )


def solve_at_mu(branch: Branch, mu: float, opts: NewtonOptions | None = None):
    """Newton-refine a branch state at an exact mu, seeding from the nearest point.

    Returns (state, report); useful for cross-solver comparisons at a target mu.
    """
    if not branch.points:
        raise EstimationError("branch has no points")
    nearest = min(branch.points, key=lambda p: abs(p.mu - mu))
    return newton_solve(replace(branch.params, mu=mu), nearest.state, opts)


def detect_onset(branch: Branch, n_points: int = 5) -> float:
    """Estimate the onset mu by extrapolating (avg_v, mu) linearly to avg_v = 0."""
    if n_points < 2:
        raise EstimationError(f"onset extrapolation needs n_points >= 2, got {n_points}")
    pts = branch.points
    if len(pts) < 3:
        raise EstimationError(
            f"onset estimation needs at least 3 points near onset, got {len(pts)}"
        )
    k = min(n_points, len(pts))
    s = np.array([p.avg_v for p in pts[:k]])
    mu = np.array([p.mu for p in pts[:k]])
    coeffs, *_ = np.linalg.lstsq(np.column_stack([np.ones(k), s]), mu, rcond=None)
    return float(coeffs[0])


def compare_branches(nl: Branch, lin: Branch) -> BranchComparison:
    """Interpolate two branches onto their shared mu range and tabulate ratios."""
    p, q = nl.params, lin.params
    if (p.lam, p.c, p.m, p.b) != (q.lam, q.c, q.m, q.b):
        raise ComparisonError("branches were traced at different model parameters")
    mu_a, v_a = nl.mus[::-1], nl.avg_vs[::-1]
    mu_b, v_b = lin.mus[::-1], lin.avg_vs[::-1]
    lo = max(mu_a[0], mu_b[0])
    hi = min(mu_a[-1], mu_b[-1])
    if lo >= hi:
        raise ComparisonError("branches cover disjoint mu ranges")
    mu_common = np.unique(np.concatenate([mu_a, mu_b]))
    mu_common = mu_common[(mu_common >= lo) & (mu_common <= hi)]
    va = np.interp(mu_common, mu_a, v_a)
    vb = np.interp(mu_common, mu_b, v_b)
    return BranchComparison(
        mu=mu_common,
        avg_v_nonlinear=va,
        avg_v_linear=vb,
        ratio=va / vb,
    )
