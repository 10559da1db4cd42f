"""Pseudo-arclength tracing of the positive-solution branch in mu.

The branch is seeded just below the onset mu_lambda with two points solved
under the affine constraint avg_v = s (mu free), which steps off the
predator-free curve without falling back into its Newton basin.  From there
a secant predictor plus an arclength-constrained corrector walks the branch
down to mu_min.  The last point is solved by the same corrector under the
constraint mu = mu_min (a zero row with c_mu = 1), so it lands there exactly.
Arclength is measured in the mesh-independent metric
||(dU, dmu)||^2 = cell_area * |dU|^2 + dmu^2.

Each corrector iteration solves the bordered system
[[J, f_mu], [c, c_mu]] (dU, dmu) = -(f, g) by block elimination (Keller's
bordering lemma): one LU of the Jacobian J gives J a = -f and J b = f_mu,
then dmu = (-g - c.a) / (c_mu - c.b) and dU = a - dmu * b.  J is singular at
the onset and the seeds sit just below it, so the step is guarded: if the
bordered residual exceeds 1e-10 of |(f, g)| in the max-norm, one step of
iterative refinement with the same LU follows, and a step that still fails,
is not finite, or whose J will not factor is solved instead with an LU of the
bordered matrix (Govaerts 2000, ch. 3).

Every LU here, as everywhere in the package, is ordered by minimum degree
on the pattern of J^T + J with SuperLU's SymmetricMode (geometry.LU_OPTIONS):
J is structurally symmetric, and this factor has about half the entries of
a COLAMD one.  Pivoting is not given up: the pivot threshold stays at 1, so
a diagonal pivot is taken only when it is also the largest in its column.
J goes through geometry.factor, which computes that ordering once per
sparsity pattern and grid (J keeps one pattern along the branches seen so
far), then permutes each J by it and factors it in natural order.  That is
the same elimination order with the same diagonal pivots, so the factor has
the same fill as a direct splu.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .analytics import BifurcationData, bifurcation_data
from .errors import ComparisonError, EstimationError, GeometryError, NumericalError, ParameterError
from .geometry import LU_OPTIONS, Grid, exterior_connected, factor
from .model import Diffusion, ModelParams, State, jacobian, residual
from .newton import NewtonOptions, SolutionClass, _damped_newton, classify_state, newton_solve

# avg_v of the first seed point, relative to lam; the second sits at twice that
SEED_AVG_V = 1e-3


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
    truncated: bool = False
    diagnostic: str = ""

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

    ``fallbacks`` counts the Newton steps that block elimination could not
    give and the LU of the bordered matrix did (see the module docstring).
    """

    def __init__(self, grid: Grid, params: ModelParams, opts: NewtonOptions):
        self.grid = grid
        self.params = params
        self.opts = opts
        self.fallbacks = 0

    def solve(self, y0, c_row, c_mu, c_target):
        """Return (y, iterations, converged); the constraint is affine in y."""
        grid, params = self.grid, self.params

        def fun(y):
            f = residual(replace(params, mu=y[-1]), State.unpack(grid, y[:-1]))
            g = float(c_row @ y[:-1] + c_mu * y[-1] - c_target)
            return np.concatenate([f, [g]])

        y, _, history, _ = _damped_newton(
            y0, fun, lambda y, fg: self.step(y, fg, c_row, c_mu), self.opts
        )
        return y, len(history) - 1, history[-1] <= self.opts.tol_residual

    def step(self, y, fg, c_row, c_mu):
        """Newton step of the bordered map at y, whose value there is fg."""
        grid = self.grid
        jac = jacobian(replace(self.params, mu=y[-1]), State.unpack(grid, y[:-1])).matrix
        # d(residual)/d(mu): only the predator rows depend on mu, via -mu*v
        f_mu = np.zeros(y.size - 1)
        f_mu[grid.n_cells:] = -y[grid.n_cells:-1]
        delta = _eliminate(jac, f_mu, c_row, c_mu, fg, grid)
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


def _eliminate(jac, f_mu, c_row, c_mu, fg, grid, rtol=1e-10):
    """Solve [[J, f_mu], [c, c_mu]] d = -fg with one LU of J (Keller's bordering).

    J is factored through ``geometry.factor``, whose orderings are cached on
    ``grid``.  The step is returned only if its bordered residual is within
    ``rtol`` of ``|fg|`` in the max-norm, after at most one refinement step
    with the same LU; otherwise, or if ``splu`` finds J singular, None.
    """
    try:
        lu = factor(splu, jac, grid)
    except RuntimeError:
        return None
    b = lu.solve(f_mu)
    den = c_mu - c_row @ b

    def apply_inverse(r):
        a = lu.solve(r[:-1])
        d_mu = (r[-1] - c_row @ a) / den
        return np.concatenate([a - d_mu * b, [d_mu]])

    def bordered_residual(d):
        d_u, d_mu = d[:-1], d[-1]
        r_u = jac @ d_u + f_mu * d_mu
        return np.concatenate([r_u, [c_row @ d_u + c_mu * d_mu]]) + fg

    tol = rtol * np.abs(fg).max()
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        d = apply_inverse(-fg)
        r = bordered_residual(d)
        if not np.abs(r).max() <= tol:
            d = d + apply_inverse(-r)
            r = bordered_residual(d)
    if np.abs(r).max() <= tol and np.all(np.isfinite(d)):
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
    failure to seed the very first point raises.
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

    def attempt(y0, c_row, c_mu, c_target):
        """(y, iterations) if the corrector lands on a positive state, else None."""
        y, iters, ok = corrector.solve(y0, c_row, c_mu, c_target)
        cls, _ = classify_state(State.unpack(grid, y[:-1]))
        return (y, iters) if ok and cls is SolutionClass.POSITIVE else None

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
    ys, points = [], []
    for k in (1, 2):
        seed = attempt(y + delta, avg_row, 0.0, k * s1)
        if seed is None:
            raise NumericalError(
                f"failed to land on the positive branch at avg_v={k * s1:g}"
            )
        y = seed[0]
        ys.append(y)
        points.append(make_point(*seed))
    if points[1].mu >= points[0].mu:
        raise NumericalError("seed points do not descend in mu; onset data inconsistent")
    if points[0].mu <= mu_min:
        raise ParameterError(
            f"mu_min={mu_min} is above the seeded branch start mu={points[0].mu:g}"
        )

    def weighted_norm(dy):
        return float(np.sqrt(area_weight * (dy[:-1] @ dy[:-1]) + dy[-1] ** 2))

    truncated = False
    diagnostic = ""
    ds = opts.ds_initial_factor * mu_l
    ds_max = opts.ds_max_factor * mu_l
    land_row = np.zeros(n_unknowns)

    while points[-1].mu > mu_min:
        if len(points) >= opts.max_points:
            truncated = True
            diagnostic = f"point budget ({opts.max_points}) exhausted"
            break
        tangent = ys[-1] - ys[-2]
        tangent /= weighted_norm(tangent)
        if tangent[-1] >= 0.0:
            truncated = True
            diagnostic = "secant tangent stopped descending in mu"
            break

        while True:
            y_pred = ys[-1] + ds * tangent
            if y_pred[-1] <= mu_min:
                # final step: from the last point, a zero row with c_mu = 1
                # pins mu to mu_min exactly; failing that, creep closer first
                y0 = np.append(ys[-1][:-1], mu_min)
                c_row, c_mu, c_target = land_row, 1.0, mu_min
            else:
                y0, c_row, c_mu = y_pred, area_weight * tangent[:-1], float(tangent[-1])
                c_target = float(c_row @ y0[:-1] + c_mu * y0[-1])
            accepted = attempt(y0, c_row, c_mu, c_target)
            if accepted is not None and accepted[0][-1] < ys[-1][-1]:
                break
            accepted = None
            ds *= 0.5
            if ds < opts.ds_min:
                truncated = True
                diagnostic = f"corrector failed at the minimum step near mu={ys[-1][-1]:g}"
                break
        if accepted is None:
            break

        y_new, iters = accepted
        ys.append(y_new)
        points.append(make_point(y_new, iters))
        if y_new[-1] <= mu_min:
            break
        if iters <= opts.grow_iters:
            ds = min(2.0 * ds, ds_max)

    return Branch(
        variant=params.variant,
        params=params,
        points=tuple(points),
        onset=onset,
        truncated=truncated,
        diagnostic=diagnostic,
    )


def solve_at_mu(branch: Branch, mu: float, opts: NewtonOptions | None = None):
    """Newton-refine a branch state at an exact mu, seeding from the nearest point.

    Returns (state, report); useful for cross-solver comparisons at a target mu.
    """
    if not branch.points:
        raise EstimationError("branch has no points")
    nearest = min(branch.points, key=lambda p: abs(p.mu - mu))
    return newton_solve(
        replace(branch.params, mu=mu), nearest.state, opts or NewtonOptions()
    )


def detect_onset(branch: Branch, n_points: int = 5) -> float:
    """Estimate the onset mu by extrapolating (avg_v, mu) linearly to avg_v = 0."""
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
