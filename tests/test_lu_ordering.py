"""Every sparse LU in the package is one ``splu(a, **LU_OPTIONS)`` on a CSC
matrix, made by the calling module's own ``splu``, and no LU state is left in
the grid: it caches operators, the DCT transforms and the one pattern of J
only."""

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from conftest import REFUGE_BOX, rough_u
from refugebif import analytics, continuation, newton, timestepping
from refugebif.geometry import LU_OPTIONS, Region, ScalarField, build_grid
from refugebif.model import Diffusion, ModelParams, State, jacobian
from refugebif.timestepping import TimeOptions, evolve_to_steady

BOTH = [Diffusion.NONLINEAR, Diffusion.LINEAR]
MODULES = (analytics, continuation, newton, timestepping)


def make_params(variant, **kw):
    defaults = dict(lam=1.0, mu=0.4, c=1.0, m=1.0, b=1.0)
    defaults.update(kw)
    return ModelParams(variant=variant, **defaults)


@pytest.fixture
def recorded(monkeypatch):
    """Wrap each module's own splu; collect (module, kwargs) per call."""
    calls = []
    for module in MODULES:
        name = module.__name__.rsplit(".", 1)[1]

        def recording(a, *args, _real=module.splu, _name=name, **kwargs):
            assert not args, "pass LU options by keyword"
            assert isinstance(a, sp.csc_matrix), f"{_name} factors a {a.format} matrix"
            calls.append((_name, kwargs))
            return _real(a, **kwargs)

        monkeypatch.setattr(module, "splu", recording)
    return calls


@pytest.mark.parametrize("variant", BOTH)
def test_every_factorization_uses_the_shared_ordering(recorded, variant):
    grid = build_grid(16, refuge_box=REFUGE_BOX)
    p = make_params(variant)
    branch = continuation.trace_branch(grid, p, 0.45)
    # a fixed-mu solve on a fresh corrector factors J once, and its later
    # steps run on that LU
    traced = len(recorded)
    continuation.solve_at_mu(branch, 0.46)
    assert len(recorded) - traced <= 1
    # started off the solution, so that newton_solve factors J at least
    # once, through the corrector
    newton.newton_solve(replace(p, mu=0.44), branch.points[-1].state)
    evolve_to_steady(p, branch.points[-1].state, TimeOptions(dt=1e-3, t_max=3e-3))
    # a rough u, on which CG with the DCT preconditioner is refused
    timestepping._Stepper(p, grid, 0.05).advance(
        np.abs(rough_u(grid, 0)), ScalarField.constant(grid, 0.1, Region.EXTERIOR).values
    )
    analytics.bifurcation_data(grid, p)
    analytics.v_block_eigenvalue(grid, p, 0.4)

    per_module = Counter(name for name, _ in recorded)
    assert all(kwargs == LU_OPTIONS for _, kwargs in recorded)
    # newton_solve steps on the corrector, and v_block_eigenvalue and
    # bifurcation_data use the fast solvers, so neither newton.splu nor
    # analytics.splu is called
    assert set(per_module) - {"timestepping"} == {"continuation"}
    # the smooth run near the branch solves its prey systems by CG with the
    # DCT preconditioner, so the one prey LU is the rough step's; the
    # predator and linear prey matrices are never factored, since
    # geometry.shifted_laplacian_solver solves them
    assert per_module["timestepping"] == (1 if variant is Diffusion.NONLINEAR else 0)


def test_refreshed_prey_lu_uses_the_shared_ordering(recorded):
    grid = build_grid(16, refuge_box=REFUGE_BOX)
    stepper = timestepping._Stepper(make_params(Diffusion.NONLINEAR), grid, 0.05)
    u, v = np.full(grid.n_cells, 0.8), ScalarField.constant(grid, 0.1, Region.EXTERIOR).values
    # a jump to 20 u leaves the kept DCT preconditioner too far for CG, but
    # the refreshed one, at the new mean of u, is exact for a uniform u
    stepper.advance(u, v)
    stepper.advance(20.0 * u, v)
    assert not recorded
    # on a rough u the refreshed DCT is refused too, so the step factors;
    # on the next rough u the kept LU and the DCT are refused, so it
    # factors again
    stepper.advance(np.abs(rough_u(grid, 0)), v)
    stepper.advance(np.abs(rough_u(grid, 1)), v)

    # the first prey LU and the refreshed one
    kinds = [kwargs for name, kwargs in recorded if name == "timestepping"]
    assert kinds == [LU_OPTIONS] * 2


def test_bordered_fallback_uses_the_shared_ordering(refuge_grid_16, recorded, monkeypatch):
    grid = refuge_grid_16
    n_unknowns = grid.n_cells + grid.n_exterior
    recording = continuation.splu
    bordered = []

    def refusing_splu(a, **kwargs):
        if a.shape == (n_unknowns, n_unknowns):
            raise RuntimeError("Factor is exactly singular")
        bordered.append(kwargs)
        return recording(a, **kwargs)

    monkeypatch.setattr(continuation, "splu", refusing_splu)
    continuation.trace_branch(grid, make_params(Diffusion.NONLINEAR), 0.45)
    assert bordered and all(kwargs == LU_OPTIONS for kwargs in bordered)


@pytest.mark.parametrize("variant", BOTH)
def test_shared_ordering_gives_a_smaller_factor_of_j(refuge_grid_16, variant):
    p = make_params(variant)
    point = continuation.trace_branch(refuge_grid_16, p, 0.45).points[-1]
    jac = jacobian(replace(p, mu=point.mu), point.state).matrix.tocsc()
    assert splu(jac, **LU_OPTIONS).nnz < splu(jac).nnz


def test_grid_caches_operators_only():
    grid = build_grid(8, refuge_box=REFUGE_BOX)
    p = make_params(Diffusion.NONLINEAR)
    last = continuation.trace_branch(grid, p, 0.45).points[-1].state
    continuation.trace_branch(grid, make_params(Diffusion.LINEAR), 0.45)
    evolve_to_steady(p, last, TimeOptions(dt=1e-3, t_max=3e-3))
    # one u cell exactly 0: J keeps the grid's one pattern, with the entries
    # of L diag(u) in that cell's column stored as explicit zeros
    u = last.u.values.copy()
    u[0] = 0.0
    zeroed = State(replace(last.u, values=u), last.v)
    assert jacobian(p, zeroed).matrix.nnz == jacobian(p, last).matrix.nnz
    newton.newton_solve(replace(p, mu=0.44), zeroed)
    # the IMEX predator solver is kept per region and the DCT transforms once
    # per grid, operators and no LU; the nonlinear prey's DCT preconditioner
    # is the stepper's, not the grid's
    assert set(grid._cache) == {
        ("laplacian", Region.ALL),
        ("laplacian", Region.EXTERIOR),
        "exterior_laplacian_block",
        "jacobian_pattern",
        "dct_basis",
        ("shifted_laplacian_solver", Region.EXTERIOR),
    }
