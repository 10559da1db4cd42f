"""Every sparse LU in the package factors with the shared ordering, LU_OPTIONS."""

from collections import Counter
from dataclasses import replace

import pytest
from scipy.sparse.linalg import splu

from refugebif import analytics, continuation, newton, timestepping
from refugebif.geometry import LU_OPTIONS
from refugebif.model import Diffusion, ModelParams, jacobian
from refugebif.timestepping import TimeOptions, evolve_to_steady

BOTH = [Diffusion.NONLINEAR, Diffusion.LINEAR]
MODULES = (analytics, continuation, newton, timestepping)


def make_params(variant, **kw):
    defaults = dict(lam=1.0, mu=0.4, c=1.0, m=1.0, b=1.0)
    defaults.update(kw)
    return ModelParams(variant=variant, **defaults)


@pytest.fixture
def recorded(monkeypatch):
    """Wrap each module's own splu; the list collects (module, kwargs) per call."""
    calls = []
    for module in MODULES:
        name = module.__name__.rsplit(".", 1)[1]

        def recording(a, *args, _real=module.splu, _name=name, **kwargs):
            assert not args, "pass LU options by keyword"
            calls.append((_name, kwargs))
            return _real(a, **kwargs)

        monkeypatch.setattr(module, "splu", recording)
    return calls


@pytest.mark.parametrize("variant", BOTH)
def test_every_factorization_uses_the_shared_ordering(refuge_grid_16, recorded, variant):
    grid = refuge_grid_16
    p = make_params(variant)
    branch = continuation.trace_branch(grid, p, 0.45)
    newton.newton_solve(replace(p, mu=branch.points[-1].mu), branch.points[-1].state)
    evolve_to_steady(p, branch.points[-1].state, TimeOptions(dt=1e-3, t_max=3e-3))
    analytics.bifurcation_data(grid, p)
    analytics.v_block_eigenvalue(grid, p, 0.4)

    per_module = Counter(name for name, _ in recorded)
    assert set(per_module) == {"analytics", "continuation", "newton", "timestepping"}
    # predator LU plus one prey LU per nonlinear step, or one shared linear prey LU
    assert per_module["timestepping"] == (4 if variant is Diffusion.NONLINEAR else 2)
    assert all(kwargs == LU_OPTIONS for _, kwargs in recorded)


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
