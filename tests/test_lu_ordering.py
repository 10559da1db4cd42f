"""Every sparse LU in the package factors with the shared ordering, LU_OPTIONS:
directly, or through ``geometry.factor``, which computes that ordering once per
sparsity pattern and grid and factors the pre-permuted matrix in natural order."""

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from conftest import REFUGE_BOX
from refugebif import analytics, continuation, newton, timestepping
from refugebif.geometry import LU_OPTIONS, PREORDERED_LU_OPTIONS, build_grid, factor
from refugebif.model import Diffusion, ModelParams, jacobian
from refugebif.timestepping import TimeOptions, evolve_to_steady

BOTH = [Diffusion.NONLINEAR, Diffusion.LINEAR]
MODULES = (analytics, continuation, newton, timestepping)
FACTORING_MODULES = (continuation, newton, timestepping)


def make_params(variant, **kw):
    defaults = dict(lam=1.0, mu=0.4, c=1.0, m=1.0, b=1.0)
    defaults.update(kw)
    return ModelParams(variant=variant, **defaults)


def pattern(a):
    a = a.tocsc()
    a.sum_duplicates()
    return a.shape, a.indptr.tobytes(), a.indices.tobytes()


def orderings_cached(grid):
    return sum(isinstance(key, tuple) and key[0] == "lu_order" for key in grid._cache)


def branch_jacobians(grid, variant, mu_min=0.45):
    p = make_params(variant)
    points = continuation.trace_branch(grid, p, mu_min).points
    return [jacobian(replace(p, mu=q.mu), q.state).matrix.tocsc() for q in points]


def assert_solves_like_splu(lu, a, rng):
    rhs = rng.standard_normal(a.shape[0])
    ref = splu(a, **LU_OPTIONS).solve(rhs)
    assert np.abs(lu.solve(rhs) - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.fixture
def recorded(monkeypatch):
    """Wrap each module's own splu and factor.  ``calls`` collects (module,
    kwargs) per splu call, ``factored`` (a copy of a, result) per factor call."""
    calls, factored = [], []
    for module in MODULES:
        name = module.__name__.rsplit(".", 1)[1]

        def recording(a, *args, _real=module.splu, _name=name, **kwargs):
            assert not args, "pass LU options by keyword"
            calls.append((_name, kwargs))
            return _real(a, **kwargs)

        monkeypatch.setattr(module, "splu", recording)
    for module in FACTORING_MODULES:

        def recording_factor(splu_, a, grid, _real=module.factor):
            lu = _real(splu_, a, grid)
            factored.append((a.tocsc(copy=True), lu))
            return lu

        monkeypatch.setattr(module, "factor", recording_factor)
    return calls, factored


@pytest.mark.parametrize("variant", BOTH)
def test_every_factorization_uses_the_shared_ordering(recorded, variant):
    grid = build_grid(16, refuge_box=REFUGE_BOX)  # a cold ordering cache
    p = make_params(variant)
    branch = continuation.trace_branch(grid, p, 0.45)
    # started off the solution, so that newton_solve factors J at least once
    newton.newton_solve(replace(p, mu=0.44), branch.points[-1].state)
    evolve_to_steady(p, branch.points[-1].state, TimeOptions(dt=1e-3, t_max=3e-3))
    analytics.bifurcation_data(grid, p)
    analytics.v_block_eigenvalue(grid, p, 0.4)

    calls, factored = recorded
    per_module = Counter(name for name, _ in calls)
    ordered = Counter(name for name, kwargs in calls if kwargs == LU_OPTIONS)
    preordered = Counter(name for name, kwargs in calls if kwargs == PREORDERED_LU_OPTIONS)
    assert set(per_module) == {"analytics", "continuation", "newton", "timestepping"}
    assert ordered + preordered == per_module
    nonlinear = variant is Diffusion.NONLINEAR

    # one ordering per pattern: J's (taken by the corrector, reused by
    # newton_solve) and, for the nonlinear variant, the IMEX prey matrix's
    patterns = {pattern(a) for a, _ in factored}
    assert len(patterns) == (2 if nonlinear else 1) == orderings_cached(grid)
    assert ordered["continuation"] == 1 and ordered["newton"] == 0
    # the predator LU, plus the prey pattern's ordering and one pre-ordered
    # prey LU per nonlinear step, or the one shared linear prey LU
    assert ordered["timestepping"] == 2
    assert preordered["timestepping"] == (3 if nonlinear else 0)
    assert per_module["timestepping"] == (5 if nonlinear else 2)
    assert sum(preordered.values()) == len(factored)

    # the pre-ordered factor has the fill of the direct one
    for a, lu in factored:
        assert lu.lu.nnz == splu(a, **LU_OPTIONS).nnz


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


class TestFactor:
    def test_reused_ordering_solves_each_matrix(self, refuge_grid_16):
        # the cached permuted pattern must survive each factorization intact
        rng = np.random.default_rng(0)
        grid = build_grid(16, refuge_box=REFUGE_BOX)
        jacs = branch_jacobians(refuge_grid_16, Diffusion.NONLINEAR)[-3:]
        assert len({pattern(a) for a in jacs}) == 1
        for a in jacs:
            assert_solves_like_splu(factor(splu, a, grid), a, rng)
        assert orderings_cached(grid) == 1

    def test_unsorted_indices_are_not_sorted_in_place(self, refuge_grid_16):
        rng = np.random.default_rng(1)
        grid = build_grid(16, refuge_box=REFUGE_BOX)
        a = branch_jacobians(refuge_grid_16, Diffusion.LINEAR)[-1]
        # the same matrix with the rows of each column stored in reverse
        order = np.concatenate(
            [np.arange(a.indptr[j + 1] - 1, a.indptr[j] - 1, -1) for j in range(a.shape[1])]
        )
        reversed_rows = sp.csc_matrix(
            (a.data[order], a.indices[order], a.indptr.copy()), shape=a.shape
        )
        assert not reversed_rows.has_canonical_format
        indices = reversed_rows.indices.copy()
        for _ in range(3):
            assert_solves_like_splu(factor(splu, reversed_rows, grid), a, rng)
        assert np.array_equal(reversed_rows.indices, indices)
        assert orderings_cached(grid) == 1

    def test_changed_pattern_gets_its_own_ordering(self, refuge_grid_16):
        rng = np.random.default_rng(2)
        grid = build_grid(16, refuge_box=REFUGE_BOX)
        a = branch_jacobians(refuge_grid_16, Diffusion.NONLINEAR)[-1]
        orderings = []

        def counting_splu(m, **kwargs):
            orderings.append(kwargs == LU_OPTIONS)
            return splu(m, **kwargs)

        factor(counting_splu, a, grid)
        pruned = a.tolil()
        pruned[0, 1] = 0.0
        pruned = pruned.tocsc()
        pruned.eliminate_zeros()
        assert pruned.nnz == a.nnz - 1
        assert_solves_like_splu(factor(counting_splu, pruned, grid), pruned, rng)
        assert orderings == [True, False, True, False]
        assert orderings_cached(grid) == 2

    def test_branches_and_newton_share_one_ordering(self, monkeypatch):
        grid = build_grid(16, refuge_box=REFUGE_BOX)
        orderings = Counter()
        for module in (continuation, newton):

            def counting(a, _real=module.splu, _module=module, **kwargs):
                orderings[_module.__name__] += kwargs == LU_OPTIONS
                return _real(a, **kwargs)

            monkeypatch.setattr(module, "splu", counting)
        for variant in BOTH:
            p = make_params(variant)
            last = continuation.trace_branch(grid, p, 0.45).points[-1]
            newton.newton_solve(replace(p, mu=0.44), last.state)  # off the solution
        assert sum(orderings.values()) == 1
        assert orderings_cached(grid) == 1
