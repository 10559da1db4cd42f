"""Residual and Jacobian assembly for both diffusion variants."""

import numpy as np
import pytest

from refugebif.errors import ParameterError, SingularResponseError
from refugebif.geometry import Region, ScalarField, build_grid, integrate, neumann_laplacian
from refugebif.model import (
    Diffusion,
    ModelParams,
    State,
    jacobian,
    nonlinear_diffusion,
    residual,
    semi_trivial_state,
)

from conftest import random_state

BOTH = [Diffusion.NONLINEAR, Diffusion.LINEAR]


def make_params(variant=Diffusion.NONLINEAR, **kw):
    defaults = dict(lam=1.0, mu=0.4, c=1.0, m=1.0, b=1.0)
    defaults.update(kw)
    return ModelParams(variant=variant, **defaults)


def flux_form_divergence(grid, u):
    """Independent oracle: loop-based div(ubar grad u) with arithmetic face means."""
    arr = u.reshape(grid.n_y, grid.n_x)
    out = np.zeros_like(arr)
    wx = (grid.n_x / grid.domain_length[0]) ** 2
    wy = (grid.n_y / grid.domain_length[1]) ** 2
    for j in range(grid.n_y):
        for i in range(grid.n_x - 1):
            flux = 0.5 * (arr[j, i] + arr[j, i + 1]) * (arr[j, i + 1] - arr[j, i]) * wx
            out[j, i] += flux
            out[j, i + 1] -= flux
    for j in range(grid.n_y - 1):
        for i in range(grid.n_x):
            flux = 0.5 * (arr[j, i] + arr[j + 1, i]) * (arr[j + 1, i] - arr[j, i]) * wy
            out[j, i] += flux
            out[j + 1, i] -= flux
    return out.ravel()


class TestModelParams:
    @pytest.mark.parametrize(
        "kw",
        [dict(lam=0.0), dict(lam=-1.0), dict(c=0.0), dict(b=-0.5), dict(d=0.0),
         dict(mu=-0.1), dict(m=-1.0), dict(lam=np.nan), dict(mu=np.nan),
         dict(lam=np.inf), dict(mu=np.inf), dict(c=np.inf), dict(m=np.inf), dict(b=np.inf),
         dict(d=np.inf)],
    )
    def test_invalid_rejected(self, kw):
        with pytest.raises(ParameterError):
            make_params(**kw)


class TestSemiTrivialState:
    def test_values(self, refuge_grid_16):
        st = semi_trivial_state(refuge_grid_16, 1.0)
        assert np.all(st.u.values == 1.0)
        assert np.all(st.v.values == 0.0)

    @pytest.mark.parametrize("variant", BOTH)
    @pytest.mark.parametrize("lam", [0.5, 1.0, 1.5])
    def test_exact_root(self, refuge_grid_16, variant, lam):
        st = semi_trivial_state(refuge_grid_16, lam)
        assert np.abs(residual(make_params(variant, lam=lam), st)).max() == 0.0

    def test_lam_zero_is_trivial_state(self, refuge_grid_16):
        st = semi_trivial_state(refuge_grid_16, 0.0)
        assert np.all(st.u.values == 0.0)
        assert np.abs(residual(make_params(), st)).max() == 0.0

    def test_negative_lam_rejected(self, refuge_grid_16):
        for lam in (-1.0, np.nan, np.inf):
            with pytest.raises(ParameterError):
                semi_trivial_state(refuge_grid_16, lam)


class TestNonlinearDiffusion:
    def test_constant_field_annihilated(self, refuge_grid_16):
        u = ScalarField.constant(refuge_grid_16, 1.5)  # dyadic: cancels exactly
        assert np.abs(nonlinear_diffusion(u).values).max() == 0.0
        u = ScalarField.constant(refuge_grid_16, 1.3)
        scale = 1.3**2 * refuge_grid_16.n_x**2
        assert np.abs(nonlinear_diffusion(u).values).max() < 1e-14 * scale

    def test_conservation(self, refuge_grid_16):
        rng = np.random.default_rng(3)
        for _ in range(5):
            u = ScalarField(refuge_grid_16, rng.uniform(0.0, 2.0, refuge_grid_16.n_cells))
            assert abs(integrate(nonlinear_diffusion(u), Region.ALL)) < 1e-11

    def test_flux_form_oracle_on_ramp(self):
        # 1D-like grid, x-linear ramp
        g = build_grid(32, 4)
        u = 0.5 + 0.8 * g.cell_x
        got = nonlinear_diffusion(ScalarField(g, u)).values
        expected = flux_form_divergence(g, u)
        assert np.abs(got - expected).max() < 1e-9 * max(1.0, np.abs(expected).max())

    def test_flux_form_oracle_random(self, refuge_grid_16):
        rng = np.random.default_rng(11)
        u = rng.uniform(0.1, 2.0, refuge_grid_16.n_cells)
        got = nonlinear_diffusion(ScalarField(refuge_grid_16, u)).values
        expected = flux_form_divergence(refuge_grid_16, u)
        assert np.abs(got - expected).max() < 1e-9 * np.abs(expected).max()


class TestResidual:
    def test_constant_coexistence_root_m0(self):
        # no refuge, m=0: hand-solved 2x2 algebra u*=mu/c, v*=(lam-u*)/b
        g = build_grid(12)
        lam, mu, c, b = 1.2, 0.7, 1.1, 0.9
        u_star = mu / c
        v_star = (lam - u_star) / b
        st = State(
            ScalarField.constant(g, u_star),
            ScalarField.constant(g, v_star, Region.EXTERIOR),
        )
        for variant in BOTH:
            p = ModelParams(lam=lam, mu=mu, c=c, m=0.0, b=b, variant=variant)
            assert np.abs(residual(p, st)).max() < 1e-14

    def test_row_layout(self, refuge_grid_16):
        st = semi_trivial_state(refuge_grid_16, 1.0)
        r = residual(make_params(), st)
        assert r.shape == (refuge_grid_16.n_cells + refuge_grid_16.n_exterior,)

    def test_singular_response_guard(self, refuge_grid_16):
        st = State(
            ScalarField.constant(refuge_grid_16, -1.0),
            ScalarField.constant(refuge_grid_16, 0.0, Region.EXTERIOR),
        )
        with pytest.raises(SingularResponseError):
            residual(make_params(m=1.0), st)

    def test_variant_agreement_on_constants(self, refuge_grid_16):
        # diffusion of a constant vanishes, so variants coincide there
        st = State(
            ScalarField.constant(refuge_grid_16, 0.75),
            ScalarField.constant(refuge_grid_16, 0.25, Region.EXTERIOR),
        )
        r_nl = residual(make_params(Diffusion.NONLINEAR), st)
        r_lin = residual(make_params(Diffusion.LINEAR), st)
        assert np.array_equal(r_nl, r_lin)

    @pytest.mark.parametrize("variant", BOTH)
    def test_prey_mass_identity(self, refuge_grid_16, variant):
        # the diffusion term integrates to zero, leaving only the reactions
        g = refuge_grid_16
        rng = np.random.default_rng(17)
        p = make_params(variant, m=0.6, b=1.3)
        st = random_state(g, rng)
        u, v = st.u.values, st.v.values
        prey = residual(p, st)[: g.n_cells]
        bf = np.where(g.refuge_mask, 0.0, p.b)
        reaction = p.lam * u - u * u - bf * u * v / (1.0 + p.m * u)
        lhs = integrate(ScalarField(g, prey), Region.ALL)
        rhs = integrate(ScalarField(g, reaction), Region.ALL)
        assert abs(lhs - rhs) < 1e-11


def bmat_jacobian(params, state):
    """Reference: J assembled block by block with sp.bmat, as ``jacobian``
    once was; SciPy's sparse sums drop the entries that come out zero."""
    import scipy.sparse as sp

    from refugebif.geometry import exterior_laplacian_block

    g, u, v = state.grid, state.u.values, state.v.values
    den = 1.0 + params.m * u
    den2 = den * den
    bf = np.where(g.refuge_mask, 0.0, params.b)
    ext, n = g.exterior_cells, g.n_cells
    lap = neumann_laplacian(g, Region.ALL).matrix
    a_uu = lap @ sp.diags(u) if params.variant is Diffusion.NONLINEAR else lap
    a_uu = a_uu + sp.diags(params.lam - 2.0 * u - bf * v / den2)
    a_uv = sp.csr_matrix(
        (-bf[ext] * u[ext] / den[ext], (ext, np.arange(ext.size))), shape=(n, ext.size)
    )
    a_vu = sp.csr_matrix(
        (params.c * v[ext] / den2[ext], (np.arange(ext.size), ext)), shape=(ext.size, n)
    )
    a_vv = exterior_laplacian_block(g) + sp.diags(-params.mu + params.c * u[ext] / den[ext])
    return sp.bmat([[a_uu, a_uv], [a_vu, a_vv]], format="csr")


class TestJacobian:
    @pytest.mark.parametrize("variant", BOTH)
    @pytest.mark.parametrize("n", [8, 16])
    def test_cached_pattern_matches_bmat_assembly(self, variant, n):
        from scipy.sparse.linalg import norm as sparse_norm

        from refugebif.geometry import row_sum_norm

        g = build_grid(n, refuge_box=(0.25, 0.25, 0.5, 0.5))
        st = random_state(g, np.random.default_rng(n))
        p = make_params(variant, lam=1.2, c=0.9, m=0.7, b=1.4)
        jac, ref = jacobian(p, st).matrix, bmat_jacobian(p, st)
        assert ref.nnz == jac.nnz  # a positive state: bmat drops nothing
        for name in ("indptr", "indices", "data"):
            np.testing.assert_array_equal(getattr(jac, name), getattr(ref, name))
        norm = sparse_norm(ref, np.inf)
        assert abs(row_sum_norm(jac) - norm) <= 1e-15 * norm

        # one u cell exactly 0: bmat drops the entries of L diag(u) in its
        # column, the cached pattern keeps them as explicit zeros
        u = st.u.values.copy()
        u[g.exterior_cells[0]] = 0.0
        zeroed = State(ScalarField(g, u, Region.ALL), st.v)
        jac0, ref0 = jacobian(p, zeroed).matrix, bmat_jacobian(p, zeroed)
        assert jac0.nnz == jac.nnz
        np.testing.assert_array_equal(jac0.toarray(), ref0.toarray())

    @pytest.mark.parametrize("variant", BOTH)
    @pytest.mark.parametrize("n,seed", [(8, 0), (8, 1), (16, 2)])
    def test_matches_finite_differences(self, variant, n, seed):
        g = build_grid(n, refuge_box=(0.25, 0.25, 0.5, 0.5))
        rng = np.random.default_rng(seed)
        st = random_state(g, rng)
        p = make_params(variant, lam=1.2, c=0.9, m=0.7, b=1.4)
        jac = jacobian(p, st).matrix.toarray()
        x = st.pack()
        fd = np.empty_like(jac)
        for k in range(x.size):
            h = 1e-6 * max(1.0, abs(x[k]))
            xp, xm = x.copy(), x.copy()
            xp[k] += h
            xm[k] -= h
            fd[:, k] = (
                residual(p, State.unpack(g, xp)) - residual(p, State.unpack(g, xm))
            ) / (2.0 * h)
        assert np.abs(jac - fd).max() / np.abs(jac).max() < 1e-6

    def test_kept_constants_follow_the_parameters(self):
        # the grid keeps J's pattern with L and the exterior block in it, and
        # the last predation field: after traces with another b, lambda or
        # variant on one grid, J and the residual are a fresh grid's, bitwise
        from dataclasses import replace

        from refugebif.analytics import bifurcation_point
        from refugebif.continuation import trace_branch

        box = (0.25, 0.25, 0.5, 0.5)
        grid = build_grid(8, refuge_box=box)
        first = make_params()
        for p in (first, replace(first, b=1.6), replace(first, lam=1.5),
                  replace(first, variant=Diffusion.LINEAR, b=0.7)):
            p = replace(p, mu=0.9 * bifurcation_point(p))
            state = trace_branch(grid, p, p.mu).points[-1].state
            again = State.unpack(build_grid(8, refuge_box=box), state.pack())
            jac, fresh = jacobian(p, state).matrix, jacobian(p, again).matrix
            np.testing.assert_array_equal(jac.data, fresh.data)
            np.testing.assert_array_equal(residual(p, state), residual(p, again))

    @pytest.mark.parametrize("variant", BOTH)
    def test_csr_matvec_is_scipys_product(self, refuge_grid_16, variant):
        # csr_matvec calls SciPy's private kernel: a SciPy that renames it or
        # changes its arithmetic fails here
        from refugebif.geometry import csr_matvec

        rng = np.random.default_rng(3)
        jac = jacobian(make_params(variant), random_state(refuge_grid_16, rng)).matrix
        x = rng.standard_normal(jac.shape[1] + 1)
        out = np.full(jac.shape[0] + 1, np.nan)
        csr_matvec(jac, x[:-1], out[:-1])
        np.testing.assert_array_equal(out[:-1], jac @ x[:-1])
        assert np.isnan(out[-1])

    def test_v_block_action_at_semi_trivial(self, refuge_grid_16):
        # on a constant beta the v-block acts as (-mu + c*lam/(1+m*lam)) * beta
        g = refuge_grid_16
        p = make_params(mu=0.3)
        jac = jacobian(p, semi_trivial_state(g, p.lam)).matrix
        beta = np.zeros(g.n_cells + g.n_exterior)
        beta[g.n_cells :] = 1.0
        action = (jac @ beta)[g.n_cells :]
        expected = -p.mu + p.c * p.lam / (1.0 + p.m * p.lam)
        assert np.abs(action - expected).max() < 1e-12

    def test_m0_predation_coupling(self, refuge_grid_16):
        # Holling-II denominator is 1: couplings are plain -b*u and -b*v
        g = refuge_grid_16
        rng = np.random.default_rng(5)
        st = random_state(g, rng)
        p = make_params(m=0.0, b=1.7)
        jac = jacobian(p, st).matrix
        n, ext = g.n_cells, g.exterior_cells
        bf = np.where(g.refuge_mask, 0.0, p.b)
        a_uv = jac[:n, n:].toarray()
        expected_uv = np.zeros_like(a_uv)
        expected_uv[ext, np.arange(ext.size)] = -bf[ext] * st.u.values[ext]
        assert np.abs(a_uv - expected_uv).max() < 1e-14
        # strip the L*diag(u) part: what remains on the diagonal is lam - 2u - b*v
        lap_diag = neumann_laplacian(g, Region.ALL).matrix.diagonal()
        u_diag = jac[:n, :n].diagonal() - lap_diag * st.u.values
        expected_diag = p.lam - 2.0 * st.u.values - bf * st.v.values
        assert np.abs(u_diag - expected_diag).max() < 1e-12
