"""Semi-implicit time stepping: equilibria, decay, steadiness, clamping."""

import numpy as np
import pytest
from scipy.sparse.linalg import splu

from refugebif import timestepping
from refugebif.errors import ParameterError
from refugebif.geometry import LU_OPTIONS, Region, ScalarField, integrate
from refugebif.model import Diffusion, ModelParams, State, residual, semi_trivial_state
from refugebif.timestepping import TimeOptions, _Stepper, _stale_lu_cg, evolve_to_steady, step

BOTH = [Diffusion.NONLINEAR, Diffusion.LINEAR]


def make_params(variant=Diffusion.NONLINEAR, **kw):
    defaults = dict(lam=1.0, mu=0.4, c=1.0, m=1.0, b=1.0)
    defaults.update(kw)
    return ModelParams(variant=variant, **defaults)


def positive_state(grid, u0=0.8, v0=0.1):
    return State(
        ScalarField.constant(grid, u0),
        ScalarField.constant(grid, v0, Region.EXTERIOR),
    )


class TestOptions:
    @pytest.mark.parametrize(
        "kw", [dict(dt=0.0), dict(dt=-1.0), dict(steady_tol=0.0), dict(t_max=-1.0),
               dict(dt=np.nan), dict(dt=np.inf), dict(t_max=np.inf), dict(steady_tol=np.inf)]
    )
    def test_invalid_rejected(self, kw):
        with pytest.raises(ParameterError):
            TimeOptions(**kw)


class TestStep:
    @pytest.mark.parametrize("variant", BOTH)
    @pytest.mark.parametrize("lam", [0.0, 1.0])
    def test_equilibria_are_fixed_points(self, refuge_grid_16, variant, lam):
        st = semi_trivial_state(refuge_grid_16, lam)
        advanced = step(make_params(variant, lam=max(lam, 0.5)), st, 1e-3)
        assert np.abs(advanced.u.values - st.u.values).max() < 1e-13
        assert np.abs(advanced.v.values - st.v.values).max() == 0.0

    def test_predator_mass_decays_above_onset(self, refuge_grid_16):
        # linearized decay rate mu - mu_lambda > 0
        p = make_params(mu=0.6)
        st = positive_state(refuge_grid_16, u0=1.0, v0=0.1)
        masses = [integrate(st.v, Region.EXTERIOR)]
        for _ in range(5):
            st = step(p, st, 1e-3)
            masses.append(integrate(st.v, Region.EXTERIOR))
        assert all(b < a for a, b in zip(masses, masses[1:]))

    def test_refuge_v_stays_zero(self, refuge_grid_16):
        st = positive_state(refuge_grid_16)
        for _ in range(3):
            st = step(make_params(), st, 1e-2)
            assert np.all(st.v.values[refuge_grid_16.refuge_mask] == 0.0)

    def test_invalid_dt_rejected(self, refuge_grid_16):
        for dt in (0.0, np.nan, np.inf):
            with pytest.raises(ParameterError):
                step(make_params(), positive_state(refuge_grid_16), dt)


class TestEvolveToSteady:
    @pytest.mark.parametrize("variant", BOTH)
    def test_predator_free_initial_data_recovers_carrying_capacity(
        self, refuge_grid_16, variant
    ):
        rng = np.random.default_rng(9)
        u0 = ScalarField(refuge_grid_16, rng.uniform(0.2, 1.5, refuge_grid_16.n_cells))
        v0 = ScalarField.constant(refuge_grid_16, 0.0, Region.EXTERIOR)
        p = make_params(variant)
        final, steady = evolve_to_steady(
            p, State(u0, v0), TimeOptions(dt=0.05, t_max=400.0, steady_tol=1e-9)
        )
        assert steady
        assert np.abs(final.u.values - p.lam).max() < 1e-6
        assert np.all(final.v.values == 0.0)

    def test_above_onset_returns_to_semi_trivial(self, refuge_grid_16):
        p = make_params(mu=0.6)  # 1.2 * mu_lambda
        final, steady = evolve_to_steady(
            p,
            positive_state(refuge_grid_16),
            TimeOptions(dt=0.05, t_max=500.0, steady_tol=1e-9),
        )
        assert steady
        assert np.abs(final.u.values - p.lam).max() < 1e-5
        assert np.abs(final.v.values).max() < 1e-5

    def test_steady_state_satisfies_model_residual(self, refuge_grid_16):
        opts = TimeOptions(dt=0.05, t_max=500.0, steady_tol=1e-9)
        p = make_params(mu=0.4)
        final, steady = evolve_to_steady(p, positive_state(refuge_grid_16), opts)
        assert steady
        assert np.abs(residual(p, final)).max() < 10.0 * opts.steady_tol

    def test_nonnegativity_each_step(self, refuge_grid_16):
        seen = []

        def observer(k, t, state, clamped):
            seen.append(
                (
                    float(state.u.values.min()),
                    float(state.v.values[refuge_grid_16.exterior_cells].min()),
                    float(np.abs(state.v.values[refuge_grid_16.refuge_mask]).max()),
                )
            )

        p = make_params(mu=0.3)
        evolve_to_steady(
            p,
            positive_state(refuge_grid_16, u0=0.05, v0=0.6),
            TimeOptions(dt=0.05, t_max=5.0),
            observer,
        )
        assert seen
        for u_min, v_min, v_refuge in seen:
            assert u_min >= 0.0 and v_min >= 0.0
            assert v_refuge == 0.0

    def test_timeout_flag_not_error(self, refuge_grid_16):
        final, steady = evolve_to_steady(
            make_params(),
            positive_state(refuge_grid_16),
            TimeOptions(dt=0.01, t_max=0.05, steady_tol=1e-14),
        )
        assert not steady

    def test_zero_horizon_returns_initial(self, refuge_grid_16):
        init = positive_state(refuge_grid_16)
        final, steady = evolve_to_steady(make_params(), init, TimeOptions(t_max=0.0))
        assert not steady
        assert np.array_equal(final.u.values, init.u.values)

    def test_observer_reports_every_step(self, refuge_grid_16):
        ticks = []
        evolve_to_steady(
            make_params(),
            positive_state(refuge_grid_16),
            TimeOptions(dt=0.01, t_max=0.1, steady_tol=1e-14),
            lambda k, t, s, c: ticks.append((k, t)),
        )
        assert [k for k, _ in ticks] == list(range(1, 11))

    @pytest.mark.parametrize("variant", BOTH)
    def test_one_shot_step_matches_evolve_path(self, refuge_grid_16, variant):
        # both entry points must run the same numerics bit for bit
        p = make_params(variant)
        init = positive_state(refuge_grid_16)
        states = []
        evolve_to_steady(
            p,
            init,
            TimeOptions(dt=0.02, t_max=0.02, steady_tol=1e-16, clamp_negative=False),
            lambda k, t, s, c: states.append(s),
        )
        via_step = step(p, init, 0.02)
        assert np.array_equal(states[0].u.values, via_step.u.values)
        assert np.array_equal(states[0].v.values, via_step.v.values)


class TestStaleLuSolve:
    """The nonlinear prey system is solved by CG on the last LU when that
    reaches the round-off floor of a direct solve, and by a fresh LU if not."""

    @pytest.mark.filterwarnings("ignore:clamped")
    @pytest.mark.parametrize("clamp", [True, False])
    @pytest.mark.parametrize("dt", [1e-3, 0.05])
    def test_evolve_matches_fresh_lu_steps(self, refuge_grid_16, dt, clamp):
        # a predator surge drives u below 0: clamped, or left negative so that
        # the prey matrix loses definiteness.  Every step() call builds a new
        # stepper, so it factors on every step.
        p = make_params(mu=0.3)
        state = positive_state(refuge_grid_16, u0=0.3, v0=1.5 / dt)
        opts = TimeOptions(dt=dt, t_max=300 * dt, steady_tol=1e-2, clamp_negative=clamp)
        evolved, clamped = [], []
        final, steady = evolve_to_steady(
            p, state, opts, lambda k, t, s, c: (evolved.append(s.pack()), clamped.append(c))
        )
        fresh = []
        for _ in evolved:
            new = step(p, state, dt)
            packed = np.maximum(new.pack(), 0.0) if clamp else new.pack()
            change = np.abs(packed - state.pack()).max() / dt
            state = State.unpack(refuge_grid_16, packed)
            fresh.append(packed)
            if change < opts.steady_tol:
                break
        assert len(fresh) == len(evolved) and steady == (change < opts.steady_tol)
        for a, b in zip(evolved, fresh):
            assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()
        if clamp:
            assert sum(clamped) > 0
        else:
            assert min(a.min() for a in evolved) < 0.0

    @pytest.mark.parametrize("dt", [1e-3, 0.05])
    def test_far_or_indefinite_matrix_is_refused(self, refuge_grid_16, dt):
        grid = refuge_grid_16
        stepper = _Stepper(make_params(), grid, dt)
        stale = np.full(grid.n_cells, 0.8)
        rng = np.random.default_rng(4)
        rhs = rng.standard_normal(grid.n_cells)
        far = rng.uniform(0.01, 5.0, grid.n_cells)
        indefinite = np.full(grid.n_cells, -1.0)  # negative face coefficients
        assert np.linalg.eigvalsh(stepper._prey_matrix(indefinite).toarray()).min() < 0.0
        for u in (far, indefinite):
            a = stepper._prey_matrix(u)
            stepper._lu = splu(stepper._prey_matrix(stale), **LU_OPTIONS)
            assert _stale_lu_cg(a, rhs, stepper._lu) is None
            fallback = stepper._solve_prey(u, rhs)
            assert np.array_equal(fallback, splu(a, **LU_OPTIONS).solve(rhs))

    def test_near_matrix_is_accepted_at_the_roundoff_floor(self, refuge_grid_16):
        grid = refuge_grid_16
        stepper = _Stepper(make_params(), grid, 0.05)
        u = np.random.default_rng(5).uniform(0.2, 1.5, grid.n_cells)
        rhs = u / 0.05
        a = stepper._prey_matrix(u)
        x, iters = _stale_lu_cg(a, rhs, splu(stepper._prey_matrix(1.001 * u), **LU_OPTIONS))
        assert 0 < iters <= timestepping.REFRESH_ITERS
        direct = splu(a, **LU_OPTIONS).solve(rhs)
        assert np.abs(x - direct).max() <= 1e-13 * np.abs(direct).max()

    @pytest.mark.parametrize("dt", [1e-3, 0.05])
    def test_few_factorizations_per_step(self, refuge_grid_16, monkeypatch, dt):
        lus = []

        def counting(a, **kwargs):
            lus.append(kwargs)
            return splu(a, **kwargs)

        monkeypatch.setattr(timestepping, "splu", counting)
        steps = []
        evolve_to_steady(
            make_params(),
            positive_state(refuge_grid_16),
            TimeOptions(dt=dt, t_max=200 * dt, steady_tol=1e-14),
            lambda k, t, s, c: steps.append(k),
        )
        assert len(steps) == 200
        assert len(lus) < len(steps) / 10


class TestPreyMatrix:
    @staticmethod
    def coo_build(grid, u, dt):
        """The frozen-flux prey matrix I/dt - div(ubar grad .), built face by
        face through COO (the reference for the fixed-pattern assembly)."""
        import scipy.sparse as sp

        from refugebif.geometry import _interior_faces

        rows, cols, vals = [], [], []
        for p, q, w in _interior_faces(grid, Region.ALL):
            coeff = 0.5 * (u[p] + u[q]) * w
            rows.extend([p, q, p, q])
            cols.extend([q, p, p, q])
            vals.extend([coeff, coeff, -coeff, -coeff])
        n = grid.n_cells
        flux = sp.coo_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(n, n),
        ).tocsc()
        return sp.identity(n, format="csc") / dt - flux

    @pytest.mark.parametrize("dt", [1e-3, 0.05])
    def test_fixed_pattern_matches_coo_build(self, refuge_grid_16, dt):
        from refugebif.timestepping import _Stepper

        grid = refuge_grid_16
        u = np.random.default_rng(3).uniform(0.01, 2.0, grid.n_cells)
        matrix = _Stepper(make_params(), grid, dt)._prey_matrix(u)
        ref = self.coo_build(grid, u, dt).toarray()
        assert np.abs(matrix.toarray() - ref).max() <= 1e-14 * np.abs(ref).max()
        assert matrix.nnz == np.count_nonzero(ref)
