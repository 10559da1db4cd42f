"""Semi-implicit time stepping: equilibria, decay, steadiness, clamping."""

import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import SuperLU, spsolve, splu

from conftest import REFUGE_BOX, random_state, rough_u
from refugebif import timestepping
from refugebif.continuation import solve_at_mu, trace_branch
from refugebif.errors import ParameterError
from refugebif.geometry import (
    LU_OPTIONS, Region, ScalarField, build_grid, dct_solver, dia_matvec, exterior_laplacian_block,
    integrate, neumann_laplacian, predation_field, row_sum_norm,
)
from refugebif.model import (
    Diffusion, ModelParams, State, _holling_denominator, jacobian, residual, semi_trivial_state,
)
from refugebif.timestepping import (
    TimeOptions, _preconditioned_cg, _Stepper, evolve_to_steady, step,
)

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


def prey_matrix(stepper, u):
    """The stepper's nonlinear prey matrix A for the frozen u, in CSC form."""
    stepper._write_diagonals(u)
    return stepper._a.tocsc()


def direct_prey_solve(stepper, u, rhs):
    """The reference nonlinear prey solve: a fresh LU of A and a direct solve."""
    return splu(prey_matrix(stepper, u), **LU_OPTIONS).solve(rhs)


def matvec(a):
    """``_preconditioned_cg``'s product ``(x, out) -> a @ x in out`` for a
    matrix, or a stand-in that defines ``@``."""
    return lambda x, out: np.copyto(out, a @ x) or out


def is_lu(solve):
    """Whether a preconditioner is an LU's solve rather than a DCT solve."""
    return isinstance(getattr(solve, "__self__", None), SuperLU)


class TestOptions:
    @pytest.mark.parametrize(
        "kw", [dict(dt=0.0), dict(dt=-1.0), dict(steady_tol=0.0), dict(t_max=-1.0),
               dict(dt=np.nan), dict(dt=np.inf), dict(t_max=np.inf), dict(steady_tol=np.inf),
               dict(t_max=1e300, dt=1e-300)]
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

    @pytest.mark.parametrize("variant", BOTH)
    def test_predation_on_exterior_cells_matches_the_full_grid_term(self, refuge_grid_16, variant):
        # the step takes b as a constant, so predation reaches exterior cells
        # only through v, which is zero on the refuge; it must give the prey
        # update of the full-grid term b(x) u v / den bit for bit, with b(x)
        # zero on the refuge
        grid, dt = refuge_grid_16, 0.01
        p = make_params(variant, b=1.3)
        rng = np.random.default_rng(8)
        u = rng.uniform(0.0, 1.5, grid.n_cells)
        v_ext = rng.uniform(0.0, 0.5, grid.n_exterior)
        v_full = np.zeros(grid.n_cells)
        v_full[grid.exterior_cells] = v_ext
        bf = predation_field(grid, p.b).values
        rhs = u * ((1.0 / dt + p.lam) - u - bf * (v_full / _holling_denominator(p, u)))
        u_new, _ = _Stepper(p, grid, dt).advance(u, v_full)
        fresh = _Stepper(p, grid, dt)
        ref = fresh.prey_solve(rhs) if fresh.prey_solve else fresh._solve_prey(u, rhs)
        assert np.array_equal(u_new, ref)

    @pytest.mark.parametrize("variant", BOTH)
    def test_steppers_share_the_grids_solvers(self, variant):
        # the capacitance matrix of the predator solver is built once per
        # (grid, dt, d), not once per step() call
        grid = build_grid(16, refuge_box=(0.25, 0.25, 0.75, 0.75))
        p = make_params(variant)
        first = _Stepper(p, grid, 0.01)
        second = _Stepper(p, grid, 0.01)
        assert second.pred_solve is first.pred_solve
        assert second.prey_solve is first.prey_solve
        other_dt = _Stepper(p, grid, 0.02)
        assert other_dt.pred_solve is not first.pred_solve
        if variant is Diffusion.LINEAR:
            assert other_dt.prey_solve is not first.prey_solve
        assert _Stepper(replace(p, d=0.5), grid, 0.02).pred_solve is not other_dt.pred_solve

    @pytest.mark.parametrize("n", [16, 24])
    def test_linear_step_matches_the_assembled_systems(self, n):
        # one step solves I/dt - L on every cell and I/dt - d L_ext on the
        # packed exterior unknowns; v is 0 on the refuge before and after
        grid, dt = build_grid(n, refuge_box=(0.25, 0.375, 0.625, 0.75)), 0.05
        p = make_params(Diffusion.LINEAR, d=0.7)
        st = random_state(grid, np.random.default_rng(n))
        u, v = st.u.values, st.v.values
        u_new, v_new = _Stepper(p, grid, dt).advance(u, v)

        den = _holling_denominator(p, u)
        ext = grid.exterior_cells
        lap, block = neumann_laplacian(grid, Region.ALL).matrix, exterior_laplacian_block(grid)
        prey = (sp.identity(grid.n_cells, format="csr") / dt - lap).tocsc()
        u_ref = spsolve(prey, u / dt + p.lam * u - u * u - p.b * u * v / den)
        pred = (sp.identity(ext.size, format="csr") / dt - p.d * block).tocsc()
        v_ref = spsolve(pred, (v / dt - p.mu * v + p.c * u * v / den)[ext])
        assert np.abs(u_new - u_ref).max() <= 1e-12 * np.abs(u_ref).max()
        assert np.abs(v_new[ext] - v_ref).max() <= 1e-12 * np.abs(v_ref).max()
        assert v_new.shape == (grid.n_cells,) and np.all(v_new[grid.refuge_mask] == 0.0)

    def test_invalid_dt_rejected(self, refuge_grid_16):
        for dt in (0.0, np.nan, np.inf):
            with pytest.raises(ParameterError):
                step(make_params(), positive_state(refuge_grid_16), dt)


    @pytest.mark.parametrize("variant", BOTH)
    def test_advance_returns_arrays_of_its_own(self, refuge_grid_16, variant):
        # the stepper rewrites its right-hand sides in kept buffers each step;
        # the arrays a step returns are never those buffers
        stepper = _Stepper(make_params(variant), refuge_grid_16, 0.05)
        init = random_state(refuge_grid_16, np.random.default_rng(4))
        first = stepper.advance(init.u.values, init.v.values)
        kept = [x.copy() for x in first]
        second = stepper.advance(*first)
        for x, x_kept, y in zip(first, kept, second):
            assert np.array_equal(x, x_kept)
            assert not np.shares_memory(x, y)


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

    @pytest.mark.parametrize("rough", [False, True])
    def test_one_shot_nonlinear_step_factors_only_a_rough_u(
        self, refuge_grid_16, monkeypatch, rough
    ):
        # from a uniform u, step() solves the prey system by CG with the DCT
        # preconditioner and factors nothing; a random u is too rough for it,
        # so step() factors.  Either way it is evolve_to_steady's first step
        # bit for bit.
        grid, p, dt = refuge_grid_16, make_params(), 0.05
        init = positive_state(grid, u0=0.5)
        if rough:
            u = np.random.default_rng(13).uniform(0.2, 1.5, grid.n_cells)
            init = State(ScalarField(grid, u), init.v)
        lus = []

        def counting(a, **kwargs):
            lus.append(kwargs)
            return splu(a, **kwargs)

        monkeypatch.setattr(timestepping, "splu", counting)
        via_step = step(p, init, dt)
        assert len(lus) == (1 if rough else 0)
        states = []
        evolve_to_steady(
            p, init, TimeOptions(dt=dt, t_max=dt, steady_tol=1e-16, clamp_negative=False),
            lambda k, t, s, c: states.append(s),
        )
        assert np.array_equal(states[0].pack(), via_step.pack())

    def test_small_mu_steady_state_matches_the_traced_branch(self, refuge_grid_16):
        # The integrator as an independent route to a branch state at small
        # mu.  One Newton correction d of the IMEX end state gives the end
        # state's error to first order, so its exterior mean of v predicts
        # the avg_v gap; twice that bound leaves room for a second-order
        # remainder as large as the first-order term.
        grid = refuge_grid_16
        p = make_params(mu=0.004)
        with pytest.warns(RuntimeWarning, match="clamped"):
            final, steady = evolve_to_steady(
                p, positive_state(grid, 0.5, 0.1),
                TimeOptions(dt=0.05, t_max=3000.0, steady_tol=1e-8),
            )
        assert steady
        branch = trace_branch(grid, p, 0.004)
        on_branch, report = solve_at_mu(branch, 0.004)
        assert report.converged
        d = spsolve(jacobian(p, final).matrix.tocsc(), -residual(p, final))
        ext = grid.exterior_cells
        predicted = abs(d[grid.n_cells:].mean())
        avg_v = on_branch.v.values[ext].mean()
        assert predicted <= 1e-5 * avg_v
        assert abs(final.v.values[ext].mean() - avg_v) <= 2.0 * predicted


    @pytest.mark.parametrize(
        "variant,dt,dies_at",
        [(Diffusion.NONLINEAR, 2.0, 6), (Diffusion.LINEAR, 2.0, 6),
         (Diffusion.LINEAR, 1.0, 11), (Diffusion.NONLINEAR, 1.0, None)],
    )
    def test_a_run_that_kills_the_prey_warns(self, refuge_grid_16, variant, dt, dies_at):
        # at mu = 1e-3 a large dt undershoots u and clamps it to 0 everywhere,
        # the prey-free state's basin, so the run stops there; dt = 1 keeps
        # the nonlinear run on the positive steady state
        p, init = make_params(variant, mu=1e-3), positive_state(refuge_grid_16, 0.5, 0.1)
        opts = TimeOptions(dt=dt, t_max=1e4)
        if dies_at:
            steps = []
            with pytest.warns(RuntimeWarning) as caught:
                final, steady = evolve_to_steady(
                    p, init, opts, lambda k, t, s, c: steps.append(s.u.values.any())
                )
            # a few steps clamp a large share of the run's cell-steps
            messages = sorted(str(w.message).split()[0] for w in caught)
            assert messages == ["clamped", "prey"]
            assert f"t = {dies_at * dt:g}," in str(caught[-1].message)
            assert len(steps) == dies_at and all(steps[:-1]) and not steps[-1]
            assert not steady and not final.u.values.any()
        else:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                final, steady = evolve_to_steady(p, init, opts)
            assert not [w for w in caught if "prey died out" in str(w.message)]
            assert steady and final.u.values.max() > 0.0


class TestStaleLuSolve:
    """The nonlinear prey system is solved by CG with the kept preconditioner,
    a DCT solve or the last LU, when that reaches the round-off floor of a
    direct solve; by a fresh DCT preconditioner if not, and by a fresh LU if
    that is refused too."""

    @pytest.mark.filterwarnings("ignore:clamped")
    @pytest.mark.parametrize("clamp", [True, False])
    @pytest.mark.parametrize("dt", [1e-3, 0.05])
    def test_evolve_matches_fresh_lu_steps(self, refuge_grid_16, monkeypatch, dt, clamp):
        # a predator surge drives u below 0: clamped, or left negative so that
        # the prey matrix loses definiteness.  The reference steps by step()
        # with a fresh LU and a direct prey solve on every step.
        p = make_params(mu=0.3)
        state = positive_state(refuge_grid_16, u0=0.3, v0=1.5 / dt)
        opts = TimeOptions(dt=dt, t_max=300 * dt, steady_tol=1e-2, clamp_negative=clamp)
        evolved, clamped = [], []
        final, steady = evolve_to_steady(
            p, state, opts, lambda k, t, s, c: (evolved.append(s.pack()), clamped.append(c))
        )
        monkeypatch.setattr(_Stepper, "_solve_prey", direct_prey_solve)
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
        assert np.linalg.eigvalsh(prey_matrix(stepper, indefinite).toarray()).min() < 0.0
        for u in (far, indefinite):
            a = prey_matrix(stepper, u)
            stepper._precond = splu(prey_matrix(stepper, stale), **LU_OPTIONS).solve
            x0 = stepper._precond(rhs)
            assert _preconditioned_cg(
                matvec(a), rhs, stepper._precond, x0, row_sum_norm(a)
            ) is None
            # the refreshed DCT preconditioner is refused too, so the step
            # falls back to a direct solve
            fallback = stepper._solve_prey(u, rhs)
            assert np.array_equal(fallback, splu(a, **LU_OPTIONS).solve(rhs))
            assert is_lu(stepper._precond)

    def test_fresh_dct_attempt_stops_before_the_lu(self, refuge_grid_16, monkeypatch):
        # on a rough u, CG with a freshly built DCT preconditioner is refused;
        # it gives up after REFRESH_ITERS + 1 solves, not MAX_CG_ITERS, and
        # the step factors the prey matrix
        grid = refuge_grid_16
        events = []
        dct = timestepping.dct_solver

        def counting_dct(*args):
            solve = dct(*args)
            return lambda r: events.append("dct") or solve(r)

        monkeypatch.setattr(timestepping, "dct_solver", counting_dct)
        monkeypatch.setattr(
            timestepping, "splu", lambda a, **kw: events.append("lu") or splu(a, **kw)
        )
        stepper = _Stepper(make_params(), grid, 0.05)
        v = ScalarField.constant(grid, 0.1, Region.EXTERIOR).values
        stepper.advance(np.abs(rough_u(grid, 0)), v)
        assert events == ["dct"] * (timestepping.REFRESH_ITERS + 1) + ["lu"]
        assert is_lu(stepper._precond)

    def test_near_matrix_is_accepted_at_the_roundoff_floor(self, refuge_grid_16):
        grid = refuge_grid_16
        stepper = _Stepper(make_params(), grid, 0.05)
        u = np.random.default_rng(5).uniform(0.2, 1.5, grid.n_cells)
        rhs = u / 0.05
        a = prey_matrix(stepper, u)
        lu = splu(prey_matrix(stepper, 1.001 * u), **LU_OPTIONS)
        x, iters = _preconditioned_cg(matvec(a), rhs, lu.solve, lu.solve(rhs), row_sum_norm(a))
        assert 0 < iters <= timestepping.REFRESH_ITERS
        direct = splu(a, **LU_OPTIONS).solve(rhs)
        assert np.abs(x - direct).max() <= 1e-13 * np.abs(direct).max()

    def test_start_at_the_solution_takes_no_solve(self, refuge_grid_16):
        grid = refuge_grid_16
        a = prey_matrix(_Stepper(make_params(), grid, 0.05), np.full(grid.n_cells, 0.8))
        lu = splu(a, **LU_OPTIONS)
        rhs = np.random.default_rng(6).standard_normal(grid.n_cells)
        x0 = lu.solve(rhs)
        start = x0.copy()

        calls = []

        def counting(r):
            calls.append(1)
            return lu.solve(r)

        products = []

        class Counting:
            def __matmul__(self, v):
                products.append(1)
                return a @ v

        x, iters = _preconditioned_cg(matvec(Counting()), rhs, counting, x0, row_sum_norm(a))
        assert iters == 0 and not calls and len(products) == 1
        assert x is not x0 and np.array_equal(x, start)
        x[:] = -1.0
        assert np.array_equal(x0, start)

    def test_solutions_are_not_kept_buffers(self, refuge_grid_16):
        # CG's products and updates, and the stepper's extrapolated start,
        # go through kept arrays; a returned x is none of them, so later
        # solves on the same stepper leave it as it was
        grid, dt = refuge_grid_16, 0.05
        stepper = _Stepper(make_params(), grid, dt)
        u = 0.8 + 0.02 * np.cos(2 * np.pi * grid.cell_x) * np.cos(np.pi * grid.cell_y)
        rhs = np.random.default_rng(16).standard_normal(grid.n_cells)
        a_norm = stepper._write_diagonals(u)
        solve = dct_solver(grid, 1.0 / dt, u.mean())
        x, _ = _preconditioned_cg(stepper._matvec, rhs, solve, u, a_norm)
        solved = [(x, x.copy())]
        _preconditioned_cg(stepper._matvec, 2.0 * rhs, solve, x, a_norm)
        for k in range(4):  # the starts u, then 2 u - u_1, then 3 (u - u_1) + u_2
            x = stepper._solve_prey((1.0 + 0.01 * k) * u, rhs)
            assert x is not stepper._x0
            solved.append((x, x.copy()))
        for x, copy in solved:
            assert np.array_equal(x, copy)

    def test_both_preconditioners_accept_only_at_the_roundoff_floor(
        self, refuge_grid_16, monkeypatch
    ):
        # on a smooth u, CG with the DCT solve at the mean of u and CG with
        # the LU of a nearby matrix are accepted at the round-off floor of a
        # direct solve; with the floor set 100 times lower, neither is
        grid, dt = refuge_grid_16, 0.05
        stepper = _Stepper(make_params(), grid, dt)
        u = 0.8 + 0.02 * np.cos(2 * np.pi * grid.cell_x) * np.cos(np.pi * grid.cell_y)
        rhs = np.random.default_rng(14).standard_normal(grid.n_cells)
        a = prey_matrix(stepper, u)
        a_norm = row_sum_norm(a)
        direct = splu(a, **LU_OPTIONS).solve(rhs)
        preconditioners = (
            dct_solver(grid, 1.0 / dt, u.mean()),
            splu(prey_matrix(stepper, 1.001 * u), **LU_OPTIONS).solve,
        )
        eps = np.finfo(float).eps
        for solve in preconditioners:
            x, iters = _preconditioned_cg(matvec(a), rhs, solve, u, a_norm)
            assert iters > 0
            floor = 10.0 * eps * (a_norm * np.abs(x).max() + np.abs(rhs).max())
            assert np.abs(rhs - a @ x).max() <= floor
            assert np.abs(x - direct).max() <= 1e-13 * np.abs(direct).max()
        monkeypatch.setattr(timestepping, "ROUNDOFF_FACTOR", 0.1)
        for solve in preconditioners:
            assert _preconditioned_cg(matvec(a), rhs, solve, u, a_norm) is None

    def test_a_vanishing_right_hand_side_is_solved_scaled(self, refuge_grid_16):
        # at |b| ~ 1e-181, r.z and p.Ap would underflow to 0; CG runs on b and
        # x0 scaled by a power of two, which it follows exactly
        grid, dt = refuge_grid_16, 0.05
        stepper = _Stepper(make_params(), grid, dt)
        u = 0.8 + 0.02 * np.cos(2 * np.pi * grid.cell_x) * np.cos(np.pi * grid.cell_y)
        rhs = np.random.default_rng(15).standard_normal(grid.n_cells)
        a = prey_matrix(stepper, u)
        solve = dct_solver(grid, 1.0 / dt, u.mean())
        x, iters = _preconditioned_cg(matvec(a), rhs, solve, u, row_sum_norm(a))
        tiny = 2.0**-600
        x_tiny, iters_tiny = _preconditioned_cg(
            matvec(a), tiny * rhs, solve, tiny * u, row_sum_norm(a)
        )
        assert iters_tiny == iters > 0
        assert np.array_equal(x_tiny, tiny * x)

    def test_vanishing_prey_takes_no_lu(self, monkeypatch):
        # u ~ 1e-160 on a grid without a refuge: each step's CG is scaled,
        # and none falls back to an LU of the prey matrix
        grid = build_grid(16)
        factored = []
        monkeypatch.setattr(
            timestepping, "splu", lambda a, **kw: factored.append(1) or splu(a, **kw)
        )
        state = positive_state(grid, u0=1e-160)
        final, _ = evolve_to_steady(make_params(mu=1e-3), state, TimeOptions(dt=0.05, t_max=1.0))
        assert not factored
        assert 0.0 < final.u.values.min() <= final.u.values.max() < 1e-150

    @pytest.mark.parametrize("precond", ["dct", "lu"])
    @pytest.mark.parametrize("seed", range(3))
    def test_acceptance_is_confirmed_on_the_true_residual(self, refuge_grid_16, precond, seed):
        # products perturbed by about 1e-14 relative make the recursive
        # residual drift from the true one at the round-off floor: CG forms
        # the true residual b - A x when the recursive one passes, and if it
        # is refused, goes on from it with p reset to the preconditioned
        # true residual.  It accepts only an iterate whose own product
        # passes, or returns None.
        grid, dt = refuge_grid_16, 0.05
        stepper = _Stepper(make_params(), grid, dt)
        u = 0.8 + 0.02 * np.cos(2 * np.pi * grid.cell_x) * np.cos(np.pi * grid.cell_y)
        rng = np.random.default_rng(seed)
        rhs = rng.standard_normal(grid.n_cells)
        a = prey_matrix(stepper, u)
        a_norm = row_sum_norm(a)
        direct = splu(a, **LU_OPTIONS).solve(rhs)
        solve = (dct_solver(grid, 1.0 / dt, u.mean()) if precond == "dct"
                 else splu(prey_matrix(stepper, 1.001 * u), **LU_OPTIONS).solve)
        products = []

        class Perturbed:
            def __matmul__(self, v):
                out = (a @ v) * (1.0 + 1e-14 * rng.standard_normal(v.size))
                products.append((v.copy(), out))
                return out

        solved = _preconditioned_cg(matvec(Perturbed()), rhs, solve, u, a_norm)
        # the products of an iterate after the start: its true residuals
        near = 1e-6 * np.abs(direct).max()
        checks = [i for i, (v, _) in enumerate(products) if i and np.abs(v - direct).max() <= near]
        refused = [i for i in checks if i < len(products) - 1]
        assert refused
        for i in refused:
            # CG goes on from the refused true residual with p = solve(r)
            assert np.array_equal(products[i + 1][0], solve(rhs - products[i][1]))
        if solved is not None:
            x, iters = solved
            v, out = products[-1]
            floor = 10.0 * np.finfo(float).eps * (a_norm * np.abs(x).max() + np.abs(rhs).max())
            assert np.array_equal(v, x) and np.abs(rhs - out).max() <= floor
            assert len(products) == 1 + iters + len(checks)

    def test_one_true_residual_per_accepted_solve(self, refuge_grid_16, monkeypatch):
        # CG forms b - A x at the start and once more to confirm that the
        # recursive residual passes, and makes one product A p per
        # iteration: k + 2 products for a solve accepted after k >= 1
        # iterations (1 for a start that passes), not 2k + 1.  A refused
        # confirmation adds one, and is rare on a smooth run.
        cg = timestepping._preconditioned_cg
        calls = []

        class Counting:
            def __init__(self, product):
                self.product, self.products = product, 0

            def __call__(self, x, out):
                self.products += 1
                return self.product(x, out)

        def counting_cg(product, b, solve, *args):
            counting = Counting(product)
            solved = cg(counting, b, solve, *args)
            if solved is not None:
                calls.append((counting.products, solved[1]))
            return solved

        monkeypatch.setattr(timestepping, "_preconditioned_cg", counting_cg)
        _, steady = evolve_to_steady(
            make_params(), positive_state(refuge_grid_16, u0=0.5, v0=0.1),
            TimeOptions(dt=0.05, t_max=500.0, steady_tol=1e-6),
        )
        assert steady and len(calls) > 1000
        assert all(products >= iters + 2 for products, iters in calls if iters > 0)
        assert sum(products > iters + 2 for products, iters in calls if iters > 0) < len(calls) / 100

    @pytest.mark.filterwarnings("ignore:clamped")
    @pytest.mark.parametrize("mu,t_max", [(0.4, 500.0), (0.02, 50.0)])
    def test_evolve_matches_a_direct_solve_on_every_step(
        self, refuge_grid_16, monkeypatch, mu, t_max
    ):
        # mu = 0.4 stays smooth and runs on the DCT preconditioner alone;
        # at mu = 0.02 the predators drive the exterior prey into the dead
        # zone, where u is too rough for it and the stepper keeps an LU
        grid = refuge_grid_16
        p = make_params(mu=mu)
        opts = TimeOptions(dt=0.05, t_max=t_max, steady_tol=1e-6)
        lus, on_lu = [], []
        cg = timestepping._preconditioned_cg

        def counting_splu(a, **kwargs):
            lus.append(kwargs)
            return splu(a, **kwargs)

        def counting_cg(product, b, solve, *args):
            solved = cg(product, b, solve, *args)
            on_lu.append(is_lu(solve) and solved is not None)
            return solved

        def run():
            states = []
            _, steady = evolve_to_steady(
                p, positive_state(grid, u0=0.5, v0=0.1), opts,
                lambda k, t, s, c: states.append(s.pack()),
            )
            return states, steady

        monkeypatch.setattr(timestepping, "splu", counting_splu)
        monkeypatch.setattr(timestepping, "_preconditioned_cg", counting_cg)
        evolved, steady = run()
        monkeypatch.setattr(_Stepper, "_solve_prey", direct_prey_solve)
        direct, direct_steady = run()
        assert len(evolved) == len(direct) and steady == direct_steady
        for a, b in zip(evolved, direct):
            assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()
        if mu == 0.4:
            assert steady and not lus
        else:
            # fewer LUs than steps, and CG on a kept LU accepted on some steps
            assert 0 < len(lus) < len(evolved) and sum(on_lu) > len(lus)

    @pytest.mark.parametrize("variant", BOTH)
    def test_evolve_releases_the_kept_lu(self, refuge_grid_16, monkeypatch, variant):
        # a freed LU left in the heap adds its pages to the caller's next
        # allocations, so evolve_to_steady trims once it has dropped one
        trims = []
        monkeypatch.setattr(timestepping, "release_free_memory", lambda: trims.append(1))
        evolve_to_steady(
            make_params(variant), positive_state(refuge_grid_16),
            TimeOptions(dt=0.01, t_max=0.05, steady_tol=1e-14),
        )
        assert len(trims) == (1 if variant is Diffusion.NONLINEAR else 0)

    @staticmethod
    def count_lus(monkeypatch, params, state, dt):
        """Factorizations made by 200 steps of evolve_to_steady."""
        lus = []

        def counting(a, **kwargs):
            lus.append(kwargs)
            return splu(a, **kwargs)

        monkeypatch.setattr(timestepping, "splu", counting)
        steps = []
        evolve_to_steady(
            params, state,
            TimeOptions(dt=dt, t_max=200 * dt, steady_tol=1e-14),
            lambda k, t, s, c: steps.append(k),
        )
        assert len(steps) == 200
        return len(lus)

    @pytest.mark.parametrize("dt", [1e-3, 0.05])
    def test_few_factorizations_per_step(self, refuge_grid_16, monkeypatch, dt):
        assert self.count_lus(monkeypatch, make_params(), positive_state(refuge_grid_16), dt) < 20

    def test_fast_transient_keeps_its_lu(self, refuge_grid_16, monkeypatch):
        # u moves fast at dt = 0.05 from (0.3, 0.4), so CG stays within
        # REFRESH_ITERS only from a start that follows u's trend
        state = positive_state(refuge_grid_16, u0=0.3, v0=0.4)
        assert self.count_lus(monkeypatch, make_params(mu=0.3), state, 0.05) < 45


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

    @staticmethod
    def bincount_build(grid, u, dt):
        """The prey matrix assembled into the Laplacian's CSC pattern face by
        face, with the diagonal summed by bincount (the reference for the
        diagonal storage)."""
        import scipy.sparse as sp

        from refugebif.geometry import _interior_faces, csr_positions, neumann_laplacian

        lap = neumann_laplacian(grid, Region.ALL).matrix
        (px, qx, wx), (py, qy, wy) = _interior_faces(grid, Region.ALL)
        p, q = np.concatenate([px, py]), np.concatenate([qx, qy])
        w = np.concatenate([np.full(px.size, wx), np.full(py.size, wy)])
        n = grid.n_cells
        coeff = 0.5 * (u[p] + u[q]) * w
        data = np.empty(lap.nnz)
        data[csr_positions(lap, p, q)] = -coeff
        data[csr_positions(lap, q, p)] = -coeff
        cells = np.arange(n)
        data[csr_positions(lap, cells, cells)] = (
            1.0 / dt + np.bincount(p, coeff, minlength=n) + np.bincount(q, coeff, minlength=n)
        )
        return sp.csc_matrix((data, lap.indices, lap.indptr), shape=(n, n))

    @pytest.fixture(params=["refuge_16", "wide_32x16"])
    def grid(self, request, refuge_grid_16):
        # n_x != n_y catches a swapped offset
        if request.param == "refuge_16":
            return refuge_grid_16
        return build_grid(32, 16, (2.0, 1.0), (0.5, 0.25, 1.0, 0.75))

    @pytest.mark.parametrize("dt", [1e-3, 0.05])
    def test_diagonals_match_the_csc_assembly_bitwise(self, grid, dt):
        stepper = _Stepper(make_params(), grid, dt)
        rng = np.random.default_rng(11)
        # a hot cell puts the largest row sum in its own column: the corners
        # and the first row, whose columns store fewer entries, and interior
        n_x, n = grid.n_x, grid.n_cells
        eps = np.finfo(float).eps
        for seed, hot in enumerate([None, 0, 1, n_x - 1, n_x, n_x + 1, n // 2, n - 1] * 6):
            rough = rough_u(grid, seed)
            if hot is not None:
                rough[hot] = 1e6 * rng.uniform(1.0, 2.0)
            assert np.count_nonzero(rough == 0.0) and np.count_nonzero(rough < 0.0)
            x = rng.standard_normal(n)
            # |A|_inf of a u with negatives sums absolute values, which
            # matter most where u <= 0; that of a u >= 0 (with zeros) is
            # 2 max(a_jj) - 1/dt
            for u in (rough, -np.abs(rough), np.abs(rough)):
                ref = self.bincount_build(grid, u, dt)
                a_norm = stepper._write_diagonals(u)
                assert np.array_equal(stepper._a.toarray(), ref.toarray())
                for y in (x, u):
                    assert np.array_equal(stepper._a @ y, ref @ y)
                assert abs(a_norm - row_sum_norm(ref)) <= 4.0 * eps * row_sum_norm(ref)

    @pytest.mark.parametrize("n", [16, 64])
    def test_dia_matvec_is_scipys_product(self, n):
        # dia_matvec calls SciPy's private kernel: a SciPy that renames it or
        # changes its arithmetic fails here.  NaN in out checks that it is
        # zeroed first.
        grid = build_grid(n, refuge_box=REFUGE_BOX)
        stepper = _Stepper(make_params(), grid, 0.05)
        x = np.random.default_rng(n).standard_normal(grid.n_cells)
        rough = rough_u(grid, n)
        for u in (rough, np.abs(rough)):
            stepper._write_diagonals(u)
            out = np.full(grid.n_cells, np.nan)
            assert dia_matvec(stepper._a, x, out) is out
            np.testing.assert_array_equal(out, stepper._a @ x)

    def test_factored_matrix_is_the_diagonals_csc_form(self, grid, monkeypatch):
        # the first step on a rough u, the refresh after a slow CG on its LU
        # and a fall-back on an indefinite matrix each refuse the DCT
        # preconditioner and hand splu A in CSC form
        factored, attempts = [], []
        cg = timestepping._preconditioned_cg

        def recording(a, **kwargs):
            factored.append(a)
            return splu(a, **kwargs)

        def counting(product, b, solve, *args):
            solved = cg(product, b, solve, *args)
            attempts.append(("lu" if is_lu(solve) else "dct", solved and solved[1]))
            return solved

        monkeypatch.setattr(timestepping, "splu", recording)
        monkeypatch.setattr(timestepping, "_preconditioned_cg", counting)
        stepper = _Stepper(make_params(), grid, 0.05)
        rhs = np.random.default_rng(12).standard_normal(grid.n_cells)
        u = np.abs(rough_u(grid, 0))
        for frozen in (u, 1.1 * u, 1.2 * u, rough_u(grid, 2)):
            stepper._solve_prey(frozen, rhs)
        slow = attempts[1][1]
        assert slow > timestepping.REFRESH_ITERS
        assert attempts == [
            ("dct", None), ("lu", slow), ("dct", None), ("lu", None), ("dct", None)
        ]
        frozen = [u, 1.2 * u, rough_u(grid, 2)]
        assert len(factored) == len(frozen)
        for a, u in zip(factored, frozen):
            ref = self.bincount_build(grid, u, 0.05)
            assert a.format == "csc"
            assert np.array_equal(a.toarray(), ref.toarray())

    def test_evolve_matches_a_run_on_the_csc_product(self, refuge_grid_16, monkeypatch):
        grid, dt = refuge_grid_16, 0.05
        p = make_params(mu=0.3)
        opts = TimeOptions(dt=dt, t_max=500.0, steady_tol=1e-9)

        def run():
            steps = []
            final, steady = evolve_to_steady(
                p, positive_state(grid, u0=0.3, v0=0.4), opts,
                lambda k, t, s, c: steps.append(k),
            )
            return final.pack(), steady, len(steps)

        on_diagonals = run()
        frozen, products = [], []
        write, cg = _Stepper._write_diagonals, timestepping._preconditioned_cg

        def recording(self, u):
            frozen.append(u)
            return write(self, u)

        def on_csc(product, b, solve, x0, a_norm, *max_iters):
            csc = self.bincount_build(grid, frozen[-1], dt)
            products.append(1)
            return cg(matvec(csc), b, solve, x0, a_norm, *max_iters)

        monkeypatch.setattr(_Stepper, "_write_diagonals", recording)
        monkeypatch.setattr(timestepping, "_preconditioned_cg", on_csc)
        on_csc_matrix = run()
        assert on_diagonals[1] and len(products) >= on_diagonals[2] - 20
        assert on_diagonals[1:] == on_csc_matrix[1:]
        assert np.array_equal(on_diagonals[0], on_csc_matrix[0])

    @pytest.mark.parametrize("dt", [1e-3, 0.05])
    def test_fixed_pattern_matches_coo_build(self, refuge_grid_16, dt):
        from refugebif.timestepping import _Stepper

        grid = refuge_grid_16
        u = np.random.default_rng(3).uniform(0.01, 2.0, grid.n_cells)
        matrix = prey_matrix(_Stepper(make_params(), grid, dt), u)
        ref = self.coo_build(grid, u, dt).toarray()
        assert np.abs(matrix.toarray() - ref).max() <= 1e-14 * np.abs(ref).max()
        assert matrix.nnz == np.count_nonzero(ref)
