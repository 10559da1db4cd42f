"""Damped Newton solver: convergence, taxonomy, branch-form guesses."""

import numpy as np
import pytest

from refugebif.analytics import bifurcation_point, branch_slope
from refugebif.errors import GuessError, ParameterError
from refugebif.geometry import Region, ScalarField, build_grid
from refugebif.model import Diffusion, ModelParams, State, residual, semi_trivial_state
from refugebif.newton import (
    NewtonOptions,
    SolutionClass,
    classify_state,
    initial_guess_on_branch,
    newton_solve,
)

BOTH = [Diffusion.NONLINEAR, Diffusion.LINEAR]


def make_params(variant=Diffusion.NONLINEAR, **kw):
    defaults = dict(lam=1.0, mu=0.4, c=1.0, m=1.0, b=1.0)
    defaults.update(kw)
    return ModelParams(variant=variant, **defaults)


class TestOptions:
    @pytest.mark.parametrize(
        "kw", [dict(tol_residual=0.0), dict(damping=1.0), dict(damping=0.0),
               dict(max_iters=0), dict(min_step=0.0), dict(tol_residual=np.nan)]
    )
    def test_invalid_rejected(self, kw):
        with pytest.raises(ParameterError):
            NewtonOptions(**kw)


class TestClassification:
    def test_trivial(self, refuge_grid_16):
        cls, pos = classify_state(semi_trivial_state(refuge_grid_16, 0.0))
        assert cls is SolutionClass.TRIVIAL

    def test_semi_trivial(self, refuge_grid_16):
        cls, pos = classify_state(semi_trivial_state(refuge_grid_16, 1.0))
        assert cls is SolutionClass.SEMI_TRIVIAL
        assert pos

    def test_indefinite_on_sign_change(self, refuge_grid_16):
        g = refuge_grid_16
        u = np.ones(g.n_cells)
        u[0] = -0.5
        st = State(ScalarField(g, u), ScalarField.constant(g, 0.0, Region.EXTERIOR))
        cls, pos = classify_state(st)
        assert cls is SolutionClass.INDEFINITE
        assert not pos


class TestNewtonSolve:
    def test_exact_root_zero_iterations(self, refuge_grid_16):
        st = semi_trivial_state(refuge_grid_16, 1.0)
        solved, rep = newton_solve(make_params(), st)
        assert rep.converged
        assert rep.iterations <= 1
        assert rep.classification is SolutionClass.SEMI_TRIVIAL

    @pytest.mark.parametrize("variant", BOTH)
    def test_above_onset_falls_back_to_semi_trivial(self, refuge_grid_16, variant):
        # no positive solutions exist for mu > mu_lambda
        p = make_params(variant, mu=0.6)
        guess = initial_guess_on_branch(refuge_grid_16, p, 0.05)
        solved, rep = newton_solve(p, guess)
        assert rep.converged
        assert rep.classification is SolutionClass.SEMI_TRIVIAL
        assert np.abs(solved.v.values).max() < 1e-8

    @pytest.mark.parametrize("variant", BOTH)
    def test_below_onset_positive_solution(self, refuge_grid_16, variant):
        p = make_params(variant, mu=0.45)  # 0.9 * mu_lambda
        s_star = (p.mu - bifurcation_point(p)) / branch_slope(refuge_grid_16, p)
        guess = initial_guess_on_branch(refuge_grid_16, p, s_star)
        solved, rep = newton_solve(p, guess)
        assert rep.converged
        assert rep.classification is SolutionClass.POSITIVE
        assert rep.positivity

    @pytest.mark.parametrize("variant", BOTH)
    def test_residual_contract(self, refuge_grid_16, variant):
        opts = NewtonOptions(tol_residual=1e-11)
        p = make_params(variant, mu=0.35)
        s_star = (p.mu - bifurcation_point(p)) / branch_slope(refuge_grid_16, p)
        guess = initial_guess_on_branch(refuge_grid_16, p, s_star)
        solved, rep = newton_solve(p, guess, opts)
        assert rep.converged
        assert rep.final_residual_norm <= opts.tol_residual
        assert np.abs(residual(p, solved)).max() <= opts.tol_residual

    @pytest.mark.parametrize("variant", BOTH)
    def test_quadratic_tail(self, refuge_grid_16, variant):
        # log-log slope over the last three above-floor residuals
        p = make_params(variant, mu=0.45)
        s_star = (p.mu - bifurcation_point(p)) / branch_slope(refuge_grid_16, p)
        guess = initial_guess_on_branch(refuge_grid_16, p, s_star)
        _, rep = newton_solve(p, guess, NewtonOptions(tol_residual=1e-11))
        assert rep.converged
        hist = [r for r in rep.residual_history if r > 1e-12]
        assert len(hist) >= 3
        r1, r2, r3 = hist[-3:]
        slope = np.log(r3 / r2) / np.log(r2 / r1)
        assert slope >= 1.8, rep.residual_history

    def test_singular_jacobian_reported_not_raised(self):
        # u = 0 with v = lam/b zeroes the whole prey row block (nonlinear variant)
        g = build_grid(8)
        p = make_params(mu=0.3)
        st = State(
            ScalarField.constant(g, 0.0),
            ScalarField.constant(g, p.lam / p.b, Region.EXTERIOR),
        )
        solved, rep = newton_solve(p, st)
        assert not rep.converged
        assert rep.diagnostic != ""

    def test_inadmissible_initial_state_reported(self, refuge_grid_16):
        st = State(
            ScalarField.constant(refuge_grid_16, -2.0),
            ScalarField.constant(refuge_grid_16, 0.0, Region.EXTERIOR),
        )
        solved, rep = newton_solve(make_params(m=1.0), st)
        assert not rep.converged
        assert "inadmissible" in rep.diagnostic

    @pytest.mark.parametrize(
        "seed, stop", [(2, ""), (1, "backtracking stalled"), (None, "initial state inadmissible")]
    )
    def test_is_damped_newton_on_the_pinned_corrector_step(self, refuge_grid_16, seed, stop):
        # newton_solve runs the corrector's bordered solve with mu pinned; it
        # must match, bit for bit, damped Newton on the unbordered residual
        # whose step is the corrector's with a zero row and c_mu = 1
        from refugebif.continuation import _Corrector
        from refugebif.newton import _damped_newton

        grid, p, opts = refuge_grid_16, make_params(mu=0.3), NewtonOptions()
        if seed is None:
            u, v = np.full(grid.n_cells, -2.0), np.zeros(grid.n_cells)
        else:
            rng = np.random.default_rng(seed)
            u, v = rng.uniform(0.0, 2.0, grid.n_cells), np.zeros(grid.n_cells)
            v[grid.exterior_cells] = rng.uniform(0.0, 1.0, grid.n_exterior)
        start = State(ScalarField(grid, u), ScalarField(grid, v, Region.EXTERIOR))
        corrector = _Corrector(grid, p, opts)
        zero_row = np.zeros(grid.n_cells + grid.n_exterior)

        def step(x, f):
            return corrector.step(np.append(x, p.mu), np.append(f, 0.0), zero_row, 1.0)[:-1]

        ref, _, history, diagnostic = _damped_newton(
            start.pack(), lambda x: residual(p, State.unpack(grid, x)), step, opts
        )
        corrector.release()
        solved, rep = newton_solve(p, start, opts)
        assert diagnostic.startswith(stop)
        assert solved.pack().tobytes() == ref.tobytes()
        assert rep.residual_history == tuple(history) and rep.diagnostic == diagnostic
        assert rep.iterations == len(history) - 1
        assert rep.converged == (stop == "")


class TestInitialGuess:
    def test_s_zero_is_semi_trivial(self, refuge_grid_16):
        st = initial_guess_on_branch(refuge_grid_16, make_params(), 0.0)
        ref = semi_trivial_state(refuge_grid_16, 1.0)
        assert np.array_equal(st.u.values, ref.u.values)
        assert np.array_equal(st.v.values, ref.v.values)

    def test_constant_kernel_values(self, no_refuge_grid_16):
        # kernel is 1/2 for b=c=m=lam=1 without a refuge
        st = initial_guess_on_branch(no_refuge_grid_16, make_params(), 0.01)
        assert np.abs(st.u.values - 0.995).max() < 1e-12
        assert np.all(st.v.values == 0.01)

    def test_overshoot_rejected(self, refuge_grid_16):
        from refugebif.analytics import kernel_profile

        p = make_params()
        kern = kernel_profile(refuge_grid_16, p)
        s_bad = 10.0 * p.lam / kern.values.min()
        with pytest.raises(GuessError):
            initial_guess_on_branch(refuge_grid_16, p, s_bad)

    def test_negative_s_rejected(self, refuge_grid_16):
        for s in (-0.01, np.nan):
            with pytest.raises(GuessError):
                initial_guess_on_branch(refuge_grid_16, make_params(), s)
