"""Branch tracing, onset detection, and cross-variant comparison."""

import re

import numpy as np
import pytest

from refugebif import continuation
from refugebif.config import parse_config
from refugebif.continuation import (
    Branch,
    ContinuationOptions,
    compare_branches,
    detect_onset,
    solve_at_mu,
    trace_branch,
)
from refugebif.errors import ComparisonError, EstimationError, GeometryError, ParameterError
from refugebif.model import Diffusion, ModelParams
from refugebif.newton import SolutionClass, classify_state

from conftest import REFUGE_BOX, disconnected_grid

BOTH = [Diffusion.NONLINEAR, Diffusion.LINEAR]


def shifted_splu(splu, n_unknowns, shift):
    """``splu`` that factors J + shift * I in place of any n_unknowns-square J."""
    import scipy.sparse as sp

    def wrapped(a, **kwargs):
        if a.shape == (n_unknowns, n_unknowns):
            a = (a + shift * sp.identity(n_unknowns)).tocsc()
        return splu(a, **kwargs)

    return wrapped


def counting_splu(splu, counts):
    """``splu`` that counts its calls by the size of the matrix factored."""

    def wrapped(a, **kwargs):
        counts[a.shape[0]] = counts.get(a.shape[0], 0) + 1
        return splu(a, **kwargs)

    return wrapped


def lstsq_gmres(system, lu, max_iters):
    """Reference for ``_guarded_gmres``: the same GMRES, but each iteration
    solves its least-squares problem by ``lstsq`` and checks its iterate's
    true residual."""
    d0, apply_inverse = system.eliminator(lu)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        r = system.matvec(d0) + system.fg
        if system.accepts(d0, r):
            return d0
        beta = np.linalg.norm(r)
        basis, directions = [-r / beta], []
        hess = np.zeros((max_iters + 1, max_iters))
        for k in range(max_iters):
            directions.append(apply_inverse(basis[k]))
            w = system.matvec(directions[k])
            for i, v in enumerate(basis):
                hess[i, k] = v @ w
                w = w - hess[i, k] * v
            hess[k + 1, k] = np.linalg.norm(w)
            basis.append(w / hess[k + 1, k])
            rhs = np.zeros(k + 2)
            rhs[0] = beta
            coeffs = np.linalg.lstsq(hess[: k + 2, : k + 1], rhs)[0]
            d = d0 + np.column_stack(directions) @ coeffs
            if system.accepts(d, system.matvec(d) + system.fg):
                return d
    return None


def make_params(variant=Diffusion.NONLINEAR, **kw):
    defaults = dict(lam=1.0, mu=0.4, c=1.0, m=1.0, b=1.0)
    defaults.update(kw)
    return ModelParams(variant=variant, **defaults)


@pytest.fixture(scope="module")
def branches_16(refuge_grid_16):
    """Both variants traced at lam = 1 down to 0.2 * mu_lambda."""
    out = {}
    for variant in BOTH:
        p = make_params(variant)
        out[variant] = trace_branch(refuge_grid_16, p, 0.08, ContinuationOptions())
    return out


class TestTraceBranch:
    def test_mu_strictly_decreasing(self, branches_16):
        for branch in branches_16.values():
            mus = branch.mus
            assert np.all(np.diff(mus) < 0.0)

    def test_all_points_positive(self, branches_16):
        for branch in branches_16.values():
            for pt in branch.points:
                cls, _ = classify_state(pt.state)
                assert cls is SolutionClass.POSITIVE
                assert pt.min_u > 0.0 and pt.avg_v > 0.0

    def test_seed_scale(self, branches_16):
        # branch emanates from the predator-free state: tiny first avg_v
        for branch in branches_16.values():
            assert branch.points[0].avg_v == pytest.approx(1e-3 * branch.params.lam, rel=1e-6)
            assert branch.points[0].mu < branch.onset.mu_lambda

    def test_monotone_onset(self, branches_16):
        # avg_v grows as mu decreases near the onset (negative slope)
        for branch in branches_16.values():
            head = branch.avg_vs[:8]
            assert np.all(np.diff(head) > 0.0)

    def test_reaches_mu_min_exactly(self, branches_16):
        for branch in branches_16.values():
            assert not branch.truncated
            assert branch.points[-1].mu == 0.08

    def test_step_that_corrects_past_mu_min_lands_on_it(self, monkeypatch):
        # on these inputs (n = 32, refuge box one cell up) an arclength step
        # from mu = 0.0183, whose predictor stays above mu_min, corrects to
        # mu = 0.00083 < mu_min; the landing from the last point replaces it
        from refugebif.geometry import build_grid

        grid = build_grid(32, refuge_box=(0.375, 0.40625, 0.625, 0.65625))
        p = make_params(Diffusion.LINEAR, lam=1.002400589704311, m=1.0096571557454446,
                        b=0.9901695999897914)
        real, landed_mus = continuation._Corrector.solve, []

        def recording(self, y0, c_row, c_mu, c_target):
            y, iters, ok = real(self, y0, c_row, c_mu, c_target)
            if ok:
                landed_mus.append(y[-1])
            return y, iters, ok

        monkeypatch.setattr(continuation._Corrector, "solve", recording)
        mu_min = 1e-3
        branch = trace_branch(grid, p, mu_min)
        assert min(landed_mus) < mu_min  # the overshoot happened
        assert not branch.truncated and branch.diagnostic == ""
        assert branch.points[-1].mu == mu_min
        assert np.all(np.diff(branch.mus) < 0.0)

    @pytest.mark.parametrize("variant", BOTH)
    def test_landing_matches_fixed_mu_newton(self, refuge_grid_16, variant):
        # the last point is the corrector's, under the constraint mu = mu_min;
        # the reference is a plain damped Newton at mu_min from the point
        # before, with a fresh SciPy LU of J on every iteration
        from dataclasses import replace

        from scipy.sparse.linalg import splu

        from refugebif.model import State, jacobian, residual
        from refugebif.newton import _damped_newton

        mu_min, opts, p = 0.3, ContinuationOptions(), make_params(variant)
        points = trace_branch(refuge_grid_16, p, mu_min, opts).points
        assert points[-1].mu == mu_min
        grid, at_min = refuge_grid_16, replace(p, mu=mu_min)

        def fun(x):
            return residual(at_min, State.unpack(grid, x))

        def solve(x, f):
            return splu(jacobian(at_min, State.unpack(grid, x)).matrix.tocsc()).solve(-f)

        ref, _, history, _ = _damped_newton(points[-2].state.pack(), fun, solve, opts.corrector)
        assert history[-1] <= opts.corrector.tol_residual
        assert points[-1].newton_iters == len(history) - 1
        got = points[-1].state.pack()
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_newton_residual_contract(self, refuge_grid_16, branches_16):
        from refugebif.model import residual
        from dataclasses import replace

        branch = branches_16[Diffusion.NONLINEAR]
        for pt in branch.points[:: max(1, len(branch.points) // 7)]:
            r = residual(replace(branch.params, mu=pt.mu), pt.state)
            assert np.abs(r).max() <= 1e-9

    def test_rerun_is_bitwise_identical(self, refuge_grid_16, branches_16):
        p = make_params()
        again = trace_branch(refuge_grid_16, p, 0.08, ContinuationOptions())
        ref = branches_16[Diffusion.NONLINEAR]
        assert len(again.points) == len(ref.points)
        for a, b in zip(again.points, ref.points):
            assert a.mu == b.mu
            assert a.avg_v == b.avg_v
            assert np.array_equal(a.state.u.values, b.state.u.values)

    def test_invalid_mu_min_rejected(self, refuge_grid_16):
        with pytest.raises(ParameterError):
            trace_branch(refuge_grid_16, make_params(), 0.6, ContinuationOptions())
        with pytest.raises(ParameterError):
            trace_branch(refuge_grid_16, make_params(), -0.1, ContinuationOptions())

    def test_disconnected_exterior_rejected(self):
        with pytest.raises(GeometryError):
            trace_branch(disconnected_grid(), make_params(), 0.1, ContinuationOptions())

    @pytest.mark.parametrize(
        "kw", [dict(ds_min=0.0), dict(ds_initial_factor=0.0), dict(ds_max_factor=-0.05),
               dict(grow_iters=-1), dict(max_points=1), dict(ds_min=np.nan)]
    )
    def test_invalid_options_rejected(self, kw):
        # with ds_min = 0, step halving would never stop
        with pytest.raises(ParameterError):
            ContinuationOptions(**kw)

    def test_point_budget_truncates_with_diagnostic(self, refuge_grid_16):
        opts = ContinuationOptions(max_points=4)
        branch = trace_branch(refuge_grid_16, make_params(), 0.08, opts)
        assert branch.truncated
        assert "budget" in branch.diagnostic
        assert len(branch.points) == 4

    def test_prey_dead_zone_is_diagnosed(self):
        # the default nonlinear branch at n = 16 ends where the corrector
        # converges to states with u < ZERO_THRESHOLD in a few cells
        cfg = parse_config({"geometry": {"n": 16}})
        assert cfg.params.variant is Diffusion.NONLINEAR
        branch = trace_branch(cfg.grid, cfg.params, cfg.mu_min, cfg.continuation)
        assert branch.truncated
        assert 0.0035 < branch.points[-1].mu < 0.004
        match = re.fullmatch(
            r"prey dead zone \(min_u < 1e-08 in ([0-9.]+)% of cells\) near mu=(\S+)",
            branch.diagnostic,
        )
        assert match, branch.diagnostic
        assert 0.0 < float(match[1]) < 5.0
        assert float(match[2]) == pytest.approx(branch.points[-1].mu, rel=1e-5)

    def test_unconverged_corrector_is_not_a_dead_zone(self, refuge_grid_16, monkeypatch):
        real = continuation._Corrector.solve
        calls = []

        def failing_after_four(self, *args):
            y, iters, ok = real(self, *args)
            calls.append(ok)
            return y, iters, ok and len(calls) <= 4

        monkeypatch.setattr(continuation._Corrector, "solve", failing_after_four)
        branch = trace_branch(refuge_grid_16, make_params(), 0.08)
        assert branch.truncated and len(branch.points) == 4
        assert branch.diagnostic.startswith("corrector failed at the minimum step near mu=")


class TestDetectOnset:
    @pytest.mark.parametrize("variant", BOTH)
    def test_within_one_percent(self, branches_16, variant):
        est = detect_onset(branches_16[variant])
        assert abs(est - 0.5) / 0.5 < 0.01

    def test_variants_agree(self, branches_16):
        est_nl = detect_onset(branches_16[Diffusion.NONLINEAR])
        est_lin = detect_onset(branches_16[Diffusion.LINEAR])
        assert abs(est_nl - est_lin) / est_lin < 0.005

    def test_two_point_branch_rejected(self, branches_16):
        stub = branches_16[Diffusion.NONLINEAR]
        short = Branch(
            variant=stub.variant,
            params=stub.params,
            points=stub.points[:2],
            onset=stub.onset,
        )
        with pytest.raises(EstimationError):
            detect_onset(short)


class TestSlopeAtOnset:
    @pytest.mark.parametrize("variant", BOTH)
    def test_secant_matches_analytic(self, branches_16, variant):
        branch = branches_16[variant]
        pts = branch.points[:5]
        secant = (pts[-1].mu - pts[0].mu) / (pts[-1].avg_v - pts[0].avg_v)
        analytic = branch.onset.slope_at_onset
        assert abs(secant - analytic) / abs(analytic) < 0.05


class TestSolveAtMu:
    def test_refines_to_exact_mu(self, branches_16):
        branch = branches_16[Diffusion.NONLINEAR]
        state, rep = solve_at_mu(branch, 0.37)
        assert rep.converged
        assert rep.classification is SolutionClass.POSITIVE


class TestCompareBranches:
    def test_self_comparison_is_unity(self, branches_16):
        branch = branches_16[Diffusion.NONLINEAR]
        table = compare_branches(branch, branch)
        assert np.all(table.ratio == 1.0)

    def test_near_onset_coincidence(self, branches_16):
        table = compare_branches(
            branches_16[Diffusion.NONLINEAR], branches_16[Diffusion.LINEAR]
        )
        mu_l = 0.5
        mask = table.mu >= 0.95 * mu_l
        rel = np.abs(table.avg_v_nonlinear[mask] - table.avg_v_linear[mask])
        rel /= table.avg_v_linear[mask]
        assert mask.sum() >= 3
        assert rel.max() < 0.05

    def test_small_mu_ordering(self, branches_16):
        table = compare_branches(
            branches_16[Diffusion.NONLINEAR], branches_16[Diffusion.LINEAR]
        )
        v_nl = np.interp(0.1, table.mu, table.avg_v_nonlinear)
        v_lin = np.interp(0.1, table.mu, table.avg_v_linear)
        assert v_nl > v_lin

    def test_parameter_mismatch_rejected(self, refuge_grid_16, branches_16):
        other = trace_branch(
            refuge_grid_16, make_params(lam=0.5), 0.2, ContinuationOptions()
        )
        with pytest.raises(ComparisonError):
            compare_branches(branches_16[Diffusion.NONLINEAR], other)

    def test_disjoint_ranges_rejected(self, branches_16):
        nl = branches_16[Diffusion.NONLINEAR]
        lin = branches_16[Diffusion.LINEAR]
        head = Branch(nl.variant, nl.params, nl.points[:5], nl.onset)
        tail = Branch(lin.variant, lin.params, lin.points[-5:], lin.onset)
        with pytest.raises(ComparisonError):
            compare_branches(head, tail)


class TestVariantConsistencyAtOnset:
    def test_first_order_agreement(self, refuge_grid_16):
        # at lam = 1 the kernels coincide, so states at the same mu differ by o(s)
        from refugebif.analytics import branch_slope
        from refugebif.newton import initial_guess_on_branch, newton_solve

        ratios = []
        for eps in (0.02, 0.01):
            mu = 0.5 * (1.0 - eps)
            states = {}
            s_eff = None
            for variant in BOTH:
                p = make_params(variant, mu=mu)
                s_star = (mu - 0.5) / branch_slope(refuge_grid_16, p)
                guess = initial_guess_on_branch(refuge_grid_16, p, s_star)
                solved, rep = newton_solve(p, guess)
                assert rep.converged and rep.classification is SolutionClass.POSITIVE
                states[variant] = solved
                s_eff = solved.v.values[refuge_grid_16.exterior_cells].mean()
            diff = max(
                np.abs(
                    states[Diffusion.NONLINEAR].u.values
                    - states[Diffusion.LINEAR].u.values
                ).max(),
                np.abs(
                    states[Diffusion.NONLINEAR].v.values
                    - states[Diffusion.LINEAR].v.values
                ).max(),
            )
            ratios.append(diff / s_eff)
        assert ratios[0] < 0.05
        assert ratios[1] < 0.7 * ratios[0]  # o(s): the relative gap shrinks with s

    @pytest.mark.parametrize("variant", BOTH)
    def test_normalized_shape_matches_kernel(self, refuge_grid_16, variant):
        # (lam - u)/s approaches the kernel profile linearly in s
        from refugebif.analytics import branch_slope, kernel_profile
        from refugebif.newton import initial_guess_on_branch, newton_solve

        p = make_params(variant, mu=0.49)
        kern = kernel_profile(refuge_grid_16, p).values
        s_star = (p.mu - 0.5) / branch_slope(refuge_grid_16, p)
        guess = initial_guess_on_branch(refuge_grid_16, p, s_star)
        solved, rep = newton_solve(p, guess)
        assert rep.converged
        s_eff = solved.v.values[refuge_grid_16.exterior_cells].mean()
        shape_dev = np.abs((p.lam - solved.u.values) / s_eff - kern).max()
        assert shape_dev < 0.2 * s_eff


class TestBorderedStep:
    """The corrector's block-eliminated step against a direct bordered LU."""

    @staticmethod
    def seeded_point(grid, variant, s):
        # the state, mu and constraint trace_branch seeds its first points with
        from dataclasses import replace

        from refugebif.analytics import bifurcation_data
        from refugebif.model import residual
        from refugebif.newton import initial_guess_on_branch

        p = make_params(variant)
        onset = bifurcation_data(grid, p)
        p = replace(p, mu=onset.mu_lambda + onset.slope_at_onset * s)
        state = initial_guess_on_branch(grid, p, s)
        c_row = np.zeros(grid.n_cells + grid.n_exterior)
        c_row[grid.n_cells:] = grid.cell_area / onset.omega1_area
        y = np.concatenate([state.pack(), [p.mu]])
        fg = np.concatenate([residual(p, state), [c_row @ y[:-1] - s]])
        return p, state, y, fg, c_row

    @pytest.mark.parametrize("variant", BOTH)
    @pytest.mark.parametrize("s", [1e-3, 1e-8])
    def test_matches_bordered_lu(self, refuge_grid_16, variant, s):
        import scipy.sparse as sp
        from scipy.sparse.linalg import splu

        from refugebif.continuation import _Corrector
        from refugebif.model import jacobian
        from refugebif.newton import NewtonOptions

        grid = refuge_grid_16
        p, state, y, fg, c_row = self.seeded_point(grid, variant, s)
        corrector = _Corrector(grid, p, NewtonOptions())
        step = corrector.step(y, fg, c_row, 0.0)
        assert corrector.fallbacks == 0

        f_mu = np.zeros(y.size - 1)
        f_mu[grid.n_cells:] = -y[grid.n_cells:-1]
        bordered = sp.bmat(
            [[jacobian(p, state).matrix, f_mu[:, None]], [c_row[None, :], [[0.0]]]],
            format="csc",
        )
        ref = splu(bordered).solve(-fg)
        assert np.abs(step - ref).max() <= 1e-10 * np.abs(ref).max()
        assert abs(step[-1] - ref[-1]) <= 1e-10 * abs(ref[-1])

    @pytest.mark.parametrize("eps, eliminated", [(1e-8, True), (0.0, True), (0.0, False)])
    def test_eliminates_unless_j_is_singular(self, eps, eliminated):
        # J = q diag(1..5, eps) q^T has one eigenvalue eps, and the bordered
        # matrix stays well conditioned.  At eps = 0 this J is singular only in
        # exact arithmetic: its smallest LU pivot is round-off, and the guarded
        # step still equals a dense solve.  A J with an exact zero row and
        # column (eliminated=False) is refused by splu under any ordering.
        import scipy.sparse as sp

        from refugebif.continuation import _Bordered, _Corrector
        from refugebif.geometry import build_grid
        from refugebif.newton import NewtonOptions

        rng = np.random.default_rng(0)
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        if eliminated:
            jac = q @ np.diag([1.0, 2.0, 3.0, 4.0, 5.0, eps]) @ q.T
        else:
            jac = np.zeros((6, 6))
            jac[:5, :5] = q[:5, :5] @ np.diag([1.0, 2.0, 3.0, 4.0, 5.0]) @ q[:5, :5].T
            perm = rng.permutation(6)
            jac = jac[perm][:, perm]
        f_mu, c_row, fg = rng.standard_normal(6), rng.standard_normal(6), rng.standard_normal(7)
        corrector = _Corrector(build_grid(4), make_params(), NewtonOptions())
        step = corrector._fresh_step(_Bordered(sp.csr_matrix(jac), f_mu, c_row, 0.0, fg))
        if not eliminated:
            assert step is None
            return
        bordered = np.block([[jac, f_mu[:, None]], [c_row[None, :], np.zeros((1, 1))]])
        np.testing.assert_allclose(step, np.linalg.solve(bordered, -fg), rtol=0.0, atol=1e-12)

    def test_inaccurate_lu_fails_the_guard(self, refuge_grid_16, monkeypatch):
        # an LU of a shifted J gives a step whose bordered residual the guard rejects
        from refugebif import continuation
        from refugebif.newton import NewtonOptions

        grid = refuge_grid_16
        p, state, y, fg, c_row = self.seeded_point(grid, Diffusion.NONLINEAR, 1e-3)
        exact = continuation._Corrector(grid, p, NewtonOptions()).step(y, fg, c_row, 0.0)

        monkeypatch.setattr(continuation, "splu", shifted_splu(continuation.splu, y.size - 1, 0.1))
        corrector = continuation._Corrector(grid, p, NewtonOptions())
        step = corrector.step(y, fg, c_row, 0.0)
        assert corrector.fallbacks == 1
        assert np.abs(step - exact).max() <= 1e-10 * np.abs(exact).max()

    @pytest.mark.parametrize("variant", BOTH)
    def test_fallback_path_traces_the_same_branch(self, refuge_grid_16, monkeypatch, variant):
        # refuse every factorization of J, so each step takes the bordered LU
        from refugebif import continuation

        grid = refuge_grid_16
        n_unknowns = grid.n_cells + grid.n_exterior
        p = make_params(variant)
        shipped = trace_branch(grid, p, 0.3)

        splu = continuation.splu
        counts = {"refused": 0, "bordered": 0}

        def refusing_splu(a, **kwargs):
            if a.shape == (n_unknowns, n_unknowns):
                counts["refused"] += 1
                raise RuntimeError("Factor is exactly singular")
            counts["bordered"] += a.shape == (n_unknowns + 1, n_unknowns + 1)
            return splu(a, **kwargs)

        monkeypatch.setattr(continuation, "splu", refusing_splu)
        fallen_back = trace_branch(grid, p, 0.3)

        assert counts["refused"] == counts["bordered"] > 0
        assert len(fallen_back.points) == len(shipped.points)
        assert [q.newton_iters for q in fallen_back.points] == [
            q.newton_iters for q in shipped.points
        ]
        np.testing.assert_allclose(fallen_back.avg_vs, shipped.avg_vs, rtol=1e-10, atol=0.0)


class TestStaleLuStep:
    """Corrector steps by GMRES preconditioned with the last LU of J."""

    @staticmethod
    def seed_systems(grid, variant):
        # the two seed points, each with its J and the constraint of its step
        from refugebif.model import jacobian

        out = []
        for s in (1e-3, 2e-3):
            p, state, y, fg, c_row = TestBorderedStep.seeded_point(grid, variant, s)
            out.append((p, y, fg, c_row, jacobian(p, state).matrix))
        return out

    @pytest.mark.parametrize("variant", BOTH)
    def test_previous_seed_lu_gives_the_fresh_step(self, refuge_grid_16, variant):
        from refugebif.continuation import _Corrector
        from refugebif.newton import NewtonOptions

        grid = refuge_grid_16
        (p, y1, fg1, c1, _), (_, y2, fg2, c2, _) = self.seed_systems(grid, variant)
        fresh = _Corrector(grid, p, NewtonOptions())
        exact = fresh.step(y2, fg2, c2, 0.0)
        assert (fresh.factorizations, fresh.krylov_steps) == (1, 0)

        corrector = _Corrector(grid, p, NewtonOptions())
        corrector.step(y1, fg1, c1, 0.0)
        assert corrector.factorizations == 1
        step = corrector.step(y2, fg2, c2, 0.0)
        assert (corrector.factorizations, corrector.krylov_steps, corrector.fallbacks) == (1, 1, 0)
        assert np.abs(step - exact).max() <= 1e-10 * np.abs(exact).max()

    @pytest.mark.parametrize("shift, rescued", [(0.1, True), (1.0, False)])
    def test_shifted_stale_lu(self, refuge_grid_16, shift, rescued):
        # GMRES brings the step of an LU of J + 0.1 I under the guard (in 3
        # iterations); J + I has eigenvalues near -1, and its LU fails the
        # guard within GMRES_ITERS, so J is factored afresh
        from refugebif import continuation
        from refugebif.geometry import LU_OPTIONS
        from refugebif.newton import NewtonOptions

        grid = refuge_grid_16
        _, (p, y, fg, c_row, jac) = self.seed_systems(grid, Diffusion.NONLINEAR)
        exact = continuation._Corrector(grid, p, NewtonOptions()).step(y, fg, c_row, 0.0)

        corrector = continuation._Corrector(grid, p, NewtonOptions())
        corrector._lu = shifted_splu(continuation.splu, y.size - 1, shift)(
            jac.tocsc(), **LU_OPTIONS
        )
        step = corrector.step(y, fg, c_row, 0.0)
        assert corrector.fallbacks == 0
        assert corrector.krylov_steps == int(rescued)
        assert corrector.factorizations == int(not rescued)
        assert np.abs(step - exact).max() <= 1e-10 * np.abs(exact).max()

    @pytest.mark.parametrize("variant", BOTH)
    def test_givens_gmres_matches_lstsq_reference(self, refuge_grid_16, monkeypatch, variant):
        import scipy.sparse as sp

        from refugebif import continuation
        from refugebif.continuation import GMRES_ITERS, REFINE_ITERS, _Bordered, _guarded_gmres
        from refugebif.geometry import LU_OPTIONS

        grid = refuge_grid_16
        (_, _, _, _, jac1), (_, y, fg, c_row, jac) = self.seed_systems(grid, variant)
        f_mu = np.zeros(y.size - 1)
        f_mu[grid.n_cells:] = -y[grid.n_cells:-1]
        system = _Bordered(jac, f_mu, c_row, 0.0, fg)
        eye = sp.identity(jac.shape[0])
        # the previous seed's LU, a fresh one, LUs of J + 0.1 I and J + 0.3 I
        # (rescued in 3 and 4 iterations) and of J + I (refused)
        lus = [
            continuation.splu(a.tocsc(), **LU_OPTIONS)
            for a in (jac1, jac, jac + 0.1 * eye, jac + 0.3 * eye)
        ]
        refused = continuation.splu((jac + eye).tocsc(), **LU_OPTIONS)
        cases = [(lu, m) for lu in lus for m in (GMRES_ITERS, REFINE_ITERS)]
        for lu, max_iters in cases + [(refused, GMRES_ITERS)]:
            ref, step = lstsq_gmres(system, lu, max_iters), _guarded_gmres(system, lu, max_iters)
            assert (step is None) == (ref is None)
            if ref is not None:
                assert np.abs(step - ref).max() <= 1e-12 * np.abs(ref).max()
        assert _guarded_gmres(system, refused, GMRES_ITERS) is None
        assert _guarded_gmres(system, lus[0], GMRES_ITERS) is not None

        # the stale step of the previous seed's LU runs more iterations than
        # it forms iterates to check: the Givens estimate rules the others out
        counts = {"iterations": 0, "checks": 0}
        accepts, eliminator = _Bordered.accepts, _Bordered.eliminator

        def counting_accepts(self, d, r):
            counts["checks"] += 1
            return accepts(self, d, r)

        def counting_eliminator(self, lu):
            d0, apply_inverse = eliminator(self, lu)

            def counted(r):
                counts["iterations"] += 1
                return apply_inverse(r)

            return d0, counted

        monkeypatch.setattr(_Bordered, "accepts", counting_accepts)
        monkeypatch.setattr(_Bordered, "eliminator", counting_eliminator)
        assert _guarded_gmres(system, lus[0], GMRES_ITERS) is not None
        # one check is the start's
        assert counts["iterations"] >= 2
        assert counts["checks"] - 1 < counts["iterations"]

    @pytest.mark.parametrize("variant", BOTH)
    def test_trace_matches_fresh_lu_per_step(self, refuge_grid_16, monkeypatch, variant):
        from refugebif import continuation

        grid, p = refuge_grid_16, make_params(variant)
        n_unknowns = grid.n_cells + grid.n_exterior
        counts = {}
        monkeypatch.setattr(continuation, "splu", counting_splu(continuation.splu, counts))
        reused = trace_branch(grid, p, 0.08)
        # at most one LU of J per accepted point
        assert counts.get(n_unknowns, 0) <= len(reused.points)
        assert counts.get(n_unknowns + 1, 0) == 0

        monkeypatch.setattr(continuation._Corrector, "_stale_step", lambda self, system: None)
        counts.clear()
        fresh = trace_branch(grid, p, 0.08)
        assert counts[n_unknowns] > len(fresh.points)
        assert len(reused.points) == len(fresh.points)
        assert [q.newton_iters for q in reused.points] == [q.newton_iters for q in fresh.points]
        np.testing.assert_allclose(reused.avg_vs, fresh.avg_vs, rtol=1e-10, atol=0.0)

    def test_default_linear_landing_takes_no_bordered_lu(self, monkeypatch):
        # the landing's last iteration has |(f, g)| ~ 1e-9; its step's residual
        # sits at the round-off floor, above 1e-10 |(f, g)|, and must be kept
        from refugebif import continuation
        from refugebif.geometry import build_grid

        grid = build_grid(32, refuge_box=REFUGE_BOX)
        n_unknowns = grid.n_cells + grid.n_exterior
        counts = {}
        monkeypatch.setattr(continuation, "splu", counting_splu(continuation.splu, counts))
        branch = trace_branch(grid, make_params(Diffusion.LINEAR), 1e-3)
        assert branch.points[-1].mu == 1e-3
        assert counts.get(n_unknowns + 1, 0) == 0
