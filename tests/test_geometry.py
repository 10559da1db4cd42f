"""Grid construction, refuge partition, Neumann operators, quadrature."""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from refugebif import geometry, timestepping
from refugebif.errors import GeometryError, ParameterError
from refugebif.geometry import (
    EXTERIOR,
    LU_OPTIONS,
    REFUGE,
    Region,
    ScalarField,
    build_grid,
    exterior_connected,
    exterior_laplacian_block,
    integrate,
    neumann_laplacian,
    predation_field,
    row_sum_norm,
    shifted_laplacian_solver,
)

from conftest import REFUGE_BOX, disconnected_grid, grid_with_regions


class TestBuildGrid:
    def test_no_refuge(self):
        g = build_grid(4)
        assert (g.cell_region == EXTERIOR).sum() == 16
        assert (g.cell_region == REFUGE).sum() == 0
        assert g.n_exterior == 16

    def test_refuge_cell_count(self):
        # centers at 0.45, 0.55 fall inside (0.4, 0.6) along each axis
        g = build_grid(10, refuge_box=(0.4, 0.4, 0.6, 0.6))
        assert (g.cell_region == REFUGE).sum() == 4
        assert g.n_exterior == 96
        inside = (
            (g.cell_x > 0.4) & (g.cell_x < 0.6) & (g.cell_y > 0.4) & (g.cell_y < 0.6)
        )
        assert np.array_equal(np.flatnonzero(inside), np.flatnonzero(g.refuge_mask))

    def test_refuge_touching_boundary_rejected(self):
        with pytest.raises(GeometryError):
            build_grid(10, refuge_box=(0.0, 0.4, 0.2, 0.6))

    def test_refuge_not_face_aligned_rejected(self):
        with pytest.raises(GeometryError):
            build_grid(10, refuge_box=(0.41, 0.4, 0.6, 0.6))
        with pytest.raises(GeometryError):
            build_grid(64, refuge_box=(0.4, 0.4, 0.6, 0.6))  # 0.4 * 64 = 25.6

    def test_degenerate_refuge_rejected(self):
        with pytest.raises(GeometryError):
            build_grid(10, refuge_box=(0.4, 0.4, 0.4, 0.6))
        with pytest.raises(GeometryError):
            build_grid(10, refuge_box=(0.6, 0.4, 0.4, 0.6))

    def test_too_coarse_rejected(self):
        with pytest.raises(GeometryError):
            build_grid(3)

    @pytest.mark.parametrize(
        "n_x,n_y,length,box",
        [
            (10, 10, (1.0, 1.0), (0.4, 0.4, 0.6, 0.6)),
            (8, 12, (2.0, 3.0), (0.5, 0.75, 1.0, 1.5)),
            (16, 16, (1.0, 1.0), None),
        ],
    )
    def test_region_partition(self, n_x, n_y, length, box):
        g = build_grid(n_x, n_y, domain_length=length, refuge_box=box)
        n_ref = (g.cell_region == REFUGE).sum()
        assert n_ref + g.n_exterior == n_x * n_y
        assert g.h_x == pytest.approx(length[0] / n_x)
        assert g.h_y == pytest.approx(length[1] / n_y)

    def test_refuge_count_matches_box_area(self):
        g = build_grid(16, refuge_box=REFUGE_BOX)
        box_area = (0.625 - 0.375) ** 2
        assert (g.cell_region == REFUGE).sum() == round(box_area / g.cell_area)


class TestScalarField:
    def test_exterior_support_must_vanish_on_refuge(self, refuge_grid_16):
        vals = np.ones(refuge_grid_16.n_cells)
        with pytest.raises(GeometryError):
            ScalarField(refuge_grid_16, vals, Region.EXTERIOR)

    def test_constant_masks_refuge(self, refuge_grid_16):
        f = ScalarField.constant(refuge_grid_16, 2.5, Region.EXTERIOR)
        assert np.all(f.values[refuge_grid_16.refuge_mask] == 0.0)
        assert np.all(f.values[refuge_grid_16.exterior_cells] == 2.5)

    def test_values_frozen(self, refuge_grid_16):
        f = ScalarField.constant(refuge_grid_16, 1.0)
        with pytest.raises(ValueError):
            f.values[0] = 2.0


class TestPredationField:
    def test_no_refuge_constant(self):
        g = build_grid(6)
        f = predation_field(g, 1.0)
        assert np.all(f.values == 1.0)

    def test_mask_applied(self):
        g = build_grid(10, refuge_box=(0.4, 0.4, 0.6, 0.6))
        f = predation_field(g, 2.0)
        assert (f.values == 2.0).sum() == 96
        assert (f.values == 0.0).sum() == 4
        assert np.all(f.values[g.refuge_mask] == 0.0)

    @pytest.mark.parametrize("b", [0.0, -1.0, np.nan, np.inf])
    def test_nonpositive_b_rejected(self, b):
        g = build_grid(6)
        with pytest.raises(ParameterError):
            predation_field(g, b)


@pytest.mark.parametrize("order", [[0, 1, 2], [0, 2, 1], [1, 2, 0]])
def test_row_sum_norm_over_empty_rows(order):
    # an empty row in the middle, last (a 0 is appended for it) or first
    a = sp.csr_matrix(np.array([[1.0, -2.0, 0.0], [0.0, 0.0, 0.0], [0.0, -4.0, 0.5]]))
    assert row_sum_norm(a[order]) == 4.5


@pytest.mark.parametrize("region", [Region.ALL, Region.EXTERIOR])
class TestLaplacian:
    def test_constant_in_kernel(self, refuge_grid_16, region):
        lap = neumann_laplacian(refuge_grid_16, region).matrix
        # dyadic constants cancel exactly; generic ones to rounding of the scale
        assert np.abs(lap @ np.full(refuge_grid_16.n_cells, 3.5)).max() == 0.0
        scale = 3.7 * refuge_grid_16.n_x**2
        assert np.abs(lap @ np.full(refuge_grid_16.n_cells, 3.7)).max() < 1e-14 * scale

    def test_row_sums_exactly_zero(self, refuge_grid_16, region):
        lap = neumann_laplacian(refuge_grid_16, region).matrix
        assert np.abs(np.asarray(lap.sum(axis=1))).max() == 0.0

    def test_symmetric(self, refuge_grid_16, region):
        lap = neumann_laplacian(refuge_grid_16, region).matrix
        assert (lap - lap.T).nnz == 0

    def test_integrate_of_laplacian_vanishes(self, refuge_grid_16, region):
        # discrete divergence theorem with no-flux boundaries
        rng = np.random.default_rng(42)
        lap = neumann_laplacian(refuge_grid_16, region).matrix
        for _ in range(5):
            f = rng.uniform(-3.0, 3.0, refuge_grid_16.n_cells)
            total = integrate(ScalarField(refuge_grid_16, lap @ f), Region.ALL)
            assert abs(total) < 1e-11


class TestExteriorLaplacian:
    def test_no_refuge_coupling(self, refuge_grid_16):
        g = refuge_grid_16
        lap = neumann_laplacian(g, Region.EXTERIOR).matrix
        assert lap[g.refuge_mask].nnz == 0
        assert lap[:, g.refuge_mask].nnz == 0

    def test_smallest_eigenvalue_zero_constant_mode(self):
        # dense eigensolver as the independent oracle
        g = build_grid(8, refuge_box=(0.25, 0.25, 0.5, 0.5))
        ext = g.exterior_cells
        sub = -neumann_laplacian(g, Region.EXTERIOR).matrix[ext][:, ext].toarray()
        eigvals, eigvecs = np.linalg.eigh(sub)
        assert abs(eigvals[0]) < 1e-10
        mode = eigvecs[:, 0]
        assert np.abs(mode - mode[0]).max() < 1e-10
        assert eigvals[1] > 1.0  # spectral gap, exterior connected


@pytest.mark.parametrize(
    "n_x,n_y,length",
    [(16, 16, (1.0, 1.0)), (24, 24, (1.0, 1.0)), (32, 16, (2.0, 1.0)), (32, 16, (1.0, 1.0)),
     (64, 64, (1.0, 1.0))],
)
@pytest.mark.parametrize("box", [None, REFUGE_BOX, (0.125, 0.25, 0.5, 0.75)])
@pytest.mark.parametrize("dt", [1e-3, 0.05])
@pytest.mark.parametrize("d", [0.3, 1.0])
@pytest.mark.parametrize("region", [Region.ALL, Region.EXTERIOR])
def test_shifted_laplacian_solver_matches_lu(n_x, n_y, length, box, dt, d, region):
    # the residual is taken against the assembled matrix, so a geometry that
    # the transform no longer diagonalises fails here; the solver works on
    # full-grid arrays, and the EXTERIOR one returns exact zeros on the refuge
    grid = build_grid(n_x, n_y, domain_length=length, refuge_box=box)
    if region is Region.ALL:
        lap, cells = neumann_laplacian(grid, Region.ALL).matrix, np.arange(grid.n_cells)
    else:
        lap, cells = exterior_laplacian_block(grid), grid.exterior_cells
    a = (sp.identity(lap.shape[0], format="csr") / dt - d * lap).tocsr()
    full = np.zeros(grid.n_cells)
    full[cells] = np.random.default_rng(n_x + n_y).standard_normal(lap.shape[0])
    x_full = shifted_laplacian_solver(grid, 1.0 / dt, d, region)(full)
    assert x_full.shape == (grid.n_cells,)
    if region is Region.EXTERIOR:
        assert np.all(x_full[grid.refuge_mask] == 0.0)
    b, x = full[cells], x_full[cells]
    scale = row_sum_norm(a) * np.abs(x).max() + np.abs(b).max()
    assert np.abs(b - a @ x).max() <= 20.0 * np.finfo(float).eps * scale
    x_lu = splu(a.tocsc(), **LU_OPTIONS).solve(b)
    assert np.abs(x - x_lu).max() <= 1e-12 * np.abs(x_lu).max()


@pytest.mark.parametrize("n_x,n_y", [(16, 16), (32, 16), (64, 64)])
def test_dct_basis_keeps_contiguous_transposes(n_x, n_y):
    c_x, c_y, c_xt, c_yt, *_ = geometry._dct_basis(build_grid(n_x, n_y))
    for c, ct in ((c_x, c_xt), (c_y, c_yt)):
        assert ct.flags.c_contiguous
        assert np.array_equal(ct, c.T)


def l_shaped_grid(n=12):
    """An L-shaped refuge: its cut faces leave gaps in their rows x columns blocks."""
    region = np.full((n, n), EXTERIOR, dtype=np.int8)
    region[3:9, 3:5] = REFUGE
    region[7:9, 5:9] = REFUGE
    return grid_with_regions(n, region)


@pytest.mark.parametrize("make_grid", [l_shaped_grid, disconnected_grid])
def test_exterior_solver_on_a_refuge_that_is_not_a_box(make_grid):
    grid, dt, d = make_grid(), 0.05, 0.7
    block = exterior_laplacian_block(grid)
    a = (sp.identity(block.shape[0], format="csr") / dt - d * block).tocsc()
    full = np.zeros(grid.n_cells)
    full[grid.exterior_cells] = np.random.default_rng(3).standard_normal(grid.n_exterior)
    x = shifted_laplacian_solver(grid, 1.0 / dt, d, Region.EXTERIOR)(full)
    x_lu = splu(a, **LU_OPTIONS).solve(full[grid.exterior_cells])
    assert np.abs(x[grid.exterior_cells] - x_lu).max() <= 1e-12 * np.abs(x_lu).max()
    assert np.all(x[grid.refuge_mask] == 0.0)


def test_prey_preconditioner_keeps_the_grids_solvers(monkeypatch):
    # a nonlinear run builds DCT preconditioners at new means of u from the
    # grid's transforms: it neither evicts the linear prey's solver nor
    # rebuilds the predator's capacitance matrix or the transforms
    from refugebif.model import Diffusion, ModelParams, State

    grid, dt = build_grid(16, refuge_box=REFUGE_BOX), 0.05
    prey = shifted_laplacian_solver(grid, 1.0 / dt, 1.0)
    predator = shifted_laplacian_solver(grid, 1.0 / dt, 1.0, Region.EXTERIOR)
    basis = grid._cache["dct_basis"]
    built, refreshed = [], []
    dct = geometry.dct_solver
    monkeypatch.setattr(geometry, "_build_shifted_laplacian_solver", lambda *a: built.append(a))
    monkeypatch.setattr(geometry, "_dct_matrix", lambda n: built.append(n))
    monkeypatch.setattr(timestepping, "dct_solver", lambda *a: refreshed.append(a) or dct(*a))
    p = ModelParams(lam=1.0, mu=0.4, c=1.0, m=1.0, b=1.0, variant=Diffusion.NONLINEAR)
    initial = State(
        ScalarField.constant(grid, 0.5), ScalarField.constant(grid, 0.1, Region.EXTERIOR)
    )
    timestepping.evolve_to_steady(p, initial, timestepping.TimeOptions(dt=dt, t_max=20.0))
    assert len({alpha_d for *_, alpha_d in refreshed}) > 1
    assert not built
    assert shifted_laplacian_solver(grid, 1.0 / dt, 1.0) is prey
    assert shifted_laplacian_solver(grid, 1.0 / dt, 1.0, Region.EXTERIOR) is predator
    assert grid._cache["dct_basis"] is basis


class TestIntegrate:
    def test_unit_constant(self):
        g = build_grid(8)
        assert integrate(ScalarField.constant(g, 1.0), Region.ALL) == pytest.approx(1.0)

    def test_exterior_excludes_refuge(self):
        g = build_grid(10, refuge_box=(0.4, 0.4, 0.6, 0.6))
        f = ScalarField.constant(g, 1.0, Region.EXTERIOR)
        assert integrate(f, Region.EXTERIOR) == pytest.approx(0.96)

    def test_zero_field(self, refuge_grid_16):
        f = ScalarField.constant(refuge_grid_16, 0.0)
        assert integrate(f, Region.ALL) == 0.0
        assert integrate(f, Region.EXTERIOR) == 0.0

    def test_scaled_domain(self):
        g = build_grid(8, 8, domain_length=(2.0, 3.0))
        assert integrate(ScalarField.constant(g, 1.0), Region.ALL) == pytest.approx(6.0)


class TestConnectivity:
    def test_interior_refuge_keeps_exterior_connected(self, refuge_grid_16):
        assert exterior_connected(refuge_grid_16)

    def test_strip_disconnects(self):
        assert not exterior_connected(disconnected_grid())

    @staticmethod
    def csgraph_connected(grid):
        """The reference: one component of the exterior Laplacian's graph."""
        from scipy.sparse.csgraph import connected_components

        block = exterior_laplacian_block(grid)
        return block.shape[0] > 0 and connected_components(block, return_labels=False) == 1

    @pytest.mark.parametrize("make_grid", [l_shaped_grid, disconnected_grid])
    def test_matches_csgraph_on_the_fixtures(self, make_grid):
        grid = make_grid()
        assert exterior_connected(grid) == self.csgraph_connected(grid)

    def test_matches_csgraph_on_random_masks(self):
        rng = np.random.default_rng(22)
        outcomes = []
        for _ in range(50):
            n = int(rng.integers(6, 21))
            refuge = rng.random((n, n)) < rng.uniform(0.05, 0.5)
            grid = grid_with_regions(n, np.where(refuge, REFUGE, EXTERIOR))
            outcomes.append(self.csgraph_connected(grid))
            assert exterior_connected(grid) == outcomes[-1]
        assert 10 <= sum(outcomes) <= 40  # both answers are exercised

    def test_no_exterior_is_not_connected(self):
        assert not exterior_connected(grid_with_regions(6, np.full(36, REFUGE)))
