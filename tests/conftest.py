"""Shared fixtures and grid helpers."""

import numpy as np
import pytest

from refugebif.geometry import EXTERIOR, Grid, Region, ScalarField, build_grid

REFUGE_BOX = (0.375, 0.375, 0.625, 0.625)


@pytest.fixture(scope="session")
def refuge_grid_16():
    return build_grid(16, refuge_box=REFUGE_BOX)


@pytest.fixture(scope="session")
def no_refuge_grid_16():
    return build_grid(16)


def grid_with_regions(n, region_flat):
    """Hand-built grid with an arbitrary REFUGE/EXTERIOR labeling.

    Bypasses build_grid's validation so tests can probe configurations the
    public constructor forbids (e.g. a refuge strip disconnecting the
    exterior).
    """
    base = build_grid(n)
    region = np.asarray(region_flat, dtype=np.int8).ravel()
    assert region.shape == (n * n,)
    return Grid(
        n_x=n,
        n_y=n,
        h_x=base.h_x,
        h_y=base.h_y,
        domain_length=base.domain_length,
        refuge_box=None,
        cell_region=region,
        exterior_cells=np.flatnonzero(region == EXTERIOR),
        cell_x=base.cell_x,
        cell_y=base.cell_y,
    )


def disconnected_grid(n=8):
    """Exterior split into two components by a full-width refuge strip."""
    region = np.full((n, n), EXTERIOR, dtype=np.int8)
    region[n // 2, :] = 0
    return grid_with_regions(n, region)


def random_state(grid, rng, u_range=(0.2, 2.0), v_range=(0.0, 1.0)):
    """Random bounded state with v zero on refuge cells."""
    from refugebif.model import State

    u = rng.uniform(*u_range, grid.n_cells)
    v = np.zeros(grid.n_cells)
    v[grid.exterior_cells] = rng.uniform(*v_range, grid.n_exterior)
    return State(
        ScalarField(grid, u, Region.ALL),
        ScalarField(grid, v, Region.EXTERIOR),
    )


def rough_u(grid, seed):
    """Prey values over many scales, with zeros and negatives."""
    rng = np.random.default_rng(seed)
    u = rng.uniform(-1.0, 2.0, grid.n_cells) * np.exp(rng.uniform(-5.0, 5.0, grid.n_cells))
    u[rng.random(grid.n_cells) < 0.3] = 0.0
    return u
