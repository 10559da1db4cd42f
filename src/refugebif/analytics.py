"""Closed-form bifurcation data used as independent oracles for continuation.

Positive solutions branch off the predator-free state at
mu_lambda = c*lam / (1 + m*lam), identically for both diffusion variants.
The first-order branch shape is (lam - s*alpha, s) with the kernel profile
alpha solving a Neumann Helmholtz problem whose coefficient distinguishes
the variants:

    nonlinear:  (-L + I)    alpha = b(x) / (1 + m*lam)
    linear:     (-L + lam I) alpha = b(x) * lam / (1 + m*lam)

and the onset slope is

    mu'(0) = -c / (|Omega_1| (1 + m*lam)^2) * integral_{Omega_1} alpha < 0.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import GeometryError, NumericalError
# splu is not called here; it stays bound because perfbench/tracing.py wraps it
from .geometry import (
    Grid,
    Region,
    ScalarField,
    dct_solver,
    exterior_connected,
    integrate,
    neumann_laplacian,
    predation_field,
    shifted_laplacian_solver,
    splu,
)
from .model import Diffusion, ModelParams


@dataclass(frozen=True)
class BifurcationData:
    """Onset data for one parameter set and diffusion variant."""

    mu_lambda: float
    kernel_profile: ScalarField
    slope_at_onset: float
    omega1_area: float


def bifurcation_point(params: ModelParams) -> float:
    """Predator mortality at which positive solutions branch off (lam, 0)."""
    return params.c * params.lam / (1.0 + params.m * params.lam)


def kernel_profile(grid: Grid, params: ModelParams) -> ScalarField:
    """Spatial prey-depletion shape of the first-order branch (strictly
    positive); the Helmholtz problem is solved on the whole rectangle by the
    DCT (geometry.dct_solver)."""
    bf = predation_field(grid, params.b).values
    if params.variant is Diffusion.NONLINEAR:
        shift = 1.0
        rhs = bf / (1.0 + params.m * params.lam)
    else:
        shift = params.lam
        rhs = bf * params.lam / (1.0 + params.m * params.lam)
    vals = dct_solver(grid, shift, 1.0)(rhs)
    if vals.min() <= 0.0:
        raise NumericalError("kernel profile lost positivity; discretization broken")
    return ScalarField(grid, vals, Region.ALL)


def branch_slope(grid: Grid, params: ModelParams) -> float:
    """d(mu)/ds of the bifurcating branch at onset; always negative."""
    if grid.n_exterior == 0:
        raise GeometryError("exterior region is empty")
    return bifurcation_data(grid, params).slope_at_onset


def onset_transversality(grid: Grid, params: ModelParams) -> float:
    """Exterior integral of the predator component of the second branch
    derivative at onset, 2 |Omega_1| mu'(0); being nonzero is what licenses
    the slope formula."""
    return 2.0 * grid.n_exterior * grid.cell_area * branch_slope(grid, params)


def bifurcation_data(grid: Grid, params: ModelParams) -> BifurcationData:
    """Bundle of onset quantities for one variant (used to seed continuation)."""
    kern = kernel_profile(grid, params)
    area = grid.n_exterior * grid.cell_area
    saturation = (1.0 + params.m * params.lam) ** 2
    return BifurcationData(
        mu_lambda=bifurcation_point(params),
        kernel_profile=kern,
        slope_at_onset=-params.c / (area * saturation) * integrate(kern, Region.EXTERIOR),
        omega1_area=area,
    )


def v_block_eigenvalue(
    grid: Grid,
    params: ModelParams,
    mu: float,
    tol: float = 1e-10,
    max_iters: int = 200,
) -> float:
    """Smallest eigenvalue of the predator block -L_ext + (mu - mu_lambda) I
    at the predator-free state.

    The block shares eigenvectors with -L_ext, so its smallest eigenvalue is
    nu_min(-L_ext) + (mu - mu_lambda); nu_min is found by inverse power
    iteration on the well-conditioned shift I - L_ext, which
    geometry.shifted_laplacian_solver solves on full-grid arrays (zero on
    the refuge).  In the discrete setting nu_min is exactly zero (constant
    eigenvector, zero row sums), so the crossing sits exactly at
    mu = mu_lambda.
    """
    if not exterior_connected(grid):
        warnings.warn(
            "exterior region is disconnected: the zero eigenvalue is no longer "
            "simple and the onset analysis does not apply",
            RuntimeWarning,
            stacklevel=2,
        )
    solve = shifted_laplacian_solver(grid, 1.0, 1.0, Region.EXTERIOR)
    lap = neumann_laplacian(grid, Region.EXTERIOR).matrix

    # deterministic start with guaranteed overlap onto the constant mode
    x = grid.cell_x / grid.domain_length[0]
    y = grid.cell_y / grid.domain_length[1]
    z = np.where(grid.refuge_mask, 0.0, 1.0 + 0.25 * np.cos(np.pi * x) * np.cos(np.pi * y))
    z /= np.linalg.norm(z)
    for _ in range(max_iters):
        z = solve(z)
        z /= np.linalg.norm(z)
        bz = z - lap @ z
        rho = float(z @ bz)
        if np.linalg.norm(bz - rho * z) <= tol * max(1.0, abs(rho)):
            break
    else:
        raise NumericalError("inverse power iteration did not converge")
    nu_min = rho - 1.0
    return nu_min + (mu - bifurcation_point(params))
