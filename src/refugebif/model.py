"""Steady-state residuals and Jacobians for both prey-diffusion variants.

The prey equation lives on every cell, the predator equation on exterior
cells only.  The density-dependent prey flux div(u grad u) is discretized
through the identity div(u grad u) = Laplacian(u^2)/2, which reuses the
conservative Neumann Laplacian and gives the clean Jacobian block
L diag(u); the linear variant uses L directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.sparse as sp

from .errors import ParameterError, SingularResponseError
from .geometry import (
    Grid,
    Region,
    ScalarField,
    SparseOperator,
    csr_positions,
    exterior_laplacian_block,
    neumann_laplacian,
    predation_values,
)

# floor for the Holling-II denominator 1 + m*u; physically unreachable for u >= 0
EPS_DENOMINATOR = 1e-12


class Diffusion(Enum):
    """Prey dispersal rule."""

    NONLINEAR = "nonlinear"
    LINEAR = "linear"


@dataclass(frozen=True)
class ModelParams:
    """Dimensionless model parameters.

    lam  prey growth/carrying scale (> 0)
    mu   predator mortality (>= 0), the continuation parameter
    c    conversion efficiency (> 0)
    m    predation saturation constant (>= 0)
    b    attack efficiency outside the refuge (> 0)
    d    predator/prey diffusivity ratio (> 0); used only by the time
         integrator, the steady analysis absorbs it
    """

    lam: float
    mu: float
    c: float
    m: float
    b: float
    d: float = 1.0
    variant: Diffusion = Diffusion.NONLINEAR

    def __post_init__(self):
        if not all(x > 0.0 and math.isfinite(x) for x in (self.lam, self.c, self.b, self.d)):
            raise ParameterError("lam, c, b and d must all be positive and finite")
        if not all(x >= 0.0 and math.isfinite(x) for x in (self.mu, self.m)):
            raise ParameterError("mu and m must be non-negative and finite")


@dataclass(frozen=True)
class State:
    """Paired prey/predator fields; v is identically zero on refuge cells."""

    u: ScalarField
    v: ScalarField

    def __post_init__(self):
        if self.u.support is not Region.ALL:
            raise ValueError("u must be supported on the whole domain")
        if self.v.support is not Region.EXTERIOR:
            raise ValueError("v must be supported on the exterior region")
        if self.u.grid is not self.v.grid:
            raise ValueError("u and v must share one grid")

    @property
    def grid(self) -> Grid:
        return self.u.grid

    def pack(self) -> np.ndarray:
        """Stack (u on all cells, v on exterior cells) into one unknown vector."""
        return np.concatenate(
            [self.u.values, self.v.values[self.grid.exterior_cells]]
        )

    @classmethod
    def unpack(cls, grid: Grid, vec: np.ndarray) -> "State":
        u = vec[: grid.n_cells]
        v = np.zeros(grid.n_cells)
        v[grid.exterior_cells] = vec[grid.n_cells :]
        return cls(
            ScalarField(grid, u, Region.ALL),
            ScalarField(grid, v, Region.EXTERIOR),
        )


def semi_trivial_state(grid: Grid, lam: float) -> State:
    """The predator-free steady state (lam, 0); lam = 0 gives the trivial one."""
    if not (lam >= 0.0 and math.isfinite(lam)):
        raise ParameterError("lam must be non-negative and finite")
    return State(
        ScalarField.constant(grid, lam, Region.ALL),
        ScalarField.constant(grid, 0.0, Region.EXTERIOR),
    )


def nonlinear_diffusion(u: ScalarField) -> ScalarField:
    """Density-dependent dispersal term div(u grad u) = Laplacian(u^2)/2."""
    lap = neumann_laplacian(u.grid, Region.ALL).matrix
    return ScalarField(u.grid, 0.5 * (lap @ (u.values * u.values)), Region.ALL)


def _holling_denominator(params: ModelParams, u: np.ndarray) -> np.ndarray:
    den = 1.0 + params.m * u
    if den.min() <= EPS_DENOMINATOR:
        raise SingularResponseError(
            f"1 + m*u reached {den.min():.3e}; state left the admissible region"
        )
    return den


def residual(params: ModelParams, state: State) -> np.ndarray:
    """Stacked steady-state residual (prey rows on all cells, predator rows on
    exterior cells); zero iff the state is a discrete steady state."""
    grid = state.grid
    u = state.u.values
    v = state.v.values
    den = _holling_denominator(params, u)
    bf = predation_values(grid, params.b)
    lap = neumann_laplacian(grid, Region.ALL).matrix
    if params.variant is Diffusion.NONLINEAR:
        dispersal = 0.5 * (lap @ (u * u))
    else:
        dispersal = lap @ u
    prey = dispersal + params.lam * u - u * u - bf * u * v / den

    # the exterior block's rows are L_ext's exterior rows, entry for entry
    ext = grid.exterior_cells
    v_e = v[ext]
    predator = (
        exterior_laplacian_block(grid) @ v_e
        - params.mu * v_e
        + params.c * u[ext] * v_e / den[ext]
    )
    return np.concatenate([prey, predator])


def jacobian(params: ModelParams, state: State) -> SparseOperator:
    """Derivative of :func:`residual` in the packed unknowns.  Its values are
    written into one CSR pattern per grid, for both variants, cached with the
    data positions of each term and the entries that are the same for every
    J: L (the linear variant's) and the exterior block.  Zeros stay stored
    (SciPy's sums drop them)."""
    grid = state.grid
    ext, n = grid.exterior_cells, grid.n_cells
    lap = neumann_laplacian(grid, Region.ALL).matrix
    cached = grid._cache.get("jacobian_pattern")
    if cached is None:
        block = exterior_laplacian_block(grid)
        cells, k, coo, block_coo = np.arange(n), n + np.arange(ext.size), lap.tocoo(), block.tocoo()
        terms = dict(lap=(coo.row, coo.col), u_diag=(cells, cells), uv=(ext, k), vu=(k, ext),
                     block=(n + block_coo.row, n + block_coo.col), v_diag=(k, k))
        rows, cols = (np.concatenate(ix) for ix in zip(*terms.values()))
        template = sp.csr_matrix((np.ones(rows.size), (rows, cols)), shape=(k.size + n,) * 2)
        for shared in (template.indices, template.indptr):  # by every J: keep them intact
            shared.setflags(write=False)
        at = {name: csr_positions(template, *ix) for name, ix in terms.items()}
        constant = np.zeros(template.nnz)
        constant[at["lap"]] = lap.data
        constant[at["block"]] = block.data
        cached = grid._cache["jacobian_pattern"] = template, at, constant
    template, at, constant = cached

    # the terms in the order of a J built from zeros, so that the sums on the
    # diagonals, L's or the block's plus the reaction's, keep their bits
    u, v = state.u.values, state.v.values
    den = _holling_denominator(params, u)
    den2 = den * den
    u_e, v_e, den_e = u[ext], v[ext], den[ext]
    data = constant.copy()
    if params.variant is Diffusion.NONLINEAR:
        data[at["lap"]] = lap.data * u[lap.indices]
    data[at["u_diag"]] += params.lam - 2.0 * u - predation_values(grid, params.b) * v / den2
    data[at["uv"]] = -params.b * u_e / den_e
    data[at["vu"]] = params.c * v_e / den2[ext]
    data[at["v_diag"]] += -params.mu + params.c * u_e / den_e
    return SparseOperator(sp.csr_matrix((data, template.indices, template.indptr), template.shape))
