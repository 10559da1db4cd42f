"""Discrete habitat geometry: grid, refuge partition, Neumann operators, quadrature.

The habitat is an axis-aligned rectangle split into uniform cell-centered
finite volumes.  An optional refuge is a face-aligned rectangle strictly
inside the domain; its cells carry the REFUGE label, the rest are EXTERIOR.
Predators live on EXTERIOR cells only, with a no-flux condition on the
refuge boundary, so the exterior Laplacian simply drops every face that
touches a refuge cell.  All operators are assembled face by face, which
makes row sums vanish identically (discrete conservation).
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .errors import GeometryError, ParameterError

REFUGE = np.int8(0)
EXTERIOR = np.int8(1)

# slack for deciding that a refuge coordinate sits on a cell face
_ALIGN_RTOL = 1e-9

# Keyword arguments for every sparse LU: ``splu(a, **LU_OPTIONS)``.  The
# matrices factored are structurally symmetric (the bordered one nearly so),
# so minimum degree on the pattern of A^T + A with SymmetricMode gives about
# half the fill of SciPy's default COLAMD.  The pivot threshold stays at 1:
# a diagonal pivot is taken only when it is also the largest in its column.
# ``a`` is CSC: SciPy converts any other format with a SparseEfficiencyWarning.
LU_OPTIONS = {"permc_spec": "MMD_AT_PLUS_A", "options": {"SymmetricMode": True}}
# Residual guards on solves by a stale LU accept at ROUNDOFF_FACTOR * eps *
# |A| |x| in the max-norm, about the round-off floor a direct solve reaches.
ROUNDOFF_FACTOR = 10.0


class Region(Enum):
    """Where a field lives, or what an operator/integral ranges over."""

    ALL = "all"
    EXTERIOR = "exterior"


@dataclass(frozen=True, eq=False)
class Grid:
    """Uniform cell-centered mesh with a refuge partition.

    Cells are indexed flat as ``k = j * n_x + i`` (x fastest).
    ``exterior_cells`` lists EXTERIOR flat indices in increasing order.
    Instances are immutable after construction; ``_cache`` only memoizes
    grid operators, the pattern of J, the DCT transforms and the last
    shifted solver per region.
    """

    n_x: int
    n_y: int
    h_x: float
    h_y: float
    domain_length: tuple[float, float]
    refuge_box: tuple[float, float, float, float] | None
    cell_region: np.ndarray
    exterior_cells: np.ndarray
    cell_x: np.ndarray
    cell_y: np.ndarray
    _cache: dict = field(default_factory=dict, repr=False)

    @property
    def n_cells(self) -> int:
        return self.n_x * self.n_y

    @property
    def n_exterior(self) -> int:
        return int(self.exterior_cells.size)

    @property
    def cell_area(self) -> float:
        return self.h_x * self.h_y

    @property
    def refuge_mask(self) -> np.ndarray:
        return self.cell_region == REFUGE


@dataclass(frozen=True)
class ScalarField:
    """One real value per grid cell with a declared support region.

    Fields supported on EXTERIOR must be exactly zero on refuge cells; the
    constructor enforces this and freezes the value array.
    """

    grid: Grid
    values: np.ndarray
    support: Region = Region.ALL

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)
        if vals.shape != (self.grid.n_cells,):
            raise ValueError(
                f"field has {vals.shape} values, grid has {self.grid.n_cells} cells"
            )
        if self.support is Region.EXTERIOR and np.any(vals[self.grid.refuge_mask] != 0.0):
            raise GeometryError("EXTERIOR-supported field has nonzero refuge values")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @classmethod
    def constant(cls, grid: Grid, value: float, support: Region = Region.ALL) -> "ScalarField":
        vals = np.full(grid.n_cells, float(value))
        if support is Region.EXTERIOR:
            vals[grid.refuge_mask] = 0.0
        return cls(grid, vals, support)


@dataclass(frozen=True)
class SparseOperator:
    """Square sparse linear map over stacked field unknowns."""

    matrix: sp.csr_matrix


def csr_positions(mat: sp.csr_matrix, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Indices into ``mat.data`` of the stored entries (rows[k], cols[k]);
    ``mat`` must be canonical (sorted indices, no duplicates)."""
    n = mat.shape[1]
    stored = np.repeat(np.arange(mat.shape[0]), np.diff(mat.indptr)) * n + mat.indices
    return np.searchsorted(stored, rows * n + cols)


def row_sum_norm(mat: sp.csr_matrix) -> float:
    """max_i sum_j |a_ij| of a CSR matrix (the column sums of a CSC one); an
    empty row sums an entry of the next one, which leaves the max as it is."""
    return float(np.add.reduceat(np.append(np.abs(mat.data), 0.0), mat.indptr[:-1]).max())


def release_free_memory():
    """Return free heap pages to the system, where the C library has malloc_trim.

    SuperLU sizes its factor arrays generously and writes only part of them.
    A kept LU sits below the arrays made after it, so once freed it leaves a
    hole in the heap that the C library does not give back, and later
    factors and arrays at other offsets in it make more of its pages
    resident.  At n = 64 this raised the peak RSS of two Fig. 1 traces by
    about 12 MB, and that of a Newton solve after a nonlinear simulate run
    by 2.4 MB.  glibc's malloc_trim(0) releases the hole's free pages.
    """
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):
        return
    trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
    trim(0)


def _face_index(coord: float, h: float, n: int, label: str) -> int:
    t = coord / h
    k = round(t)
    if abs(t - k) > _ALIGN_RTOL * max(1.0, abs(t)) or not (0 <= k <= n):
        raise GeometryError(
            f"refuge box coordinate {label}={coord} is not aligned to a cell face "
            f"(cell width {h})"
        )
    return int(k)


def build_grid(
    n_x: int,
    n_y: int | None = None,
    domain_length: tuple[float, float] = (1.0, 1.0),
    refuge_box: tuple[float, float, float, float] | None = None,
) -> Grid:
    """Build the discrete domain with its refuge partition.

    ``refuge_box = (x0, y0, x1, y1)`` must be aligned to cell faces and
    strictly inside the domain (its closure may not touch the outer
    boundary).  ``None`` means no refuge: every cell is EXTERIOR.
    """
    if n_y is None:
        n_y = n_x
    if n_x < 4 or n_y < 4:
        raise GeometryError(f"grid needs at least 4 cells per axis, got {n_x}x{n_y}")
    length_x, length_y = float(domain_length[0]), float(domain_length[1])
    if length_x <= 0.0 or length_y <= 0.0:
        raise GeometryError("domain side lengths must be positive")
    h_x = length_x / n_x
    h_y = length_y / n_y

    region = np.full(n_x * n_y, EXTERIOR, dtype=np.int8)
    box = None
    if refuge_box is not None:
        x0, y0, x1, y1 = (float(c) for c in refuge_box)
        i0 = _face_index(x0, h_x, n_x, "x0")
        i1 = _face_index(x1, h_x, n_x, "x1")
        j0 = _face_index(y0, h_y, n_y, "y0")
        j1 = _face_index(y1, h_y, n_y, "y1")
        if i0 >= i1 or j0 >= j1:
            raise GeometryError("refuge box is empty or inverted")
        if i0 < 1 or j0 < 1 or i1 > n_x - 1 or j1 > n_y - 1:
            raise GeometryError("refuge box must be strictly inside the domain")
        cols, rows = np.meshgrid(np.arange(i0, i1), np.arange(j0, j1))
        region[(rows * n_x + cols).ravel()] = REFUGE
        box = (x0, y0, x1, y1)

    exterior = np.flatnonzero(region == EXTERIOR)

    xs = (np.arange(n_x) + 0.5) * h_x
    ys = (np.arange(n_y) + 0.5) * h_y
    cell_x = np.tile(xs, n_y)
    cell_y = np.repeat(ys, n_x)
    for arr in (region, exterior, cell_x, cell_y):
        arr.setflags(write=False)

    return Grid(
        n_x=n_x,
        n_y=n_y,
        h_x=h_x,
        h_y=h_y,
        domain_length=(length_x, length_y),
        refuge_box=box,
        cell_region=region,
        exterior_cells=exterior,
        cell_x=cell_x,
        cell_y=cell_y,
    )


def _interior_faces(grid: Grid, region: Region):
    """(p, q, weight) triples for every face kept by the region variant.

    Weights are computed as (n/L)^2 rather than 1/h^2 so that they are exact
    integers on unit-length domains, which makes row sums cancel exactly.
    """
    idx = np.arange(grid.n_cells).reshape(grid.n_y, grid.n_x)
    px, qx = idx[:, :-1].ravel(), idx[:, 1:].ravel()
    py, qy = idx[:-1, :].ravel(), idx[1:, :].ravel()
    if region is Region.EXTERIOR:
        ext = grid.cell_region == EXTERIOR
        keep = ext[px] & ext[qx]
        px, qx = px[keep], qx[keep]
        keep = ext[py] & ext[qy]
        py, qy = py[keep], qy[keep]
    wx = (grid.n_x / grid.domain_length[0]) ** 2
    wy = (grid.n_y / grid.domain_length[1]) ** 2
    return (px, qx, wx), (py, qy, wy)


def _assemble_laplacian(grid: Grid, region: Region) -> sp.csr_matrix:
    rows, cols, vals = [], [], []
    for p, q, w in _interior_faces(grid, region):
        ww = np.full(p.size, w)
        rows.extend([p, q, p, q])
        cols.extend([q, p, p, q])
        vals.extend([ww, ww, -ww, -ww])
    n = grid.n_cells
    mat = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n),
    ).tocsr()
    mat.sum_duplicates()
    return mat


def neumann_laplacian(grid: Grid, region: Region = Region.ALL) -> SparseOperator:
    """5-point no-flux Laplacian on the full domain or the exterior region.

    Rows sum to zero exactly; the EXTERIOR variant keeps only faces joining
    two exterior cells (no-flux across the refuge boundary), leaving refuge
    rows and columns empty.
    """
    key = ("laplacian", region)
    op = grid._cache.get(key)
    if op is None:
        op = SparseOperator(_assemble_laplacian(grid, region))
        grid._cache[key] = op
    return op


def exterior_laplacian_block(grid: Grid) -> sp.csr_matrix:
    """The EXTERIOR Laplacian restricted to exterior rows and columns, in
    ``exterior_cells`` order; the operator on the packed predator unknowns."""
    block = grid._cache.get("exterior_laplacian_block")
    if block is None:
        ext = grid.exterior_cells
        block = neumann_laplacian(grid, Region.EXTERIOR).matrix[ext][:, ext]
        grid._cache["exterior_laplacian_block"] = block
    return block


def _dct_matrix(n: int) -> np.ndarray:
    """The orthonormal DCT-II matrix; its rows are the eigenvectors of the
    1-D cell-centred Neumann Laplacian, with eigenvalues -4 sin^2(pi k / 2n) / h^2."""
    # reduce k (2i + 1) mod 4n first: a cosine of pi k (i + 1/2) / n itself
    # would carry an argument error of up to pi n eps
    phase = np.outer(np.arange(n), 2 * np.arange(n) + 1) % (4 * n)
    c = np.cos(0.5 * np.pi / n * phase) * math.sqrt(2.0 / n)
    c[0] *= math.sqrt(0.5)
    return c


def dct_solver(grid: Grid, alpha: float, d: float):
    """``solve(b)`` for ``(alpha I - d L) x = b`` on the whole rectangle, by
    the orthonormal DCT-II in each axis, which diagonalises L: four small
    GEMMs and a division by the eigenvalues.  The grid keeps the DCT
    matrices and the 1-D eigenvalues, so a solver for a new (alpha, d) costs
    one array of eigenvalues; the solver itself is not kept."""
    n_x, n_y = grid.n_x, grid.n_y
    basis = grid._cache.get("dct_basis")
    if basis is None:
        (_, _, wx), (_, _, wy) = _interior_faces(grid, Region.ALL)
        eig_x = 4.0 * wx * np.sin(0.5 * np.pi / n_x * np.arange(n_x)) ** 2
        eig_y = 4.0 * wy * np.sin(0.5 * np.pi / n_y * np.arange(n_y)) ** 2
        basis = grid._cache["dct_basis"] = (_dct_matrix(n_x), _dct_matrix(n_y), eig_x, eig_y)
    c_x, c_y, eig_x, eig_y = basis
    inv_eig = 1.0 / (alpha + d * (eig_y[:, None] + eig_x[None, :]))

    def solve(b):
        b_hat = c_y @ b.reshape(n_y, n_x) @ c_x.T
        return (c_y.T @ (b_hat * inv_eig) @ c_x).ravel()

    return solve


def shifted_laplacian_solver(grid: Grid, alpha: float, d: float, region: Region = Region.ALL):
    """``solve(b)`` for ``(alpha I - d L) x = b`` on the packed unknowns of
    ``region`` (L its Neumann Laplacian; alpha, d > 0), kept by the grid.

    On the whole rectangle this is ``dct_solver``.  The EXTERIOR operator is
    the same matrix M = alpha I - d L with the k faces cut by the refuge
    taken out, M' = M - B D B^T, where B holds e_p - e_q per cut face and
    D = diag(d w_f).  M' splits into the exterior block and a refuge block,
    so its solve with b = 0 on the refuge is the exterior solve.  By
    Woodbury it costs two solves with M and a product with the k x k
    capacitance matrix (D^-1 - B^T M^-1 B)^-1, built once from k solves with
    M (Buzbee, Dorr, George & Golub 1971; Proskurowski & Widlund 1976).
    """
    key = ("shifted_laplacian_solver", region)
    if grid._cache.get(key, (None, None))[:2] != (alpha, d):
        grid._cache[key] = (alpha, d, _build_shifted_laplacian_solver(grid, alpha, d, region))
    return grid._cache[key][2]


def _build_shifted_laplacian_solver(grid: Grid, alpha: float, d: float, region: Region):
    solve_all = dct_solver(grid, alpha, d)
    if region is Region.ALL:
        return solve_all

    (px, qx, wx), (py, qy, wy) = _interior_faces(grid, Region.ALL)
    ext = grid.cell_region == EXTERIOR
    p, q = np.concatenate([px, py]), np.concatenate([qx, qy])
    w = np.concatenate([np.full(px.size, wx), np.full(py.size, wy)])
    cut = ext[p] != ext[q]
    p, q, w = p[cut], q[cut], w[cut]
    # B^T M^-1 B, one column per solve, so that no k x n_cells array is made
    gram = np.empty((p.size, p.size))
    e = np.zeros(grid.n_cells)
    for f in range(p.size):
        e[p[f]], e[q[f]] = 1.0, -1.0
        y = solve_all(e)
        gram[:, f] = y[p] - y[q]
        e[p[f]] = e[q[f]] = 0.0
    cap = np.linalg.inv(np.diag(1.0 / (d * w)) - gram)
    cells = grid.exterior_cells

    def solve_exterior(b):
        full = np.zeros(grid.n_cells)
        full[cells] = b
        y = solve_all(full)
        s = cap @ (y[p] - y[q])
        np.add.at(full, p, s)
        np.subtract.at(full, q, s)
        return solve_all(full)[cells]

    return solve_exterior


def integrate(f: ScalarField, region: Region = Region.ALL) -> float:
    """Midpoint quadrature: sum of cell values times cell area over the region."""
    if region is Region.ALL:
        total = float(f.values.sum())
    else:
        total = float(f.values[f.grid.exterior_cells].sum())
    return total * f.grid.cell_area


def predation_field(grid: Grid, b: float) -> ScalarField:
    """Attack-efficiency field: b outside the refuge, exactly 0 inside it."""
    if not (b > 0.0 and math.isfinite(b)):
        raise ParameterError(f"attack efficiency b must be positive and finite, got {b}")
    vals = np.where(grid.refuge_mask, 0.0, float(b))
    return ScalarField(grid, vals, Region.ALL)


def exterior_connected(grid: Grid) -> bool:
    """Whether the predator habitat forms a single connected component."""
    if grid.n_exterior == 0:
        return False
    n_comp = connected_components(
        exterior_laplacian_block(grid), directed=False, return_labels=False
    )
    return int(n_comp) == 1
