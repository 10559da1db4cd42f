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
from scipy.sparse import _sparsetools

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
    grid operators, the pattern of J, the DCT transforms, the last
    shifted solver per region and the last predation field.
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
    empty row sums an entry of the next one, which leaves the max as it is,
    and an empty last row a 0 appended for it."""
    mags = np.abs(mat.data)
    if mat.indptr[-2] == mags.size:
        mags = np.append(mags, 0.0)
    return float(np.add.reduceat(mags, mat.indptr[:-1]).max())


def csr_matvec(mat: sp.csr_matrix, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write ``mat @ x`` into ``out`` and return it, with the bits of SciPy's
    product: this is the kernel that ``@`` runs into a zeroed array, called
    without its dispatch and without a new array (SciPy's private binding)."""
    out.fill(0.0)
    _sparsetools.csr_matvec(*mat.shape, mat.indptr, mat.indices, mat.data, x, out)
    return out


def dia_matvec(mat: sp.dia_matrix, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``csr_matvec`` for a DIA matrix: ``mat @ x`` written into ``out``, by
    the kernel that ``@`` runs, with its bits and without its dispatch."""
    out.fill(0.0)
    _sparsetools.dia_matvec(*mat.shape, *mat.data.shape, mat.offsets, mat.data, x, out)
    return out


def splu(a, **options):
    """SciPy's sparse LU of the CSC matrix ``a`` (``splu(a, **LU_OPTIONS)``).

    ``scipy.sparse.linalg``, and the ``scipy.linalg`` it loads, are imported
    on the first call rather than with the package, since many runs never
    factor (``analyze``, and ``simulate`` while the prey stays smooth).
    Each module that factors binds this function as its own ``splu``, so
    that its factorizations can be wrapped apart from the others'.
    """
    from scipy.sparse.linalg import splu as superlu

    return superlu(a, **options)


def release_free_memory():
    """Return free heap pages to the system, where the C library has malloc_trim.

    SuperLU sizes its factor arrays generously and writes only part of them.
    A kept LU sits below the arrays made after it, so once freed it leaves a
    hole in the heap that the C library does not give back, and later
    factors and arrays at other offsets in it make more of its pages
    resident, raising the peak RSS of the traces and Newton solves that
    follow.  glibc's malloc_trim(0) releases the hole's free pages.
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
    if n_x * n_y > np.iinfo(np.intp).max:
        raise GeometryError(f"a {n_x}x{n_y} grid has too many cells to index")
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


def _dct_basis(grid: Grid):
    """(C_x, C_y, C_x^T, C_y^T, eig_x, eig_y): the DCT-II matrices of each
    axis, their transposes as C-contiguous copies (a small GEMM is slower on
    a transposed view), and the 1-D eigenvalues of -L along it, kept by the
    grid."""
    basis = grid._cache.get("dct_basis")
    if basis is None:
        n_x, n_y = grid.n_x, grid.n_y
        (_, _, wx), (_, _, wy) = _interior_faces(grid, Region.ALL)
        eig_x = 4.0 * wx * np.sin(0.5 * np.pi / n_x * np.arange(n_x)) ** 2
        eig_y = 4.0 * wy * np.sin(0.5 * np.pi / n_y * np.arange(n_y)) ** 2
        c_x, c_y = _dct_matrix(n_x), _dct_matrix(n_y)
        basis = grid._cache["dct_basis"] = (c_x, c_y, c_x.T.copy(), c_y.T.copy(), eig_x, eig_y)
    return basis


def dct_solver(grid: Grid, alpha: float, d: float):
    """``solve(b)`` for ``(alpha I - d L) x = b`` on the whole rectangle, by
    the orthonormal DCT-II in each axis, which diagonalises L: four small
    GEMMs and a division by the eigenvalues.  The grid keeps the DCT
    matrices and the 1-D eigenvalues, so a solver for a new (alpha, d) costs
    one array of eigenvalues; the solver itself is not kept."""
    n_x, n_y = grid.n_x, grid.n_y
    c_x, c_y, c_xt, c_yt, eig_x, eig_y = _dct_basis(grid)
    inv_eig = 1.0 / (alpha + d * (eig_y[:, None] + eig_x[None, :]))

    def solve(b):
        b_hat = c_y @ b.reshape(n_y, n_x) @ c_xt
        b_hat *= inv_eig
        return (c_yt @ b_hat @ c_x).ravel()

    return solve


def shifted_laplacian_solver(grid: Grid, alpha: float, d: float, region: Region = Region.ALL):
    """``solve(b)`` for ``(alpha I - d L) x = b``, L the Neumann Laplacian of
    ``region`` (alpha, d > 0), on full-grid arrays; kept by the grid.

    On the whole rectangle this is ``dct_solver``.  The EXTERIOR solve is
    the same DCT solve with a capacitance correction for the faces cut by
    the refuge, and returns exact zeros on the refuge.  README's "Numerical
    design notes" give the formulas and the references.
    """
    key = ("shifted_laplacian_solver", region)
    if grid._cache.get(key, (None, None))[:2] != (alpha, d):
        grid._cache[key] = (alpha, d, _build_shifted_laplacian_solver(grid, alpha, d, region))
    return grid._cache[key][2]


def _build_shifted_laplacian_solver(grid: Grid, alpha: float, d: float, region: Region):
    (px, qx, wx), (py, qy, wy) = _interior_faces(grid, Region.ALL)
    ext = grid.cell_region == EXTERIOR
    cut_x, cut_y = ext[px] != ext[qx], ext[py] != ext[qy]
    if region is Region.ALL or not (cut_x.any() or cut_y.any()):
        return dct_solver(grid, alpha, d)

    n_x, n_y = grid.n_x, grid.n_y
    c_x, c_y, c_xt, c_yt, eig_x, eig_y = _dct_basis(grid)
    inv_eig = 1.0 / (alpha + d * (eig_y[:, None] + eig_x[None, :]))
    # The EXTERIOR matrix is M - B D B^T, M = alpha I - d L on the rectangle,
    # B holding e_p - e_q per cut face, D = diag(d w); by Woodbury x = M^-1
    # (b + B s), s = Cap B^T M^-1 b, Cap = (D^-1 - B^T M^-1 B)^-1.  A cut
    # x-face joins cells (j, i) and (j, i + 1), so its entry of B^T x, x =
    # C_y^T X C_x, is C_y[:, j]^T X (C_x[:, i] - C_x[:, i + 1]); a y-face
    # joins (j, i) and (j + 1, i).  With both kinds' columns stacked in U =
    # left (x-face rows, y-face row differences) and V = right (x-face column
    # differences, y-face columns), B^T x is U^T X V read at the faces'
    # slots, and C_y (B s) C_x^T is U S V^T with S zero off them.
    def block(p):
        """The rows and columns of the cells p, and each cell's place in them."""
        rows, row_at = np.unique(p // n_x, return_inverse=True)
        cols, col_at = np.unique(p % n_x, return_inverse=True)
        return rows, cols, row_at, col_at

    rows_x, cols_x, row_x, col_x = block(px[cut_x])
    rows_y, cols_y, row_y, col_y = block(py[cut_y])
    left = np.hstack([c_y[:, rows_x], c_y[:, rows_y] - c_y[:, rows_y + 1]])
    right = np.hstack([c_x[:, cols_x] - c_x[:, cols_x + 1], c_x[:, cols_y]])
    left_t, right_t = left.T.copy(), right.T.copy()
    shape = (left.shape[1], right.shape[1])
    at = np.concatenate([row_x * shape[1] + col_x,
                         (rows_x.size + row_y) * shape[1] + cols_x.size + col_y])
    w = np.concatenate([np.full(row_x.size, wx), np.full(row_y.size, wy)])

    # B^T M^-1 B, one column per face, so that no k x n_cells array is made
    gram = np.empty((at.size, at.size))
    s = np.zeros(shape[0] * shape[1])
    for f, slot in enumerate(at):
        s[slot] = 1.0
        gram[:, f] = (left_t @ (inv_eig * (left @ s.reshape(shape) @ right_t)) @ right).ravel()[at]
        s[slot] = 0.0
    cap = np.linalg.inv(np.diag(1.0 / (d * w)) - gram)
    refuge = np.flatnonzero(grid.refuge_mask)

    def solve_exterior(b):
        x_hat = c_y @ b.reshape(n_y, n_x) @ c_xt
        x_hat *= inv_eig
        s = np.zeros(shape[0] * shape[1])  # S, zero off the slots at
        s[at] = cap @ (left_t @ x_hat @ right).ravel()[at]
        correction = left @ s.reshape(shape) @ right_t
        correction *= inv_eig
        x_hat += correction
        x = (c_yt @ x_hat @ c_x).ravel()
        x[refuge] = 0.0
        return x

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
    return ScalarField(grid, predation_values(grid, b), Region.ALL)


def predation_values(grid: Grid, b: float) -> np.ndarray:
    """The values of ``predation_field(grid, b)``, read-only; the grid keeps
    the last b's."""
    cached = grid._cache.get("predation")
    if cached is None or cached[0] != b:
        if not (b > 0.0 and math.isfinite(b)):
            raise ParameterError(f"attack efficiency b must be positive and finite, got {b}")
        vals = np.where(grid.refuge_mask, 0.0, float(b))
        vals.setflags(write=False)
        cached = grid._cache["predation"] = (b, vals)
    return cached[1]


def exterior_connected(grid: Grid) -> bool:
    """Whether the predator habitat forms a single connected component.

    Label propagation over the faces that join two exterior cells: every
    cell starts labelled by its own index, each round gives both cells of a
    face the smaller of their labels and then replaces each label by the
    label of the cell it names (pointer jumping), until a round changes
    nothing.  A label is always a cell of the same component, so each
    component ends with one label, its least cell; the habitat is connected
    when exactly one exterior cell is its own label.
    """
    if grid.n_exterior == 0:
        return False
    (px, qx, _), (py, qy, _) = _interior_faces(grid, Region.EXTERIOR)
    label = np.arange(grid.n_cells)
    while True:
        before = label.copy()
        # no cell appears twice in one face list's p or q, so each
        # assignment writes every cell at most once
        for p, q in ((px, qx), (qx, px), (py, qy), (qy, py)):
            label[p] = np.minimum(label[p], label[q])
        label = label[label]
        if np.array_equal(label, before):
            break
    ext = grid.exterior_cells
    return np.count_nonzero(label[ext] == ext) == 1
