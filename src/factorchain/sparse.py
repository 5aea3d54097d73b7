"""Sparse symmetric matrices and SDDM structure.

The carrier type stores one matrix: the full symmetric expansion in CSR
form, three read-only numpy arrays (indptr, indices, data) with int32
indices, sorted within each row, no duplicates and no explicit zeros
(_csr_arrays refuses a size past int32).  Every operation on
them runs through scipy's compiled CSR kernels (scipy.sparse._sparsetools)
in the sequence scipy's csr_matrix methods run them, so each result has
the bits scipy's gave:

  - the constructor: coo_tocsr, then csr_sort_indices, csr_sum_duplicates
    and csr_eliminate_zeros, which every arithmetic result passes through
    too (scipy's tocsr, sum_duplicates and eliminate_zeros);
  - sums and scalings (blend, identity_minus_scaled, scaled_shift): the
    data scaled entrywise, then csr_plus_csr (scipy's +);
  - square: csr_matmat_maxnnz, then csr_matmat (scipy's @);
  - products with a vector or block: csr_matvec, csr_matvecs;
  - diagonal and to_dense: csr_diagonal, csr_todense; row sums: one
    np.add.reduceat over the nonempty rows (scipy's sum(axis=1)).

The extension is loaded once, at import, by file from scipy's install
(_load_sparsetools), in well under a millisecond; import scipy.sparse
would take about 130 ms and 14 MB of every process (scipy 1.17.1, 2-CPU
x86-64 box), mostly its array-API layer.  Nothing the package runs to
build, store, load or sample an operator imports scipy.sparse; to_scipy,
edge_factor's CSC matrix and the sampled merge's resistance solves import
it on demand.

No triangle is stored: upper_triangle derives it on each call for the
readers of entry lists, and the Gremban lift is built from one list of
entries.  A matrix caches one derived form, its last scaled shift, below,
and never serializes it.  A matrix whose CSR holds at least half of its
n^2 entries is filled: a factor chain ends at its first filled level,
which it keeps as one dense factor (chain.py) and never squares.

dense_matvec multiplies a square array, such as a chain's terminal factor
F or the view F.T, by a vector or block in one gemm call on the block
padded with zero columns to a multiple of 8.  OpenBLAS sends a single
column to gemv and computes a block's edge columns in narrower kernels,
whose sums round differently.  Padded to 8, every column of every block
width rounded as it would alone (OpenBLAS 0.3.31's Haswell kernels, n
from 63 to 1,024, one and two threads; tests/test_sparse.py checks it),
so a sample block's columns do not depend on its width (the sampler's
prefix contract), and a vector gives the bits of a one-column block.
Padding to 4 is not enough.

Clenshaw's recurrence (maclaurin) multiplies a sparse matrix X, at every
degree after the first, as 2U b = (2g X + 2h I) b and adds the result to
a block it already holds.  scaled_shift(2g, 2h) is that matrix, the shift
merged into the diagonal, derived on first use and cached for the last
(scale, shift) asked for: a chain level and a depth-0 refinement each ask
for one pair, so the cache holds one matrix with its own CSR arrays, as
large as the matrix's own (64 KB on grid2d(32)).  A polynomial of degree
1 asks for none: its one degree is the first.  matvec_add multiplies into
the caller's buffer, out += A @ x, through csr_matvecs, and csr_matvec
for a vector or a single column; matvec runs the same kernels on a zeroed
result.  Each entry adds its products in the same order, starting from
out's value, and a product into a sample block allocates nothing.  Each
column is summed on its own, so a block's columns do not depend on its
width, and a vector gives the bits of a one-column block;
tests/test_sparse.py checks both, and that matvec gives scipy's csr @ x
bit for bit, so a scipy release that moves the kernels fails there.

Arithmetic keeps the expansion bitwise symmetric: the sparse product of a
symmetric CSR with sorted indices accumulates entries (i, j) and (j, i)
from the same products in the same order, and sums and scalings act
entrywise.

Also here: SDDM validation, the edge factor, the spectral bounds, the
normalization M = (1/c)(I - X) with X entrywise nonnegative, and the Gremban
lifting that turns an SDD matrix with positive off-diagonals into an SDDM
matrix of twice the size.  The bounds on an SDDM matrix and on a
nonnegative one's radius are proven by row sums (spectrum_bounds); Lanczos
(power_iteration) bounds other operators with high probability.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidParamsError,
    NonFiniteError,
    NonSymmetricError,
    NotSddError,
    NotSddmError,
)
from .rng import stream, TAG_PROBE

if TYPE_CHECKING:
    import scipy.sparse

# dense products take their block padded with zero columns to a multiple of
# this width, in one gemm call; see the module docstring
_GEMM_WIDTH = 8

_SPARSETOOLS = "scipy.sparse._sparsetools"


def _scipy_sparse_dir() -> Path:
    """scipy's sparse package directory, found without importing scipy."""
    spec = importlib.util.find_spec("scipy")
    if spec is None or not spec.submodule_search_locations:
        raise ImportError("factorchain needs scipy, which is not installed")
    return Path(spec.submodule_search_locations[0]) / "sparse"


def _load_sparsetools(directory: Path):
    """Load scipy's CSR kernel extension by file from directory and register
    it under its own module name, which a later import scipy.sparse reuses.

    Raises ImportError naming scipy's version and the directory searched
    if no _sparsetools extension for this interpreter is there.
    """
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = Path(directory) / f"_sparsetools{suffix}"
        if path.is_file():
            loader = importlib.machinery.ExtensionFileLoader(_SPARSETOOLS, str(path))
            spec = importlib.util.spec_from_file_location(_SPARSETOOLS, path, loader=loader)
            module = importlib.util.module_from_spec(spec)
            loader.exec_module(module)
            sys.modules[_SPARSETOOLS] = module
            return module
    from importlib.metadata import PackageNotFoundError, version

    try:
        found = f"scipy {version('scipy')}"
    except PackageNotFoundError:
        found = "scipy (version unknown)"
    raise ImportError(f"{found} has no _sparsetools extension in {directory}; "
                      f"factorchain calls scipy's compiled CSR kernels")


_sparsetools = sys.modules.get(_SPARSETOOLS) or _load_sparsetools(_scipy_sparse_dir())

_INT32_MAX = int(np.iinfo(np.int32).max)


def _csr_arrays(n: int, nnz: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fresh CSR arrays (indptr, indices, data) for n rows and nnz entries.

    Indices are int32, as scipy picks them while every index and count
    fits; a dimension or entry count past int32 is refused before anything
    is allocated.  SQUARE_BYTE_CAP keeps every chain level far below it.
    """
    if max(n, nnz) > _INT32_MAX:
        raise DimensionMismatchError(
            f"n = {n} with {nnz} stored entries passes the int32 indices of a CSR")
    return np.empty(n + 1, np.int32), np.empty(nnz, np.int32), np.empty(nnz)


class SparseSymMatrix:
    """Immutable symmetric sparse matrix, stored as its sorted full CSR.

    upper_triangle derives the triangle on each call, and scaled_shift
    caches its last result, the only cached state; see the module
    docstring.

    Attributes
    ----------
    n : int    dimension
    indptr, indices, data : read-only arrays of the canonical full CSR
    """

    # _shifted: ((scale, shift), scale X + shift I) of the last scaled_shift
    __slots__ = ("n", "indptr", "indices", "data", "_shifted")

    def __init__(self, n: int, rows, cols, vals):
        """Build from upper-triangle entry arrays (row <= col)."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.float64)
        if not (rows.shape == cols.shape == vals.shape) or rows.ndim != 1:
            raise DimensionMismatchError("entry arrays must be 1-d and equal length")
        if n < 0:
            raise DimensionMismatchError("negative dimension")
        if rows.size and (rows.min() < 0 or cols.max() >= n):
            raise DimensionMismatchError("entry index out of range")
        if np.any(rows > cols):
            raise NonSymmetricError("internal: entries must satisfy row <= col")
        off = rows != cols
        nnz = rows.size + int(np.count_nonzero(off))
        indptr, indices, data = _csr_arrays(n, nnz)
        _sparsetools.coo_tocsr(
            n, n, nnz,
            np.concatenate([rows, cols[off]]).astype(np.int32),
            np.concatenate([cols, rows[off]]).astype(np.int32),
            np.concatenate([vals, vals[off]]),
            indptr, indices, data)
        self._store(n, indptr, indices, data)

    def _store(self, n: int, indptr, indices, data) -> None:
        """Canonicalize and freeze fresh CSR arrays of a matrix symmetric by
        construction: sort each row, sum duplicates, drop zeros."""
        _sparsetools.csr_sort_indices(n, indptr, indices, data)
        _sparsetools.csr_sum_duplicates(n, n, indptr, indices, data)
        _sparsetools.csr_eliminate_zeros(n, n, indptr, indices, data)
        nnz = int(indptr[-1])
        if nnz < data.size:
            indices, data = indices[:nnz].copy(), data[:nnz].copy()
        if not np.all(np.isfinite(data)):
            raise NonFiniteError("matrix entries must be finite")
        for a in (indptr, indices, data):
            a.setflags(write=False)
        self.n, self.indptr, self.indices, self.data = int(n), indptr, indices, data
        self._shifted = None

    # -- construction ---------------------------------------------------

    @classmethod
    def from_entries(cls, n: int, rows, cols, vals) -> "SparseSymMatrix":
        """Build from arbitrary (i, j, v) triples.

        Mirror entries (i, j) / (j, i) must agree exactly; duplicates with
        equal values collapse, conflicting duplicates raise NonSymmetric.
        Explicit zeros are dropped.
        """
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.float64)
        if not np.all(np.isfinite(vals)):
            raise NonFiniteError("matrix entries must be finite")
        up_r = np.minimum(rows, cols)
        up_c = np.maximum(rows, cols)
        order = np.lexsort((up_c, up_r))
        up_r, up_c, v = up_r[order], up_c[order], vals[order]
        if up_r.size:
            key_new = np.empty(up_r.size, dtype=bool)
            key_new[0] = True
            key_new[1:] = (up_r[1:] != up_r[:-1]) | (up_c[1:] != up_c[:-1])
            group = np.cumsum(key_new) - 1
            first_val = v[key_new][group]
            if np.any(v != first_val):
                raise NonSymmetricError("conflicting duplicate entries")
            up_r, up_c, v = up_r[key_new], up_c[key_new], v[key_new]
        keep = v != 0.0
        return cls(n, up_r[keep], up_c[keep], v[keep])

    @classmethod
    def from_dense(cls, a) -> "SparseSymMatrix":
        a = np.asarray(a, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DimensionMismatchError("dense input must be square")
        if not np.array_equal(a, a.T):
            if np.max(np.abs(a - a.T)) > 1e-12 * max(1.0, np.max(np.abs(a))):
                raise NonSymmetricError("dense input is not symmetric")
            a = 0.5 * (a + a.T)
        r, c = np.nonzero(np.triu(a))
        return cls(a.shape[0], r, c, a[r, c])

    @classmethod
    def _from_csr(cls, n: int, indptr, indices, data) -> "SparseSymMatrix":
        """Canonicalize fresh CSR arrays that are symmetric by construction."""
        out = cls.__new__(cls)
        out._store(n, indptr, indices, data)
        return out

    # -- queries ---------------------------------------------------------

    def upper_triangle(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Upper triangle (rows, cols, vals): rows[k] <= cols[k], row-major,
        no duplicates, no explicit zeros.  Derived on every call, not cached."""
        r = np.repeat(np.arange(self.n, dtype=np.int64), np.diff(self.indptr))
        keep = self.indices >= r
        return r[keep], self.indices[keep].astype(np.int64), self.data[keep]

    @property
    def filled(self) -> bool:
        """At least half of the n^2 entries stored: a chain ends here."""
        return self.n > 0 and 2 * self.full_nnz >= self.n * self.n

    @property
    def nnz(self) -> int:
        """Upper-triangle entry count: off-diagonal pairs once, plus the diagonal."""
        return (self.full_nnz + int(np.count_nonzero(self.diagonal()))) // 2

    @property
    def full_nnz(self) -> int:
        return int(self.data.size)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim not in (1, 2) or x.shape[0] != self.n:
            raise DimensionMismatchError(
                f"matvec: expected shape ({self.n},) or ({self.n}, k), got {x.shape}")
        return self._product(x)

    def _product(self, x: np.ndarray) -> np.ndarray:
        """A @ x for a float64 vector or block of the right height, added into
        a zeroed result, as scipy's csr @ x runs it."""
        out = np.zeros(x.shape)
        self._accumulate(x, out)
        return out

    def _accumulate(self, x: np.ndarray, out: np.ndarray) -> None:
        # out is C-contiguous, so the kernel writes through its ravel; x.ravel()
        # copies a block that is not, in row-major order.  One column takes
        # the vector kernel, as csr @ x does: the same sums, without the block
        # kernel's loads and stores of out per entry
        n, k = self.n, x.size // max(self.n, 1)
        if k == 1:
            _sparsetools.csr_matvec(n, n, self.indptr, self.indices, self.data,
                                    x.ravel(), out.ravel())
        else:
            _sparsetools.csr_matvecs(n, n, k, self.indptr, self.indices, self.data,
                                     x.ravel(), out.ravel())

    def matvec_add(self, x: np.ndarray, out: np.ndarray) -> None:
        """out += A @ x in place, through the CSR kernel.

        x and out are C-contiguous float64 arrays of one shape, a vector or
        an (n, k) block; see the module docstring for the kernel.
        """
        if not (x.shape == out.shape and x.shape[:1] == (self.n,) and x.ndim in (1, 2)):
            raise DimensionMismatchError(
                f"matvec_add: expected equal shapes ({self.n},) or ({self.n}, k), "
                f"got {x.shape} and {out.shape}")
        for a in (x, out):
            if a.dtype != np.float64 or not a.flags.c_contiguous:
                raise InvalidParamsError("matvec_add: needs C-contiguous float64 arrays")
        if not out.flags.writeable:
            raise InvalidParamsError("matvec_add: out is read-only")
        self._accumulate(x, out)

    def _abs(self) -> "SparseSymMatrix":
        """|A| entrywise."""
        return SparseSymMatrix._from_csr(self.n, self.indptr.copy(), self.indices.copy(),
                                         np.abs(self.data))

    def _scaled(self, scale: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The CSR of scale * A, data scaled entrywise as scipy scales it."""
        return self.indptr, self.indices, self.data * scale

    def scaled_shift(self, scale: float, shift: float) -> "SparseSymMatrix":
        """scale X + shift I, derived on first use and cached for the last
        (scale, shift) asked for; see the module docstring."""
        key = (scale, shift)
        if self._shifted is None or self._shifted[0] != key:
            self._shifted = (key, _plus(self.n, self._scaled(scale), _eye(self.n, shift)))
        return self._shifted[1]

    def diagonal(self) -> np.ndarray:
        out = np.empty(self.n)
        _sparsetools.csr_diagonal(0, self.n, self.n, self.indptr, self.indices,
                                  self.data, out)
        return out

    def row_sums(self) -> np.ndarray:
        """Row sums of the full symmetric matrix, added as scipy's
        sum(axis=1) adds them: one np.add.reduceat over the nonempty rows."""
        out = np.zeros(self.n)
        rows = np.flatnonzero(np.diff(self.indptr))
        if rows.size:
            out[rows] = np.add.reduceat(self.data, self.indptr[rows])
        return out

    def offdiag_abs_row_sums(self) -> np.ndarray:
        return self._abs().row_sums() - np.abs(self.diagonal())

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.n, self.n))
        _sparsetools.csr_todense(self.n, self.n, self.indptr, self.indices, self.data, out)
        return out

    def to_scipy(self) -> "scipy.sparse.csr_matrix":
        """A scipy CSR copy.  It imports scipy.sparse, which nothing else
        that builds, stores or samples an operator does."""
        import scipy.sparse

        return scipy.sparse.csr_matrix(
            (self.data.copy(), self.indices.copy(), self.indptr.copy()),
            shape=(self.n, self.n))

    def min_value(self) -> float:
        return float(self.data.min()) if self.data.size else 0.0

    def same_entries(self, other: "SparseSymMatrix") -> bool:
        """Bitwise equality of the stored matrices."""
        return (
            self.n == other.n
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
            and np.array_equal(self.data, other.data)
        )

    def __repr__(self) -> str:
        return f"SparseSymMatrix(n={self.n}, nnz={self.nnz})"


def dense_matvec(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """a @ x for a square array and a vector or block, as one gemm on x
    padded with zero columns to a multiple of 8; see the module docstring."""
    n = a.shape[1]
    k = x.size // n
    padded = np.zeros((n, -(-k // _GEMM_WIDTH) * _GEMM_WIDTH))
    padded[:, :k] = x.reshape(n, k)
    out = np.ascontiguousarray((a @ padded)[:, :k])
    return out.reshape(x.shape)


# -- arithmetic helpers (all return canonical SparseSymMatrix) ------------


def _eye(n: int, value: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The CSR of value * I, as scipy scales its identity."""
    return np.arange(n + 1, dtype=np.int32), np.arange(n, dtype=np.int32), np.full(n, value)


def _plus(n: int, a, b) -> SparseSymMatrix:
    """A + B for two canonical CSR triples (indptr, indices, data), through
    csr_plus_csr as scipy's + runs it; entries that cancel are dropped."""
    (ap, aj, ax), (bp, bj, bx) = a, b
    indptr, indices, data = _csr_arrays(n, ax.size + bx.size)
    _sparsetools.csr_plus_csr(n, n, ap, aj, ax, bp, bj, bx, indptr, indices, data)
    return SparseSymMatrix._from_csr(n, indptr, indices, data)


def identity_minus_scaled(c: float, m: SparseSymMatrix) -> SparseSymMatrix:
    """Return I - c*M (scipy's I - cM: 1 + (-cM_ij) rounds as 1 - cM_ij)."""
    return _plus(m.n, _eye(m.n, 1.0), m._scaled(-c))


def square(x: SparseSymMatrix) -> SparseSymMatrix:
    """Return X @ X."""
    n = x.n
    xp, xj = x.indptr, x.indices
    nnz = int(_sparsetools.csr_matmat_maxnnz(n, n, xp, xj, xp, xj))
    indptr, indices, data = _csr_arrays(n, nnz)
    _sparsetools.csr_matmat(n, n, xp, xj, x.data, xp, xj, x.data, indptr, indices, data)
    return SparseSymMatrix._from_csr(n, indptr, indices, data)


def square_entry_bound(x: SparseSymMatrix) -> int:
    """An upper bound on nnz(X @ X), from X's pattern alone.

    Row i of X X has at most sum_{k in row i} deg(k) entries, so the square
    has at most min(n^2, that sum over all i): one gather over the CSR.
    """
    walks = int(np.diff(x.indptr)[x.indices].sum(dtype=np.int64))
    return min(x.n * x.n, walks)


def blend(x: SparseSymMatrix, y: SparseSymMatrix, wx: float = 0.5, wy: float = 0.5) -> SparseSymMatrix:
    """Return wx*X + wy*Y."""
    if x.n != y.n:
        raise DimensionMismatchError("blend: dimension mismatch")
    return _plus(x.n, x._scaled(wx), y._scaled(wy))


# -- SDDM structure ----------------------------------------------------------


@dataclass(frozen=True)
class SddmCertificate:
    """Outcome of validate_sddm: per-row dominance slack and flags."""

    is_sddm: bool
    row_slack: np.ndarray  # diag - sum of |off-diagonal| per row
    min_slack: float
    max_diag: float


def validate_sddm(m: SparseSymMatrix) -> SddmCertificate:
    """Check the SDDM property: nonpositive off-diagonals, strict dominance.

    Symmetry and finiteness are enforced by the carrier type; the
    certificate records the dominance slack reused by later stages.
    """
    r, c, v = m.upper_triangle()
    offdiag_ok = not np.any(v[r != c] > 0.0)
    slack = sdd_slack(m)
    is_sddm = bool(offdiag_ok and m.n > 0 and np.all(slack > 0.0))
    min_slack = float(slack.min()) if m.n else 0.0
    max_diag = float(m.diagonal().max()) if m.n else 0.0
    return SddmCertificate(is_sddm, slack, min_slack, max_diag)


def sdd_slack(m: SparseSymMatrix) -> np.ndarray:
    """Dominance slack with off-diagonal signs ignored (SDD check)."""
    return m.diagonal() - m.offdiag_abs_row_sums()


@dataclass(frozen=True)
class EdgeFactor:
    """B with B B^T = M exactly; at most 2 nonzeros per column.

    Edge columns sqrt(|M_ij|) (e_i - e_j) come first in the stored entry
    order, then one slack column sqrt(a_i) e_i per row with positive
    dominance slack a_i.
    """

    b: scipy.sparse.csc_matrix
    n: int
    m_prime: int


def edge_factor(m: SparseSymMatrix) -> EdgeFactor:
    cert = validate_sddm(m)
    if not cert.is_sddm:
        raise NotSddmError("edge_factor requires an SDDM matrix")
    r, c, v = m.upper_triangle()
    off = r != c
    eu, ev, w = r[off], c[off], -v[off]
    slack_rows = np.flatnonzero(cert.row_slack > 0.0)
    n_e, n_s = eu.size, slack_rows.size
    sw = np.sqrt(w)
    rows = np.concatenate([eu, ev, slack_rows])
    cols = np.concatenate([np.arange(n_e), np.arange(n_e), n_e + np.arange(n_s)])
    vals = np.concatenate([sw, -sw, np.sqrt(cert.row_slack[slack_rows])])
    # imported here: only the edge-indexed sampler and the sampled merge use B
    import scipy.sparse

    b = scipy.sparse.csc_matrix((vals, (rows, cols)), shape=(m.n, n_e + n_s))
    return EdgeFactor(b=b, n=m.n, m_prime=n_e + n_s)


@dataclass(frozen=True, eq=False)
class SddmBounds:
    """Proven lo <= lambda_min(M) and lambda_max(M) <= hi of an SDDM M.

    v is the positive vector lo came from: min_i (M v)_i / v_i, less its
    rounding, is at least lo.  The chain bounds each level's radius with it
    (nonneg_spectral_radius).
    """

    lo: float
    hi: float
    v: np.ndarray

    @property
    def kappa(self) -> float:
        """2 hi / lo.  The 2 is a margin, not a correction: the scale c =
        (1 - 1/kappa) / max_diag of normalize grows with kappa and lowers
        rho(X); without it a 32 x 32 grid's chain has 5 levels, not 4."""
        return 2.0 * self.hi / self.lo


@dataclass(frozen=True)
class Splitting:
    """Normalization M = (1/c) * (I - X) with X entrywise nonnegative, and
    the proven bounds on M's spectrum that set c."""

    c: float
    X: SparseSymMatrix
    kappa_bound: float
    bounds: SddmBounds


# spectrum_bounds' fixed iteration counts: CG iterations on M v = 1 for the
# lower bound, power steps on |M| for the upper one
BOUND_CG_STEPS = 50
BOUND_POWER_STEPS = 10


def _cg_ones(m: SparseSymMatrix, stop: float) -> np.ndarray:
    """v from at most BOUND_CG_STEPS CG iterations on M v = 1, started from
    zero; it stops once the residual norm is at most stop ||v||."""
    v, r = np.zeros(m.n), np.ones(m.n)
    p, rr = r.copy(), float(m.n)
    for _ in range(BOUND_CG_STEPS):
        mp = m.matvec(p)
        alpha = rr / float(p @ mp)
        v += alpha * p
        r -= alpha * mp
        rr, rr_last = float(r @ r), rr
        if math.sqrt(rr) <= stop * float(np.linalg.norm(v)):
            break
        p = r + (rr / rr_last) * p
    return v


def spectrum_bounds(m: SparseSymMatrix, cert: SddmCertificate) -> SddmBounds:
    """Proven bounds on both ends of an SDDM matrix's spectrum.

    Collatz-Wielandt (Horn & Johnson, Matrix Analysis, 2nd ed., 8.1) gives,
    for any entrywise positive v and w,

        lambda_min(M) >= min_i (M v)_i / v_i,   lambda_max(M) <= max_i (|M| w)_i / w_i,

    the first since M = sI - B with B >= 0 has lambda_min = s - rho(B), the
    second since lambda_max(M) <= rho(|M|).  v = w = 1 is Gershgorin.

    lo is the larger of min_slack and the first ratio at v from at most
    BOUND_CG_STEPS CG iterations on M v = 1, started from zero, less the
    rounding of M v taken against |M| v; v is used only if entrywise
    positive.  CG stops once its residual is within the rounding of M v,
    so on uniform slack s it stops after one step at v = 1/s, where both
    candidates are s = lambda_min.  hi is the least second ratio over w =
    1 and BOUND_POWER_STEPS power steps on |M|.  An early CG iterate can
    give a negative ratio, and min_slack then stands.
    """
    if not cert.is_sddm:
        raise NotSddmError("spectrum_bounds requires an SDDM matrix")
    a = m._abs()
    g = rounding_allowance(m)
    aw = a._product(np.ones(m.n))
    gershgorin = hi = float(aw.max()) * (1.0 + g)
    for _ in range(BOUND_POWER_STEPS):
        w = aw / aw.max()
        aw = a._product(w)
        hi = min(hi, float(np.max(aw / w)) * (1.0 + g))
    v = _cg_ones(m, g * gershgorin)
    lo, v_lo = cert.min_slack, np.ones(m.n)
    if np.all(v > 0.0):
        ratio = float(np.min((m.matvec(v) - g * a._product(v)) / v))
        if ratio > lo:
            lo, v_lo = ratio, v
    v_lo.setflags(write=False)
    return SddmBounds(lo=lo, hi=hi, v=v_lo)


# a Lanczos run stops once both ends have a residual norm of at most
# LANCZOS_RTOL of their Ritz values, or after LANCZOS_MAX_STEPS steps (n, if
# fewer)
LANCZOS_RTOL = 1e-3
LANCZOS_MAX_STEPS = 120


@dataclass(frozen=True)
class SpectrumBounds:
    """lo <= lambda_min, lambda_max <= hi (with high probability); residual
    is the larger pad."""

    lo: float
    hi: float
    steps: int
    residual: float
    converged: bool


def power_iteration(matvec, n: int) -> SpectrumBounds:
    """Probabilistic bounds on both ends of a symmetric operator's spectrum.

    One Lanczos run with full reorthogonalisation from the fixed TAG_PROBE
    probe, so repeated runs agree bit for bit.  Each Ritz value theta lies
    within its residual norm r = beta_k |s_k| of an eigenvalue, so lo =
    theta_min - r_min and hi = theta_max + r_max.  That this eigenvalue is
    the extreme one holds with a probability set by the random start: for
    positive semidefinite A, Kuczynski & Wozniakowski (SIAM J. Matrix
    Anal. Appl. 13(4), 1992) bound the chance that theta_max after k steps
    falls short of lambda_max by a relative eps by 1.648 sqrt(n)
    exp(-sqrt(eps) (2k - 1)); the bottom end is the top of lambda_max I - A.
    Its one caller is the refinement of a crude factor with levels, whose
    Z^T M Z has no row-sum bound (chain.refine_inverse_factor).

    The name predates the method: the benchmark's tracer wraps it by this
    name and counts calls to matvec, its first argument, as steps.
    """
    # imported here, so that importing the package and the set-ups that
    # bound spectra by row sums skip scipy.linalg
    from scipy.linalg import eigh_tridiagonal

    if n == 0:
        return SpectrumBounds(0.0, 0.0, 0, 0.0, True)
    cap = min(LANCZOS_MAX_STEPS, n)
    basis = np.empty((cap, n))
    alpha, beta = [], []
    q = stream(TAG_PROBE, n).standard_normal(n)
    q /= np.linalg.norm(q)
    for k in range(cap):
        basis[k] = q
        w = matvec(q)
        alpha.append(float(q @ w))
        for _ in range(2):  # classical Gram-Schmidt, twice, keeps w orthogonal
            w = w - basis[:k + 1].T @ (basis[:k + 1] @ w)
        b = float(np.linalg.norm(w))
        theta, s = eigh_tridiagonal(np.array(alpha), np.array(beta))
        extremes, r = theta[[0, -1]], b * np.abs(s[-1, [0, -1]])
        converged = bool(np.all(r <= LANCZOS_RTOL * np.abs(extremes)))
        if converged or k + 1 == cap:
            break
        beta.append(b)
        q = w / b
    return SpectrumBounds(lo=float(extremes[0] - r[0]), hi=float(extremes[1] + r[1]),
                          steps=k + 1, residual=float(r.max()), converged=converged)


def rounding_allowance(x: SparseSymMatrix) -> float:
    """Relative rounding allowance of the row sums of X (or |X|) times a
    vector, which the bounds carry and the chain widens each level's
    spectral floor by.

    A row of k products sums within gamma_k = k u / (1 - k u) of the sum of
    their magnitudes, for unit roundoff u = 2^-53; 2 (k + 2) u, k the most
    entries in a row, covers that, the allowance's own rounding and a
    quotient by the vector's entry.
    """
    k = int(np.diff(x.indptr).max()) if x.full_nnz else 0
    return 2.0 * (k + 2) * 2.0 ** -53


def nonneg_spectral_radius(x: SparseSymMatrix, v: np.ndarray) -> float:
    """Proven upper bound max_i (X v)_i / v_i on the spectral radius of a
    nonnegative symmetric X, for an entrywise positive v: one matvec.

    Collatz-Wielandt, with the rounding of X v.  The chain passes every
    level the v of its splitting's lower bound, so X_0 = I - cM gets 1 - c
    lo; and an exact step X' = X/2 + X^2/2 has X' v <= ((R + R^2)/2) v
    whenever X v <= R v, so each exact level's bound is at most the
    recurrence (R + R^2)/2 of the last one's.  A sampled level is bounded
    the same way.
    """
    if x.nnz == 0:
        return 0.0
    return float(np.max(x.matvec(v) / v)) * (1.0 + rounding_allowance(x))


def kappa_estimate(m: SparseSymMatrix) -> float:
    """Upper bound 2 hi / lo on an SDDM condition number, from the proven
    bounds of spectrum_bounds; see SddmBounds.kappa for the 2."""
    return spectrum_bounds(m, validate_sddm(m)).kappa


def normalize(m: SparseSymMatrix, cert: SddmCertificate) -> Splitting:
    """Split an SDDM matrix as M = (1/c)(I - X) with X >= 0 entrywise.

    c = (1 - 1/kappa) / max_i M_ii with kappa = max(2, 2 hi / lo) from the
    proven bounds of spectrum_bounds, which the splitting keeps.  With that
    scaling the spectrum of c*M sits inside [1/(2 kappa), 2 - 1/(2 kappa)]
    and rho(X) <= 1 - 1/(2 kappa).
    """
    bounds = spectrum_bounds(m, cert)
    kap = max(2.0, bounds.kappa)
    c = (1.0 - 1.0 / kap) / cert.max_diag
    x = identity_minus_scaled(c, m)
    if x.min_value() < 0.0:
        # cannot happen for a valid certificate; guards rounding surprises
        raise NotSddmError("normalization produced a negative entry")
    return Splitting(c=c, X=x, kappa_bound=kap, bounds=bounds)


# -- Gremban lifting ----------------------------------------------------------


def gremban_lift(lam: SparseSymMatrix) -> SparseSymMatrix:
    """Lift SDD Lambda = D + A_n + A_p to S = [[D + A_n, -A_p], [-A_p, D + A_n]].

    A_n holds the nonpositive off-diagonals and A_p the positive ones.  The
    lift is SDDM whenever Lambda is strictly dominant, and satisfies
    Lambda^{-1} = (1/2) [I, -I] S^{-1} [I; -I] exactly.  S acts on R^{2n}:
    vectors of the original problem embed as (v, -v)/sqrt(2)
    (gremban_embed) and solutions project back through gremban_project.
    """
    slack = sdd_slack(lam)
    if lam.n == 0 or not np.all(slack > 0.0):
        raise NotSddError("matrix is not strictly diagonally dominant: "
                          "neither SDDM nor liftable to SDDM")
    n = lam.n
    r, c, v = lam.upper_triangle()
    # A_p: the positive off-diagonals; the diagonal, which dominance makes
    # positive, stays in D + A_n.  Each block is listed by its upper entries:
    # D + A_n at (i, j) and (i + n, j + n), -A_p at (i, j + n) and (j, i + n)
    pos = (v > 0.0) & (r != c)
    dn = ~pos
    return SparseSymMatrix(
        2 * n,
        np.concatenate([r[dn], r[dn] + n, r[pos], c[pos]]),
        np.concatenate([c[dn], c[dn] + n, c[pos] + n, r[pos] + n]),
        np.concatenate([v[dn], v[dn], -v[pos], -v[pos]]))


def gremban_project(v: np.ndarray) -> np.ndarray:
    """Project a lifted vector (or batch of columns) back to R^n.

    Maps v to (v_top - v_bottom) / sqrt(2); the adjoint embedding is
    u -> (u, -u)/sqrt(2).
    """
    v = np.asarray(v, dtype=np.float64)
    if v.shape[0] % 2 != 0:
        raise DimensionMismatchError("lifted vector must have even length")
    half = v.shape[0] // 2
    out = np.subtract(v[:half], v[half:])
    out /= math.sqrt(2.0)
    return out


def gremban_embed(u: np.ndarray) -> np.ndarray:
    """Adjoint of gremban_project: u -> (u, -u)/sqrt(2)."""
    u = np.asarray(u, dtype=np.float64)
    return np.concatenate([u, -u], axis=0) / math.sqrt(2.0)
