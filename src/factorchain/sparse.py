"""Sparse symmetric matrices and SDDM structure.

The carrier type stores one matrix: the full symmetric expansion as a
scipy CSR with sorted column indices, no duplicates and no explicit
zeros.  Matvecs, row sums and products run on it directly, and every
arithmetic result is canonicalized straight from scipy's output.  The
upper triangle, which Matrix Market files, the operator container, the
edge factor and the Gremban lift read, is derived from it on first use.

Arithmetic keeps the expansion bitwise symmetric: scipy's sparse product
of a symmetric CSR with sorted indices accumulates entries (i, j) and
(j, i) from the same products in the same order, and sums and scalings
act entrywise.

Also here: SDDM validation, the normalization splitting M = (1/c)(I - X)
with X entrywise nonnegative, condition-number estimation, and the Gremban
lifting that turns an SDD matrix with positive off-diagonals into an SDDM
matrix of twice the size.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import (
    DimensionMismatchError,
    NonFiniteError,
    NonSymmetricError,
    NotSddError,
    NotSddmError,
)
from .rng import stream, TAG_PROBE

log = logging.getLogger(__name__)


class SparseSymMatrix:
    """Immutable symmetric sparse matrix, stored as its sorted full CSR.

    Attributes
    ----------
    n : int                dimension
    rows, cols, vals :     upper-triangle view derived from the CSR:
                           rows[k] <= cols[k], sorted row-major, no
                           duplicates, no explicit zeros
    """

    __slots__ = ("n", "_csr", "_upper")

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
        full = sp.coo_matrix(
            (np.concatenate([vals, vals[off]]),
             (np.concatenate([rows, cols[off]]), np.concatenate([cols, rows[off]]))),
            shape=(n, n),
        )
        self._store(full)

    def _store(self, mat) -> None:
        """Canonicalize and freeze a scipy matrix that is symmetric by construction."""
        csr = mat.tocsr()
        csr.sum_duplicates()
        csr.eliminate_zeros()
        csr.sort_indices()
        if not np.all(np.isfinite(csr.data)):
            raise NonFiniteError("matrix entries must be finite")
        for a in (csr.data, csr.indices, csr.indptr):
            a.setflags(write=False)
        self.n = int(mat.shape[0])
        self._csr = csr
        self._upper = None

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
    def _from_scipy(cls, mat) -> "SparseSymMatrix":
        """Wrap a scipy matrix that is symmetric by construction."""
        out = cls.__new__(cls)
        out._store(mat)
        return out

    # -- queries ---------------------------------------------------------

    def _triangle(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Upper triangle (rows, cols, vals) in row-major order, derived once."""
        if self._upper is None:
            csr = self._csr
            r = np.repeat(np.arange(self.n, dtype=np.int64), np.diff(csr.indptr))
            keep = csr.indices >= r
            upper = (r[keep], csr.indices[keep].astype(np.int64), csr.data[keep])
            for a in upper:
                a.setflags(write=False)
            self._upper = upper
        return self._upper

    @property
    def rows(self) -> np.ndarray:
        return self._triangle()[0]

    @property
    def cols(self) -> np.ndarray:
        return self._triangle()[1]

    @property
    def vals(self) -> np.ndarray:
        return self._triangle()[2]

    @property
    def nnz(self) -> int:
        """Upper-triangle entry count: off-diagonal pairs once, plus the diagonal."""
        return (self.full_nnz + int(np.count_nonzero(self._csr.diagonal()))) // 2

    @property
    def full_nnz(self) -> int:
        return int(self._csr.nnz)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape[0] != self.n:
            raise DimensionMismatchError(f"matvec: expected leading dim {self.n}, got {x.shape[0]}")
        return self._csr @ x

    def diagonal(self) -> np.ndarray:
        return self._csr.diagonal()

    def row_sums(self) -> np.ndarray:
        """Row sums of the full symmetric matrix."""
        return np.asarray(self._csr.sum(axis=1)).ravel()

    def offdiag_abs_row_sums(self) -> np.ndarray:
        d = self.diagonal()
        return np.asarray(abs(self._csr).sum(axis=1)).ravel() - np.abs(d)

    def to_dense(self) -> np.ndarray:
        return self._csr.toarray()

    def to_scipy(self) -> sp.csr_matrix:
        return self._csr.copy()

    def min_value(self) -> float:
        return float(self._csr.data.min()) if self._csr.nnz else 0.0

    def same_entries(self, other: "SparseSymMatrix") -> bool:
        """Bitwise equality of the stored matrices."""
        a, b = self._csr, other._csr
        return (
            self.n == other.n
            and np.array_equal(a.indptr, b.indptr)
            and np.array_equal(a.indices, b.indices)
            and np.array_equal(a.data, b.data)
        )

    def __repr__(self) -> str:
        return f"SparseSymMatrix(n={self.n}, nnz={self.nnz})"


# -- arithmetic helpers (all return canonical SparseSymMatrix) ------------


def identity_minus_scaled(c: float, m: SparseSymMatrix) -> SparseSymMatrix:
    """Return I - c*M."""
    return SparseSymMatrix._from_scipy(sp.identity(m.n, format="csr") - c * m._csr)


def square(x: SparseSymMatrix) -> SparseSymMatrix:
    """Return X @ X (exact sparse product)."""
    return SparseSymMatrix._from_scipy(x._csr @ x._csr)


def blend(x: SparseSymMatrix, y: SparseSymMatrix, wx: float = 0.5, wy: float = 0.5) -> SparseSymMatrix:
    """Return wx*X + wy*Y."""
    if x.n != y.n:
        raise DimensionMismatchError("blend: dimension mismatch")
    return SparseSymMatrix._from_scipy(wx * x._csr + wy * y._csr)


def identity(n: int) -> SparseSymMatrix:
    idx = np.arange(n)
    return SparseSymMatrix(n, idx, idx, np.ones(n))


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
    off = m.rows != m.cols
    offdiag_ok = not np.any(m.vals[off] > 0.0)
    slack = m.diagonal() - m.offdiag_abs_row_sums()
    is_sddm = bool(offdiag_ok and m.n > 0 and np.all(slack > 0.0))
    min_slack = float(slack.min()) if m.n else 0.0
    max_diag = float(m.diagonal().max()) if m.n else 0.0
    return SddmCertificate(is_sddm, slack, min_slack, max_diag)


def sdd_slack(m: SparseSymMatrix) -> np.ndarray:
    """Dominance slack with off-diagonal signs ignored (SDD check)."""
    return m.diagonal() - m.offdiag_abs_row_sums()


@dataclass(frozen=True)
class Splitting:
    """Normalization M = (1/c) * (I - X) with X entrywise nonnegative."""

    c: float
    X: SparseSymMatrix
    kappa_bound: float


def power_iteration(matvec, n: int, *, tol: float = 1e-9,
                    maxiter: int = 500) -> tuple[float, np.ndarray, bool]:
    """Largest-eigenvalue estimate for a symmetric PSD operator.

    Returns (estimate, vector, converged).  The starting vector is a fixed
    pseudorandom probe, so repeated runs agree bit for bit.
    """
    if n == 0:
        return 0.0, np.zeros(0), True
    v = stream(TAG_PROBE, n).standard_normal(n)
    v = v / np.linalg.norm(v)
    lam = 0.0
    for _ in range(maxiter):
        w = matvec(v)
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0, v, True
        lam_new = float(v @ w)
        v = w / nw
        if abs(lam_new - lam) <= tol * max(abs(lam_new), 1e-300):
            return lam_new, v, True
        lam = lam_new
    return lam, v, False


def nonneg_spectral_radius(x: SparseSymMatrix) -> float:
    """Spectral radius of an entrywise nonnegative symmetric matrix.

    For nonnegative symmetric X the radius equals the largest eigenvalue,
    so power iteration on X + I (spectrum shifted to [0, 1 + rho]) converges
    from any probe with mass on the top eigenspace.
    """
    if x.nnz == 0:
        return 0.0
    lam, _, ok = power_iteration(lambda v: x.matvec(v) + v, x.n, tol=1e-8, maxiter=500)
    if not ok:
        log.warning("spectral radius estimate did not reach tol=1e-8")
    return max(lam - 1.0, 0.0)


def kappa_estimate(m: SparseSymMatrix) -> float:
    """Upper estimate of the condition number of an SDDM matrix.

    lambda_max comes from power iteration; lambda_min is lower-bounded by
    the smallest dominance slack (Gershgorin).  The factor 2 absorbs the
    power-iteration shortfall, keeping the estimate an upper bound.
    """
    cert = validate_sddm(m)
    if not cert.is_sddm:
        raise NotSddmError("kappa_estimate requires an SDDM matrix")
    lam_max, _, ok = power_iteration(m.matvec, m.n, tol=1e-6, maxiter=500)
    est = 2.0 * lam_max / cert.min_slack
    if not ok:
        log.warning("kappa_estimate: power iteration hit maxiter, returning best bound %.3g", est)
    return float(est)


def normalize(m: SparseSymMatrix, cert: SddmCertificate, kappa: float | None = None) -> Splitting:
    """Split an SDDM matrix as M = (1/c)(I - X) with X >= 0 entrywise.

    c = (1 - 1/kappa) / max_i M_ii with kappa = max(2, kappa bound).  With
    that scaling the spectrum of c*M sits inside [1/(2 kappa), 2 - 1/(2 kappa)]
    and rho(X) <= 1 - 1/(2 kappa).  A caller who knows a tighter bound on the
    condition number may pass it; by default an estimated upper bound is used.
    """
    if not cert.is_sddm:
        raise NotSddmError("normalize requires an SDDM matrix")
    kap = max(2.0, float(kappa) if kappa is not None else kappa_estimate(m))
    c = (1.0 - 1.0 / kap) / cert.max_diag
    x = identity_minus_scaled(c, m)
    if x.vals.size and x.min_value() < 0.0:
        # cannot happen for a valid certificate; guards rounding surprises
        raise NotSddmError("normalization produced a negative entry")
    return Splitting(c=c, X=x, kappa_bound=kap)


# -- Gremban lifting ----------------------------------------------------------


@dataclass(frozen=True)
class GrembanLift:
    """SDDM lift S of an SDD matrix with positive off-diagonals.

    S acts on R^{2n}; vectors v of the original problem embed as
    (v, -v)/sqrt(2) and solutions project back through gremban_project.
    """

    S: SparseSymMatrix
    n_original: int


def gremban_lift(lam: SparseSymMatrix) -> GrembanLift:
    """Lift SDD Lambda = D + A_n + A_p to S = [[D + A_n, -A_p], [-A_p, D + A_n]].

    A_n holds the nonpositive off-diagonals and A_p the positive ones.  The
    lift is SDDM whenever Lambda is strictly dominant, and satisfies
    Lambda^{-1} = (1/2) [I, -I] S^{-1} [I; -I] exactly.
    """
    slack = sdd_slack(lam)
    if lam.n == 0 or not np.all(slack > 0.0):
        raise NotSddError("gremban_lift requires strict diagonal dominance")
    n = lam.n
    rs, cs, vs = [], [], []
    off = lam.rows != lam.cols
    # diagonal blocks: D + A_n, duplicated
    diag_mask = ~off
    neg_mask = off & (lam.vals < 0.0)
    pos_mask = off & (lam.vals > 0.0)
    for shift in (0, n):
        rs.append(lam.rows[diag_mask] + shift)
        cs.append(lam.cols[diag_mask] + shift)
        vs.append(lam.vals[diag_mask])
        rs.append(lam.rows[neg_mask] + shift)
        cs.append(lam.cols[neg_mask] + shift)
        vs.append(lam.vals[neg_mask])
    # off-diagonal blocks: -A_p mirrored into (i, n+j) and (j, n+i)
    pr, pc, pv = lam.rows[pos_mask], lam.cols[pos_mask], lam.vals[pos_mask]
    rs.append(pr)
    cs.append(pc + n)
    vs.append(-pv)
    rs.append(pc)
    cs.append(pr + n)
    vs.append(-pv)
    s = SparseSymMatrix.from_entries(
        2 * n, np.concatenate(rs), np.concatenate(cs), np.concatenate(vs)
    )
    return GrembanLift(S=s, n_original=n)


def gremban_project(v: np.ndarray) -> np.ndarray:
    """Project a lifted vector (or batch of columns) back to R^n.

    Maps v to (v_top - v_bottom) / sqrt(2); the adjoint embedding is
    u -> (u, -u)/sqrt(2).
    """
    v = np.asarray(v, dtype=np.float64)
    if v.shape[0] % 2 != 0:
        raise DimensionMismatchError("lifted vector must have even length")
    half = v.shape[0] // 2
    return (v[:half] - v[half:]) / math.sqrt(2.0)


def gremban_embed(u: np.ndarray) -> np.ndarray:
    """Adjoint of gremban_project: u -> (u, -u)/sqrt(2)."""
    u = np.asarray(u, dtype=np.float64)
    return np.concatenate([u, -u], axis=0) / math.sqrt(2.0)
