"""Dense reference computations used to certify the sparse pipeline.

Everything here favors transparency over speed: matrices are dense, the
eigensolver is a self-contained cyclic Jacobi iteration (round-robin
ordering, vectorized over the disjoint rotation pairs of each round), and
matrix powers and Loewner-order checks are built on top of it.  Nothing in
this module is shared with the sparse construction path, so agreement
between the two is meaningful evidence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    NoConvergenceError,
    NonFiniteError,
    NonSymmetricError,
    NotPositiveDefiniteError,
    TooLargeForDenseCheckError,
)
from .sparse import SparseSymMatrix

# the largest n any dense check here is asked to handle
DENSE_CHECK_LIMIT = 512

# dense_power's positive-definiteness floor, relative to the largest eigenvalue
PD_FLOOR = 1e-12


class DenseSym:
    """Dense symmetric matrix wrapper; enforces symmetry at construction."""

    __slots__ = ("values",)

    def __init__(self, values: np.ndarray):
        a = np.asarray(values, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DimensionMismatchError("DenseSym requires a square array")
        if not np.all(np.isfinite(a)):
            raise NonFiniteError("DenseSym requires finite entries")
        scale = max(1.0, float(np.max(np.abs(a)))) if a.size else 1.0
        if np.max(np.abs(a - a.T), initial=0.0) > 1e-12 * scale:
            raise NonSymmetricError("asymmetry exceeds 1e-12 relative tolerance")
        self.values = 0.5 * (a + a.T)
        self.values.setflags(write=False)

    @property
    def n(self) -> int:
        return self.values.shape[0]


def _as_dense_array(m) -> np.ndarray:
    if isinstance(m, DenseSym):
        return np.array(m.values)
    if isinstance(m, SparseSymMatrix):
        return m.to_dense()
    return DenseSym(np.asarray(m, dtype=np.float64)).values.copy()


def _round_robin_rounds(n: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Round-robin schedule: each round pairs all indices disjointly."""
    m = n if n % 2 == 0 else n + 1
    players = np.arange(m)
    rounds = []
    for _ in range(m - 1):
        a = players[: m // 2]
        b = players[m // 2:][::-1]
        keep = (a < n) & (b < n)
        lo = np.minimum(a[keep], b[keep])
        hi = np.maximum(a[keep], b[keep])
        rounds.append((lo.copy(), hi.copy()))
        players = np.concatenate(([players[0]], players[m - 1: m], players[1: m - 1]))
    return rounds


def jacobi_eigh(a, *, tol: float = 1e-13, max_sweeps: int = 60,
                vectors: bool = True) -> tuple[np.ndarray, np.ndarray | None]:
    """Eigendecomposition of a symmetric matrix by cyclic Jacobi rotations.

    Pairs of each round-robin round touch disjoint rows/columns, so all
    rotations of a round commute and are applied in one vectorized step.
    Returns eigenvalues ascending and, if requested, the orthonormal
    eigenvector matrix (columns).
    """
    a = _as_dense_array(m=a)
    n = a.shape[0]
    v = np.eye(n) if vectors else None
    if n <= 1:
        return a.diagonal().copy(), v
    rounds = _round_robin_rounds(n)
    fro = np.linalg.norm(a)
    off_tiny = tol * max(fro, np.finfo(float).tiny)
    off_mask = ~np.eye(n, dtype=bool)
    for _ in range(max_sweeps):
        # summing the off-diagonal entries directly avoids the cancellation
        # that ||A||_F^2 - ||diag||_F^2 hits once A is nearly diagonal
        off = math.sqrt(np.sum(a[off_mask] ** 2))
        if off <= off_tiny:
            w = a.diagonal().copy()
            order = np.argsort(w, kind="stable")
            return w[order], (v[:, order] if vectors else None)
        for lo, hi in rounds:
            apq = a[lo, hi]
            act = np.abs(apq) > np.finfo(float).tiny
            if not np.any(act):
                continue
            p, q, apq = lo[act], hi[act], apq[act]
            app = a[p, p]
            aqq = a[q, q]
            theta = (aqq - app) / (2.0 * apq)
            # smaller-root tangent keeps rotations below 45 degrees; huge
            # theta overflows to inf and correctly yields t = 0
            with np.errstate(over="ignore"):
                root = np.sqrt(1.0 + theta * theta)
            t = np.where(theta >= 0.0, 1.0, -1.0) / (np.abs(theta) + root)
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = t * c
            ccol = c[:, None]
            scol = s[:, None]
            rp = a[p, :]
            rq = a[q, :]
            a[p, :] = ccol * rp - scol * rq
            a[q, :] = scol * rp + ccol * rq
            cp = a[:, p]
            cq = a[:, q]
            a[:, p] = cp * c - cq * s
            a[:, q] = cp * s + cq * c
            a[p, q] = 0.0
            a[q, p] = 0.0
            if vectors:
                vp = v[:, p]
                vq = v[:, q]
                v[:, p] = vp * c - vq * s
                v[:, q] = vp * s + vq * c
    raise NoConvergenceError(f"jacobi_eigh: no convergence in {max_sweeps} sweeps")


def dense_power(m, p: float) -> np.ndarray:
    """Matrix power M^p through the Jacobi eigendecomposition.

    Non-integer or negative exponents require eigenvalues above PD_FLOOR
    relative to the largest one.
    """
    w, vv = jacobi_eigh(m)
    needs_pd = (p < 0.0) or (p != round(p))
    scale = max(np.max(np.abs(w)), np.finfo(float).tiny)
    if needs_pd and w.min() <= PD_FLOOR * scale:
        raise NotPositiveDefiniteError(
            f"dense_power({p}): eigenvalue {w.min():.3e} below positive floor"
        )
    wp = np.power(w, p)
    out = (vv * wp) @ vv.T
    return 0.5 * (out + out.T)


@dataclass(frozen=True)
class LoewnerResult:
    passed: bool
    eps_measured: float


def loewner_check(a, b, eps: float) -> LoewnerResult:
    """Check exp(-eps) B <= A <= exp(eps) B in the Loewner order (B PD).

    Congruence by the Cholesky factor of B reduces to a standard symmetric
    eigenproblem; eps_measured is the largest |log| generalized eigenvalue.
    A relative slack of 1e-10 on eps absorbs eigensolver rounding when the
    pair sits exactly on the boundary.
    """
    # imported here, so that importing the package skips scipy.linalg
    from scipy.linalg import solve_triangular

    ad = _as_dense_array(a)
    bd = _as_dense_array(b)
    if ad.shape != bd.shape:
        raise DimensionMismatchError("loewner_check: shape mismatch")
    try:
        chol = np.linalg.cholesky(bd)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError("loewner_check: B is not positive definite") from exc
    y = solve_triangular(chol, ad, lower=True)
    c = solve_triangular(chol, y.T, lower=True)
    c = 0.5 * (c + c.T)
    w, _ = jacobi_eigh(c, vectors=False)
    if w.min() <= 0.0:
        return LoewnerResult(False, float("inf"))
    measured = float(np.max(np.abs(np.log(w))))
    return LoewnerResult(measured <= eps * (1.0 + 1e-10) + 1e-14, measured)


def spectral_radius(x) -> float:
    """Spectral radius of a symmetric matrix by a dense Jacobi eigensolve.

    Raises TooLargeForDenseCheckError above DENSE_CHECK_LIMIT rows.
    """
    n = x.n if isinstance(x, (SparseSymMatrix, DenseSym)) else len(x)
    if n > DENSE_CHECK_LIMIT:
        raise TooLargeForDenseCheckError(
            f"n = {n} exceeds the dense check limit {DENSE_CHECK_LIMIT}")
    if n == 0:
        return 0.0
    w, _ = jacobi_eigh(x, vectors=False)
    return float(np.max(np.abs(w)))


# -- randomized property suite -------------------------------------------------


def _random_orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _random_pd(rng: np.random.Generator, n: int, lo: float = 0.5, hi: float = 2.0) -> np.ndarray:
    q = _random_orthogonal(rng, n)
    lam = rng.uniform(lo, hi, size=n)
    m = (q * lam) @ q.T
    return 0.5 * (m + m.T)


def _pair_within(rng: np.random.Generator, b: np.ndarray, eps: float) -> tuple[np.ndarray, float]:
    """Return (A, eps_true) with A within exp(+-eps_true) of B, eps_true <= eps."""
    n = b.shape[0]
    u = rng.uniform(-eps, eps, size=n)
    q = _random_orthogonal(rng, n)
    r = (q * np.exp(u)) @ q.T
    bh = dense_power(b, 0.5)
    a = bh @ (0.5 * (r + r.T)) @ bh
    return 0.5 * (a + a.T), float(np.max(np.abs(u)))


def fact_suite(trials: int = 100, seed: int = 0) -> dict:
    """Randomized checks of the Loewner-order calculus the pipeline relies on.

    Per trial: additive stability (fixed and pairwise sums), transitivity
    with summed tolerances, inversion, congruence, and the power transfer
    A ~_eps B  =>  A^p ~_{|p| eps} B^p for p in {1, -1, 1/2, -1/2}.
    Returns failure counts per property.
    """
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, 0xFAC7))))
    counts = {
        "add_fixed": 0, "add_pairwise": 0, "transitivity": 0,
        "inversion": 0, "congruence": 0, "power_transfer": 0,
    }
    slack = 1e-9
    for _ in range(trials):
        n = int(rng.integers(2, 17))
        eps1 = float(rng.uniform(0.05, 0.4))
        eps2 = float(rng.uniform(0.05, 0.4))
        b = _random_pd(rng, n)
        a, e_ab = _pair_within(rng, b, eps1)

        w = np.abs(rng.standard_normal((n, max(1, n // 2))))
        x_psd = w @ w.T  # PSD, possibly singular
        r = loewner_check(x_psd + a, x_psd + b, e_ab + slack)
        counts["add_fixed"] += not r.passed

        d = _random_pd(rng, n)
        c2, e_cd = _pair_within(rng, d, eps2)
        r = loewner_check(a + c2, b + d, max(e_ab, e_cd) + slack)
        counts["add_pairwise"] += not r.passed

        c3, e_bc = _pair_within(rng, b, eps2)
        r = loewner_check(a, c3, e_ab + e_bc + slack)
        counts["transitivity"] += not r.passed

        r = loewner_check(np.linalg.inv(a), np.linalg.inv(b), e_ab + slack)
        counts["inversion"] += not r.passed

        v = rng.standard_normal((n, n)) + 0.5 * np.eye(n)
        r = loewner_check(v.T @ a @ v, v.T @ b @ v, e_ab + slack)
        counts["congruence"] += not r.passed

        for p in (1.0, -1.0, 0.5, -0.5):
            r = loewner_check(dense_power(a, p), dense_power(b, p), abs(p) * e_ab + slack)
            if not r.passed:
                counts["power_transfer"] += 1
                break
    counts["trials"] = trials
    counts["failures"] = sum(v for k, v in counts.items() if k not in ("trials",))
    return counts
