"""Correctness checks for benchmark outputs, with numpy/scipy references.

Nothing here calls into factorchain: every reference (eigenpairs, M^p,
solves) is computed from the dense matrix with numpy, so a fault in the
program cannot also hide in its own oracle.  Each check returns a
``Check``; a workload is correct when all of its checks pass.

Tolerances are the documented contracts:

* factor: for every probe v, |log(||C^T v||^2 / v^T M^p v)| <= tol, where
  tol is eps for a refined p = -1 factor and 2 eps_total for a direct
  chain (C C^T is within exp(+-tol) of M^p in the Loewner order);
* mean: ||mu - M^{-1} h||_M <= (e^eps - 1) ||M^{-1} h||_M, which follows
  from the same Loewner bound applied to mu = C C^T h;
* batch mean: count (xbar - mu)^T P (xbar - mu), with P the inverse of
  the target covariance, has mean n; it must lie within four standard
  deviations sqrt(2n) of n, after the exp(+-tol) slack;
* whitened form: mean((x - mu)^T P (x - mu)) / n lies in exp(+-tol),
  widened by four standard errors measured from the same samples;
* prefix: the first k rows of a batch equal a separate draw of k samples
  with the same seed, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str


class DenseReference:
    """Eigendecomposition of a dense symmetric positive definite M."""

    def __init__(self, m_dense: np.ndarray):
        self.m = np.asarray(m_dense, dtype=np.float64)
        self.w, self.u = np.linalg.eigh(self.m)
        if self.w[0] <= 0.0:
            raise ValueError("reference matrix is not positive definite")

    @property
    def n(self) -> int:
        return self.m.shape[0]

    def power(self, q: float) -> np.ndarray:
        return (self.u * self.w ** q) @ self.u.T

    def quad(self, v: np.ndarray, q: float) -> np.ndarray:
        """v^T M^q v for each column of v."""
        c = self.u.T @ v
        return np.sum((self.w ** q)[:, None] * c * c, axis=0)

    def probes(self, rng: np.random.Generator, count: int = 8) -> np.ndarray:
        """Random probes plus the two lowest and two highest eigenvectors."""
        ext = self.u[:, [0, 1, self.n - 2, self.n - 1]]
        return np.hstack([rng.standard_normal((self.n, count)), ext])


def factor_check(apply_transpose, ref: DenseReference, p: float, tol: float,
                 probes: np.ndarray) -> Check:
    """||C^T v||^2 against v^T M^p v, for a block of probe columns."""
    ct = np.asarray(apply_transpose(probes))
    got = np.sum(ct * ct, axis=0)
    want = ref.quad(probes, p)
    worst = float(np.max(np.abs(np.log(got / want))))
    return Check("factor", bool(worst <= tol),
                 f"max |log ratio| {worst:.4g} vs tol {tol:.4g}")


def mean_check(mean: np.ndarray, ref: DenseReference, h: np.ndarray,
               eps: float) -> Check:
    """Prepared mean against numpy.linalg.solve(M, h), in the M-norm."""
    want = np.linalg.solve(ref.m, h)
    err = np.asarray(mean) - want
    err_m = math.sqrt(float(err @ ref.m @ err))
    size_m = math.sqrt(float(want @ ref.m @ want))
    limit = math.expm1(eps) * size_m
    return Check("mean", bool(err_m <= limit),
                 f"||mu - M^-1 h||_M {err_m:.4g} vs limit {limit:.4g}")


def batch_mean_check(samples: np.ndarray, mu: np.ndarray,
                     precision: np.ndarray, tol: float) -> Check:
    """Batch mean within four standard errors of mu, in the whitened norm."""
    count, n = samples.shape
    d = samples.mean(axis=0) - mu
    stat = count * float(d @ precision @ d)
    lo = n * math.exp(-tol) - 4.0 * math.sqrt(2.0 * n) * math.exp(tol)
    hi = n * math.exp(tol) + 4.0 * math.sqrt(2.0 * n) * math.exp(tol)
    return Check("batch_mean", bool(lo <= stat <= hi),
                 f"count*|xbar-mu|_P^2 {stat:.4g} in [{lo:.4g}, {hi:.4g}]")


def whitened_check(samples: np.ndarray, mu: np.ndarray,
                   precision: np.ndarray, tol: float) -> Check:
    """mean((x - mu)^T P (x - mu)) / n within exp(+-tol), widened by 4 SE."""
    count, n = samples.shape
    y = samples - mu
    per = np.einsum("ij,jk,ik->i", y, precision, y) / n
    q = float(per.mean())
    se = float(per.std(ddof=1)) / math.sqrt(count) if count > 1 else math.inf
    lo, hi = math.exp(-tol) - 4.0 * se, math.exp(tol) + 4.0 * se
    return Check("whitened", bool(lo <= q <= hi),
                 f"q {q:.5g} in [{lo:.5g}, {hi:.5g}]")


def prefix_check(prefix: np.ndarray, batch: np.ndarray) -> Check:
    """A short draw equals the head of a longer one with the same seed."""
    k = prefix.shape[0]
    same = prefix.shape[1:] == batch.shape[1:] and np.array_equal(prefix, batch[:k])
    return Check("prefix", bool(same), f"first {k} row(s) {'equal' if same else 'differ'}")


def same_check(name: str, a: np.ndarray, b: np.ndarray) -> Check:
    """Bitwise equality of two outputs that must not depend on the run."""
    same = a.shape == b.shape and np.array_equal(a, b)
    return Check(name, bool(same), "identical" if same else "differ")
