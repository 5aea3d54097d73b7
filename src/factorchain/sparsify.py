"""One squaring step of the chain: X~ with I - X~ close to I - X/2 - X^2/2.

Given nonnegative X with I - X positive definite, both modes form the
exact product X X.  Before they do, they bound its entries
(sparse.square_entry_bound), and refuse a square that could pass
SQUARE_BYTE_CAP with SquareTooLargeError before anything of its size is
allocated.  Mode "exact" (the default) returns X/2 + X^2/2 itself.

Mode "sampled", a library-only choice, produces a sparse nonnegative X~
with I - X~ close to T = X/2 + X^2/2 in the multiplicative (Loewner)
sense, by effective-resistance subsampling of T (Spielman & Srivastava).
Only the off-diagonal (Laplacian) part is resampled; the diagonal
dominance slack is carried through exactly, so I - X~ stays SDDM and X~
stays nonnegative.  The resistances come from a Johnson-Lindenstrauss
sketch with one conjugate-gradient solve per sketch row, at every size.

The sketch and each merge attempt draw from counter-based streams keyed
by the seed, so results are reproducible for a given seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidParamsError,
    NoConvergenceError,
    NotPositiveDefiniteError,
    SquareTooLargeError,
    check_eps,
)
from .rng import stream, TAG_MERGE
from .sparse import (
    SparseSymMatrix,
    blend,
    edge_factor,
    identity_minus_scaled,
    square,
    square_entry_bound,
)

# dense certification is only attempted below this size
MEASURE_LIMIT = 256

# per-node budget multiplier for the merge-stage keep probabilities;
# empirical, balancing certification noise against output sparsity
MERGE_CONSTANT = 0.5

# The most bytes a squaring may hold at once, in either mode.  The product
# X X, its scaled copy and their blend are live together: 3 copies of each
# entry, of at most 16 bytes (an 8-byte value and a column index of up to
# 8).  2**30 admits every square at n <= 4096 (4096**2 entries, 805 MB),
# and refuses one whose entries could pass 22.4 M.  Sampled mode's merge
# holds its own copies of the blend and its resistance sketch on top.
SQUARE_BYTE_CAP = 2**30

# merge-stage draws, each with twice the budget of the last, before the
# merge falls back to the exact average
MERGE_ATTEMPTS = 8


@dataclass(frozen=True)
class SparsifyParams:
    """Knobs of one sparsified squaring step.

    eps is the multiplicative target for the step; an exact step meets it
    with no error, and a sampled step's merge sizes its draws by it.  mode
    is "exact" (the default) or "sampled"; seed and measure act in sampled
    mode only.  measure certifies a sampled step densely (n <=
    MEASURE_LIMIT) into its report.
    """

    eps: float
    seed: int = 0
    mode: str = "exact"
    measure: bool = False

    def __post_init__(self):
        check_eps(self.eps)
        if self.mode not in ("exact", "sampled"):
            raise InvalidParamsError(f"unknown mode {self.mode!r}")


@dataclass(frozen=True)
class SparsifyReport:
    """One step's sizes and errors, and how its merge stage ended.

    merge_attempts counts the merge stage's draws (0 when it drew none:
    exact mode, or too few edges to sample); merge_fallback says that all
    MERGE_ATTEMPTS draws overshot a row and the step kept the exact
    average.
    """

    nnz_out: int
    eps_requested: float
    eps_measured: float | None
    merge_attempts: int
    merge_fallback: bool


def merge_sample_count(params: SparsifyParams, n: int) -> int:
    """Merge-stage total draws: ceil(n C ln n / eps^2)."""
    per_node = MERGE_CONSTANT * math.log(max(n, 2)) / params.eps**2
    return int(math.ceil(per_node * n))


# edges whose sketch differences _effective_resistances forms at once: 7 MB
# at t = 56
_RESISTANCE_CHUNK = 1 << 14


def _effective_resistances(m_tilde: SparseSymMatrix, eu: np.ndarray, ev: np.ndarray,
                           seed: int) -> np.ndarray:
    """R_e = ||B^T M~^{-1} b_e||^2 (B B^T = M~), with B^T sketched to O(log n) rows.

    The one (columns of B, t) array is the Gaussian sketch, scaled in place
    and dropped once the probes B g exist; the endpoint differences are
    formed _RESISTANCE_CHUNK edges at a time.
    """
    # imported here, so that building, loading and sampling an operator with
    # exact squaring skip scipy.sparse
    import scipy.sparse
    from scipy.sparse.linalg import cg

    n = m_tilde.n
    b = edge_factor(m_tilde).b
    t = max(16, int(math.ceil(8.0 * math.log(max(n, 2)))))
    g = stream(seed, TAG_MERGE, 0x5E7C).standard_normal((b.shape[1], t))
    probes = b @ np.divide(g, math.sqrt(t), out=g)
    del g, b
    a = m_tilde.to_scipy()
    precond = scipy.sparse.diags(1.0 / a.diagonal())
    z = np.empty((n, t))
    for j in range(t):
        zj, info = cg(a, probes[:, j], M=precond,
                       rtol=1e-10, atol=0.0, maxiter=2000)
        if info != 0:
            raise NoConvergenceError(
                f"resistance sketch: CG solve {j} of {t} stopped with info = {info}")
        z[:, j] = zj
    r_eff = np.empty(eu.size)
    for lo in range(0, eu.size, _RESISTANCE_CHUNK):
        hi = lo + _RESISTANCE_CHUNK
        diff = z[eu[lo:hi]] - z[ev[lo:hi]]
        r_eff[lo:hi] = np.sum(diff * diff, axis=1)
    return r_eff


def average_and_sparsify(x: SparseSymMatrix, xp: SparseSymMatrix,
                         params: SparsifyParams) -> tuple[SparseSymMatrix, int, bool]:
    """Resistance-subsample the average T = X/2 + Xp/2.

    I - T decomposes as Laplacian(edge weights T_uv) + diag(slack); only
    the edge part is resampled, with keep probabilities proportional to
    weight x effective resistance (capped at 1) and kept edges reweighted
    to stay unbiased.  The slack passes through exactly, which pins the
    row sums of I - X~ and keeps X~ nonnegative as long as no sampled row
    overshoots its diagonal budget; overshoot triggers deterministic
    retries with doubled budget, which degrade gracefully toward the
    exact average.  Returns the matrix, the number of draws made and
    whether the last of MERGE_ATTEMPTS draws failed too, leaving T itself.
    """
    if x.n != xp.n:
        raise DimensionMismatchError("average_and_sparsify: dimension mismatch")
    t_avg = blend(x, xp, 0.5, 0.5)
    n = t_avg.n
    if params.mode == "exact":
        return t_avg, 0, False
    sigma = 1.0 - t_avg.row_sums()
    if n and sigma.min() <= 0.0:
        raise NotPositiveDefiniteError(
            f"dominance slack {sigma.min():.3e} is not positive"
        )
    r, c, v = t_avg.upper_triangle()
    off = r != c
    eu, ev, w = r[off], c[off], v[off]
    if n <= 2 or eu.size <= 2:
        return t_avg, 0, False
    m_tilde = identity_minus_scaled(1.0, t_avg)
    r_eff = _effective_resistances(m_tilde, eu, ev, params.seed)
    scores = w * np.maximum(r_eff, 0.0)
    scores = np.maximum(scores, 1e-12 * scores.max())
    probs = scores / scores.sum()
    diag_budget = 1.0 - sigma  # = rowsum(T), the most a row may carry
    q0 = merge_sample_count(params, n)
    diag_idx = np.arange(n)
    # Bernoulli leverage sampling: edges with q*p >= 1 pass through exactly,
    # the light tail is kept with probability q*p and reweighted 1/(q*p).
    # Only the tail fluctuates, so rows rarely overshoot their budget; a
    # doubled q pushes more edges into the exact regime, and once every
    # keep probability saturates the draw reproduces T and must succeed.
    for attempt in range(MERGE_ATTEMPTS):
        q = q0 << attempt
        pi = np.minimum(1.0, q * probs)
        keep = stream(params.seed, TAG_MERGE, attempt).random(pi.size) < pi
        w_hat = w[keep] / pi[keep]
        carried = np.zeros(n)
        np.add.at(carried, eu[keep], w_hat)
        np.add.at(carried, ev[keep], w_hat)
        new_diag = diag_budget - carried
        if new_diag.min() >= 0.0:
            return SparseSymMatrix.from_entries(
                n,
                np.concatenate([eu[keep], diag_idx]),
                np.concatenate([ev[keep], diag_idx]),
                np.concatenate([w_hat, new_diag]),
            ), attempt + 1, False
    return t_avg, MERGE_ATTEMPTS, True


def sparsify_square_step(x: SparseSymMatrix,
                         params: SparsifyParams) -> tuple[SparseSymMatrix, SparsifyReport]:
    """One chain step: X~ with I - X~ approximating I - X/2 - X^2/2.

    Both modes first raise SquareTooLarge if the product's entries,
    bounded by square_entry_bound, could pass SQUARE_BYTE_CAP, then form
    X^2.  Exact mode returns X/2 + X^2/2 itself (measured error
    identically zero); sampled mode resamples it (average_and_sparsify).
    """
    entries = square_entry_bound(x)
    if 3 * 16 * entries > SQUARE_BYTE_CAP:  # the copies SQUARE_BYTE_CAP counts
        raise SquareTooLargeError(
            f"squaring a level of n = {x.n} could make {entries} entries, whose "
            f"3 copies of 16 bytes pass SQUARE_BYTE_CAP = {SQUARE_BYTE_CAP} bytes")
    xt, attempts, fallback = average_and_sparsify(x, square(x), params)
    if params.mode == "exact":
        measured: float | None = 0.0
    elif params.measure and x.n <= MEASURE_LIMIT:
        measured = measure_step(x, xt)
    else:
        measured = None
    report = SparsifyReport(
        nnz_out=xt.nnz, eps_requested=params.eps, eps_measured=measured,
        merge_attempts=attempts, merge_fallback=fallback,
    )
    return xt, report


def measure_step(x: SparseSymMatrix, xt: SparseSymMatrix) -> float:
    """Dense log-generalized-eigenvalue width of (I - X~, I - X/2 - X^2/2)."""
    from .oracle import loewner_check

    xd = x.to_dense()
    eye = np.eye(x.n)
    target = eye - 0.5 * xd - 0.5 * (xd @ xd)
    return loewner_check(eye - xt.to_dense(), target, math.inf).eps_measured
