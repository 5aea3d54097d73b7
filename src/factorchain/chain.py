"""Factor chains for M^p and the operators built from them.

A chain is the sequence X_0..X_d where each I - X_{i+1} approximates
I - X_i/2 - X_i^2/2 and the terminal I - X_d is close to I.  Exactness of
the per-step identity

    (I - X)^p = (I + X/2)^{-p/2} (I - X/2 - X^2/2)^p (I + X/2)^{-p/2}

turns the chain into a product form: applying, level by level, the
polynomial surrogate of (I + X_i/2)^{-p/2} to a vector realizes an
operator C with C C^T close to (I - X_0)^p, rescaled to M^p through the
normalization constant.  The p = -1 case additionally supports refinement
to much tighter tolerances and a combinatorial edge factor for
edge-indexed randomness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from .errors import (
    ChainDivergedError,
    DimensionMismatchError,
    InvalidParamsError,
    NotSddmError,
    SpectrumEstimateFailedError,
    WrongExponentError,
)
from .maclaurin import MaclaurinPoly, apply_operator_poly, make
from .rng import TAG_LEVEL, substream_seed
from .sparse import (
    SparseSymMatrix,
    Splitting,
    nonneg_spectral_radius,
    power_iteration,
    validate_sddm,
)
from .sparsify import SparsifyParams, SparsifyReport, sparsify_square_step

# early-termination cap on the terminal radius; chains built with loose eps
# stop refining here so that later polynomial stages see a narrow spectrum
RHO_STOP_CAP = 0.4


def chain_length_bound(kappa: float, eps: float) -> int:
    """Level budget ceil(log_{9/8}(kappa / eps))."""
    if kappa <= 0.0 or eps <= 0.0:
        raise InvalidParamsError("kappa and eps must be positive")
    ratio = kappa / eps
    if ratio <= 1.0:
        return 0
    return int(math.ceil(math.log(ratio) / math.log(9.0 / 8.0)))


@dataclass(frozen=True)
class FactorChain:
    """Levels X_0..X_{d-1} that C applies, each paired with its polynomial.

    The terminal level X_d is built only for its radius and then dropped:
    lambdas records the measured smallest eigenvalue 1 - rho(X_i) of all
    d + 1 levels, eps_schedule lists the d per-level sparsification
    targets followed by the measured terminal gap, and eps_total is its
    sum.
    """

    n: int
    levels: tuple[SparseSymMatrix, ...]
    eps_schedule: tuple[float, ...]
    polys: tuple[MaclaurinPoly, ...]
    p: float
    d: int
    kappa_used: float
    eps_total: float
    lambdas: tuple[float, ...]
    reports: tuple[SparsifyReport, ...]

    def __post_init__(self):
        if len(self.levels) != self.d or len(self.polys) != self.d:
            raise InvalidParamsError("levels and polys must hold d entries each")
        if len(self.eps_schedule) != self.d + 1:
            raise InvalidParamsError("eps_schedule must hold d + 1 values")


def build_chain(split: Splitting, p: float, eps: float,
                sp_params: SparsifyParams | None = None) -> FactorChain:
    """Grow the chain until rho(X_i) falls under min(5 eps / 6, 0.4).

    The level budget is d_max = ceil(log_{9/8}(kappa/eps)) and each level's
    sparsification target is eps / (8 d_max); whichever of the radius test
    and the budget fires first ends the chain, and exceeding the budget by
    more than one level (or a stalled radius) raises ChainDiverged.
    """
    if not (-1.0 <= p <= 1.0):
        raise InvalidParamsError(f"exponent {p} outside [-1, 1]")
    if eps <= 0.0:
        raise InvalidParamsError("eps must be positive")
    if sp_params is None:
        sp_params = SparsifyParams(eps=1.0)
    x = split.X
    rho = nonneg_spectral_radius(x)
    if p == 0.0:
        return FactorChain(
            n=x.n, levels=(), eps_schedule=(0.0,), polys=(), p=0.0, d=0,
            kappa_used=split.kappa_bound, eps_total=0.0,
            lambdas=(1.0 - rho,), reports=(),
        )
    d_max = chain_length_bound(split.kappa_bound, eps)
    rho_stop = min(eps * 5.0 / 6.0, RHO_STOP_CAP)
    eps_level = eps / (8.0 * max(d_max, 1))
    levels: list[SparseSymMatrix] = []
    lambdas = [1.0 - rho]
    reports: list[SparsifyReport] = []
    stall = 0
    while rho > rho_stop:
        i = len(levels)
        if i >= d_max + 1:
            raise ChainDivergedError(
                f"radius {rho:.3f} above {rho_stop:.3f} after {i} levels "
                f"(budget {d_max}); sparsifier tolerance is likely too loose"
            )
        level_params = replace(
            sp_params, eps=eps_level, seed=substream_seed(sp_params.seed, TAG_LEVEL, i)
        )
        x_next, report = sparsify_square_step(x, level_params)
        rho_next = nonneg_spectral_radius(x_next)
        levels.append(x)
        x = x_next
        reports.append(report)
        lambdas.append(1.0 - rho_next)
        if lambdas[-1] <= lambdas[-2]:
            stall += 1
            if stall >= 3:
                raise ChainDivergedError(
                    "smallest eigenvalue failed to increase for 3 consecutive levels"
                )
        else:
            stall = 0
        rho = rho_next
    # x is now the terminal level X_d: only its radius enters the chain
    d = len(levels)
    eps_term = -math.log1p(-rho) if rho > 0.0 else 0.0
    poly = make(-p / 2.0, 0.5, eps_level)
    schedule = tuple([eps_level] * d + [eps_term])
    return FactorChain(
        n=x.n, levels=tuple(levels), eps_schedule=schedule, polys=(poly,) * d,
        p=p, d=d, kappa_used=split.kappa_bound, eps_total=sum(schedule),
        lambdas=tuple(lambdas), reports=tuple(reports),
    )


# -- operators -----------------------------------------------------------------


class ChainOperator:
    """C = out_scale * T_0 T_1 ... T_{d-1} with T_i = poly_i(I + X_i/2).

    Each factor is a symmetric polynomial in one level, so the transpose
    is the same product in reversed order.  C C^T approximates M^p when
    out_scale = c^{-p/2} for the normalization scale c.
    """

    kind = "chain"
    refinement = None
    __slots__ = ("chain", "out_scale")

    def __init__(self, chain: FactorChain, out_scale: float = 1.0):
        self.chain = chain
        self.out_scale = float(out_scale)

    @property
    def input_dim(self) -> int:
        return self.chain.n

    @property
    def output_dim(self) -> int:
        return self.chain.n

    def _check(self, v) -> np.ndarray:
        v = np.asarray(v, dtype=np.float64)
        if v.ndim not in (1, 2) or v.shape[0] != self.chain.n:
            raise DimensionMismatchError(
                f"expected leading dimension {self.chain.n}, got {v.shape}"
            )
        return v

    def apply(self, v: np.ndarray) -> np.ndarray:
        w = self._check(v)
        ch = self.chain
        for i in range(ch.d - 1, -1, -1):
            w = apply_operator_poly(ch.polys[i], ch.levels[i], (1.0, 0.5), w)
        return self.out_scale * w

    def apply_transpose(self, v: np.ndarray) -> np.ndarray:
        w = self._check(v)
        ch = self.chain
        for i in range(ch.d):
            w = apply_operator_poly(ch.polys[i], ch.levels[i], (1.0, 0.5), w)
        return self.out_scale * w

    def as_dense(self) -> np.ndarray:
        return self.apply(np.eye(self.chain.n))


@dataclass(frozen=True)
class RefinementInfo:
    degree: int
    scale: float
    delta: float
    eps: float
    spectrum_lo: float
    spectrum_hi: float


class RefinedOperator:
    """C = sqrt(s) * Z * T_{-1/2,t}(s Z^T M Z) around a crude inverse factor Z.

    Z (Z^T M Z)^{-1} Z^T equals M^{-1} exactly for invertible Z, so the
    only error left is the polynomial surrogate of the inner inverse square
    root, which the degree t pins to the requested tolerance.
    """

    kind = "chain_refined"
    __slots__ = ("base", "matrix", "poly", "scale", "info")

    def __init__(self, base: ChainOperator, matrix: SparseSymMatrix,
                 poly: MaclaurinPoly, scale: float, info: RefinementInfo):
        if base.input_dim != matrix.n:
            raise DimensionMismatchError("refinement matrix does not match operator")
        self.base = base
        self.matrix = matrix
        self.poly = poly
        self.scale = float(scale)
        self.info = info

    @property
    def chain(self) -> FactorChain:
        return self.base.chain

    @property
    def refinement(self) -> RefinementInfo:
        return self.info

    @property
    def input_dim(self) -> int:
        return self.matrix.n

    @property
    def output_dim(self) -> int:
        return self.matrix.n

    def _inner(self, u: np.ndarray) -> np.ndarray:
        return self.base.apply_transpose(self.matrix.matvec(self.base.apply(u)))

    def apply(self, v: np.ndarray) -> np.ndarray:
        w = apply_operator_poly(self.poly, self._inner, (0.0, self.scale), v)
        return math.sqrt(self.scale) * self.base.apply(w)

    def apply_transpose(self, v: np.ndarray) -> np.ndarray:
        w = self.base.apply_transpose(v)
        return math.sqrt(self.scale) * apply_operator_poly(
            self.poly, self._inner, (0.0, self.scale), w
        )

    def as_dense(self) -> np.ndarray:
        return self.apply(np.eye(self.matrix.n))


@dataclass(frozen=True)
class EdgeFactor:
    """B with B B^T = M exactly; at most 2 nonzeros per column.

    Edge columns sqrt(|M_ij|) (e_i - e_j) come first in the stored entry
    order, then one slack column sqrt(a_i) e_i per row with positive
    dominance slack a_i.
    """

    b: sp.csc_matrix
    n: int
    m_prime: int
    n_edges: int
    n_slack: int


def edge_factor(m: SparseSymMatrix) -> EdgeFactor:
    cert = validate_sddm(m)
    if not cert.is_sddm:
        raise NotSddmError("edge_factor requires an SDDM matrix")
    off = m.rows != m.cols
    eu, ev, w = m.rows[off], m.cols[off], -m.vals[off]
    slack_rows = np.flatnonzero(cert.row_slack > 0.0)
    n_e, n_s = eu.size, slack_rows.size
    sw = np.sqrt(w)
    rows = np.concatenate([eu, ev, slack_rows])
    cols = np.concatenate([np.arange(n_e), np.arange(n_e), n_e + np.arange(n_s)])
    vals = np.concatenate([sw, -sw, np.sqrt(cert.row_slack[slack_rows])])
    b = sp.csc_matrix((vals, (rows, cols)), shape=(m.n, n_e + n_s))
    return EdgeFactor(b=b, n=m.n, m_prime=n_e + n_s, n_edges=n_e, n_slack=n_s)


class EdgeOperator:
    """C = Z B for symmetric Z = (factor)(factor)^T approximating M^{-1}.

    B is the exact edge factor (B B^T = M), so C C^T = Z M Z, which is
    within twice the certified tolerance of M^{-1}.  The input is indexed
    by edges and slack columns (dimension m' >= n).
    """

    kind = "edge_based"
    __slots__ = ("base", "edge")

    def __init__(self, base, edge: EdgeFactor):
        if base.input_dim != edge.n:
            raise DimensionMismatchError("edge factor does not match operator")
        self.base = base
        self.edge = edge

    @property
    def chain(self) -> FactorChain:
        return self.base.chain

    @property
    def refinement(self):
        return self.base.refinement

    @property
    def input_dim(self) -> int:
        return self.edge.m_prime

    @property
    def output_dim(self) -> int:
        return self.edge.n

    def _z(self, v: np.ndarray) -> np.ndarray:
        return self.base.apply(self.base.apply_transpose(v))

    def apply(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=np.float64)
        if v.shape[0] != self.edge.m_prime:
            raise DimensionMismatchError(
                f"expected leading dimension {self.edge.m_prime}, got {v.shape}"
            )
        return self._z(self.edge.b @ v)

    def apply_transpose(self, v: np.ndarray) -> np.ndarray:
        return self.edge.b.T @ self._z(np.asarray(v, dtype=np.float64))

    def as_dense(self) -> np.ndarray:
        return self._z(self.edge.b.toarray())


def chain_operator(split: Splitting, chain: FactorChain) -> ChainOperator:
    """Attach the normalization rescale: M^p = c^{-p} (I - X_0)^p."""
    return ChainOperator(chain, out_scale=split.c ** (-chain.p / 2.0))


def refine_inverse_factor(m: SparseSymMatrix, crude, eps: float, *,
                          spectrum_bounds: tuple[float, float] | None = None):
    """Tighten a crude inverse factor to C C^T within exp(+-eps) of M^{-1}.

    The inner matrix A = Z^T M Z is scaled by s = 2/(lo + hi) so its
    spectrum sits in [1 - delta, 1 + delta]; lo/hi come from power
    iteration (direct, then shifted for the bottom) unless supplied.  Each
    of the two polynomial factors in C C^T carries half the budget.
    """
    if eps <= 0.0:
        raise InvalidParamsError("eps must be positive")
    if getattr(crude, "chain", None) is None or crude.chain.p != -1.0:
        raise WrongExponentError("refinement requires an inverse-factor chain (p = -1)")
    if crude.input_dim != m.n:
        raise DimensionMismatchError("operator and matrix dimensions differ")

    def inner(u):
        return crude.apply_transpose(m.matvec(crude.apply(u)))

    if spectrum_bounds is None:
        hi_est, _, ok_hi = power_iteration(inner, m.n, tol=1e-9, maxiter=1000)
        if hi_est <= 0.0:
            raise SpectrumEstimateFailedError("top eigenvalue estimate is nonpositive")
        shift = 1.05 * hi_est
        sh_est, _, ok_lo = power_iteration(
            lambda u: shift * u - inner(u), m.n, tol=1e-9, maxiter=1000
        )
        widen = 1.02 if (ok_hi and ok_lo) else 1.10
        lo = (shift - sh_est) / widen
        hi = hi_est * widen
    else:
        lo, hi = spectrum_bounds
    if not (0.0 < lo <= hi) or not (math.isfinite(lo) and math.isfinite(hi)):
        raise SpectrumEstimateFailedError(
            f"inconsistent spectrum bounds lo={lo:.3e}, hi={hi:.3e}"
        )
    s = 2.0 / (lo + hi)
    delta_used = max((hi - lo) / (hi + lo), 1e-9)
    poly = make(-0.5, delta_used, eps / 2.0)
    info = RefinementInfo(degree=poly.t, scale=s, delta=delta_used, eps=eps,
                          spectrum_lo=lo, spectrum_hi=hi)
    return RefinedOperator(crude, m, poly, s, info)


def solve(op, b: np.ndarray) -> np.ndarray:
    """x = C (C^T b), approximating M^{-1} b for an inverse-factor operator."""
    if getattr(op, "chain", None) is None or op.chain.p != -1.0:
        raise WrongExponentError("solve requires an inverse-factor operator (p = -1)")
    return op.apply(op.apply_transpose(np.asarray(b, dtype=np.float64)))
