"""Factor chains for M^p and the operators built from them.

A chain is the sequence X_0..X_d where each I - X_{i+1} approximates
I - X_i/2 - X_i^2/2 and the terminal I - X_d is close to I.  Exactness of
the per-step identity

    (I - X)^p = (I + X/2)^{-p/2} (I - X/2 - X^2/2)^p (I + X/2)^{-p/2}

turns the chain into a product form: applying, level by level, the
polynomial surrogate of (I + X_i/2)^{-p/2} to a vector realizes an
operator C with C C^T close to (I - X_0)^p, rescaled to M^p through the
normalization constant.  The chain ends at its first level X_k that is
filled (sparse.SparseSymMatrix.filled) or whose radius is small enough.
Once a level is dense, squaring it again saves nothing, so a filled X_k
is kept as one exact dense factor F = (I - X_k)^{p/2} (Kyng & Sachdeva,
arXiv:1605.02353, also factor the last dense block exactly); a small
radius lets I - X_k be dropped for I.  Every level polynomial is a
Chebyshev series (maclaurin.ChebyshevPoly) applied by Clenshaw's
recurrence; build_chain fits level i as maclaurin.power(-p/2, rho_i/2,
eps_level), certified on the level's spectrum.  Every radius rho_i is a
proven Collatz-Wielandt bound, one matvec with the positive vector of the
splitting's lower bound (sparse.nonneg_spectral_radius).  The p = -1 case
additionally supports refinement to much tighter tolerances and a
combinatorial edge factor for edge-indexed randomness.

Refinement needs only an invertible crude factor Z, since
Z (Z^T M Z)^{-1} Z^T = M^{-1} for any such Z; the level polynomials then
set only the spread of Z^T M Z.  refine_by_cost refines depth 0 first,
takes levels from build_chain's squaring loop until their entries outweigh
the best cost, and picks the level degree t by cost per sample.  Z is
invertible at every t: its levels apply the truncated series of
(1 - x)^{1/2}, stored re-expanded in Chebyshev polynomials of u = -x/delta,
delta = 1/2 (crude_level_poly).  It is the same polynomial, which has
a_0 = 1 and only negative later coefficients, so for |x| < 1 it is at
least 1 - sum_k |a_k| |x|^k >= sqrt(1 - |x|) > 0.  A level applies it at
x = -X_i/2 with rho(X_i) < 1, so each factor poly_t(I + X_i/2) is
positive definite.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.polynomial import chebyshev

from .errors import (
    ChainDivergedError,
    DimensionMismatchError,
    InvalidParamsError,
    NoConvergenceError,
    NotPositiveDefiniteError,
    SpectrumEstimateFailedError,
    SquareTooLargeError,
    WrongExponentError,
    check_eps,
)
from .maclaurin import (
    ChebyshevPoly,
    apply_operator_poly,
    coeffs,
    inverse_sqrt,
    power,
    sandwich_criterion,
)
from .rng import TAG_LEVEL, substream_seed
from .sparse import (
    EdgeFactor,
    SparseSymMatrix,
    Splitting,
    dense_matvec,
    edge_factor,
    nonneg_spectral_radius,
    power_iteration,
)
from .sparsify import SparsifyParams, SparsifyReport, sparsify_square_step

# early-termination cap on the terminal radius; chains built with loose eps
# stop refining here so that later polynomial stages see a narrow spectrum
RHO_STOP_CAP = 0.4

# eps of the crude p = -1 chain, whose level polynomials refine_by_cost picks:
# it sets only the radius stop 0.4 and the level targets 1 / (8 d_max)
CRUDE_EPS = 1.0


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

    The chain ends at X_d.  A filled X_d is kept as terminal, the dense
    array F = (I - X_d)^{p/2}; otherwise X_d is built only for its radius
    and then dropped (terminal is None).  lambdas records 1 - rho_i for all
    d + 1 levels, a proven lower bound on the smallest eigenvalue of
    I - X_i; eps_schedule lists the d per-level targets (build_chain's
    budget, or the sandwich bound of a degree refine_by_cost chose)
    followed by the terminal's error, F's rounding allowance or the dropped
    level's gap, and eps_total is its sum.
    """

    n: int
    levels: tuple[SparseSymMatrix, ...]
    eps_schedule: tuple[float, ...]
    polys: tuple[ChebyshevPoly, ...]
    p: float
    kappa_used: float
    lambdas: tuple[float, ...]
    reports: tuple[SparsifyReport, ...]
    terminal: np.ndarray | None = field(default=None, repr=False, compare=False)

    @property
    def d(self) -> int:
        return len(self.levels)

    @property
    def eps_total(self) -> float:
        return sum(self.eps_schedule)

    def __post_init__(self):
        if len(self.polys) != self.d:
            raise InvalidParamsError("polys must hold one entry per level")
        if len(self.eps_schedule) != self.d + 1 or len(self.lambdas) != self.d + 1:
            raise InvalidParamsError("eps_schedule and lambdas must hold d + 1 values each")
        f = self.terminal
        if f is not None and (f.shape != (self.n, self.n) or not np.all(np.isfinite(f))):
            raise InvalidParamsError("the terminal factor must be a finite n x n array")


def _rho_stop(eps: float) -> float:
    """The radius at or below which a level is terminal."""
    return min(eps * 5.0 / 6.0, RHO_STOP_CAP)


def _squarings(split: Splitting, eps: float, sp_params: SparsifyParams | None):
    """Yield (X_i, rho_i, report_i), X_0 first, until X_i is terminal.

    X_i is terminal once it is filled or rho_i <= min(5 eps / 6, 0.4).
    rho_i is X_i's proven radius, one matvec with the positive vector of
    the splitting's lower bound (sparse.nonneg_spectral_radius), and
    report_i the step that made X_i (None for X_0).  Step i squares with
    sp_params at eps / (8 d_max), d_max = chain_length_bound, seeded by
    level i's substream; passing d_max by more than one level, or 3 levels
    whose radius does not fall, raises ChainDiverged.  A step whose exact square could pass
    sparsify.SQUARE_BYTE_CAP raises SquareTooLarge before it is formed:
    the chain has no deeper level.
    """
    if sp_params is None:
        sp_params = SparsifyParams(eps=1.0)
    v = split.bounds.v
    x, rho = split.X, nonneg_spectral_radius(split.X, v)
    yield x, rho, None
    d_max = chain_length_bound(split.kappa_bound, eps)
    rho_stop = _rho_stop(eps)
    eps_level = eps / (8.0 * max(d_max, 1))
    i = stall = 0
    while not (x.filled or rho <= rho_stop):
        if i >= d_max + 1:
            raise ChainDivergedError(
                f"radius {rho:.3f} above {rho_stop:.3f} after {i} levels "
                f"(budget {d_max}); sparsifier tolerance is likely too loose"
            )
        x_next, report = sparsify_square_step(x, replace(
            sp_params, eps=eps_level, seed=substream_seed(sp_params.seed, TAG_LEVEL, i)))
        rho_next = nonneg_spectral_radius(x_next, v)
        stall = stall + 1 if 1.0 - rho_next <= 1.0 - rho else 0
        if stall >= 3:
            raise ChainDivergedError(
                "smallest eigenvalue failed to increase for 3 consecutive levels"
            )
        x, rho, i = x_next, rho_next, i + 1
        yield x, rho, report


def _terminal(x: SparseSymMatrix, rho: float, p: float):
    """(F, gap, error) for the last level X of a chain at exponent p, whose
    proven radius rho gives the gap 1 - rho.

    A level that is not filled is dropped: F is None and the error is
    -log(1 - rho).  A filled X is kept exactly: one eigh of I - X =
    V diag(w) V^T gives F = (V w^{p/2}) V^T, so F F^T = (I - X)^p but for
    rounding.  A non-positive w_min raises NotPositiveDefinite.  The error
    is a rounding allowance.
    eigh is backward stable, within a modest c n u ||I - X|| of I - X for
    unit roundoff u, which moves (I - X)^p by a factor within exp(+-|p| c n
    u kappa), kappa = w_max / w_min (|p| <= 1); forming F moves F F^T by
    about 2 c n u kappa^{|p|/2} more.  With c = 8 the allowance is 8 (|p| +
    2) n u kappa, 1.7e-12 on random_regular(512, 3) at p = -1/2.
    """
    if not x.filled:
        return None, 1.0 - rho, -math.log1p(-rho) if rho > 0.0 else 0.0
    w, v = np.linalg.eigh(np.eye(x.n) - x.to_dense())
    if not w[0] > 0.0:
        raise NotPositiveDefiniteError(
            f"I - X_k has smallest eigenvalue {w[0]:.3e}: the chain's last level "
            "is not contracting")
    f = (v * w ** (p / 2.0)) @ v.T
    f.setflags(write=False)
    return f, 1.0 - rho, 8.0 * (abs(p) + 2.0) * x.n * 2.0 ** -53 * float(w[-1] / w[0])


def _assemble(split: Splitting, p: float, squarings, polys, top) -> FactorChain:
    """The chain over the first len(polys) levels of squarings, each with its
    polynomial and the step that made it, ending in top = (F, gap, error) as
    _terminal gives it.  The schedule is the polynomials' eps then the error."""
    xs, radii, reports = zip(*squarings)
    d = len(polys)
    f, gap, eps_end = top
    return FactorChain(
        n=split.X.n, levels=xs[:d], eps_schedule=tuple(q.eps for q in polys) + (eps_end,),
        polys=tuple(polys), p=p, kappa_used=split.kappa_bound,
        lambdas=tuple(1.0 - r for r in radii[:d]) + (gap,), reports=reports[1:d + 1],
        terminal=f,
    )


def build_chain(split: Splitting, p: float, eps: float,
                sp_params: SparsifyParams | None = None) -> FactorChain:
    """Every level of _squarings, with a polynomial meeting its step's target.

    The spectrum of I + X_i/2 lies within 1 +- rho_i/2 for the proven radius
    rho_i, so level i's polynomial is power(-p/2, rho_i/2, eps_level), the
    certified Chebyshev surrogate of y^{-p/2} there; the radii fall level by
    level, so the degrees do too.  The last level is the terminal (_terminal).
    At p = 0, C = I: the chain stops at X_0, with its gap and no error.
    """
    if not (-1.0 <= p <= 1.0):
        raise InvalidParamsError(f"exponent {p} outside [-1, 1]")
    check_eps(eps)
    squarings = _squarings(split, eps, sp_params)
    if p == 0.0:
        first = next(squarings)
        return _assemble(split, 0.0, [first], (), (None, 1.0 - first[1], 0.0))
    squarings = list(squarings)
    _, radii, reports = zip(*squarings)
    top = _terminal(squarings[-1][0], radii[-1], p)
    polys = [power(-p / 2.0, r / 2.0, step.eps_requested)
             for r, step in zip(radii, reports[1:])]
    return _assemble(split, p, squarings, polys, top)


# -- operators -----------------------------------------------------------------


class ChainOperator:
    """C = out_scale * T_0 T_1 ... T_{d-1} F with T_i = poly_i(I + X_i/2).

    Each T_i is a symmetric polynomial in one level and F is the chain's
    terminal factor (the identity when the chain has none), so the
    transpose is F^T and the T_i in reversed order.  C C^T approximates
    M^p when out_scale = c^{-p/2} for the normalization scale c.  apply
    multiplies by F and apply_transpose by the view F.T, each in one padded
    gemm (sparse.dense_matvec), whose columns do not depend on the block's
    width; the levels go through Clenshaw.  Each returns a block of its
    own, scaling the one F or the last level made in place.
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

    def _scaled(self, w: np.ndarray) -> np.ndarray:
        """out_scale * w, scaled in place unless w is still the caller's
        array: at depth 0 with no terminal factor."""
        ch = self.chain
        if ch.d == 0 and ch.terminal is None:
            return self.out_scale * w
        w *= self.out_scale
        return w

    def apply(self, v: np.ndarray) -> np.ndarray:
        w = self._check(v)
        ch = self.chain
        if ch.terminal is not None:
            w = dense_matvec(ch.terminal, w)
        for i in range(ch.d - 1, -1, -1):
            w = apply_operator_poly(ch.polys[i], ch.levels[i], (1.0, 0.5), w)
        return self._scaled(w)

    def apply_transpose(self, v: np.ndarray) -> np.ndarray:
        w = self._check(v)
        ch = self.chain
        for i in range(ch.d):
            w = apply_operator_poly(ch.polys[i], ch.levels[i], (1.0, 0.5), w)
        if ch.terminal is not None:
            w = dense_matvec(ch.terminal.T, w)
        return self._scaled(w)

    def as_dense(self) -> np.ndarray:
        return self.apply(np.eye(self.chain.n))


@dataclass(frozen=True)
class RefinementInfo:
    """The refinement's polynomial: its degree, interval and certificate.

    Each of the two factors of C C^T is within exp(+-eps/2): the polynomial
    keeps |p(y) sqrt(y) - 1| <= bound on [1 - delta, 1 + delta], where the
    named certificate (maclaurin.CERTIFICATES) set the degree.
    """

    degree: int
    scale: float
    delta: float
    eps: float
    spectrum_lo: float
    spectrum_hi: float
    certificate: str
    bound: float


class RefinedOperator:
    """C = sqrt(s) * Z * p_t(s Z^T M Z) around a crude inverse factor Z.

    Z (Z^T M Z)^{-1} Z^T equals M^{-1} exactly for invertible Z, so the
    only error left is the polynomial surrogate of the inner inverse square
    root, a Chebyshev series whose certified degree t pins the requested
    tolerance.  s is info.scale.
    """

    kind = "chain_refined"
    __slots__ = ("base", "matrix", "poly", "info", "_z_scale")

    def __init__(self, base: ChainOperator, matrix: SparseSymMatrix,
                 poly: ChebyshevPoly, info: RefinementInfo):
        if base.input_dim != matrix.n:
            raise DimensionMismatchError("refinement matrix does not match operator")
        self.base = base
        self.matrix = matrix
        self.poly = poly
        self.info = info
        # a chain at depth 0 with no terminal factor is Z = out_scale I;
        # _z_scale holds that scalar, None for any other base
        ch = base.chain
        plain = isinstance(base, ChainOperator) and ch.d == 0 and ch.terminal is None
        self._z_scale = base.out_scale if plain else None

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

    def _poly_apply(self, v: np.ndarray) -> np.ndarray:
        """p(s Z^T M Z) v; for Z = z I, Z^T M Z = z^2 M."""
        s, z = self.info.scale, self._z_scale
        if z is not None:
            return apply_operator_poly(self.poly, self.matrix, (0.0, s * z ** 2), v)
        return apply_operator_poly(self.poly, self._inner, (0.0, s), v)

    # _poly_apply returns a fresh block, and so does Z unless it is z I: that
    # z scales the block in place, then sqrt(s) follows, two roundings in
    # that order, as a chain base's own in-place out_scale does
    def apply(self, v: np.ndarray) -> np.ndarray:
        w = self._poly_apply(v)
        if self._z_scale is not None:
            w *= self._z_scale
        else:
            w = self.base.apply(w)
        w *= math.sqrt(self.info.scale)
        return w

    def apply_transpose(self, v: np.ndarray) -> np.ndarray:
        w = self._poly_apply(self.base.apply_transpose(v))
        w *= math.sqrt(self.info.scale)
        return w

    def as_dense(self) -> np.ndarray:
        return self.apply(np.eye(self.matrix.n))


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


def refine_inverse_factor(m: SparseSymMatrix, crude, eps: float,
                          spectrum: tuple[float, float] | None = None):
    """Tighten a crude inverse factor to C C^T within exp(+-eps) of M^{-1}.

    The inner matrix A = Z^T M Z is scaled by s = 2/(lo + hi) so its
    spectrum sits in [1 - delta, 1 + delta].  spectrum = (lo, hi) bounds
    A's spectrum where the caller has proven bounds (refine_by_cost at
    depth 0, where A = cM); otherwise they come from one Lanczos run
    (sparse.power_iteration), and hold with high probability.  Each of the
    two polynomial factors in C C^T carries half the budget, at the degree
    maclaurin.inverse_sqrt certifies.
    """
    check_eps(eps)
    if getattr(crude, "chain", None) is None or crude.chain.p != -1.0:
        raise WrongExponentError("refinement requires an inverse-factor chain (p = -1)")
    if crude.input_dim != m.n:
        raise DimensionMismatchError("operator and matrix dimensions differ")

    if spectrum is None:
        bounds = power_iteration(
            lambda u: crude.apply_transpose(m.matvec(crude.apply(u))), m.n)
        spectrum = bounds.lo, bounds.hi
    lo, hi = spectrum
    if not (0.0 < lo <= hi) or not (math.isfinite(lo) and math.isfinite(hi)):
        raise SpectrumEstimateFailedError(
            f"inconsistent spectrum bounds lo={lo:.3e}, hi={hi:.3e}")
    s = 2.0 / (lo + hi)
    delta_used = max((hi - lo) / (hi + lo), 1e-9)
    poly = inverse_sqrt(delta_used, eps / 2.0)
    info = RefinementInfo(degree=poly.t, scale=s, delta=delta_used, eps=eps,
                          spectrum_lo=lo, spectrum_hi=hi,
                          certificate=poly.certificate, bound=poly.bound)
    return RefinedOperator(crude, m, poly, info)


def flops_per_sample(op: ChainOperator | RefinedOperator) -> int:
    """Predicted nnz-weighted flops of one sample through op.

    One apply of a chain operator Z costs L = sum_i t_i nnz(X_i), plus n^2
    for a terminal factor, and a sample through Z is one apply.  Refined,
    each of the t_ref inner applies Z^T M Z costs 2 L + nnz(M), and the
    final Z one more L.
    """
    ch = op.chain
    level = sum(q.t * x.full_nnz for q, x in zip(ch.polys, ch.levels))
    if ch.terminal is not None:
        level += ch.n * ch.n
    if isinstance(op, ChainOperator):
        return level
    return op.info.degree * (2 * level + op.matrix.full_nnz) + level


def crude_level_poly(t: int) -> ChebyshevPoly:
    """The crude p = -1 chain's level polynomial at degree t, in Chebyshev form.

    The series sum_k a_k x^k of (1 - x)^{1/2}, applied at x = 1 - y = -delta u
    with delta = 1/2, is sum_k a_k (-delta)^k u^k, re-expanded in T_k(u).
    Its certificate "series" records the sandwich bound at delta = 1/2.
    """
    delta = 0.5
    monomial = coeffs(0.5, t) * (-delta) ** np.arange(t + 1)
    bound = sandwich_criterion(delta, t)
    return ChebyshevPoly(s=0.5, t=t, coeffs=chebyshev.poly2cheb(monomial), delta=delta,
                         eps=bound, certificate="series", bound=bound)


def _crude_factor(split: Splitting, squarings, t: int, top=None) -> ChainOperator:
    """Z over the squarings at level degree t, ending in top, the last
    level's _terminal at p = -1; at t = 0, Z = c^{1/2} I with X_0's gap.

    A radius bound of X_0 at or above 1 leaves depth 0 no gap to record,
    and raises SpectrumEstimateFailed.
    """
    if t:
        polys = (crude_level_poly(t),) * (len(squarings) - 1)
    else:
        rho = squarings[0][1]
        gap = 1.0 - rho
        if not gap > 0.0:
            raise SpectrumEstimateFailedError(
                f"X_0's radius bound {rho:.6g} leaves depth 0 no gap")
        polys, top = (), (None, gap, max(0.0, -math.log(gap)))
    return chain_operator(split, _assemble(split, -1.0, squarings, polys, top))


def refine_by_cost(m: SparseSymMatrix, split: Splitting, eps: float,
                   sp_params: SparsifyParams | None = None) -> RefinedOperator:
    """Refine a crude inverse factor of M = (1/c)(I - X) at the cheapest level degree.

    Depth 0 (Z = c^{1/2} I) is refined first, on the proven interval c [lo,
    hi] of Z^T M Z = cM from split.bounds, then the crude chain, squared
    at CRUDE_EPS with sp_params, at t = 1, 2, ... until t is not cheaper.  A
    candidate costs its flops_per_sample, or infinity if its refinement fails.
    Every t >= 1 candidate holds each level that is not terminal, and a
    filled terminal level as its n^2 factor, so each counts into the lower
    bound L = sum nnz(X_i) (+ n^2) as soon as it arrives: when L reaches
    the best cost, no further level is squared and no terminal factor is
    formed.  A squaring refused as SquareTooLarge means there is no deeper
    candidate: the best finite one is returned, or the refusal raised if
    there is none.  If no candidate is finite, the last failure is raised.
    """
    rho_stop = _rho_stop(CRUDE_EPS)
    depth_zero = (split.c * split.bounds.lo, split.c * split.bounds.hi)
    levels = _squarings(split, CRUDE_EPS, sp_params)
    squarings = [next(levels)]
    best, best_cost, failure = None, math.inf, None
    stored, top = 0, None
    for t in itertools.count():
        # all squaring precedes t = 1; the last level is terminal
        while t == 1 and top is None:
            x, rho, _ = squarings[-1]
            last = x.filled or rho <= rho_stop
            if x.filled:
                stored += x.n * x.n
            elif not last:
                stored += x.full_nnz
            if stored >= best_cost:
                return best
            if last:
                top = _terminal(x, rho, -1.0)
            else:
                try:
                    squarings.append(next(levels))
                except SquareTooLargeError:
                    if best is None:
                        raise
                    return best
        try:
            op = refine_inverse_factor(m, _crude_factor(split, squarings, t, top), eps,
                                       None if t else depth_zero)
            cost = flops_per_sample(op)
        except (SpectrumEstimateFailedError, NoConvergenceError) as exc:
            op, cost, failure = None, math.inf, exc
        if t > 0 and cost >= best_cost:
            break
        best, best_cost = op, cost
    if best is None:
        raise failure
    return best


def solve(op, b: np.ndarray) -> np.ndarray:
    """x = C (C^T b), approximating M^{-1} b for an inverse-factor operator."""
    if getattr(op, "chain", None) is None or op.chain.p != -1.0:
        raise WrongExponentError("solve requires an inverse-factor operator (p = -1)")
    return op.apply(op.apply_transpose(np.asarray(b, dtype=np.float64)))
