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
recurrence.  Every radius rho_i is a proven Collatz-Wielandt bound, one
matvec with the positive vector of the splitting's lower bound
(sparse.nonneg_spectral_radius), and every level of an exact chain has a
proven floor too, -1/8 or above after X_0 (_floors).  build_chain splits
the requested eps over the levels it builds, as Cheng, Cheng, Liu, Peng &
Teng (arXiv:1502.03496) do: each level polynomial gets an equal share of
what the terminal's and the steps' errors leave, fitted by
maclaurin.power on the level's interval [floor_i, rho_i].  The p = -1 case
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
    rounding_allowance,
)
from .sparsify import SparsifyParams, SparsifyReport, sparsify_square_step

# the radius at or below which a level of the crude p = -1 chain is terminal
CRUDE_RHO_STOP = 0.4

# eps of the crude p = -1 chain, whose level polynomials refine_by_cost picks:
# it sets only its level budget d_max and step targets 1 / (8 d_max)
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
    I - X_i; eps_schedule lists the d per-level errors (build_chain's
    share of the budget plus the step's error, or the sandwich bound of a
    degree refine_by_cost chose) followed by the terminal's error, F's
    rounding allowance or the dropped level's -log(1 - rho), and eps_total
    is its sum.
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
    """The radius at or below which a direct chain's level is terminal:
    dropped, it costs -log(1 - rho) <= eps/4, half of the eps/2 that the
    chain's schedule may spend (build_chain)."""
    return -math.expm1(-eps / 4.0)


def _step_eps(split: Splitting, eps: float) -> float:
    """eps / (8 d_max), d_max = chain_length_bound: each squaring step's
    target, and the least share a direct chain's level polynomial gets."""
    return eps / (8.0 * max(chain_length_bound(split.kappa_bound, eps), 1))


def _squarings(split: Splitting, eps: float, sp_params: SparsifyParams | None,
               rho_stop: float = CRUDE_RHO_STOP):
    """Yield (X_i, rho_i, report_i), X_0 first, until X_i is terminal.

    X_i is terminal once it is filled or rho_i <= rho_stop, the crude
    chain's stop unless given (build_chain gives _rho_stop).  rho_i is X_i's
    proven radius, one matvec with the positive vector of the splitting's
    lower bound (sparse.nonneg_spectral_radius), and report_i the step that
    made X_i (None for X_0).  Step i squares with sp_params at _step_eps,
    seeded by level i's substream; passing d_max by more than one level, or
    3 levels whose radius does not fall, raises ChainDiverged.  A step whose
    exact square could pass sparsify.SQUARE_BYTE_CAP raises SquareTooLarge
    before it is formed: the chain has no deeper level.
    """
    if sp_params is None:
        sp_params = SparsifyParams(eps=1.0)
    v = split.bounds.v
    x, rho = split.X, nonneg_spectral_radius(split.X, v)
    yield x, rho, None
    d_max = chain_length_bound(split.kappa_bound, eps)
    eps_level = _step_eps(split, eps)
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


def _assemble(split: Splitting, p: float, squarings, polys, level_eps, top) -> FactorChain:
    """The chain over the first len(polys) levels of squarings, each with its
    polynomial and the step that made it, ending in top = (F, gap, error) as
    _terminal gives it.  The schedule is level_eps, one entry per
    polynomial, then the error."""
    xs, radii, reports = zip(*squarings)
    d = len(polys)
    f, gap, eps_end = top
    return FactorChain(
        n=split.X.n, levels=xs[:d], eps_schedule=tuple(level_eps) + (eps_end,),
        polys=tuple(polys), p=p, kappa_used=split.kappa_bound,
        lambdas=tuple(1.0 - r for r in radii[:d]) + (gap,), reports=reports[1:d + 1],
        terminal=f,
    )


def _floors(split: Splitting, squarings, exact: bool) -> list[float]:
    """Proven lower bounds on the spectra of the levels of squarings, X_0 first.

    X_0 = I - cM has its spectrum in [1 - c hi, 1 - c lo] for the bounds
    of split.bounds.  An exact step X' = X/2 + X^2/2 maps the spectrum by
    f(x) = x/2 + x^2/2, least at x = -1/2 with f = -1/8, so on [floor,
    rho] f is least at the point nearest -1/2; a sampled step leaves only
    -rho.  Every level's spectrum also lies within +-rho_i.  The computed
    X_0, and a computed exact square, differ from the exact matrix by at
    most the level's rounding allowance g in norm (sparse.rounding_allowance:
    a row of k products rounds within k u of its magnitudes, which sum to
    at most 1); each floor is widened by 2 g, the second g for its own
    arithmetic and the interval centre that an operator derives
    (level_centre).
    """
    floors, rho_last = [], None
    for x, rho, report in squarings:
        if report is None:
            lo = 1.0 - split.c * split.bounds.hi
        elif exact:
            z = min(max(-0.5, floors[-1]), rho_last)
            lo = 0.5 * z + 0.5 * z * z
        else:
            lo = -rho
        floors.append(max(-rho, lo) - 2.0 * rounding_allowance(x))
        rho_last = rho
    return floors


def _level_top(lam: float) -> float:
    """1 + rho/2 for the radius rho = 1 - lam a chain records as its gap lam,
    widened by 8 units of roundoff for 1 - lam and for the centre an
    operator derives (level_centre): the top of the interval of y = 1 + X/2
    a level polynomial is fitted on."""
    return (1.0 + 0.5 * (1.0 - lam)) * (1.0 + 2.0 ** -50)


def _level_poly(s: float, floor: float, lam: float, eps: float) -> ChebyshevPoly:
    """The surrogate of y^s on y in [1 + floor/2, 1 + rho/2], rho = 1 - lam,
    within exp(+-eps): power(s, delta, eps) in y/m, the interval's centre m
    and relative half-width delta = (hi - lo)/(hi + lo).  m^s p(y/m) is within
    exp(+-eps) of y^s wherever p(y/m) is of (y/m)^s; the operator applies
    the scalar m^s (ChainOperator)."""
    hi, lo = _level_top(lam), 1.0 + 0.5 * floor
    return power(s, (hi - lo) / (hi + lo), eps)


def level_centre(poly: ChebyshevPoly, lam: float) -> float:
    """The centre m of the interval of y = 1 + X/2 a level polynomial is
    fitted on, for the level's recorded gap lam.

    A direct chain's polynomial is fitted on [m (1 - delta), m (1 + delta)]
    with top _level_top(lam), 1 + rho/2 for rho = 1 - lam but for rounding
    (_level_poly), so m = _level_top(lam) / (1 + delta) and the container
    stores nothing more.  The crude chain's binomial series (certificate
    "series") is a series about y = 1.
    """
    if poly.certificate == "series":
        return 1.0
    return _level_top(lam) / (1.0 + poly.delta)


def build_chain(split: Splitting, p: float, eps: float,
                sp_params: SparsifyParams | None = None) -> FactorChain:
    """Every level of _squarings, each polynomial fitted on the level's
    proven spectral interval at an equal share of the budget.

    2 eps_total certifies C C^T against M^p, so the schedule spends eps/2.
    The terminal's error e_end (_terminal) and every step's error come
    first: a step's measured error (zero for an exact step), or its
    requested one where it was not measured.  The d level polynomials share
    the rest equally, (eps/2 - e_end - sum e_step) / d, but never less than
    the steps' own target eps / (8 d_max) (_step_eps); eps_schedule[i] is
    level i's share plus its step's error.  An exact chain's levels are all
    functions of X_0, so their log-errors add and 2 eps_total is then the
    requested eps.  The squaring stops where a dropped level costs eps/4
    (_rho_stop), which leaves the polynomials at least eps/4.

    The spectrum of X_i lies in [floor_i, rho_i], the proven floor of
    _floors and the proven radius, so level i's polynomial is the certified
    surrogate of y^{-p/2} on y in [1 + floor_i/2, 1 + rho_i/2] (_level_poly).
    An exact square has no eigenvalue below -1/8, so every level of an
    exact chain after X_0 sits on an interval far narrower than 1 +- rho_i/2.  The last level is
    the terminal (_terminal).  At p = 0, C = I: the chain stops at X_0, with
    its gap and no error.
    """
    if not (-1.0 <= p <= 1.0):
        raise InvalidParamsError(f"exponent {p} outside [-1, 1]")
    check_eps(eps)
    squarings = _squarings(split, eps, sp_params, _rho_stop(eps))
    if p == 0.0:
        first = next(squarings)
        return _assemble(split, 0.0, [first], (), (), (None, 1.0 - first[1], 0.0))
    squarings = list(squarings)
    xs, radii, reports = zip(*squarings)
    top = _terminal(xs[-1], radii[-1], p)
    step_errors = [r.eps_requested if r.eps_measured is None else r.eps_measured
                   for r in reports[1:]]
    d = len(step_errors)
    share = max(_step_eps(split, eps), (0.5 * eps - top[2] - sum(step_errors)) / max(d, 1))
    exact = sp_params is None or sp_params.mode == "exact"
    floors = _floors(split, squarings, exact)
    polys = [_level_poly(-p / 2.0, floors[i], 1.0 - radii[i], share) for i in range(d)]
    return _assemble(split, p, squarings, polys, [share + e for e in step_errors], top)


# -- operators -----------------------------------------------------------------


class ChainOperator:
    """C = out_scale * T_0 T_1 ... T_{d-1} F with T_i = m_i^s poly_i((I + X_i/2)/m_i).

    m_i is the centre of the interval level i's polynomial is fitted on
    (level_centre; 1 for the crude chain) and s its exponent.  Each T_i is
    a symmetric polynomial in one level and F is the chain's terminal
    factor (the identity when the chain has none), so the transpose is F^T
    and the T_i in reversed order.  C C^T approximates M^p when out_scale =
    c^{-p/2} for the normalization scale c.  apply multiplies by F and
    apply_transpose by the view F.T, each in one padded gemm
    (sparse.dense_matvec), whose columns do not depend on the block's
    width; the levels of degree t >= 1 go through Clenshaw at the shift
    (1/m_i, 1/(2 m_i)).  The scalars m_i^s, and the whole of a degree-0
    level, m_i^s c_0, fold into out_scale: one scale, applied last, in
    place to the block F or the last level made.  With no such block the
    input is scaled into a new one.
    """

    kind = "chain"
    refinement = None
    __slots__ = ("chain", "out_scale", "_levels", "_scale")

    def __init__(self, chain: FactorChain, out_scale: float = 1.0):
        self.chain = chain
        self.out_scale = float(out_scale)
        scale, levels = self.out_scale, []
        for q, x, lam in zip(chain.polys, chain.levels, chain.lambdas):
            m = level_centre(q, lam)
            scale *= m ** q.s
            if q.t == 0:
                scale *= float(q.coeffs[0])
            else:
                levels.append((q, x, (1.0 / m, 0.5 / m)))
        self._levels, self._scale = tuple(levels), scale

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

    def _scaled(self, w: np.ndarray, v: np.ndarray) -> np.ndarray:
        """The scale times w, in place unless w is still the input v."""
        if w is v:
            return self._scale * w
        w *= self._scale
        return w

    def apply(self, v: np.ndarray) -> np.ndarray:
        w = v = self._check(v)
        if self.chain.terminal is not None:
            w = dense_matvec(self.chain.terminal, w)
        for q, x, shift in reversed(self._levels):
            w = apply_operator_poly(q, x, shift, w)
        return self._scaled(w, v)

    def apply_transpose(self, v: np.ndarray) -> np.ndarray:
        w = v = self._check(v)
        for q, x, shift in self._levels:
            w = apply_operator_poly(q, x, shift, w)
        if self.chain.terminal is not None:
            w = dense_matvec(self.chain.terminal.T, w)
        return self._scaled(w, v)

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
    return chain_operator(split, _assemble(split, -1.0, squarings, polys,
                                           [q.eps for q in polys], top))


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
    depth_zero = (split.c * split.bounds.lo, split.c * split.bounds.hi)
    levels = _squarings(split, CRUDE_EPS, sp_params, CRUDE_RHO_STOP)
    squarings = [next(levels)]
    best, best_cost, failure = None, math.inf, None
    stored, top = 0, None
    for t in itertools.count():
        # all squaring precedes t = 1; the last level is terminal
        while t == 1 and top is None:
            x, rho, _ = squarings[-1]
            last = x.filled or rho <= CRUDE_RHO_STOP
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
