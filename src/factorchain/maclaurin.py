"""Polynomial surrogates of matrix powers and their operator form.

Two families live here.

The truncated binomial series g_{p,t}(x) ~ (1 - x)^p (MaclaurinPoly) is
the reference series.  Writing lam = 1 - x, the polynomial
T(lam) = g_{p,t}(1 - lam) approximates lam^p near 1.  For |x| <= delta < 1
and p in [-1, 1] the coefficients stay bounded by 1, the absolute
truncation error is at most delta^(t+1) / (1 - delta), and dividing by
min lam^p >= 1 - delta gives the multiplicative criterion
delta^(t+1) / (1 - delta)^2 <= eps (degree_for).

What an operator applies is the Chebyshev form (ChebyshevPoly): a series
in u = (y - 1)/delta on [1 - delta, 1 + delta], applied by Clenshaw's
recurrence with exactly t matrix-vector products.  power(s, delta, eps)
builds the surrogate of y^s, s in [-1/2, 1/2], that every direct-chain
level and the refinement (s = -1/2, inverse_sqrt) apply.  Its degree comes
from an a-posteriori certificate: the Chebyshev interpolant at a degree N
whose Bernstein-ellipse bound 4 M(rho) rho^(-N) / (rho - 1) (Trefethen,
Approximation Theory and Approximation Practice, Thm 8.2) is a small
fraction of the target is computed, and its coefficients are truncated at
the least degree t where that bound, the dropped tail sum_{j>t} |c_j| and
a rounding allowance still meet the target.  |T_j| <= 1 on [-1, 1], so the
sum bounds the error at every point of the interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
# numpy loads numpy.fft on first use: load it with the package, not in a prepare
import numpy.fft  # noqa: F401
from numpy.polynomial import chebyshev

from .errors import DimensionMismatchError, InvalidParamsError, NoConvergenceError, check_eps
from .sparse import SparseSymMatrix

# degree_for and power give up above this degree
MAX_DEGREE = 20_000


def coeffs(p: float, t: int) -> np.ndarray:
    """Coefficients a_0..a_t of the binomial series for (1 - x)^p.

    a_0 = 1, a_{k+1} = -a_k (p - k) / (k + 1); |a_k| <= 1 for p in [-1, 1].
    """
    if t < 0:
        raise InvalidParamsError("degree must be nonnegative")
    a = np.empty(t + 1, dtype=np.float64)
    a[0] = 1.0
    for k in range(t):
        a[k + 1] = -a[k] * (p - k) / (k + 1)
    return a


def abs_residue_bound(delta: float, t: int) -> float:
    """Bound on sup_{|x|<=delta} |(1-x)^p - g_{p,t}(x)|, any p in [-1, 1]."""
    return delta ** (t + 1) / (1.0 - delta)


def sandwich_criterion(delta: float, t: int) -> float:
    """Quantity that must fall below eps for the exp(+-eps) sandwich."""
    return delta ** (t + 1) / (1.0 - delta) ** 2


def degree_for(p: float, delta: float, eps: float) -> int:
    """Smallest degree t with delta^(t+1)/(1-delta)^2 <= eps."""
    if not (-1.0 <= p <= 1.0):
        raise InvalidParamsError(f"exponent {p} outside [-1, 1]")
    if not (0.0 < delta < 1.0):
        raise InvalidParamsError(f"delta {delta} outside (0, 1)")
    check_eps(eps)
    if sandwich_criterion(delta, 0) <= eps:
        return 0
    # closed-form start, then walk to the exact threshold to dodge rounding
    guess = (math.log(eps) + 2.0 * math.log1p(-delta)) / math.log(delta) - 1.0
    t = max(0, int(math.ceil(guess)) - 2)
    while sandwich_criterion(delta, t) > eps:
        t += 1
        if t > MAX_DEGREE:
            raise NoConvergenceError(f"degree_for: exceeded MAX_DEGREE={MAX_DEGREE}")
    while t > 0 and sandwich_criterion(delta, t - 1) <= eps:
        t -= 1
    return t


@dataclass(frozen=True)
class MaclaurinPoly:
    """Degree-t binomial approximant of lam^p, valid for |1 - lam| <= delta."""

    p: float
    t: int
    coeffs: np.ndarray = field(repr=False)
    delta: float
    eps: float

    def __post_init__(self):
        object.__setattr__(self, "coeffs", np.asarray(self.coeffs, dtype=np.float64))
        self.coeffs.setflags(write=False)
        if self.t < 0 or self.coeffs.shape != (self.t + 1,):
            raise InvalidParamsError("need degree t >= 0 and t + 1 coefficients")


def make(p: float, delta: float, eps: float) -> MaclaurinPoly:
    t = degree_for(p, delta, eps)
    return MaclaurinPoly(p=p, t=t, coeffs=coeffs(p, t), delta=delta, eps=eps)


# -- the Chebyshev surrogate of y^s ---------------------------------------------

# names of the bounds that can set a ChebyshevPoly's degree: "truncation" is
# power's certificate, "series" the crude p = -1 chain's binomial series
CERTIFICATES = ("truncation", "series")

# power builds the interpolant whose Bernstein bound is this share of the
# target; the rest pays for the truncated tail
_INTERPOLANT_SHARE = 1.0 / 64.0

# unit roundoff of float64
_U = 2.0 ** -53

# the Bernstein bound is minimised over rho = 1 + s (rho_max - 1), s in (0, 1),
# on a grid dense at both ends; 1 - s is kept separately for its digits
_S_LEFT = np.geomspace(1e-12, 0.5, 256)
_S_RIGHT = np.geomspace(1e-14, 0.5, 256)[:-1]
_S = np.concatenate([_S_LEFT, 1.0 - _S_RIGHT])
_ONE_MINUS_S = np.concatenate([1.0 - _S_LEFT, _S_RIGHT])


@dataclass(frozen=True)
class ChebyshevPoly:
    """p(y) = sum_k coeffs[k] T_k((y - 1)/delta), a degree-t surrogate of y^s.

    On [1 - delta, 1 + delta], |p(y) y^{-s} - 1| <= bound.  certificate
    names the bound (one of CERTIFICATES): under "truncation" bound <=
    1 - exp(-eps), so p stays within exp(+-eps) of y^s; under "series" p is
    the truncated binomial series and bound = eps is its criterion
    delta^(t+1) / (1 - delta)^2.
    """

    s: float
    t: int
    coeffs: np.ndarray = field(repr=False)
    delta: float
    eps: float
    certificate: str
    bound: float

    def __post_init__(self):
        object.__setattr__(self, "coeffs", np.asarray(self.coeffs, dtype=np.float64))
        self.coeffs.setflags(write=False)
        if self.t < 0 or self.coeffs.shape != (self.t + 1,):
            raise InvalidParamsError("need degree t >= 0 and t + 1 coefficients")
        if not (0.0 < self.delta < 1.0):
            raise InvalidParamsError(f"delta {self.delta} outside (0, 1)")
        if self.certificate not in CERTIFICATES:
            raise InvalidParamsError(f"unknown certificate {self.certificate!r}")


def _inverse_min(s: float, delta: float) -> float:
    """1 / min f for f(u) = (1 + delta u)^s on [-1, 1].

    f is least at u = 1 for s < 0 and at u = -1 for s >= 0.
    """
    if s == -0.5:
        # sqrt is correctly rounded where ** need not be; this keeps the
        # refinement's degrees and coefficients bit for bit
        return math.sqrt(1.0 + delta)
    return (1.0 + delta) ** -s if s < 0.0 else (1.0 - delta) ** -s


def bernstein_degree(delta: float, target: float, s: float = -0.5) -> tuple[int, float]:
    """Least t >= 1 whose interpolant of y^s is certified to relative error target.

    In u = (y - 1)/delta, f(u) = (1 + delta u)^s is analytic inside the
    Bernstein ellipse E_rho for rho < rho_max = 1/delta + sqrt(1/delta^2 -
    1), the ellipse through the branch point u = -1/delta.  On E_rho, |f|
    peaks at the left vertex for s < 0, M(rho) = (1 - delta (rho +
    1/rho)/2)^s, and at the right vertex for s >= 0, M(rho) = (1 + delta
    (rho + 1/rho)/2)^s.  The degree-t interpolant in Chebyshev points is
    within 4 M(rho) rho^(-t) / (rho - 1) of f; dividing by min f bounds the
    relative error.  Every rho certifies, so t is the least over a grid of
    rho.  Returns t and its bound; s defaults to the refinement's -1/2.
    """
    r = (1.0 - delta) / delta
    w = r + math.sqrt(r * (r + 2.0))  # rho_max - 1, free of cancellation
    rho_minus_1 = w * _S
    if s < 0.0:
        # 1 - delta (rho + 1/rho)/2 = delta (rho_max - rho)(1 - 1/(rho rho_max))/2
        gap = 0.5 * delta * w * _ONE_MINUS_S * (1.0 - 1.0 / ((1.0 + rho_minus_1) * (1.0 + w)))
        log_m = s * np.log(gap)
    else:
        # (rho + 1/rho)/2 = 1 + (rho - 1)^2 / (2 rho)
        log_m = s * np.log1p(delta * (1.0 + rho_minus_1 ** 2 / (2.0 * (1.0 + rho_minus_1))))
    log_b = np.log(4.0 * _inverse_min(s, delta) / rho_minus_1) + log_m
    log_rho = np.log1p(rho_minus_1)
    t = max(1, int(np.min(np.ceil((log_b - math.log(target)) / log_rho))))
    return t, float(np.exp(np.min(log_b - t * log_rho)))


def _interpolant(s: float, delta: float, t: int) -> np.ndarray:
    """Chebyshev coefficients of the interpolant of f = (1 + delta u)^s in the
    t + 1 points cos(pi j/t).

    1 + delta cos(pi j/t) is formed as (1 - delta) + 2 delta sin^2(pi (t - j)/(2t)),
    a sum of nonnegative terms, so each value is within 8 units of roundoff
    however close delta is to 1.  One real FFT of the even extension of the
    values is a DCT-I.
    """
    sin = np.sin(np.pi * np.arange(t, -1, -1) / (2 * t))
    f = ((1.0 - delta) + 2.0 * delta * (sin * sin)) ** s
    c = np.fft.rfft(np.concatenate([f, f[-2:0:-1]])).real / t
    c[0] *= 0.5
    c[t] *= 0.5
    return c


def _rounding_allowance(c: np.ndarray) -> float:
    """Bound on sum_j |c_j - e_j|, e the exact interpolant's coefficients.

    For the t + 1 coefficients c of _interpolant, the FFT of the 2t values,
    whose magnitudes sum to 2 t c_0, errs in each output by at most
    8 log2(2t) units of roundoff times that sum (Higham, Accuracy and
    Stability of Numerical Algorithms, ch. 24), and values off by 8 units
    move each coefficient by at most 16 units of c_0.
    """
    t = c.size - 1
    return 16.0 * _U * (t + 1) * (1.0 + math.log2(2 * t)) * abs(c[0])


def power(s: float, delta: float, eps: float) -> ChebyshevPoly:
    """Surrogate of y^s, s in [-1/2, 1/2], on [1 - delta, 1 + delta] within exp(+-eps).

    The interpolant p_n, at the degree n where the Bernstein bound B_n is
    _INTERPOLANT_SHARE of the relative target 1 - exp(-eps), is cut to the
    least degree t with

        B_n + (1 / min y^s) (sum_{j>t} |c_j| + r) <= 1 - exp(-eps),

    r the rounding allowance of its coefficients.  |f - p_t| <= |f - p_n| +
    |p_n - p_t| and |T_j| <= 1 on [-1, 1], so this holds at every point of
    the interval; dividing by min y^s, (1 + delta)^s for s < 0 and
    (1 - delta)^s for s >= 0, turns the absolute error into the relative one.
    """
    if not (-0.5 <= s <= 0.5):
        raise InvalidParamsError(f"exponent {s} outside [-1/2, 1/2]")
    if not (0.0 < delta < 1.0):
        raise InvalidParamsError(f"delta {delta} outside (0, 1)")
    check_eps(eps)
    target = -math.expm1(-eps)
    n, bound_n = bernstein_degree(delta, _INTERPOLANT_SHARE * target, s)
    if n > MAX_DEGREE:
        raise NoConvergenceError(f"power: degree {n} exceeds MAX_DEGREE={MAX_DEGREE}")
    c = _interpolant(s, delta, n)
    # tail[t] = sum_{j>t} |c_j|
    tail = np.append(np.cumsum(np.abs(c[:0:-1]))[::-1], 0.0)
    bounds = bound_n + _inverse_min(s, delta) * (tail + _rounding_allowance(c))
    met = np.flatnonzero(bounds <= target)
    if met.size == 0:
        raise NoConvergenceError(
            f"power: rounding at degree {n} exceeds the target {target:.3e}")
    t = int(met[0])
    return ChebyshevPoly(s=s, t=t, coeffs=c[:t + 1].copy(), delta=delta, eps=eps,
                         certificate="truncation", bound=float(bounds[t]))


def inverse_sqrt(delta: float, eps: float) -> ChebyshevPoly:
    """The refinement's surrogate of y^{-1/2}: power(-1/2, delta, eps)."""
    return power(-0.5, delta, eps)


def eval_series(poly: MaclaurinPoly, x) -> np.ndarray:
    """Horner evaluation of g_{p,t} at x (scalar or array)."""
    x = np.asarray(x, dtype=np.float64)
    a = poly.coeffs
    acc = np.full(x.shape, a[poly.t], dtype=np.float64)
    for k in range(poly.t - 1, -1, -1):
        acc = acc * x + a[k]
    return acc


def eval_scalar(poly: MaclaurinPoly | ChebyshevPoly, lam):
    """T(lam), the polynomial surrogate for lam^p (lam^s for ChebyshevPoly)."""
    lam = np.asarray(lam, dtype=np.float64)
    if isinstance(poly, ChebyshevPoly):
        return chebyshev.chebval((lam - 1.0) / poly.delta, poly.coeffs)
    return eval_series(poly, 1.0 - lam)


def _clenshaw(poly: ChebyshevPoly, op, alpha: float, beta: float,
              v: np.ndarray) -> np.ndarray:
    """sum_k c_k T_k(U) v for U = g X + h I, g = beta/delta, h = (alpha - 1)/delta.

    b_k = c_k v + 2 U b_{k+1} - b_{k+2} for k = t - 1 .. 0, with b_1 halved
    in place before the last step, exact but for subnormals, so that every
    degree adds 2U b_1: one product with X per degree.  Each degree sets
    u = c_k v, subtracts b_2 (the first degree has none) and adds 2U b_1
    into u, and three blocks rotate.  For a sparse X that is one product
    into u through the CSR kernel on its cached 2U = scaled_shift(2g, 2h)
    (SparseSymMatrix.matvec_add), which allocates nothing.  Otherwise X b_1
    is a fresh array, scaled by 2g and added, with 2h b_1 added through it
    when h != 0 (a chain level applies at alpha = 1, where h is zero); it
    takes the place of b_2, which is spent by then, so that no more than
    three blocks are live: a fourth makes the allocator return and fault
    in a block's pages at every apply.  That is the step for a callable,
    and for a sparse X's first degree, whose X.matvec is the product that
    the benchmark's tracer (bench/spans.py) counts.
    """
    c, t = poly.coeffs, poly.t
    if t == 0:
        return c[0] * v
    g2, h2 = 2.0 * (beta / poly.delta), 2.0 * ((alpha - 1.0) / poly.delta)
    a2 = None
    if isinstance(op, SparseSymMatrix):
        # degree 1 has only the first degree, which multiplies by X itself
        a2 = op.scaled_shift(g2, h2) if t > 1 else None
        op = op.matvec
    b1, b2, u = np.multiply(v, c[t], out=np.empty(v.shape)), None, np.empty(v.shape)
    for k in range(t - 1, -1, -1):
        if k == 0:
            b1 *= 0.5
        np.multiply(v, c[k], out=u)
        if k < t - 1:
            u -= b2
        if a2 is not None and k < t - 1:
            a2.matvec_add(b1, u)
        else:
            # b_2 is spent: free it before X b_1 is allocated in its place
            b2 = None
            b2 = op(b1)
            b2 *= g2
            u += b2
            if h2 != 0.0:
                u += np.multiply(b1, h2, out=b2)
        b1, b2, u = u, b1, b2
    return b1


def apply_operator_poly(poly: ChebyshevPoly, op,
                        shift_scale: tuple[float, float], v: np.ndarray) -> np.ndarray:
    """Apply p(alpha I + beta X) to v, X given by op (matrix or matvec).

    Clenshaw's recurrence scales each product in place, so a matvec
    callable must return a new array.  Exactly t products with X; v may be
    a vector or an (n, k) block.
    """
    if not isinstance(poly, ChebyshevPoly):
        raise InvalidParamsError("apply_operator_poly applies a ChebyshevPoly")
    alpha, beta = shift_scale
    if not (isinstance(op, SparseSymMatrix) or callable(op)):
        raise InvalidParamsError("op must be SparseSymMatrix or a matvec callable")
    v = np.asarray(v, dtype=np.float64)
    if v.ndim not in (1, 2):
        raise DimensionMismatchError("v must be a vector or a 2-d block")
    return _clenshaw(poly, op, alpha, beta, v)
