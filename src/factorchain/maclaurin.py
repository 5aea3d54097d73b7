"""Truncated binomial series g_{p,t}(x) ~ (1 - x)^p and its operator form.

Writing lam = 1 - x, the polynomial T(lam) = g_{p,t}(1 - lam) approximates
lam^p near 1.  For |x| <= delta < 1 and p in [-1, 1] the coefficients stay
bounded by 1, the absolute truncation error is at most
delta^(t+1) / (1 - delta), and dividing by min lam^p >= 1 - delta gives the
multiplicative criterion delta^(t+1) / (1 - delta)^2 <= eps that drives
degree selection.  Operator evaluation is Horner's scheme with exactly t
matrix-vector products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, InvalidParamsError, NoConvergenceError
from .sparse import SparseSymMatrix

# degree_for gives up above this degree
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
    if eps <= 0.0:
        raise InvalidParamsError("eps must be positive")
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


def eval_series(poly: MaclaurinPoly, x) -> np.ndarray:
    """Horner evaluation of g_{p,t} at x (scalar or array)."""
    x = np.asarray(x, dtype=np.float64)
    a = poly.coeffs
    acc = np.full(x.shape, a[poly.t], dtype=np.float64)
    for k in range(poly.t - 1, -1, -1):
        acc = acc * x + a[k]
    return acc


def eval_scalar(poly: MaclaurinPoly, lam):
    """T(lam) = g_{p,t}(1 - lam), the polynomial surrogate for lam^p."""
    lam = np.asarray(lam, dtype=np.float64)
    return eval_series(poly, 1.0 - lam)


def apply_operator_poly(poly: MaclaurinPoly, op, shift_scale: tuple[float, float],
                        v: np.ndarray) -> np.ndarray:
    """Apply T(alpha I + beta X) to v, X given by op (matrix or matvec).

    Horner: w <- a_t v, then w <- a_k v + (I - (alpha I + beta X)) w, which
    is w <- a_k v + (1 - alpha) w - beta X w.  Exactly t products with X;
    v may be a vector or an (n, k) block.
    """
    alpha, beta = shift_scale
    if isinstance(op, SparseSymMatrix):
        mv = op.matvec
    elif callable(op):
        mv = op
    else:
        raise InvalidParamsError("op must be SparseSymMatrix or a matvec callable")
    v = np.asarray(v, dtype=np.float64)
    if v.ndim not in (1, 2):
        raise DimensionMismatchError("v must be a vector or a 2-d block")
    a = poly.coeffs
    rem = 1.0 - alpha
    acc = a[poly.t] * v
    for k in range(poly.t - 1, -1, -1):
        acc = a[k] * v + rem * acc - beta * mv(acc)
    return acc
