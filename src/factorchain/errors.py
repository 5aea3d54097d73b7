"""Exception types shared across the package.

Every error raised by the library derives from FactorChainError so callers
(and the CLI) can distinguish input/validation problems from genuine bugs.
A NumericalError is a computation that ran and failed on a valid input;
every other FactorChainError refuses the input itself.  check_eps is the
one test of a tolerance argument.
"""

from __future__ import annotations

import math


class FactorChainError(Exception):
    """Base class for all errors raised by this package."""


class NumericalError(FactorChainError):
    """A computation on a valid input failed: the CLI exits 1, not 2."""


class NonSymmetricError(FactorChainError):
    """Conflicting duplicate entries, or an asymmetric input matrix."""


class NonFiniteError(FactorChainError):
    """An input contains NaN or infinity."""


class NotSddError(FactorChainError):
    """Matrix is not symmetric diagonally dominant with strict dominance."""


class NotSddmError(FactorChainError):
    """Matrix is not SDDM (strictly dominant with nonpositive off-diagonals)."""


class DimensionMismatchError(FactorChainError):
    """Operand shapes are incompatible."""


class NotPositiveDefiniteError(NumericalError):
    """A positive definite matrix was required."""


class NoConvergenceError(NumericalError):
    """An iterative estimate failed to reach tolerance."""


class ChainDivergedError(NumericalError):
    """Chain construction made no progress; the sparsifier budget is too loose."""


class SpectrumEstimateFailedError(NumericalError):
    """Bounds for a refinement spectrum are inconsistent or leave it no gap."""


class SquareTooLargeError(NumericalError):
    """An exact squaring could hold more bytes than sparsify.SQUARE_BYTE_CAP."""


class WrongExponentError(FactorChainError):
    """An operation requires a factor built for a different exponent."""


class TooLargeForDenseCheckError(FactorChainError):
    """Instance exceeds the dense-oracle size threshold."""


class InvalidParamsError(FactorChainError):
    """Command or generator parameters are out of range."""


class SerializationError(FactorChainError):
    """A factor container file is malformed or of an unsupported version."""


def check_eps(eps: float) -> None:
    """Refuse a tolerance that is not a positive, finite number."""
    if not (eps > 0.0 and math.isfinite(eps)):
        raise InvalidParamsError("eps must be positive and finite")
