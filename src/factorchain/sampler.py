"""Gaussian random field sampling with SDDM or SDD precision matrices.

Pipeline: validate the precision matrix (lifting SDD inputs with positive
off-diagonals to twice the dimension), build a crude inverse-factor chain
at unit tolerance, refine it, solve for the mean, then color per-sample
white noise through the refined factor.  Lifted fields project each
colored vector back to the original coordinates; the projection and its
adjoint embedding live in the core matrix module.

Per-sample noise comes from counter-based streams keyed (seed, tag,
sample index), so a batch is reproducible for a given seed no matter how
its members are scheduled.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .chain import (
    EdgeOperator,
    build_chain,
    chain_operator,
    edge_factor,
    refine_inverse_factor,
    solve,
)
from .errors import DimensionMismatchError, InvalidParamsError, NonFiniteError, NotSddError
from .rng import TAG_SAMPLE, stream
from .sparse import (
    GrembanLift,
    SparseSymMatrix,
    gremban_embed,
    gremban_lift,
    gremban_project,
    normalize,
    sdd_slack,
    validate_sddm,
)
from .sparsify import SparsifyParams

# the refinement runs this factor tighter than the requested tolerance, so
# statistical tests on the samples see noise rather than operator bias
REFINE_SHARE = 8.0

_CHUNK = 16384


@dataclass(frozen=True)
class GaussianField:
    """Density proportional to exp(-x' Lambda x / 2 + h' x)."""

    precision: SparseSymMatrix
    potential: np.ndarray
    lifted: GrembanLift | None = None

    @property
    def n(self) -> int:
        return self.precision.n


def _potential(values, n: int) -> np.ndarray:
    h = np.asarray(values, dtype=np.float64)
    if h.shape != (n,):
        raise DimensionMismatchError(f"potential has shape {h.shape}, expected ({n},)")
    if not np.all(np.isfinite(h)):
        raise NonFiniteError("potential contains NaN or infinity")
    return h


def make_field(precision: SparseSymMatrix, potential=None) -> GaussianField:
    """Wrap a precision matrix, lifting it when it is SDD but not SDDM."""
    n = precision.n
    h = np.zeros(n) if potential is None else _potential(potential, n)
    cert = validate_sddm(precision)
    if cert.is_sddm:
        lift = None
    elif n > 0 and np.all(sdd_slack(precision) > 0.0):
        lift = gremban_lift(precision)
    else:
        raise NotSddError("precision must be strictly diagonally dominant")
    return GaussianField(precision=precision, potential=h, lifted=lift)


@dataclass(frozen=True)
class PreparedSampler:
    field: GaussianField
    operator: object
    mean: np.ndarray
    eps: float


def _refined_operator(field: GaussianField, eps: float,
                      sp_params: SparsifyParams | None):
    target = field.lifted.S if field.lifted is not None else field.precision
    cert = validate_sddm(target)
    split = normalize(target, cert)
    crude = chain_operator(split, build_chain(split, -1.0, 1.0, sp_params))
    return target, refine_inverse_factor(target, crude, eps / REFINE_SHARE)


def _mean_of(op, potential: np.ndarray, lifted: bool) -> np.ndarray:
    """Mean Lambda^{-1} h through an inverse factor of Lambda or of its lift."""
    if not np.any(potential):
        return np.zeros(potential.size)
    if lifted:
        return gremban_project(solve(op, gremban_embed(potential)))
    return solve(op, potential)


def prepare(field: GaussianField, eps: float,
            sp_params: SparsifyParams | None = None) -> PreparedSampler:
    """Build the refined inverse factor and the mean for a field."""
    if eps <= 0.0:
        raise InvalidParamsError("eps must be positive")
    _, refined = _refined_operator(field, eps, sp_params)
    mean = _mean_of(refined, field.potential, field.lifted is not None)
    return PreparedSampler(field=field, operator=refined, mean=mean, eps=eps)


@dataclass(frozen=True)
class SampleBatch:
    samples: np.ndarray  # (count, n)
    seed: int
    gaussians_consumed: int
    mean_used: np.ndarray
    eps: float


def _color(op, mean: np.ndarray, count: int, seed: int, eps: float,
           lifted: bool) -> SampleBatch:
    """Color per-sample noise through op, project if lifted, add the mean.

    Sample j draws its op.input_dim normals from stream(seed, TAG_SAMPLE, j),
    so a batch is a prefix of any longer batch with the same seed.
    """
    dim = op.input_dim
    out = np.empty((count, mean.size))
    for start in range(0, count, _CHUNK):
        stop = min(start + _CHUNK, count)
        z = np.empty((dim, stop - start))
        for j in range(start, stop):
            z[:, j - start] = stream(seed, TAG_SAMPLE, j).standard_normal(dim)
        y = op.apply(z)
        if lifted:
            y = gremban_project(y)
        out[start:stop, :] = (y + mean[:, None]).T
    return SampleBatch(samples=out, seed=seed, gaussians_consumed=count * dim,
                       mean_used=mean.copy(), eps=eps)


def sample(prep: PreparedSampler, count: int, seed: int) -> SampleBatch:
    """Draw count independent field samples; n (or 2n, lifted) normals each."""
    if count < 0:
        raise InvalidParamsError("count must be nonnegative")
    return _color(prep.operator, prep.mean, count, seed, prep.eps,
                  prep.field.lifted is not None)


def sample_edge_based(field: GaussianField, eps: float, count: int, seed: int,
                      sp_params: SparsifyParams | None = None) -> SampleBatch:
    """Like sample, but the noise is indexed by edges and slack columns.

    The colored vector is Z (B z) for the exact factor B B^T = Lambda (or
    its lift), consuming m' > n normals per sample with the same
    covariance target.
    """
    if count < 0:
        raise InvalidParamsError("count must be nonnegative")
    if eps <= 0.0:
        raise InvalidParamsError("eps must be positive")
    target, refined = _refined_operator(field, eps, sp_params)
    op = EdgeOperator(refined, edge_factor(target))
    lifted = field.lifted is not None
    return _color(op, _mean_of(refined, field.potential, lifted), count, seed, eps, lifted)


@dataclass(frozen=True)
class CovarianceCheck:
    pass_fraction: float
    max_abs_z: float
    n_checked: int
    insufficient_data: bool


def covariance_check(batch: SampleBatch, target, z_threshold: float = 3.0) -> CovarianceCheck:
    """Entrywise z-scores of the sample covariance against a dense target.

    The standard error of entry (i, j) is sqrt((T_ii T_jj + T_ij^2)/count);
    the pass fraction counts upper-triangle entries (diagonal included)
    with |z| at or below the threshold.  Fewer than two samples cannot
    estimate a covariance and are flagged instead.
    """
    count = batch.samples.shape[0]
    if count < 2:
        return CovarianceCheck(0.0, 0.0, 0, True)
    t = np.asarray(target, dtype=np.float64)
    emp = np.atleast_2d(np.cov(batch.samples, rowvar=False, ddof=1))
    if emp.shape != t.shape:
        raise DimensionMismatchError("target shape does not match the batch")
    diag = np.diag(t)
    se = np.sqrt((np.outer(diag, diag) + t * t) / count)
    z = np.abs(emp - t) / se
    zu = z[np.triu_indices(t.shape[0])]
    return CovarianceCheck(
        pass_fraction=float(np.mean(zu <= z_threshold)),
        max_abs_z=float(zu.max()),
        n_checked=int(zu.size),
        insufficient_data=False,
    )


def write_batch_csv(batch: SampleBatch, path) -> None:
    n = batch.samples.shape[1]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(f"x{i}" for i in range(n)) + "\n")
        for row in batch.samples:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def write_batch_bin(batch: SampleBatch, path) -> None:
    """Raw little-endian float64, row per sample, plus a JSON sidecar."""
    with open(path, "wb") as fh:
        fh.write(np.ascontiguousarray(batch.samples, dtype="<f8").tobytes())
    sidecar = {
        "n": int(batch.samples.shape[1]),
        "count": int(batch.samples.shape[0]),
        "seed": int(batch.seed),
        "eps": float(batch.eps),
    }
    with open(str(path) + ".json", "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, sort_keys=True)
        fh.write("\n")
