"""Gaussian random field sampling with SDDM or SDD precision matrices.

Pipeline: validate the precision matrix (lifting SDD inputs with positive
off-diagonals to twice the dimension), refine a crude inverse factor at
the level degree with the fewest predicted flops per sample (down to depth
0, a polynomial in the matrix alone), solve for the mean,
then color per-sample white noise through the refined factor.  Lifted
fields project each colored vector back to the original coordinates; the
projection and its adjoint embedding live in the core matrix module.

Per-sample noise comes from one Philox keyed (seed, tag), with sample j
at a counter fixed by j, so a batch is reproducible for a given seed no
matter how its members are scheduled.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .chain import (  # noqa: F401  (build_chain stays bound here for tracers)
    EdgeOperator,
    build_chain,
    refine_by_cost,
    solve,
)
from .errors import (
    DimensionMismatchError,
    InvalidParamsError,
    NonFiniteError,
    NotSddError,
    check_eps,
)
from .rng import TAG_SAMPLE, seek_each, stream
from .sparse import (
    GrembanLift,
    SparseSymMatrix,
    edge_factor,
    gremban_embed,
    gremban_lift,
    gremban_project,
    normalize,
    sdd_slack,
    validate_sddm,
)

# the refinement runs this factor tighter than the requested tolerance, so
# statistical tests on the samples see noise rather than operator bias
REFINE_SHARE = 8.0

# |z| above which covariance_check counts an entry as a miss
Z_THRESHOLD = 3.0

# bytes of noise one colouring block holds: with Clenshaw's three blocks,
# about 1 MB, small enough to stay in cache; a sample too large for one
# block is coloured alone, up to _SAMPLE_BYTES
_BLOCK_BYTES = 2**18
# blocks in a batch's working set: the noise rows, their column copy and
# Clenshaw's three blocks
_WORKING_BLOCKS = 5
_SAMPLE_BYTES = 2**27
# bytes of samples one batch may hold
_OUTPUT_BYTES = 2**30


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


def _refined_operator(field: GaussianField, eps: float):
    target = field.lifted.S if field.lifted is not None else field.precision
    split = normalize(target, validate_sddm(target))
    return target, refine_by_cost(target, split, eps / REFINE_SHARE)


def _mean_of(op, potential: np.ndarray, lifted: bool) -> np.ndarray:
    """Mean Lambda^{-1} h through an inverse factor of Lambda or of its lift."""
    if not np.any(potential):
        return np.zeros(potential.size)
    if lifted:
        return gremban_project(solve(op, gremban_embed(potential)))
    return solve(op, potential)


def prepare(field: GaussianField, eps: float) -> PreparedSampler:
    """Build the refined inverse factor and the mean for a field.

    The sampler's eps is the one the operator is certified to, eps /
    REFINE_SHARE, as factorchain sample records for a stored operator.
    """
    check_eps(eps)
    _, refined = _refined_operator(field, eps)
    mean = _mean_of(refined, field.potential, field.lifted is not None)
    return PreparedSampler(field=field, operator=refined, mean=mean,
                           eps=refined.refinement.eps)


@dataclass(frozen=True)
class SampleBatch:
    samples: np.ndarray  # (count, n)
    seed: int
    gaussians_consumed: int
    mean_used: np.ndarray
    eps: float


def _block_columns(dim: int, count: int, n_out: int) -> int:
    """Samples per colouring block; refuses oversized samples and batches."""
    if 8 * dim > _SAMPLE_BYTES:
        raise InvalidParamsError(
            f"a sample of {dim} normals exceeds the {_SAMPLE_BYTES}-byte limit "
            "of a colouring block")
    if 8 * count * n_out > _OUTPUT_BYTES:
        raise InvalidParamsError(
            f"{count} samples of {n_out} values exceed the {_OUTPUT_BYTES}-byte output budget")
    return max(1, _BLOCK_BYTES // (8 * max(dim, 1)))


def _color(op, mean: np.ndarray, count: int, seed: int, eps: float,
           lifted: bool) -> SampleBatch:
    """Color per-sample noise through op, project if lifted, add the mean.

    Sample j draws its op.input_dim normals from stream(seed, TAG_SAMPLE)
    moved to counter j (rng.seek_each), so a batch is a prefix of any
    longer batch with the same seed, whatever the block width.  The mean
    is added in place into the block op.apply returns, so this relies on
    the package's operators returning a block that the sampler owns.  A
    block's noise and colours are released before the next is drawn, so
    the noise and the operator's working blocks are all that is live.
    """
    dim = op.input_dim
    block = _block_columns(dim, count, mean.size)
    # glibc gives a freed heap top back to the system once it passes a trim
    # threshold, twice the largest mmapped array freed so far.  An array the
    # size of the working set, allocated and dropped here, sets it above
    # what a batch frees, so the next batch reuses these pages rather than
    # faulting fresh ones in (grid_field: 508 -> 0 minor faults a batch)
    np.empty(_WORKING_BLOCKS * min(block, count) * dim)
    out = np.empty((count, mean.size))
    gen = stream(seed, TAG_SAMPLE)
    for start in range(0, count, block):
        stop = min(start + block, count)
        # standard_normal fills contiguous rows; the operator takes columns,
        # copied once, since Clenshaw reads its input at every degree and a
        # strided read costs more than the copy; the rows go before it runs
        z = np.empty((stop - start, dim))
        for j, sought in enumerate(seek_each(gen, range(start, stop))):
            sought.standard_normal(dim, out=z[j])
        z = np.ascontiguousarray(z.T)
        y = op.apply(z)
        del z
        if lifted:
            y = gremban_project(y)
        y += mean[:, None]
        out[start:stop] = y.T
        del y
    return SampleBatch(samples=out, seed=seed, gaussians_consumed=count * dim,
                       mean_used=mean.copy(), eps=eps)


def sample(prep: PreparedSampler, count: int, seed: int) -> SampleBatch:
    """Draw count independent field samples; n (or 2n, lifted) normals each."""
    if count < 0:
        raise InvalidParamsError("count must be nonnegative")
    return _color(prep.operator, prep.mean, count, seed, prep.eps,
                  prep.field.lifted is not None)


def sample_edge_based(field: GaussianField, eps: float, count: int, seed: int) -> SampleBatch:
    """Like sample, but the noise is indexed by edges and slack columns.

    The colored vector is Z (B z) for the exact factor B B^T = Lambda (or
    its lift), consuming m' > n normals per sample with the same
    covariance target.
    """
    if count < 0:
        raise InvalidParamsError("count must be nonnegative")
    check_eps(eps)
    target, refined = _refined_operator(field, eps)
    op = EdgeOperator(refined, edge_factor(target))
    lifted = field.lifted is not None
    return _color(op, _mean_of(refined, field.potential, lifted), count, seed, eps, lifted)


@dataclass(frozen=True)
class CovarianceCheck:
    pass_fraction: float
    max_abs_z: float
    n_checked: int
    insufficient_data: bool


def covariance_check(batch: SampleBatch, target) -> CovarianceCheck:
    """Entrywise z-scores of the sample covariance against a dense target.

    The standard error of entry (i, j) is sqrt((T_ii T_jj + T_ij^2)/count);
    the pass fraction counts upper-triangle entries (diagonal included)
    with |z| at or below Z_THRESHOLD.  Fewer than two samples cannot
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
        pass_fraction=float(np.mean(zu <= Z_THRESHOLD)),
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
