import dataclasses
import hashlib
import json
import os
import platform
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from factorchain import (
    DimensionMismatchError,
    InvalidParamsError,
    NonFiniteError,
    NotSddError,
    SparseSymMatrix,
    build_chain,
    chain_operator,
    covariance_check,
    dense_power,
    grid2d,
    loewner_check,
    make_field,
    normalize,
    prepare,
    random_regular,
    sample,
    sample_edge_based,
    sdd_mixed,
    validate_sddm,
    write_batch_bin,
    write_batch_csv,
)
from factorchain import sampler
from factorchain.chain import EdgeOperator, edge_factor
from factorchain.rng import TAG_SAMPLE, seek_each, stream
from factorchain.sampler import SampleBatch


# ------------------------------------------------------------------- field


def test_make_field_sddm_direct(grid9):
    field = make_field(grid9)
    assert field.lifted is None
    assert field.n == 9
    assert np.array_equal(field.potential, np.zeros(9))


def test_make_field_lifts_positive_offdiagonals():
    m = sdd_mixed(10, seed=2)
    field = make_field(m)
    assert field.lifted is not None
    assert field.lifted.n == 20
    assert field.n == 10


def test_make_field_rejects_non_sdd():
    m = SparseSymMatrix.from_dense(np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(NotSddError):
        make_field(m)


def test_make_field_rejects_wrong_potential(grid9):
    with pytest.raises(DimensionMismatchError):
        make_field(grid9, np.ones(4))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_make_field_rejects_non_finite_potential(grid9, bad):
    h = np.ones(9)
    h[4] = bad
    with pytest.raises(NonFiniteError):
        make_field(grid9, h)


# ----------------------------------------------------------------- prepare


def test_prepare_rejects_nonpositive_eps(grid9):
    with pytest.raises(InvalidParamsError):
        prepare(make_field(grid9), 0.0)


@pytest.mark.parametrize("eps", [float("nan"), float("inf")])
def test_prepare_rejects_non_finite_eps(grid9, eps):
    with pytest.raises(InvalidParamsError, match="positive and finite"):
        prepare(make_field(grid9), eps)


@pytest.mark.parametrize("eps", [float("nan"), float("inf")])
def test_sample_edge_based_rejects_non_finite_eps(grid9, eps):
    with pytest.raises(InvalidParamsError, match="positive and finite"):
        sample_edge_based(make_field(grid9), eps, 3, seed=1)


def test_prepare_zero_potential_gives_zero_mean(grid9):
    prep = prepare(make_field(grid9), 0.3)
    assert np.array_equal(prep.mean, np.zeros(9))


def test_prepare_diagonal_mean():
    m = SparseSymMatrix.from_dense(2.0 * np.eye(5))
    prep = prepare(make_field(m, 2.0 * np.ones(5)), 1e-6)
    assert np.allclose(prep.mean, np.ones(5), atol=1e-5)


def test_prepare_grid_mean_residual():
    m = grid2d(8)
    h = np.sin(np.arange(64) * 0.3)
    prep = prepare(make_field(m, h), 1e-6)
    res = np.linalg.norm(m.matvec(prep.mean) - h) / np.linalg.norm(h)
    assert res <= 1e-4


def test_prepare_lifted_mean_matches_dense_solve():
    m = sdd_mixed(12, seed=3)
    h = np.cos(np.arange(12.0))
    prep = prepare(make_field(m, h), 1e-8)
    expect = np.linalg.solve(m.to_dense(), h)
    assert np.allclose(prep.mean, expect, atol=1e-6)


# ---------------------------------------------------------------- sampling


def test_sample_empty_batch(grid9):
    prep = prepare(make_field(grid9), 0.5)
    batch = sample(prep, 0, seed=1)
    assert batch.samples.shape == (0, 9)
    assert batch.gaussians_consumed == 0


def test_sample_deterministic_and_prefix_stable(grid9):
    prep = prepare(make_field(grid9), 0.5)
    a = sample(prep, 5, seed=42)
    b = sample(prep, 5, seed=42)
    assert np.array_equal(a.samples, b.samples)
    # per-sample streams: a shorter batch is a prefix of a longer one
    c = sample(prep, 3, seed=42)
    assert np.array_equal(c.samples, a.samples[:3])
    d = sample(prep, 5, seed=43)
    assert not np.array_equal(a.samples, d.samples)


def test_sample_beyond_output_budget_refused(grid9):
    # 10**8 samples of 9 values need 7.2 GB: refused before the output exists
    prep = prepare(make_field(grid9), 0.5)
    with pytest.raises(InvalidParamsError, match="output budget"):
        sample(prep, 10**8, seed=1)


@pytest.mark.parametrize("samples_per_block", [0, 1, 3])
def test_blocks_of_samples_colour_like_one_block(monkeypatch, samples_per_block):
    # a lifted field, so the projection runs per block too; a block smaller
    # than one sample still colours that sample alone
    lam = sdd_mixed(16, seed=3)
    h = np.random.default_rng(8).standard_normal(lam.n)
    prep = prepare(make_field(lam, h), 0.3)
    dim, count = prep.operator.input_dim, 10
    assert sampler._block_columns(dim, count, lam.n) >= count
    whole = sample(prep, count, seed=5)
    monkeypatch.setattr(sampler, "_BLOCK_BYTES", max(1, 8 * dim * samples_per_block))
    assert sampler._block_columns(dim, count, lam.n) == max(1, samples_per_block)
    assert np.array_equal(sample(prep, count, seed=5).samples, whole.samples)


def test_batches_across_block_edges_are_prefixes_of_each_other():
    # grid2d(32) colours 32 samples per block: 33, 65 and 130 start new blocks
    m = grid2d(32)
    prep = prepare(make_field(m), 0.5)
    assert sampler._block_columns(m.n, 130, m.n) == 32
    longest = sample(prep, 130, seed=9).samples
    for count in (1, 32, 33, 64, 65):
        assert sample(prep, count, seed=9).samples.tobytes() == longest[:count].tobytes()


def batch_working_set(prep, count, seed):
    """Peak traced bytes of one batch past its output, in colouring blocks."""
    sample(prep, 1, seed)  # first-use caches (a level's 2U) are not the batch's
    tracemalloc.start()
    try:
        batch = sample(prep, count, seed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    dim = prep.operator.input_dim
    block = 8 * dim * min(count, sampler._block_columns(dim, count, prep.mean.size))
    return (peak - batch.samples.nbytes) / block


def test_a_batch_holds_the_noise_and_the_recurrence_blocks():
    # the noise goes to the operator as a view, the operators scale their
    # own blocks in place and the mean is added in place, so a block's
    # working set is the noise and Clenshaw's three blocks (plus, for a
    # chain, the block its terminal factor makes)
    m = grid2d(32)
    h = np.random.default_rng([1, 1]).standard_normal(m.n)
    assert batch_working_set(prepare(make_field(m, h), 0.1), 64, seed=1) <= 4.5

    r = random_regular(512, 3)
    split = normalize(r, validate_sddm(r))
    op = chain_operator(split, build_chain(split, -0.5, 0.3))
    assert op.chain.terminal is not None and op.chain.d > 0
    prep = sampler.PreparedSampler(field=make_field(r), operator=op,
                                   mean=np.zeros(r.n), eps=0.3)
    assert batch_working_set(prep, 128, seed=1) <= 5.5


# grid_field's sampling in a fresh process: the minor page faults of 50
# 64-sample batches after a warm-up, per batch
_FAULTS = """
import resource
import numpy as np
import factorchain as fc
m = fc.grid2d(32)
prep = fc.prepare(fc.make_field(m, np.random.default_rng([1, 1]).standard_normal(m.n)), 0.1)
for _ in range(3):
    fc.sample(prep, 64, 1)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(50):
    fc.sample(prep, 1, 1)
    fc.sample(prep, 64, 1)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 50)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's trim threshold")
def test_repeated_batches_reuse_their_pages():
    # a fresh process, so no earlier test has raised the allocator's
    # thresholds; without the working-set array that _color drops, glibc
    # returned a batch's blocks and faulted in about 508 fresh pages a batch
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run([sys.executable, "-c", _FAULTS], env=env, check=True,
                          capture_output=True, text=True)
    assert float(proc.stdout) < 10.0


class Identity:
    """An operator that passes its noise through, so samples are the normals."""

    def __init__(self, n):
        self.input_dim = self.output_dim = n

    def apply(self, v):
        return v


def test_sample_noise_is_keyed_by_seed_and_index():
    normals = sampler._color(Identity(50), np.zeros(50), 6, 4, 0.1, False).samples
    # sample j is the keyed stream at counter j, whatever was drawn before
    gen = stream(4, TAG_SAMPLE)
    gen.standard_normal(7)
    for j in (3, 0, 5):
        assert np.array_equal(next(seek_each(gen, [j])).standard_normal(50), normals[j])
    assert len({row.tobytes() for row in normals}) == 6
    other = sampler._color(Identity(50), np.zeros(50), 6, 5, 0.1, False).samples
    assert not np.any(np.all(other == normals, axis=1))
    # unit normals: a pooled mean and variance of 300 draws near 0 and 1
    assert abs(normals.mean()) < 0.3 and abs(normals.var() - 1.0) < 0.3


def test_sample_gaussian_accounting(grid9):
    prep = prepare(make_field(grid9), 0.5)
    batch = sample(prep, 7, seed=0)
    assert batch.gaussians_consumed == 7 * 9
    assert batch.seed == 0


def test_sample_lifted_consumes_double():
    m = sdd_mixed(10, seed=2)
    prep = prepare(make_field(m), 0.5)
    batch = sample(prep, 6, seed=0)
    assert batch.samples.shape == (6, 10)
    assert batch.gaussians_consumed == 6 * 20


def test_identity_precision_empirical_covariance():
    m = SparseSymMatrix.from_dense(np.eye(8))
    prep = prepare(make_field(m), 1e-3)
    batch = sample(prep, 100_000, seed=7)
    emp = np.cov(batch.samples, rowvar=False, ddof=1)
    off = emp - np.diag(np.diag(emp))
    assert np.max(np.abs(off)) <= 0.02
    assert np.max(np.abs(np.diag(emp) - 1.0)) <= 0.03


def test_grid_covariance_entrywise(grid9):
    prep = prepare(make_field(grid9), 0.05)
    batch = sample(prep, 50_000, seed=3)
    target = dense_power(grid9.to_dense(), -1.0)
    res = covariance_check(batch, target)
    assert not res.insufficient_data
    assert res.pass_fraction >= 0.97


def test_mean_within_standard_error():
    m = grid2d(4)
    h = np.linspace(-1.0, 1.0, 16)
    prep = prepare(make_field(m, h), 0.02)
    count = 100_000
    batch = sample(prep, count, seed=11)
    target = dense_power(m.to_dense(), -1.0)
    se = np.sqrt(np.diag(target) / count)
    dev = np.abs(batch.samples.mean(axis=0) - prep.mean)
    assert np.all(dev <= 4.0 * se)
    # the batch adds the prepared mean to the coloured noise
    few = sample(prep, 8, seed=11)
    noise = sample(dataclasses.replace(prep, mean=np.zeros(16)), 8, seed=11)
    assert np.array_equal(few.samples, noise.samples + prep.mean)


def test_lifted_sampling_covariance():
    m = sdd_mixed(8, seed=4)
    prep = prepare(make_field(m), 0.05)
    batch = sample(prep, 50_000, seed=5)
    target = np.linalg.inv(m.to_dense())
    res = covariance_check(batch, target)
    assert res.pass_fraction >= 0.95


# ------------------------------------------------------------- edge-based


def test_edge_based_accounting_and_covariance(grid9):
    field = make_field(grid9)
    m_prime = edge_factor(grid9).m_prime
    assert m_prime > 9
    batch = sample_edge_based(field, 0.1, 30_000, seed=2)
    assert batch.gaussians_consumed == 30_000 * m_prime
    target = dense_power(grid9.to_dense(), -1.0)
    res = covariance_check(batch, target)
    assert res.pass_fraction >= 0.95


def test_edge_based_records_the_eps_it_certifies():
    # C C^T = Z M Z is certified to twice prepare's eps; the samples are
    # the bits the edge sampler drew before it went through prepare
    m = grid2d(4)
    field = make_field(m, np.ones(m.n))
    prep = prepare(field, 0.2)
    batch = sample_edge_based(field, 0.2, 64, seed=3)
    assert prep.eps == 0.025 and batch.eps == 2.0 * prep.eps
    assert hashlib.sha256(batch.samples.tobytes()).hexdigest() == (
        "2c008013220c32352d0833e26d20c13da4e0ecb49b9a97dec525e86908f1e712")
    dense = EdgeOperator(prep.operator, edge_factor(m)).as_dense()
    res = loewner_check(dense @ dense.T, dense_power(m.to_dense(), -1.0), batch.eps)
    assert res.passed and res.eps_measured > prep.eps


def test_edge_based_lifted_keeps_its_samples():
    field = make_field(sdd_mixed(8, seed=1), np.linspace(-1.0, 1.0, 8))
    batch = sample_edge_based(field, 0.3, 16, seed=5)
    assert batch.eps == 2.0 * prepare(field, 0.3).eps
    assert hashlib.sha256(batch.samples.tobytes()).hexdigest() == (
        "3a99d352988b9422fcc5ea5ae4219c324e46fca1f603adf4cdc1dc3523470f14")


def test_edge_based_diagonal_precision_scales_normals():
    m = SparseSymMatrix.from_dense(np.diag([4.0, 9.0]))
    batch = sample_edge_based(make_field(m), 1e-6, 20_000, seed=1)
    v = batch.samples.var(axis=0, ddof=1)
    # variances 1/4 and 1/9 up to sampling noise
    assert v[0] == pytest.approx(0.25, rel=0.1)
    assert v[1] == pytest.approx(1.0 / 9.0, rel=0.1)


# -------------------------------------------------------- covariance check


def exact_batch(target, count, seed):
    rng = np.random.default_rng(seed)
    c = np.linalg.cholesky(target)
    samples = rng.standard_normal((count, target.shape[0])) @ c.T
    return SampleBatch(samples=samples, seed=seed,
                       gaussians_consumed=count * target.shape[0], eps=0.0)


def test_covariance_check_calibration():
    target = dense_power(grid2d(3).to_dense(), -1.0)
    batch = exact_batch(target, 40_000, 0)
    res = covariance_check(batch, target)
    assert res.pass_fraction >= 0.95
    assert res.n_checked == 9 * 10 // 2


def test_covariance_check_detects_shifted_target():
    # only diagonal entries move, so use n = 2 where they are 2 of 3 checked
    target = np.array([[1.0, 0.3], [0.3, 1.0]])
    batch = exact_batch(target, 40_000, 1)
    res = covariance_check(batch, target + 0.5 * np.eye(2))
    assert res.pass_fraction < 0.5


def test_covariance_check_detects_scaled_target():
    target = dense_power(grid2d(3).to_dense(), -1.0)
    batch = exact_batch(target, 40_000, 4)
    res = covariance_check(batch, 1.5 * target)
    assert res.pass_fraction < 0.1


def test_covariance_check_single_sample_flagged():
    target = np.eye(3)
    batch = exact_batch(target, 1, 2)
    res = covariance_check(batch, target)
    assert res.insufficient_data
    assert res.n_checked == 0


# ------------------------------------------------------------------ output


def test_write_batch_csv_round_trip(tmp_path, grid9):
    prep = prepare(make_field(grid9), 0.5)
    batch = sample(prep, 4, seed=9)
    path = tmp_path / "b.csv"
    write_batch_csv(batch, path)
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(f"x{i}" for i in range(9))
    data = np.array([[float(t) for t in l.split(",")] for l in lines[1:]])
    assert np.array_equal(data, batch.samples)


def test_write_batch_bin_with_sidecar(tmp_path, grid9):
    prep = prepare(make_field(grid9), 0.5)
    batch = sample(prep, 4, seed=9)
    path = tmp_path / "b.bin"
    write_batch_bin(batch, path)
    raw = np.fromfile(path, dtype="<f8").reshape(4, 9)
    assert np.array_equal(raw, batch.samples)
    side = json.loads((tmp_path / "b.bin.json").read_text())
    assert side == {"n": 9, "count": 4, "seed": 9, "eps": batch.eps}
