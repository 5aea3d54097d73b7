"""Tests of the benchmark's own checks and tracer.

Run from the repository root:  python3 -m pytest -q bench/test_bench.py

Every correctness check must pass on the program's output and fail on a
perturbed one: a factor whose output is scaled by 1.2 (the scale a wrong
out_scale would give), the mean and samples that such a factor produces,
and a batch drawn with another seed for prefix stability.  A direct
p = -1/2 chain is certified only to 2 eps_total (about 0.5 here), which a
1.2 scale (log ratio 0.36) stays inside, so that case is scaled by 1.5.
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import factorchain as fc  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
from spans import Tracer, count_total, span_time  # noqa: E402


class Scaled:
    """An operator whose output is multiplied by f, as a wrong out_scale does."""

    def __init__(self, op, f):
        self.op, self.f = op, f

    chain = property(lambda self: self.op.chain)
    refinement = property(lambda self: self.op.refinement)
    input_dim = property(lambda self: self.op.input_dim)
    output_dim = property(lambda self: self.op.output_dim)

    def apply(self, v):
        return self.f * self.op.apply(v)

    def apply_transpose(self, v):
        return self.f * self.op.apply_transpose(v)


EPS = 0.1


@pytest.fixture(scope="module")
def grid():
    m = fc.grid2d(6)
    h = np.random.default_rng(5).standard_normal(m.n)
    prep = fc.prepare(fc.make_field(m, h), EPS)
    ref = checks.DenseReference(m.to_dense())
    probes = ref.probes(np.random.default_rng(6))
    return m, h, prep, ref, probes


def test_factor_check_refined(grid):
    _, _, prep, ref, probes = grid
    assert checks.factor_check(prep.operator.apply_transpose, ref, -1.0, EPS, probes).passed
    bad = Scaled(prep.operator, 1.2)
    assert not checks.factor_check(bad.apply_transpose, ref, -1.0, EPS, probes).passed


def test_factor_check_direct_chain():
    m = fc.random_regular(32, 3, seed=2)
    split = fc.normalize(m, fc.validate_sddm(m))
    chain = fc.build_chain(split, -0.5, 0.3)
    op = fc.chain_operator(split, chain)
    ref = checks.DenseReference(m.to_dense())
    probes = ref.probes(np.random.default_rng(1))
    tol = 2.0 * chain.eps_total
    assert checks.factor_check(op.apply_transpose, ref, -0.5, tol, probes).passed
    bad = fc.ChainOperator(chain, out_scale=1.5 * op.out_scale)
    assert not checks.factor_check(bad.apply_transpose, ref, -0.5, tol, probes).passed


def test_factor_check_lifted():
    lam = fc.sdd_mixed(16, seed=3)
    prep = fc.prepare(fc.make_field(lam), EPS)
    ref = checks.DenseReference(lam.to_dense())
    probes = ref.probes(np.random.default_rng(2))

    def lifted(op):
        return lambda v: op.apply_transpose(np.vstack([v, -v]) / math.sqrt(2.0))

    assert checks.factor_check(lifted(prep.operator), ref, -1.0, EPS, probes).passed
    bad = lifted(Scaled(prep.operator, 1.2))
    assert not checks.factor_check(bad, ref, -1.0, EPS, probes).passed


def test_mean_check(grid):
    _, h, prep, ref, _ = grid
    assert checks.mean_check(prep.mean, ref, h, EPS).passed
    bad_mean = fc.solve(Scaled(prep.operator, 1.2), h)
    assert not checks.mean_check(bad_mean, ref, h, EPS).passed


def test_sample_checks(grid):
    m, h, prep, ref, _ = grid
    mu = np.linalg.solve(ref.m, h)
    good = fc.sample(prep, 2000, 3).samples
    assert checks.batch_mean_check(good, mu, ref.m, EPS).passed
    assert checks.whitened_check(good, mu, ref.m, EPS).passed
    bad_op = Scaled(prep.operator, 1.2)
    bad_prep = fc.PreparedSampler(field=prep.field, operator=bad_op,
                                  mean=fc.solve(bad_op, h), eps=EPS)
    bad = fc.sample(bad_prep, 2000, 3).samples
    assert not checks.batch_mean_check(bad, mu, ref.m, EPS).passed
    assert not checks.whitened_check(bad, mu, ref.m, EPS).passed


def test_prefix_and_same_checks(grid):
    _, _, prep, _, _ = grid
    batch = fc.sample(prep, 10, 7).samples
    assert checks.prefix_check(fc.sample(prep, 3, 7).samples, batch).passed
    assert not checks.prefix_check(fc.sample(prep, 3, 8).samples, batch).passed
    assert checks.same_check("repeat", batch, fc.sample(prep, 10, 7).samples).passed
    assert not checks.same_check("repeat", batch, fc.sample(prep, 10, 8).samples).passed


def test_self_time_excludes_children():
    tr = Tracer()
    with tr.span("outer"):
        with tr.span("inner"):
            sum(range(20000))
        sum(range(20000))
    inner = tr.spans[1]["end"] - tr.spans[1]["start"]
    outer = tr.spans[0]["end"] - tr.spans[0]["start"]
    assert tr.spans[1]["parent"] == tr.spans[0]["id"]
    assert span_time(tr.spans, "outer", ("setup",), self_time=True) == pytest.approx(
        outer - inner, abs=1e-12)
    assert span_time(tr.spans, "outer", ("setup",)) == outer


def _traced_counts():
    m = fc.grid2d(4)
    tr = Tracer()
    tr.install()
    try:
        prep = fc.prepare(fc.make_field(m, np.ones(m.n)), EPS)
        tr.set_phase("batch", 0)
        fc.sample(prep, 5, 1)
    finally:
        tr.uninstall()
    return tr


def test_tracer_counts_repeat_and_wrappers_come_off():
    orig = (fc.prepare, fc.sparse.SparseSymMatrix.matvec, fc.chain.power_iteration,
            fc.sparse.power_iteration, fc.sampler.build_chain)
    a, b = _traced_counts(), _traced_counts()
    assert (fc.prepare, fc.sparse.SparseSymMatrix.matvec, fc.chain.power_iteration,
            fc.sparse.power_iteration, fc.sampler.build_chain) == orig
    for name, phases in (("sparse.matvec_cols", ("setup",)),
                         ("sparse.matvec_cols", ("batch",)),
                         ("chain.refine_power_steps", ("setup",)),
                         ("rng.normals", ("batch",))):
        got = count_total(a.counts, name, phases)
        assert got > 0 and got == count_total(b.counts, name, phases)
    assert count_total(a.counts, "rng.normals", ("batch",)) == 5 * 16
    assert span_time(a.spans, "sampler.prepare", ("setup",)) > 0.0
    assert span_time(a.spans, "chain.refine", ("setup",)) > 0.0


def test_reported_metrics_match_benchmark_json():
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
