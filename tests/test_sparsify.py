import math

import numpy as np
import pytest
import scipy.sparse.linalg

from factorchain import (
    InvalidParamsError,
    NoConvergenceError,
    NotPositiveDefiniteError,
    SparseSymMatrix,
    SparsifyParams,
    average_and_sparsify,
    grid2d,
    loewner_check,
    normalize,
    random_sddm,
    sparsify_square_step,
    validate_sddm,
)
from factorchain.sparse import blend, identity_minus_scaled, square
from factorchain import sparsify
from factorchain.sparsify import (
    MERGE_ATTEMPTS,
    MERGE_CONSTANT,
    _effective_resistances,
    measure_step,
    merge_sample_count,
)


def split_of(m):
    return normalize(m, validate_sddm(m))


def measured_eps(approx, target):
    n = approx.n
    a = np.eye(n) - approx.to_dense()
    b = np.eye(n) - target.to_dense()
    return loewner_check(a, b, math.inf).eps_measured


# ------------------------------------------------------------------ params


def test_params_reject_nonpositive_eps():
    with pytest.raises(InvalidParamsError):
        SparsifyParams(eps=0.0)


def test_params_reject_unknown_mode():
    # "auto", a size switch between the two modes, is gone
    for mode in ("sometimes", "auto"):
        with pytest.raises(InvalidParamsError):
            SparsifyParams(eps=0.5, mode=mode)


def test_merge_sample_count_default_formula():
    p = SparsifyParams(eps=0.5)
    n = 100
    assert merge_sample_count(p, n) == math.ceil(
        MERGE_CONSTANT * math.log(n) / 0.25 * n)


def test_mode_selection():
    # the default squares exactly; sampled is chosen by name only
    x = split_of(grid2d(8)).X
    default, report = sparsify_square_step(x, SparsifyParams(eps=0.5))
    assert SparsifyParams(eps=0.5).mode == "exact"
    assert default.same_entries(blend(x, square(x)))
    assert (report.eps_measured, report.merge_attempts) == (0.0, 0)
    sampled, _ = sparsify_square_step(x, SparsifyParams(eps=0.5, mode="sampled"))
    assert not sampled.same_entries(default)


# -------------------------------------------------------------- merge step


def test_average_identical_inputs_exact_mode_is_identity():
    split = split_of(grid2d(4))
    out, _, _ = average_and_sparsify(split.X, split.X,
                               SparsifyParams(eps=0.5, mode="exact"))
    assert np.allclose(out.to_dense(), split.X.to_dense(), atol=0)


def test_average_exact_mode_is_plain_blend():
    split = split_of(grid2d(4))
    xp = square(split.X)
    out, _, _ = average_and_sparsify(split.X, xp, SparsifyParams(eps=0.5, mode="exact"))
    assert np.allclose(out.to_dense(), blend(split.X, xp).to_dense(), atol=0)


def test_average_sampled_grid64_reduces_and_certifies():
    split = split_of(grid2d(8))
    xp = square(split.X)
    t_avg = blend(split.X, xp)
    out, _, _ = average_and_sparsify(split.X, xp,
                               SparsifyParams(eps=0.5, seed=0, mode="sampled"))
    assert out.min_value() >= 0.0
    assert out.nnz < t_avg.nnz
    assert measured_eps(out, t_avg) <= 0.25


def test_average_rejects_exhausted_slack():
    # row sums of 1 leave no diagonal slack: I - X is singular
    x = SparseSymMatrix.from_dense(np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(NotPositiveDefiniteError):
        average_and_sparsify(x, x, SparsifyParams(eps=0.5, mode="sampled"))


def test_merge_sample_count_grows_with_n():
    p = SparsifyParams(eps=0.5)
    assert merge_sample_count(p, 400) > merge_sample_count(p, 100)


def resistance_inputs(x):
    """The merge stage's view of T = X/2 + X^2/2: M~ = I - T and its edges."""
    t_avg = blend(x, square(x))
    r, c, _ = t_avg.upper_triangle()
    off = r != c
    return identity_minus_scaled(1.0, t_avg), r[off], c[off]


@pytest.mark.parametrize("seed", [0, 1, 9])
@pytest.mark.parametrize("m", [grid2d(6), random_sddm(200)], ids=["grid6", "sddm200"])
def test_sketched_resistances_track_dense_inverse(m, seed):
    m_tilde, eu, ev = resistance_inputs(split_of(m).X)
    inv = np.linalg.inv(m_tilde.to_dense())
    dense = inv[eu, eu] + inv[ev, ev] - 2.0 * inv[eu, ev]
    ratio = _effective_resistances(m_tilde, eu, ev, seed) / dense
    assert np.all((ratio >= 0.25) & (ratio <= 4.0))
    assert 0.8 <= np.median(ratio) <= 1.25


def test_unconverged_resistance_solve_raises(monkeypatch):
    def stalled_cg(a, b, **kwargs):
        return np.zeros_like(b), 1

    monkeypatch.setattr(scipy.sparse.linalg, "cg", stalled_cg)
    split = split_of(grid2d(4))
    with pytest.raises(NoConvergenceError):
        average_and_sparsify(split.X, square(split.X),
                             SparsifyParams(eps=0.5, mode="sampled"))


# --------------------------------------------------------------- full step


def test_step_diagonal_case_no_sampling_error():
    alpha = 0.4
    x = SparseSymMatrix.from_dense(alpha * np.eye(5))
    out, report = sparsify_square_step(x, SparsifyParams(eps=0.5, seed=1,
                                                         mode="sampled"))
    expect = (alpha / 2.0 + alpha**2 / 2.0) * np.eye(5)
    assert np.max(np.abs(out.to_dense() - expect)) <= 1e-14
    assert report.nnz_out == out.nnz


def test_step_empty_matrix_stays_empty():
    x = SparseSymMatrix.from_dense(np.zeros((4, 4)))
    for mode in ("exact", "sampled"):
        out, report = sparsify_square_step(x, SparsifyParams(eps=0.5, mode=mode))
        assert out.nnz == report.nnz_out == 0


def test_step_exact_mode_hand_square():
    # X/2 + X^2/2 with X^2 = diag(0.25, 0.25)
    x = SparseSymMatrix.from_dense(np.array([[0.0, 0.5], [0.5, 0.0]]))
    out, _ = sparsify_square_step(x, SparsifyParams(eps=0.5, mode="exact"))
    assert np.array_equal(out.to_dense(), np.array([[0.125, 0.25], [0.25, 0.125]]))


def test_step_exact_mode_equals_average():
    split = split_of(grid2d(4))
    out, report = sparsify_square_step(split.X, SparsifyParams(eps=0.5,
                                                               mode="exact"))
    expect = blend(split.X, square(split.X))
    assert np.allclose(out.to_dense(), expect.to_dense(), atol=0)
    assert report.eps_measured == 0.0


def test_step_reports_its_merge_attempts():
    x = split_of(grid2d(8)).X
    _, exact = sparsify_square_step(x, SparsifyParams(eps=0.5, mode="exact"))
    assert (exact.merge_attempts, exact.merge_fallback) == (0, False)
    _, sampled = sparsify_square_step(x, SparsifyParams(eps=0.5, seed=0, mode="sampled"))
    assert 1 <= sampled.merge_attempts <= MERGE_ATTEMPTS
    assert not sampled.merge_fallback


class KeepEveryEdge:
    """A stream whose uniform draws are all 0, so every edge with pi > 0 is kept."""

    def __init__(self, gen):
        self.gen = gen

    def random(self, size):
        return np.zeros(size)

    def __getattr__(self, name):
        return getattr(self.gen, name)


def test_merge_fallback_is_reported(monkeypatch):
    # one expected draw, every edge kept at weight w / pi: each attempt's
    # rows overshoot their budget, so the merge keeps the exact average
    real_stream = sparsify.stream
    monkeypatch.setattr(sparsify, "stream", lambda *key: KeepEveryEdge(real_stream(*key)))
    monkeypatch.setattr(sparsify, "merge_sample_count", lambda params, n: 1)
    x = split_of(grid2d(8)).X
    xp = square(x)
    out, attempts, fallback = average_and_sparsify(x, xp, SparsifyParams(eps=0.5, mode="sampled"))
    assert (attempts, fallback) == (MERGE_ATTEMPTS, True)
    assert out.same_entries(blend(x, xp))
    _, report = sparsify_square_step(x, SparsifyParams(eps=0.5, seed=3, mode="sampled"))
    assert (report.merge_attempts, report.merge_fallback) == (MERGE_ATTEMPTS, True)


def test_step_random_sddm_within_requested_eps():
    split = split_of(random_sddm(48, seed=9))
    eps = 0.3
    out, report = sparsify_square_step(split.X, SparsifyParams(eps=eps, seed=2,
                                                               mode="sampled"))
    target = blend(split.X, square(split.X))
    assert out.min_value() >= 0.0
    assert measured_eps(out, target) <= eps
    assert report.eps_requested == eps


def test_step_measure_flag_populates_report():
    split = split_of(grid2d(4))
    out, report = sparsify_square_step(
        split.X, SparsifyParams(eps=0.5, seed=0, mode="sampled", measure=True))
    assert report.eps_measured is not None
    assert report.eps_measured == pytest.approx(
        measure_step(split.X, out), abs=1e-12)


def test_step_deterministic_per_seed():
    split = split_of(grid2d(5))
    p = SparsifyParams(eps=0.5, seed=11, mode="sampled")
    a, _ = sparsify_square_step(split.X, p)
    b, _ = sparsify_square_step(split.X, p)
    assert a.same_entries(b)


def test_step_nonnegative_across_seeds():
    split = split_of(random_sddm(30, seed=1))
    for seed in range(6):
        out, _ = sparsify_square_step(
            split.X, SparsifyParams(eps=0.5, seed=seed, mode="sampled"))
        assert out.min_value() >= 0.0

