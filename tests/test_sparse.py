import itertools
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from factorchain import (
    DimensionMismatchError,
    GrembanLift,
    InvalidParamsError,
    NonFiniteError,
    NonSymmetricError,
    NotSddError,
    NotSddmError,
    SparseSymMatrix,
    SparsifyParams,
    build_chain,
    gremban_embed,
    gremban_lift,
    gremban_project,
    grid2d,
    kappa_estimate,
    normalize,
    path_graph,
    random_regular,
    random_sddm,
    sdd_mixed,
    sdd_slack,
    sparsify_square_step,
    validate_sddm,
)
from factorchain.sparse import (
    LANCZOS_MAX_STEPS,
    SpectrumBounds,
    blend,
    dense_matvec,
    identity,
    identity_minus_scaled,
    nonneg_spectral_radius,
    power_iteration,
    spectrum_bounds,
    square,
)

import factorchain.chain as chain_module
import factorchain.sparse as sparse_module
from conftest import random_sddm_dense


def sym_dense(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    return (a + a.T) / 2.0


# ---------------------------------------------------------------- storage


def test_from_entries_collapses_matching_duplicates():
    # (0,1), its mirror (1,0), and a repeat all carry the same value: one entry
    m = SparseSymMatrix.from_entries(
        3, [0, 1, 0, 2], [1, 0, 1, 2], [1.0, 1.0, 1.0, 5.0]
    )
    d = m.to_dense()
    assert d[0, 1] == d[1, 0] == 1.0
    assert d[2, 2] == 5.0
    assert m.nnz == 2


def test_from_entries_rejects_conflicting_duplicates():
    with pytest.raises(NonSymmetricError):
        SparseSymMatrix.from_entries(2, [0, 1], [1, 0], [1.0, 2.0])


def test_from_entries_drops_explicit_zeros():
    m = SparseSymMatrix.from_entries(2, [0, 0], [0, 1], [1.0, 0.0])
    assert m.nnz == 1


def test_from_dense_round_trip(two_by_two):
    d = two_by_two.to_dense()
    assert np.array_equal(SparseSymMatrix.from_dense(d).to_dense(), d)


def test_from_dense_rejects_asymmetry():
    with pytest.raises(NonSymmetricError):
        SparseSymMatrix.from_dense(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_from_dense_rejects_nan():
    with pytest.raises(NonFiniteError):
        SparseSymMatrix.from_dense(np.array([[np.nan, 0.0], [0.0, 1.0]]))


@settings(deadline=None, max_examples=50)
@given(st.integers(1, 8), st.integers(0, 10_000))
def test_matvec_matches_dense(n, seed):
    a = sym_dense(n, seed)
    a[np.abs(a) < 0.3] = 0.0
    a = (a + a.T) / 2.0
    m = SparseSymMatrix.from_dense(a)
    x = np.random.default_rng(seed + 1).standard_normal(n)
    assert np.allclose(m.matvec(x), a @ x, atol=1e-12)


def test_full_nnz_counts_mirrored_entries(path8):
    # path on 8 nodes: 8 diagonal entries + 7 edges stored once, 14 mirrored
    assert path8.nnz == 15
    assert path8.full_nnz == 22


def test_row_sums_and_diagonal(grid9):
    d = grid9.to_dense()
    assert np.allclose(grid9.row_sums(), d.sum(axis=1))
    assert np.allclose(grid9.diagonal(), np.diag(d))
    assert np.allclose(grid9.offdiag_abs_row_sums(),
                       np.abs(d - np.diag(np.diag(d))).sum(axis=1))


def test_same_entries_is_structural():
    a = SparseSymMatrix.from_entries(2, [0, 1], [0, 1], [1.0, 2.0])
    b = SparseSymMatrix.from_entries(2, [1, 0], [1, 0], [2.0, 1.0])
    c = SparseSymMatrix.from_entries(2, [0, 1], [0, 1], [1.0, 2.5])
    assert a.same_entries(b)
    assert not a.same_entries(c)


# ------------------------------------------------------------- arithmetic


@settings(deadline=None, max_examples=30)
@given(st.integers(2, 7), st.integers(0, 10_000))
def test_square_matches_dense_square(n, seed):
    a = np.abs(sym_dense(n, seed))
    m = SparseSymMatrix.from_dense(a)
    assert np.allclose(square(m).to_dense(), a @ a, atol=1e-12)


def test_blend_weights():
    a = identity(3)
    b = SparseSymMatrix.from_dense(np.full((3, 3), 2.0))
    out = blend(a, b, 0.25, 0.5).to_dense()
    assert np.allclose(out, 0.25 * np.eye(3) + np.full((3, 3), 1.0))


def test_identity_minus_scaled(two_by_two):
    out = identity_minus_scaled(0.25, two_by_two).to_dense()
    assert np.allclose(out, np.eye(2) - 0.25 * two_by_two.to_dense())


# ------------------------------------------------------------- validation


def test_validate_sddm_accepts_grid(grid9):
    cert = validate_sddm(grid9)
    assert cert.is_sddm
    # every row of a grid with unit slack has dominance slack exactly 1
    assert np.allclose(cert.row_slack, 1.0)
    assert cert.min_slack == pytest.approx(1.0)
    assert cert.max_diag == pytest.approx(5.0)


def test_validate_sddm_flags_positive_offdiagonal():
    m = SparseSymMatrix.from_dense(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert not validate_sddm(m).is_sddm


def test_validate_sddm_flags_weak_dominance():
    m = SparseSymMatrix.from_dense(np.array([[1.0, -1.0], [-1.0, 1.0]]))
    assert not validate_sddm(m).is_sddm


@settings(deadline=None, max_examples=30)
@given(st.integers(2, 10), st.integers(0, 10_000))
def test_validate_sddm_random_instances(n, seed):
    a = random_sddm_dense(n, np.random.default_rng(seed))
    assert validate_sddm(SparseSymMatrix.from_dense(a)).is_sddm


def test_sdd_slack_allows_positive_offdiagonals():
    m = SparseSymMatrix.from_dense(np.array([[3.0, 1.0], [1.0, 2.0]]))
    assert np.allclose(sdd_slack(m), [2.0, 1.0])


# ---------------------------------------------------------- normalization


def test_normalize_hand_example(two_by_two):
    # c = (1 - 1/kappa)/max_diag with the estimated kappa, and X = I - c M
    split = normalize(two_by_two, validate_sddm(two_by_two))
    assert split.kappa_bound == kappa_estimate(two_by_two)
    assert split.c == pytest.approx((1.0 - 1.0 / split.kappa_bound) / 2.0)
    assert np.allclose(split.X.to_dense(),
                       np.eye(2) - split.c * two_by_two.to_dense(), atol=1e-15)


def test_normalize_rejects_non_sddm():
    m = SparseSymMatrix.from_dense(np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(NotSddmError):
        normalize(m, validate_sddm(m))


@settings(deadline=None, max_examples=25)
@given(st.integers(2, 12), st.integers(0, 10_000))
def test_normalize_splitting_invariants(n, seed):
    a = random_sddm_dense(n, np.random.default_rng(seed))
    m = SparseSymMatrix.from_dense(a)
    split = normalize(m, validate_sddm(m))
    xd = split.X.to_dense()
    # X nonnegative entrywise and (1/c)(I - X) reproduces M
    assert xd.min() >= -1e-15
    assert np.allclose((np.eye(n) - xd) / split.c, a, atol=1e-10)
    # spectral radius bounded away from 1 by the condition estimate; the low
    # end of the spectrum may be negative but never reaches -1
    lam = np.linalg.eigvalsh(xd)
    kap = split.kappa_bound
    assert np.max(np.abs(lam)) <= 1.0 - 1.0 / (2.0 * kap) + 1e-12
    assert lam.min() >= 2.0 / kap - 1.0 - 1e-12


def test_kappa_estimate_scaled_identity():
    m = SparseSymMatrix.from_dense(2.0 * np.eye(5))
    k = kappa_estimate(m)
    assert 1.0 <= k <= 4.0


def test_kappa_estimate_two_by_two(two_by_two):
    # exact condition number is 3; the estimate must not undershoot it
    assert kappa_estimate(two_by_two) >= 3.0 - 1e-9


def test_kappa_estimate_within_factor_four_of_truth():
    m = grid2d(10, slack=0.01)
    d = m.to_dense()
    lam = np.linalg.eigvalsh(d)
    exact = lam[-1] / lam[0]
    est = kappa_estimate(m)
    assert exact / 4.0 <= est <= exact * 4.0


# ------------------------------------------------------ spectral estimate


def test_power_iteration_brackets_diagonal_spectrum():
    assert power_iteration(lambda v: v, 0) == SpectrumBounds(0.0, 0.0, 0, 0.0, True)
    # three distinct values: the Krylov space is invariant after three steps
    d = np.repeat([3.0, 1.0, 0.5], 4)
    b = power_iteration(lambda v: d * v, d.size)
    assert b.converged and b.steps == 3 and b.residual <= 1e-12
    assert 0.5 - 1e-12 <= b.lo <= 0.5 and 3.0 <= b.hi <= 3.0 + 1e-12
    # a spread spectrum stops on the residual test, bracketing both ends
    e = np.linspace(1.0, 2.0, 300)
    b = power_iteration(lambda v: e * v, e.size)
    assert b.converged and b.steps < LANCZOS_MAX_STEPS
    assert 1.0 - 1e-3 <= b.lo <= 1.0 and 2.0 <= b.hi <= 2.0 + 1e-3
    # eigenvalues crowding zero never meet the relative test: the run stops
    # at the cap, and the padded bounds still hold
    g = np.geomspace(1e-6, 1.0, 400)
    b = power_iteration(lambda v: g * v, g.size)
    assert not b.converged and b.steps == LANCZOS_MAX_STEPS
    assert b.lo <= 1e-6 and b.hi >= 1.0


def test_nonneg_spectral_radius_matches_dense(grid9):
    # uniform slack makes 1 the Perron vector of X = I - cM, and the
    # splitting's v is constant: the bound is the radius, less rounding
    split = normalize(grid9, validate_sddm(grid9))
    assert np.ptp(split.bounds.v) == 0.0
    rho = nonneg_spectral_radius(split.X, split.bounds.v)
    exact = np.max(np.abs(np.linalg.eigvalsh(split.X.to_dense())))
    assert rho == pytest.approx(exact, rel=1e-12)


def exact_chain_levels(m):
    """X_0 .. X_d of the exact p = -1 chain, with the recorded 1 - rho(X_i)."""
    params = SparsifyParams(eps=1.0, mode="exact")
    chain = build_chain(normalize(m, validate_sddm(m)), -1.0, 1.0, params)
    terminal = sparsify_square_step(chain.levels[-1], params)[0]
    return chain.levels + (terminal,), chain.lambdas


@pytest.mark.parametrize("m", [grid2d(8), grid2d(16), grid2d(32), grid2d(16, slack=1e-2)],
                         ids=["grid8", "grid16", "grid32", "grid16_slack1e-2"])
def test_radius_bound_holds_on_every_chain_level(m):
    levels, lambdas = exact_chain_levels(m)
    assert len(levels) == len(lambdas)
    for x, lam in zip(levels, lambdas):
        # the recorded radius, 1 - lambda, bounds the top eigenvalue
        assert 1.0 - lam >= np.linalg.eigvalsh(x.to_dense())[-1] - 1e-12


@pytest.mark.parametrize("m", [grid2d(8), grid2d(16, slack=1e-2), random_sddm(120),
                               path_graph(50), grid2d(32)],
                         ids=["grid8", "grid16_slack1e-2", "sddm120", "path50", "grid32"])
def test_kappa_estimate_bounds_dense_condition_number(m):
    lam = np.linalg.eigvalsh(m.to_dense())
    assert kappa_estimate(m) >= lam[-1] / lam[0]
    # kappa is 2 hi / lo from the proven bounds, which bracket the dense
    # spectrum up to eigvalsh's own rounding; hi is within 5 % of the top
    b = spectrum_bounds(m, validate_sddm(m))
    tol = 1e-12 * lam[-1]
    assert b.lo <= lam[0] + tol and lam[-1] <= b.hi <= lam[-1] * 1.05
    assert kappa_estimate(m) == 2.0 * b.hi / b.lo


def with_slack(m, slack):
    """m's off-diagonal entries, with each row's dominance slack replaced by
    slack (an array): an SDDM matrix whose Perron vector is not constant."""
    r, c, v = m.upper_triangle()
    off, idx = r != c, np.arange(m.n)
    return SparseSymMatrix(m.n, np.concatenate([r[off], idx]), np.concatenate([c[off], idx]),
                           np.concatenate([v[off], m.offdiag_abs_row_sums() + slack]))


def log_uniform(rng, lo, hi, size):
    return np.exp(rng.uniform(np.log(lo), np.log(hi), size))


# each family maps a seed to an SDDM matrix of n <= 512
BOUND_FAMILIES = {
    "grid2d": lambda seed: grid2d(4 + seed % 13, slack=10.0 ** -(seed % 5)),
    "random_regular": lambda seed: random_regular(32 * (1 + seed % 16), 3, seed=seed,
                                                  slack=10.0 ** -(seed % 5)),
    "random_sddm": lambda seed: random_sddm(10 + seed % 300, seed=seed),
    "lifted_sdd_mixed": lambda seed: gremban_lift(sdd_mixed(8 + seed % 120, seed=seed)).S,
    "log_uniform_slack": lambda seed: with_slack(
        grid2d(4 + seed % 13) if seed % 2 else random_regular(32 * (1 + seed % 16), 3, seed=seed),
        log_uniform(np.random.default_rng(seed), 1e-6, 0.1, 512)[:(4 + seed % 13) ** 2
                                                                  if seed % 2 else
                                                                  32 * (1 + seed % 16)]),
}


def dense_top(x):
    """The largest |eigenvalue| of a dense symmetric array, and the rounding
    of eigvalsh, n u ||x||, that the comparisons below allow it."""
    lam = np.linalg.eigvalsh(x)
    top = float(max(abs(lam[0]), abs(lam[-1])))
    return lam, top, x.shape[0] * 2.0 ** -52 * top


@settings(deadline=None, max_examples=20)
@given(st.sampled_from(sorted(BOUND_FAMILIES)), st.integers(0, 10_000))
def test_proven_bounds_hold_on_every_family(family, seed):
    m = BOUND_FAMILIES[family](seed)
    assert m.n <= 512
    cert = validate_sddm(m)
    b = spectrum_bounds(m, cert)
    lam, _, tol = dense_top(m.to_dense())
    assert 0.0 < cert.min_slack <= b.lo <= lam[0] + tol
    assert b.hi >= lam[-1] - tol
    assert np.all(b.v > 0.0)
    # every level's proven radius, exact or sampled, is at least its dense
    # radius: X_0, each square and the terminal level, filled or not
    split = normalize(m, cert)
    exact = SparsifyParams(eps=1.0)
    sampled = SparsifyParams(eps=1.0, mode="sampled", seed=seed)
    for x, rho in first_levels(split, exact, 4) + first_levels(split, sampled, 2):
        _, top, tol = dense_top(x.to_dense())
        assert rho >= top - tol


@pytest.mark.parametrize("m", [grid2d(12), random_sddm(200, seed=1),
                               gremban_lift(sdd_mixed(64, seed=2)).S],
                         ids=["grid12", "sddm200", "lifted_sdd_mixed64"])
def test_proven_radius_holds_on_a_step_the_merge_thins(m):
    # at a chain's step target the merge keeps nearly every edge of a small
    # input; at eps 0.5 it drops some, and the radius still bounds the result
    split = normalize(m, validate_sddm(m))
    x = split.X
    xt, report = sparsify_square_step(x, SparsifyParams(eps=0.5, mode="sampled"))
    assert report.nnz_out < blend(x, square(x)).nnz
    _, top, tol = dense_top(xt.to_dense())
    assert nonneg_spectral_radius(xt, split.bounds.v) >= top - tol


def first_levels(split, params, count):
    """(X_i, rho_i) for up to count levels of the chain's squaring loop, X_0
    first."""
    return [(x, rho) for x, rho, _ in
            itertools.islice(chain_module._squarings(split, 1.0, params), count)]


def test_a_cg_vector_that_is_not_positive_falls_back_to_min_slack(monkeypatch):
    # a path with edge weights log-uniform in [1e-2, 1e2] and slack in [1e-6,
    # 0.1]: after BOUND_CG_STEPS iterations one entry of v is negative
    rng = np.random.default_rng(5)
    n = 512
    slack = log_uniform(rng, 1e-6, 0.1, n)
    w = log_uniform(rng, 1e-2, 1e2, n - 1)
    rows, cols = np.arange(n - 1), np.arange(1, n)
    path = SparseSymMatrix(n, rows, cols, -w)
    m = with_slack(path, slack)
    seen = []

    def recorded(*args):
        seen.append(sparse_module._cg_ones.__wrapped__(*args))
        return seen[-1]

    recorded.__wrapped__ = sparse_module._cg_ones
    monkeypatch.setattr(sparse_module, "_cg_ones", recorded)
    cert = validate_sddm(m)
    b = spectrum_bounds(m, cert)
    assert np.min(seen[-1]) <= 0.0
    assert b.lo == cert.min_slack > 0.0 and np.array_equal(b.v, np.ones(n))
    lam, _, tol = dense_top(m.to_dense())
    assert b.lo <= lam[0] + tol and b.hi >= lam[-1] - tol
    # a positive v from too few iterations gives a negative ratio on a grid
    # with log-uniform slack; min_slack stands there too
    monkeypatch.setattr(sparse_module, "BOUND_CG_STEPS", 5)
    g = with_slack(grid2d(16), log_uniform(np.random.default_rng(2), 1e-6, 0.1, 256))
    cert = validate_sddm(g)
    b = spectrum_bounds(g, cert)
    a = abs(g.to_scipy())
    ratio = np.min((g.matvec(seen[-1]) - sparse_module.rounding_allowance(g) * (a @ seen[-1]))
                   / seen[-1])
    assert np.all(seen[-1] > 0.0) and ratio < 0.0
    assert b.lo == cert.min_slack > 0.0


# ------------------------------------------------------------ gremban lift


def sdd_pos_offdiag(n, seed):
    rng = np.random.default_rng(seed)
    a = np.zeros((n, n))
    for i in range(n - 1):
        a[i, i + 1] = a[i + 1, i] = rng.uniform(-1.0, 1.0)
    d = np.abs(a).sum(axis=1) + rng.uniform(0.2, 1.0, n)
    return a + np.diag(d)


def test_gremban_lift_block_structure():
    small = SparseSymMatrix.from_dense(np.array([[3.0, 1.0, -0.5],
                                                 [1.0, 4.0, 0.0],
                                                 [-0.5, 0.0, 2.0]]))
    for lam in (small, sdd_mixed(64, seed=0)):
        lift = gremban_lift(lam)
        n = lam.n
        assert isinstance(lift, GrembanLift)
        assert lift.n_original == n
        s = lift.S.to_dense()
        a = lam.to_dense()
        d = np.diag(np.diag(a))
        an = np.minimum(a - d, 0.0)
        ap = np.maximum(a - d, 0.0)
        # every entry is copied or negated, so the blocks match bit for bit
        assert np.array_equal(s[:n, :n], d + an)
        assert np.array_equal(s[n:, n:], d + an)
        assert np.array_equal(s[:n, n:], -ap)
        assert np.array_equal(s[n:, :n], -ap)
        assert validate_sddm(lift.S).is_sddm


def test_gremban_lift_rejects_non_sdd():
    m = SparseSymMatrix.from_dense(np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(NotSddError):
        gremban_lift(m)


def test_gremban_embed_project_are_adjoint_sections():
    v = np.arange(4.0)
    assert np.allclose(gremban_project(gremban_embed(v)), v, atol=1e-15)


@settings(deadline=None, max_examples=25)
@given(st.integers(2, 8), st.integers(0, 10_000))
def test_gremban_solve_projects_to_original_solve(n, seed):
    lam = sdd_pos_offdiag(n, seed)
    lift = gremban_lift(SparseSymMatrix.from_dense(lam))
    s = lift.S.to_dense()
    b = np.random.default_rng(seed + 7).standard_normal(n)
    x_lift = gremban_project(np.linalg.solve(s, gremban_embed(b)))
    assert np.allclose(x_lift, np.linalg.solve(lam, b), atol=1e-8)


def test_gremban_project_batched():
    v = np.random.default_rng(0).standard_normal((6, 3))
    cols = np.stack([gremban_project(v[:, j]) for j in range(3)], axis=1)
    assert np.allclose(gremban_project(v), cols)


# --------------------------------------------------- in-place CSR product


def _no_diagonal(n, seed):
    """Sparse symmetric matrix with no stored diagonal entry."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.1)
    a = np.triu(a, 1)
    m = SparseSymMatrix.from_dense(a + a.T)
    assert not np.any(m.diagonal()) and not m.filled
    return m


@pytest.mark.parametrize("m", [grid2d(9), _no_diagonal(40, 1), random_sddm(57, seed=2)],
                         ids=["grid", "no_diagonal", "random"])
def test_matvec_add_is_out_plus_the_csr_product(m):
    rng = np.random.default_rng(m.n)
    a = m.to_scipy()
    scale = abs(a)
    for shape in [(m.n,), (m.n, 1), (m.n, 2), (m.n, 64)]:
        x, out0 = rng.standard_normal(shape), rng.standard_normal(shape)
        out = out0.copy()
        m.matvec_add(x, out)
        # either sum rounds at most n + 1 times: a few units of roundoff of
        # |out| + |A| |x| per entry
        bound = 4 * m.n * np.finfo(float).eps * (np.abs(out0) + scale @ np.abs(x))
        assert np.all(np.abs(out - (out0 + a @ x)) <= bound), shape
    # this pins scipy's kernels: a vector, a one-column block and each column
    # of a wider block add the same products in the same order
    x, out0 = rng.standard_normal((m.n, 64)), rng.standard_normal((m.n, 64))
    wide = out0.copy()
    m.matvec_add(x, wide)
    for j in range(64):
        vec, col = out0[:, j].copy(), out0[:, j:j + 1].copy()
        m.matvec_add(np.ascontiguousarray(x[:, j]), vec)
        m.matvec_add(np.ascontiguousarray(x[:, j:j + 1]), col)
        assert np.array_equal(_bits(vec), _bits(col[:, 0])), j
        assert np.array_equal(_bits(vec), _bits(wide[:, j])), j


@pytest.mark.parametrize("m", [grid2d(9), _no_diagonal(40, 1), random_sddm(57, seed=2),
                               SparseSymMatrix(0, [], [], [])],
                         ids=["grid", "no_diagonal", "random", "empty"])
def test_matvec_is_scipys_csr_product_bit_for_bit(m):
    # matvec calls scipy's kernels itself, as csr @ x calls them
    rng = np.random.default_rng(m.n + 1)
    block = rng.standard_normal((m.n, 6))
    inputs = {
        "vector": block[:, 0], "one_column": block[:, :1], "block": block,
        "fortran": np.asfortranarray(block), "strided_block": block[:, ::2],
        "strided_vector": block[:, 3], "integer": np.arange(m.n),
        "integer_block": np.arange(3 * m.n).reshape(m.n, 3), "zero_width": block[:, :0],
    }
    a = m.to_scipy()
    for name, x in inputs.items():
        got, want = m.matvec(x), a @ x
        assert got.dtype == want.dtype == np.float64, name
        assert got.shape == want.shape and np.array_equal(_bits(got), _bits(want)), name


def test_kernel_loader_names_scipy_and_the_directory_it_searched(tmp_path):
    from importlib.metadata import version

    loaded = sparse_module._sparsetools
    with pytest.raises(ImportError) as exc:
        sparse_module._load_sparsetools(tmp_path)
    assert f"scipy {version('scipy')}" in str(exc.value)
    assert str(tmp_path) in str(exc.value)
    assert sys.modules["scipy.sparse._sparsetools"] is loaded


def test_matvec_add_refuses_what_the_kernel_cannot_write():
    m = grid2d(4)
    x = np.ones((m.n, 3))
    with pytest.raises(DimensionMismatchError):
        m.matvec_add(x, np.zeros((m.n, 2)))
    with pytest.raises(DimensionMismatchError):
        m.matvec_add(np.ones((5, 3)), np.zeros((5, 3)))
    with pytest.raises(InvalidParamsError):
        m.matvec_add(x, np.zeros((m.n, 3), order="F"))
    with pytest.raises(InvalidParamsError):
        m.matvec_add(x.astype(np.float32), np.zeros((m.n, 3)))
    frozen = np.zeros((m.n, 3))
    frozen.setflags(write=False)
    with pytest.raises(InvalidParamsError):
        m.matvec_add(x, frozen)


@pytest.mark.parametrize("m", [grid2d(9), _no_diagonal(40, 1)], ids=["diagonal", "no_diagonal"])
def test_scaled_shift_is_scale_x_plus_shift_i_entry_for_entry(m):
    g2, h2 = 2.0 * (0.37 / 0.81), 2.0 * (-1.0 / 0.81)
    a2 = m.scaled_shift(g2, h2)
    expect = g2 * m.to_dense() + h2 * np.eye(m.n)
    assert np.array_equal(a2.to_dense(), expect)
    # cached for the last pair asked for, and replaced by a new pair
    assert m.scaled_shift(g2, h2) is a2
    b2 = m.scaled_shift(g2, 0.0)
    assert b2 is not a2 and np.array_equal(b2.to_dense(), g2 * m.to_dense())
    assert m.scaled_shift(g2, 0.0) is b2


# ----------------------------------------------------------- dense kernel


def _filled(n, seed):
    """Nonnegative symmetric matrix with about 80% of its n^2 entries."""
    rng = np.random.default_rng(seed)
    a = rng.random((n, n)) * (rng.random((n, n)) < 0.8)
    m = SparseSymMatrix.from_dense(np.triu(a) + np.triu(a, 1).T)
    assert 2 * m.full_nnz >= n * n
    return m


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.mark.parametrize("n", [63, 64, 257])
def test_dense_block_columns_do_not_depend_on_block_width(n):
    # a chain's terminal factor and its transpose view, as apply and
    # apply_transpose multiply them
    a = np.random.default_rng(n).standard_normal((n, n))
    x = np.random.default_rng(n + 1).standard_normal((n, 128))
    for f in (a, a.T):
        wide = dense_matvec(f, x)
        for k in [*range(1, 18), 64, 127]:
            assert np.array_equal(_bits(dense_matvec(f, x[:, :k])), _bits(wide[:, :k])), k
        # a vector takes the padded path of a one-column block
        v = dense_matvec(f, x[:, 0])
        assert v.shape == (n,) and np.array_equal(_bits(v), _bits(wide[:, 0]))


@pytest.mark.parametrize("n", [63, 64, 257])
def test_dense_product_is_within_rounding_of_the_csr_product(n):
    m = _filled(n, seed=n)
    x = np.random.default_rng(n + 2).standard_normal((n, 9))
    dense = m.to_dense()
    # a forward error bound of either sum: 1e-13 of sum_j |a_ij x_j|
    scale = np.abs(dense) @ np.abs(x)
    assert np.all(np.abs(dense_matvec(dense, x) - m.matvec(x)) <= 1e-13 * scale)


def test_fill_rule_is_half_of_n_squared():
    # 64 diagonal entries and 2 * 991 mirrored ones: 2046 of 4096 stored
    n = 64
    rng = np.random.default_rng(5)
    r, c = np.triu_indices(n, 1)
    keep = rng.permutation(r.size)
    x = rng.standard_normal((n, 3))
    for offdiag, filled in ((991, False), (992, True)):
        k = np.sort(keep[:offdiag])
        m = SparseSymMatrix(n, np.concatenate([np.arange(n), r[k]]),
                            np.concatenate([np.arange(n), c[k]]),
                            rng.random(n + offdiag) + 0.5)
        assert (2 * m.full_nnz >= n * n) is filled is m.filled
        # a filled matrix multiplies as CSR all the same
        assert np.array_equal(_bits(m.matvec(x)), _bits(m.to_scipy() @ x))


# ------------------------------------------------ canonical full storage


def _weighted_x():
    m = random_sddm(30, seed=4)
    return normalize(m, validate_sddm(m)).X


@pytest.mark.parametrize("op", [
    square,
    lambda x: blend(x, square(x), 0.5, 0.5),
    lambda x: identity_minus_scaled(0.3, x),
], ids=["square", "blend", "identity_minus_scaled"])
def test_arithmetic_results_are_canonical_and_bitwise_symmetric(op):
    out = op(_weighted_x())
    csr = out.to_scipy()
    t = csr.T.tocsr()
    t.sort_indices()
    # the transpose matches bit for bit, not just in value
    assert np.array_equal(csr.indptr, t.indptr)
    assert np.array_equal(csr.indices, t.indices)
    assert np.array_equal(csr.data.view(np.uint64), t.data.view(np.uint64))
    # strictly increasing columns within each row, no stored zeros
    row_of = np.repeat(np.arange(out.n), np.diff(csr.indptr))
    same_row = row_of[1:] == row_of[:-1]
    assert np.all(np.diff(csr.indices)[same_row] > 0)
    assert np.all(csr.data != 0.0)
    # the upper triangle is the row-major list of entries with row <= col
    r, c = np.nonzero(np.triu(out.to_dense()))
    ur, uc, uv = out.upper_triangle()
    assert np.array_equal(ur, r) and np.array_equal(uc, c)
    assert np.array_equal(uv, out.to_dense()[r, c])
    assert out.nnz == r.size
