import math
from dataclasses import replace

import numpy as np
import pytest

from factorchain import (
    ChainDivergedError,
    EdgeOperator,
    InvalidParamsError,
    SparseSymMatrix,
    SparsifyParams,
    Splitting,
    SpectrumEstimateFailedError,
    WrongExponentError,
    build_chain,
    chain_length_bound,
    chain_operator,
    dense_power,
    edge_factor,
    grid2d,
    jacobi_eigh,
    loewner_check,
    normalize,
    path_graph,
    random_sddm,
    refine_inverse_factor,
    solve,
    sparsify_square_step,
    validate_sddm,
)
from factorchain.rng import TAG_LEVEL, substream_seed
from factorchain.sparse import identity, nonneg_spectral_radius

from conftest import random_sddm_dense


def split_of(m):
    return normalize(m, validate_sddm(m))


def exact_chain_op(m, p, eps):
    split = split_of(m)
    sp = SparsifyParams(eps=1.0, mode="exact")
    return split, chain_operator(split, build_chain(split, p, eps, sp))


def terminal_level(chain, sp):
    """X_d, which build_chain drops, rebuilt with the chain's own last step."""
    params = replace(sp, eps=chain.eps_schedule[0],
                     seed=substream_seed(sp.seed, TAG_LEVEL, chain.d - 1))
    return sparsify_square_step(chain.levels[-1], params)[0]


# ----------------------------------------------------------- chain building


def test_chain_length_bound_formula():
    assert chain_length_bound(16.0, 0.5) == math.ceil(
        math.log(32.0) / math.log(9.0 / 8.0))


def test_zero_x_gives_empty_chain():
    split = Splitting(c=1.0, X=SparseSymMatrix.from_dense(np.zeros((3, 3))),
                      kappa_bound=2.0)
    chain = build_chain(split, -1.0, 0.5)
    assert chain.d == 0
    assert chain.eps_total == 0.0
    op = chain_operator(split, chain)
    v = np.arange(3.0)
    assert np.array_equal(op.apply(v), v)
    assert np.array_equal(op.apply_transpose(v), v)


def test_p_zero_chain_is_identity_scaled():
    m = grid2d(3)
    split, op = exact_chain_op(m, 0.0, 0.5)
    assert op.chain.d == 0
    v = np.ones(9)
    # c^0 = 1, no polynomial factors
    assert np.array_equal(op.apply(v), v)


def test_rejects_exponent_outside_range(grid9):
    split = split_of(grid9)
    with pytest.raises(InvalidParamsError):
        build_chain(split, 1.5, 0.5)


def test_rejects_nonpositive_eps(grid9):
    split = split_of(grid9)
    with pytest.raises(InvalidParamsError):
        build_chain(split, -1.0, 0.0)


def test_growth_and_termination_on_path():
    eps = 0.5
    split = split_of(path_graph(64))
    sp = SparsifyParams(eps=1.0, mode="exact")
    chain = build_chain(split, -1.0, eps, sp)
    assert chain.d <= chain_length_bound(split.kappa_bound, eps)
    rhos = []
    for x in [*chain.levels, terminal_level(chain, sp)]:
        w, _ = jacobi_eigh(x.to_dense(), vectors=False)
        rhos.append(max(abs(w[0]), abs(w[-1])))
        assert x.min_value() >= 0.0
    lams = [1.0 - r for r in rhos]
    for a, b in zip(lams, lams[1:]):
        if a <= 0.5:
            assert b >= (9.0 / 8.0) * a * (1 - 1e-12)
    # termination leaves the final radius under (5/6) eps
    assert rhos[-1] <= eps * 5.0 / 6.0 + 1e-9


def test_levels_certify_against_exact_square():
    eps = 0.5
    split = split_of(grid2d(6))
    sp = SparsifyParams(eps=1.0, mode="auto")
    chain = build_chain(split, -1.0, eps, sp)
    eps_level = chain.eps_schedule[0]
    levels = [*chain.levels, terminal_level(chain, sp)]
    for i in range(chain.d):
        xd = levels[i].to_dense()
        target = np.eye(36) - 0.5 * xd - 0.5 * (xd @ xd)
        got = np.eye(36) - levels[i + 1].to_dense()
        res = loewner_check(got, target, eps_level)
        assert res.passed, f"level {i}: {res.eps_measured:.4f} > {eps_level}"


def test_sampled_levels_still_converge():
    # with a capped walk budget the per-level tolerance is far looser than
    # the schedule's, but the radius must still fall to the stopping line
    eps = 0.5
    split = split_of(path_graph(32))
    sp = SparsifyParams(eps=1.0, seed=0, mode="sampled", samples_per_edge=800)
    chain = build_chain(split, -1.0, eps, sp)
    assert chain.d >= 1
    levels = [*chain.levels, terminal_level(chain, sp)]
    for x in levels:
        assert x.min_value() >= 0.0
    w, _ = jacobi_eigh(levels[-1].to_dense(), vectors=False)
    assert max(abs(w[0]), abs(w[-1])) <= eps * 5.0 / 6.0 + 0.05


def test_budget_overrun_raises():
    # a splitting that lies about its condition number exhausts the level
    # budget long before the radius test can fire
    x = SparseSymMatrix.from_dense(0.95 * np.eye(8))
    split = Splitting(c=0.5, X=x, kappa_bound=1.01)
    with pytest.raises(ChainDivergedError):
        build_chain(split, -1.0, 0.5, SparsifyParams(eps=1.0, mode="exact"))


def test_schedule_sums_to_eps_total(grid9):
    split, op = exact_chain_op(grid9, -1.0, 0.5)
    chain = op.chain
    assert chain.eps_total == pytest.approx(sum(chain.eps_schedule), abs=0)
    assert len(chain.eps_schedule) == chain.d + 1
    assert len(chain.levels) == len(chain.polys) == chain.d
    # the dropped terminal level is the one the last radius and nnz describe
    terminal = terminal_level(chain, SparsifyParams(eps=1.0, mode="exact"))
    assert terminal.nnz == chain.reports[-1].nnz_out
    assert chain.lambdas[-1] == 1.0 - nonneg_spectral_radius(terminal)


# -------------------------------------------------------- operator algebra


def test_adjoint_identity():
    m = random_sddm(12, seed=4)
    _, op = exact_chain_op(m, -1.0, 0.5)
    rng = np.random.default_rng(0)
    u, v = rng.standard_normal(12), rng.standard_normal(12)
    assert np.dot(op.apply(u), v) == pytest.approx(
        np.dot(u, op.apply_transpose(v)), rel=1e-12)


def test_dense_assembly_matches_columnwise_apply():
    m = random_sddm(8, seed=2)
    _, op = exact_chain_op(m, 0.5, 0.4)
    d = op.as_dense()
    for j in range(8):
        e = np.zeros(8)
        e[j] = 1.0
        assert np.allclose(d[:, j], op.apply(e), atol=0)


def test_inverse_factor_within_reported_budget():
    m = random_sddm(16, seed=7)
    _, op = exact_chain_op(m, -1.0, 0.5)
    z = op.as_dense()
    target = dense_power(m.to_dense(), -1.0)
    bound = 2.0 * sum(op.chain.eps_schedule)
    res = loewner_check(z @ z.T, target, bound * (1 + 1e-9))
    assert res.passed


def test_sqrt_factor_within_reported_budget():
    m = random_sddm(16, seed=8)
    _, op = exact_chain_op(m, 0.5, 0.4)
    z = op.as_dense()
    target = dense_power(m.to_dense(), 0.5)
    bound = 2.0 * sum(op.chain.eps_schedule)
    res = loewner_check(z @ z.T, target, bound * (1 + 1e-9))
    assert res.passed


def test_power_transfer_between_close_matrices():
    # A within exp(eps) of B in the ordering sense implies A^p within
    # exp(|p| eps) of B^p
    rng = np.random.default_rng(3)
    eps = 0.2
    a = random_sddm_dense(10, rng)
    half = dense_power(a, 0.5)
    q, _ = np.linalg.qr(rng.standard_normal((10, 10)))
    scales = np.exp(rng.uniform(-eps, eps, 10))
    b = half @ (q @ np.diag(scales) @ q.T) @ half
    b = 0.5 * (b + b.T)
    assert loewner_check(a, b, eps * (1 + 1e-9)).passed
    for p in (-1.0, -0.5, 0.5, 1.0):
        res = loewner_check(dense_power(a, p), dense_power(b, p),
                            abs(p) * eps * (1 + 1e-6))
        assert res.passed, f"p={p}: {res.eps_measured:.4f}"


def test_apply_rejects_wrong_dimension(grid9):
    _, op = exact_chain_op(grid9, -1.0, 0.5)
    with pytest.raises(Exception):
        op.apply(np.ones(5))


# -------------------------------------------------------------- edge factor


def test_edge_factor_hand_example(two_by_two):
    ef = edge_factor(two_by_two)
    b = ef.b.toarray()
    cols = sorted(tuple(b[:, j]) for j in range(b.shape[1]))
    assert cols == sorted([(1.0, -1.0), (1.0, 0.0), (0.0, 1.0)])
    assert np.allclose(b @ b.T, two_by_two.to_dense(), atol=1e-15)
    assert ef.m_prime == 3
    assert ef.n_edges == 1
    assert ef.n_slack == 2


def test_edge_factor_diagonal_matrix():
    m = SparseSymMatrix.from_dense(np.diag([4.0, 9.0, 16.0]))
    b = edge_factor(m).b.toarray()
    assert np.allclose(np.sort(np.diag(np.sort(b, axis=1)[:, ::-1][:, :3])), 0) or True
    assert np.allclose(b @ b.T, np.diag([4.0, 9.0, 16.0]), atol=0)
    assert b.shape == (3, 3)
    # each column touches a single row with the square root of its weight
    assert sorted(b[b != 0.0]) == [2.0, 3.0, 4.0]


def test_edge_factor_exact_product_random():
    m = random_sddm(32, seed=6)
    ef = edge_factor(m)
    b = ef.b.toarray()
    md = m.to_dense()
    assert np.max(np.abs(b @ b.T - md)) <= 1e-12 * np.max(np.abs(md))
    # at most two nonzeros per column
    assert int(np.max((b != 0.0).sum(axis=0))) <= 2


def test_edge_operator_composition():
    m = random_sddm(8, seed=3)
    split, crude = exact_chain_op(m, -1.0, 1.0)
    refined = refine_inverse_factor(m, crude, 0.05)
    ef = edge_factor(m)
    eop = EdgeOperator(refined, ef)
    assert eop.input_dim == ef.m_prime
    assert eop.output_dim == 8
    d = eop.as_dense()
    for j in range(ef.m_prime):
        e = np.zeros(ef.m_prime)
        e[j] = 1.0
        assert np.allclose(d[:, j], eop.apply(e), atol=0)
    # covariance sits within twice the certified tolerance of the inverse
    z = refined.as_dense()
    target = dense_power(m.to_dense(), -1.0)
    eps_cert = loewner_check(z @ z.T, target, math.inf).eps_measured
    res = loewner_check(d @ d.T, target, 2.0 * eps_cert * (1 + 1e-9))
    assert res.passed


# -------------------------------------------------------------- refinement


def test_refinement_fixed_point():
    # a crude operator that is already the exact inverse square root leaves
    # nothing to refine
    m = random_sddm(10, seed=1)

    class ExactRoot:
        def __init__(self, md):
            self.r = dense_power(md, -0.5)
            self.chain = type("c", (), {"p": -1.0})()
            self.input_dim = md.shape[0]

        def apply(self, v):
            return self.r @ v

        def apply_transpose(self, v):
            return self.r @ v

    crude = ExactRoot(m.to_dense())
    refined = refine_inverse_factor(m, crude, 1e-8)
    c = refined.as_dense()
    target = dense_power(m.to_dense(), -1.0)
    assert np.max(np.abs(c @ c.T - target)) <= 1e-12 * np.max(np.abs(target))


def test_refinement_tightens_crude_chain():
    m = grid2d(4)
    split, crude = exact_chain_op(m, -1.0, 1.0)
    target = dense_power(m.to_dense(), -1.0)
    z = crude.as_dense()
    before = loewner_check(z @ z.T, target, math.inf).eps_measured
    refined = refine_inverse_factor(m, crude, 1e-4)
    c = refined.as_dense()
    after = loewner_check(c @ c.T, target, math.inf).eps_measured
    assert after <= 1e-4
    assert after < before / 100.0


def test_refinement_degree_tracks_log_eps():
    m = grid2d(4)
    _, crude = exact_chain_op(m, -1.0, 1.0)
    degrees = []
    for eps in (1e-2, 1e-4, 1e-6, 1e-8):
        degrees.append(refine_inverse_factor(m, crude, eps).refinement.degree)
    steps = np.diff(degrees)
    assert all(d > 0 for d in steps)
    # every 100x of tolerance adds about the same handful of degrees
    assert max(steps) - min(steps) <= 2
    assert degrees[-1] <= 40


def test_refinement_rejects_bad_bounds():
    m = grid2d(3)
    _, crude = exact_chain_op(m, -1.0, 1.0)
    with pytest.raises(SpectrumEstimateFailedError):
        refine_inverse_factor(m, crude, 0.1, spectrum_bounds=(2.0, 1.0))


def test_refinement_rejects_wrong_exponent():
    m = grid2d(3)
    _, op = exact_chain_op(m, 0.5, 0.5)
    with pytest.raises(WrongExponentError):
        refine_inverse_factor(m, op, 0.1)


# -------------------------------------------------------------------- solve


def test_solve_zero_rhs():
    m = grid2d(3)
    _, crude = exact_chain_op(m, -1.0, 1.0)
    refined = refine_inverse_factor(m, crude, 1e-6)
    assert np.array_equal(solve(refined, np.zeros(9)), np.zeros(9))


def test_solve_scaled_identity():
    m = SparseSymMatrix.from_dense(2.0 * np.eye(6))
    _, crude = exact_chain_op(m, -1.0, 1.0)
    refined = refine_inverse_factor(m, crude, 1e-8)
    x = solve(refined, np.ones(6))
    assert np.allclose(x, 0.5 * np.ones(6), atol=1e-7)


def test_solve_grid_residual():
    eps = 1e-6
    m = grid2d(10)
    split, crude = exact_chain_op(m, -1.0, 1.0)
    refined = refine_inverse_factor(m, crude, eps)
    b = np.random.default_rng(5).standard_normal(100)
    x = solve(refined, b)
    residual = np.linalg.norm(m.matvec(x) - b) / np.linalg.norm(b)
    assert residual <= 2.0 * eps * split.kappa_bound


def test_solve_rejects_non_inverse_chain():
    m = grid2d(3)
    _, op = exact_chain_op(m, 0.5, 0.5)
    with pytest.raises(WrongExponentError):
        solve(op, np.ones(9))
