import functools
import itertools
import logging
import math
from dataclasses import replace

import numpy as np
import pytest

from factorchain import (
    ChainDivergedError,
    ChainOperator,
    EdgeOperator,
    InvalidParamsError,
    NoConvergenceError,
    SparseSymMatrix,
    SddmBounds,
    SparsifyParams,
    Splitting,
    SpectrumEstimateFailedError,
    SquareTooLargeError,
    WrongExponentError,
    build_chain,
    chain_length_bound,
    chain_operator,
    dense_power,
    edge_factor,
    gremban_lift,
    grid2d,
    jacobi_eigh,
    loewner_check,
    make_field,
    normalize,
    operator_bytes,
    operator_from_bytes,
    path_graph,
    prepare,
    random_regular,
    random_sddm,
    refine_inverse_factor,
    sdd_mixed,
    solve,
    sparsify_square_step,
    validate_sddm,
)
import factorchain.chain as chain_module
import factorchain.sparse as sparse_module
import factorchain.sparsify as sparsify_module
from factorchain.chain import crude_level_poly, flops_per_sample, level_centre, refine_by_cost
from factorchain.maclaurin import (
    apply_operator_poly,
    coeffs,
    eval_scalar,
    eval_series,
    make,
    power,
    sandwich_criterion,
)
from factorchain.rng import TAG_LEVEL, substream_seed
from factorchain.sampler import REFINE_SHARE
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
    params = replace(sp, eps=chain.reports[-1].eps_requested,
                     seed=substream_seed(sp.seed, TAG_LEVEL, chain.d - 1))
    return sparsify_square_step(chain.levels[-1], params)[0]


# ----------------------------------------------------------- chain building


def test_chain_length_bound_formula():
    assert chain_length_bound(16.0, 0.5) == math.ceil(
        math.log(32.0) / math.log(9.0 / 8.0))


def test_zero_x_gives_empty_chain():
    split = Splitting(c=1.0, X=SparseSymMatrix.from_dense(np.zeros((3, 3))),
                      kappa_bound=2.0, bounds=SddmBounds(1.0, 1.0, np.ones(3)))
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
    sp = SparsifyParams(eps=1.0)
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
    # sampled levels stay nonnegative, and the radius still falls to the
    # stopping line
    eps = 0.5
    split = split_of(path_graph(32))
    sp = SparsifyParams(eps=1.0, seed=0, mode="sampled")
    chain = build_chain(split, -1.0, eps, sp)
    assert chain.d >= 1
    levels = [*chain.levels, terminal_level(chain, sp)]
    for x in levels:
        assert x.min_value() >= 0.0
    w, _ = jacobi_eigh(levels[-1].to_dense(), vectors=False)
    assert max(abs(w[0]), abs(w[-1])) <= eps * 5.0 / 6.0 + 0.05


def test_sampled_chain_at_the_step_target_builds():
    # each step is sampled at the chain's own target, about 0.002 here: a
    # walk estimate of X^2 sized by that target drew millions of endpoints
    # per entry and ran out of memory; the merge meets it on the exact square
    split = split_of(grid2d(8))
    chain = build_chain(split, -0.5, 0.5, SparsifyParams(eps=1.0, mode="sampled", measure=True))
    assert chain.d >= 1
    for r in chain.reports:
        assert r.merge_attempts >= 1 and not r.merge_fallback
        assert r.eps_measured <= r.eps_requested


def test_sampled_chain_builds_where_rows_keep_little_slack():
    # X/2 + X^2/2 leaves rows of grid2d(5, slack=0.1) a slack below the row-sum
    # noise of a walk estimate of X^2, which refused the first step on every
    # seed; the merge carries the exact square's slack through
    split = split_of(grid2d(5, slack=0.1))
    for seed in range(20):
        chain = build_chain(split, -1.0, 1.0, SparsifyParams(eps=1.0, mode="sampled", seed=seed))
        assert chain.d >= 1
        assert all(x.min_value() >= 0.0 for x in chain.levels)


def test_budget_overrun_raises():
    # a splitting that lies about its condition number exhausts the level
    # budget long before the radius test can fire
    x = SparseSymMatrix.from_dense(0.95 * np.eye(8))
    split = Splitting(c=0.5, X=x, kappa_bound=1.01,
                      bounds=SddmBounds(0.1, 0.1, np.ones(8)))
    with pytest.raises(ChainDivergedError):
        build_chain(split, -1.0, 0.5, SparsifyParams(eps=1.0, mode="exact"))


def test_schedule_sums_to_eps_total():
    # grid9's X_d fills, and the chain keeps it; path256's does not
    for m, filled in ((grid2d(3), True), (path_graph(256), False)):
        split, op = exact_chain_op(m, -1.0, 0.5)
        chain = op.chain
        assert chain.eps_total == pytest.approx(sum(chain.eps_schedule), abs=0)
        assert len(chain.eps_schedule) == chain.d + 1
        assert len(chain.levels) == len(chain.polys) == chain.d
        # the terminal level is the one the last gap and nnz describe
        terminal = terminal_level(chain, SparsifyParams(eps=1.0, mode="exact"))
        assert terminal.nnz == chain.reports[-1].nnz_out
        assert terminal.filled is filled is (chain.terminal is not None)
        # filled or not, the last gap is 1 - the level's proven radius
        assert chain.lambdas[-1] == 1.0 - nonneg_spectral_radius(terminal, split.bounds.v)
        if not filled:
            continue
        # F = (I - X_d)^{-1/2}, whose smallest eigenvalue the gap bounds
        a = np.eye(m.n) - terminal.to_dense()
        assert chain.lambdas[-1] <= np.linalg.eigvalsh(a)[0]
        f = chain.terminal
        assert loewner_check(f @ f.T, np.linalg.inv(a), chain.eps_schedule[-1]).passed
        assert chain.eps_schedule[-1] < 1e-12


FIT_INPUTS = {
    "grid16": lambda: grid2d(16),
    "random_regular128": lambda: random_regular(128, 3),
    "grid16_slack1e-2": lambda: grid2d(16, slack=1e-2),
}


@pytest.mark.parametrize("p", [-0.5, 0.5])
@pytest.mark.parametrize("name", sorted(FIT_INPUTS))
def test_level_polynomials_fit_the_measured_radius(name, p):
    m = FIT_INPUTS[name]()
    eps = 0.3
    split, op = exact_chain_op(m, p, eps)
    chain = op.chain
    # the polynomials share what eps/2 leaves after the terminal's error, and
    # exact steps have none: 2 eps_total is the requested eps
    share = (eps / 2.0 - chain.eps_schedule[-1]) / chain.d
    floor_share = eps / (8.0 * max(chain_length_bound(split.kappa_bound, eps), 1))
    assert share > floor_share
    assert chain.eps_schedule[:-1] == (share,) * chain.d
    assert chain.eps_total == sum(chain.eps_schedule)
    assert 2.0 * chain.eps_total == pytest.approx(eps, rel=1e-12)
    for i, (x, poly) in enumerate(zip(chain.levels, chain.polys)):
        rho = nonneg_spectral_radius(x, split.bounds.v)
        assert chain.lambdas[i] == 1.0 - rho
        # the fit's interval of y = 1 + X_i/2 holds X_i's dense spectrum,
        # with its top at 1 + rho/2 but for rounding
        centre = level_centre(poly, chain.lambdas[i])
        lo, hi = centre * (1.0 - poly.delta), centre * (1.0 + poly.delta)
        assert 1.0 + rho / 2.0 <= hi <= (1.0 + rho / 2.0) * (1.0 + 1e-14)
        w = np.linalg.eigvalsh(x.to_dense())
        assert 2.0 * (lo - 1.0) <= w[0] and w[-1] <= 2.0 * (hi - 1.0)
        # the certified Chebyshev fit of y^{-p/2} that meets the level's share
        assert poly.s == -p / 2.0 and poly.eps == share
        assert poly.bound <= -math.expm1(-share)
        # never dearer than the fit on the symmetric interval 1 +- rho/2
        assert poly.delta < rho / 2.0
        assert poly.t <= power(-p / 2.0, rho / 2.0, share).t
    # the intervals narrow level by level, and the degrees with them
    assert all(a.t >= b.t for a, b in zip(chain.polys, chain.polys[1:]))


@pytest.mark.parametrize("p", [-0.5, 0.5])
def test_fitted_direct_chain_certifies_on_an_expander(p):
    m = random_regular(128, 3)
    _, op = exact_chain_op(m, p, 0.3)
    c = op.as_dense()
    res = loewner_check(c @ c.T, dense_power(m.to_dense(), p),
                        2.0 * op.chain.eps_total * (1 + 1e-9))
    assert res.passed, res.eps_measured


def test_expander_chain_keeps_its_shape():
    # the fractional_chain benchmark's chain: X_3 holds 78% of n^2, so the
    # chain ends there, in the dense factor F = (I - X_3)^{1/4}
    m = random_regular(512, 3, seed=1)
    chain = build_chain(normalize(m, validate_sddm(m)), -0.5, 0.3)
    assert [x.full_nnz for x in chain.levels] == [2048, 5102, 22690]
    # X_1 and X_2 lie within [-1/8, rho]: a degree-0 scalar meets their share
    assert [poly.t for poly in chain.polys] == [1, 0, 0]
    assert chain.terminal.shape == (512, 512)


@pytest.mark.parametrize("seed", range(5))
def test_fractional_chain_certifies_against_the_dense_spectrum(seed):
    # the fractional_chain benchmark's operator: the log-eigenvalues of
    # M^{1/4} C C^T M^{1/4} lie within 2 eps_total, the tolerance the
    # benchmark's factor check applies, which spends the requested 0.3
    m = random_regular(512, 3, seed=seed)
    op = chain_operator(split_of(m), build_chain(split_of(m), -0.5, 0.3))
    assert op.chain.d == 3 and op.chain.terminal is not None
    assert 0.15 <= op.chain.eps_total and 2.0 * op.chain.eps_total <= 0.3 * (1 + 1e-9)
    w, u = np.linalg.eigh(m.to_dense())
    quarter = (u * w ** 0.25) @ u.T
    c = quarter @ op.as_dense()
    logs = np.log(np.linalg.eigvalsh(c @ c.T))
    assert np.max(np.abs(logs)) <= 2.0 * op.chain.eps_total, np.max(np.abs(logs))


def level_intervals(chain):
    """(floor, top) of X_i's spectrum that each level polynomial is fitted on,
    read back from the chain as an operator derives it."""
    out = []
    for q, lam in zip(chain.polys, chain.lambdas):
        m = level_centre(q, lam)
        out.append((2.0 * (m * (1.0 - q.delta) - 1.0), 2.0 * (m * (1.0 + q.delta) - 1.0)))
    return out


def dense_error(w, u, op):
    """max |log lambda(M^{-p/2} C C^T M^{-p/2})| for M = u diag(w) u^T."""
    k = ((u * w ** (-op.chain.p / 2.0)) @ u.T) @ op.as_dense()
    return float(np.max(np.abs(np.log(np.linalg.eigvalsh(k @ k.T)))))


PROPERTY_INPUTS = {
    "grid7": lambda: grid2d(7),
    "random_sddm100": lambda: random_sddm(100, seed=3),
    "path64": lambda: path_graph(64),
    **{f"random_regular512_seed{s}": functools.partial(random_regular, 512, 3, seed=s)
       for s in range(5)},
}


@pytest.mark.parametrize("name", sorted(PROPERTY_INPUTS))
def test_direct_exact_chain_spends_at_most_eps_and_certifies(name):
    # for every p and eps: 2 eps_total is within the requested eps, the
    # dense error within it, and every level's proven interval holds the
    # level's dense spectrum; the levels, and so the floors, do not depend on p
    m = PROPERTY_INPUTS[name]()
    split = split_of(m)
    w, u = np.linalg.eigh(m.to_dense())
    for eps in (0.1, 0.3, 0.42, 0.5):
        for p in (-1.0, -0.5, 0.5):
            op = chain_operator(split, build_chain(split, p, eps))
            assert 2.0 * op.chain.eps_total <= eps * (1 + 1e-9)
            assert dense_error(w, u, op) <= eps
        for x, (floor, top) in zip(op.chain.levels, level_intervals(op.chain)):
            spectrum = np.linalg.eigvalsh(x.to_dense())
            assert floor <= spectrum[0] and spectrum[-1] <= top


RADIUS_STOP_INPUTS = {
    # at the old stop min(5 eps/6, 0.4) these dropped a level of radius
    # about 0.35, whose error 0.43 alone passed eps = 0.42
    "path64": (lambda: path_graph(64), (-1.0,)),
    "path128": (lambda: path_graph(128), (-1.0, 1.0)),
    "random_regular128_slack3": (lambda: random_regular(128, 3, slack=3.0), (-1.0,)),
    # a level that is dropped costs at most eps/4
    "path256": (lambda: path_graph(256), (-1.0,)),
}


@pytest.mark.parametrize("name", sorted(RADIUS_STOP_INPUTS))
def test_radius_stop_leaves_the_polynomials_half_the_budget(name):
    build, ps = RADIUS_STOP_INPUTS[name]
    m = build()
    eps = 0.42
    split = split_of(m)
    w, u = np.linalg.eigh(m.to_dense())
    for p in ps:
        op = chain_operator(split, build_chain(split, p, eps))
        ch = op.chain
        assert ch.eps_schedule[-1] <= eps / 4.0
        if ch.terminal is None:
            assert -math.log(ch.lambdas[-1]) <= eps / 4.0
        assert 2.0 * ch.eps_total <= eps * (1 + 1e-9)
        assert dense_error(w, u, op) <= eps
    assert (ch.terminal is None) is (name == "path256")


def test_sampled_chain_schedule_covers_its_measured_steps():
    # each entry is the level's share plus its step's measured error, and a
    # sampled level is fitted on +-rho, the only floor a sampled step leaves
    m = grid2d(8)
    assert m.n <= sparsify_module.MEASURE_LIMIT
    split = split_of(m)
    sp = SparsifyParams(eps=1.0, seed=4, mode="sampled", measure=True)
    chain = build_chain(split, -0.5, 0.5, sp)
    assert chain.d >= 2
    measured = [r.eps_measured for r in chain.reports]
    assert all(e is not None and e > 0.0 for e in measured)
    share = chain.polys[0].eps
    for i, poly in enumerate(chain.polys):
        assert poly.eps == share
        assert chain.eps_schedule[i] == share + measured[i] >= measured[i]
    assert 2.0 * chain.eps_total == pytest.approx(0.5, rel=1e-12)
    for i, (floor, top) in enumerate(level_intervals(chain)[1:], start=1):
        rho = 1.0 - chain.lambdas[i]
        assert floor <= -rho and top == pytest.approx(rho, rel=1e-12)


def test_chain_requires_d_plus_one_lambdas(grid9):
    chain = exact_chain_op(grid9, -1.0, 0.5)[1].chain
    with pytest.raises(InvalidParamsError, match="lambdas"):
        replace(chain, lambdas=chain.lambdas * 7)


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


# ------------------------------------------------------------ terminal factor


def crude_op(m, t):
    """refine_by_cost's crude p = -1 factor of m at level degree t."""
    split = split_of(m)
    squarings = list(chain_module._squarings(split, chain_module.CRUDE_EPS, None))
    top = chain_module._terminal(*squarings[-1][:2], -1.0)
    return chain_module._crude_factor(split, squarings, t, top)


TERMINAL = {
    # X_2 fills: the chain ends in F = (I - X_2)^{1/4}
    "direct_expander": lambda: exact_chain_op(random_regular(128, 3, seed=0), -0.5, 0.3)[1],
    # X_3 of a nearly singular grid fills: F = (I - X_3)^{-1/2}
    "crude_grid": lambda: crude_op(grid2d(8, slack=1e-3), 2),
}


def assert_columns_do_not_depend_on_block_width(op):
    """Every column of a 128-wide block keeps its bits alone and in narrower blocks."""
    x = np.random.default_rng(7).standard_normal((op.input_dim, 128))
    for f in (op.apply, op.apply_transpose):
        wide = f(x).view(np.uint64)
        for j in range(128):
            assert np.array_equal(f(x[:, j]).view(np.uint64), wide[:, j]), j
        for k in [*range(1, 18), 64, 127]:
            blocks = np.hstack([f(x[:, j:j + k]) for j in range(0, 128, k)])
            assert np.array_equal(blocks.view(np.uint64), wide), k


@pytest.mark.parametrize("name", sorted(TERMINAL))
def test_terminal_columns_do_not_depend_on_block_width(name):
    # the sampler's prefix contract: a column's bits do not depend on its block
    op = TERMINAL[name]()
    assert op.chain.terminal is not None and op.chain.d >= 2
    assert_columns_do_not_depend_on_block_width(op)


CSR_CLENSHAW = {
    # depth 0: a degree-3 polynomial in the grid's own M, through its 2U
    "refined_depth_0": lambda: prepare(make_field(grid2d(8)), 0.2).operator,
    # no level fills: every level goes through its 2U, the first at degree 2
    "direct_sparse_levels": lambda: exact_chain_op(path_graph(512), 1.0, 0.2)[1],
}


@pytest.mark.parametrize("name", sorted(CSR_CLENSHAW))
def test_csr_clenshaw_columns_do_not_depend_on_block_width(name):
    # the in-place CSR kernel sums each column on its own, so the prefix
    # contract holds for sparse levels too
    op = CSR_CLENSHAW[name]()
    if op.refinement is None:
        assert op.chain.terminal is None and max(q.t for q in op.chain.polys) >= 2
    else:
        assert op.chain.d == 0 and op.poly.t >= 2
    assert_columns_do_not_depend_on_block_width(op)


def refined_at_t_1():
    m = grid2d(8)
    op = refine_inverse_factor(m, crude_op(m, 1), 0.1)
    assert op.chain.d > 0
    return op


def edge_operator():
    m = random_sddm(8, seed=3)
    return EdgeOperator(refine_inverse_factor(m, exact_chain_op(m, -1.0, 1.0)[1], 0.05),
                        edge_factor(m))


OPERATOR_KINDS = {
    "chain_depth_0": lambda: crude_op(grid2d(8), 0),
    **CSR_CLENSHAW,
    **TERMINAL,
    "refined_at_t_1": refined_at_t_1,
    "edge": edge_operator,
}


@pytest.mark.parametrize("name", sorted(OPERATOR_KINDS))
def test_strided_input_gives_the_bytes_of_its_contiguous_copy(name):
    # the operators scale the blocks they make in place: a column's bits do
    # not depend on the input's layout, and the caller's array is untouched
    op = OPERATOR_KINDS[name]()
    rng = np.random.default_rng(11)
    for f, dim in ((op.apply, op.input_dim), (op.apply_transpose, op.output_dim)):
        rows = rng.standard_normal((13, dim))
        strided = rows.T
        contiguous = np.ascontiguousarray(strided)
        assert not strided.flags.c_contiguous
        before = rows.tobytes()
        got = f(strided)
        assert got.tobytes() == f(contiguous).tobytes()
        assert rows.tobytes() == before == contiguous.T.tobytes()
        assert not np.shares_memory(got, rows)


@pytest.mark.parametrize("name", sorted(TERMINAL))
def test_terminal_factor_is_the_exact_power(name):
    # F F^T = (I - X_k)^p within F's rounding allowance, the terminal entry
    # of eps_schedule, for the filled level X_k the squaring stopped at
    op = TERMINAL[name]()
    ch = op.chain
    x_k = sparsify_square_step(ch.levels[-1], SparsifyParams(eps=1.0, mode="exact"))[0]
    assert x_k.filled and x_k.nnz == ch.reports[-1].nnz_out
    f = ch.terminal
    assert 0.0 < ch.eps_schedule[-1] < 1e-9
    res = loewner_check(f @ f.T, dense_power(np.eye(ch.n) - x_k.to_dense(), ch.p),
                        ch.eps_schedule[-1])
    assert res.passed, res.eps_measured
    # apply multiplies by F first, apply_transpose by F^T last
    x = np.random.default_rng(8).standard_normal((ch.n, 3))
    w = f @ x
    for i in range(ch.d - 1, -1, -1):
        # T_i = m^s poly_i((I + X_i/2)/m), m the centre of its interval
        m = level_centre(ch.polys[i], ch.lambdas[i])
        w = m ** ch.polys[i].s * apply_operator_poly(ch.polys[i], ch.levels[i],
                                                     (1.0 / m, 0.5 / m), w)
    scale = np.abs(w).max() * op.out_scale
    assert np.abs(op.apply(x) - op.out_scale * w).max() <= 1e-12 * scale
    c = op.as_dense()
    assert np.abs(op.apply_transpose(np.eye(ch.n)) - c.T).max() <= 1e-12 * np.abs(c).max()


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
    # path32's crude chain drops its terminal level, whose radius spreads
    # Z^T M Z; a chain ending in F leaves almost nothing to refine
    m = path_graph(32)
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
    # a crude factor mapping everything to zero makes Z^T M Z = 0, whose
    # bottom bound lo = 0 cannot set the refinement's scale
    m = grid2d(3)

    class ZeroFactor:
        chain = type("c", (), {"p": -1.0})()
        input_dim = m.n

        def apply(self, v):
            return np.zeros_like(v)

        apply_transpose = apply

    with pytest.raises(SpectrumEstimateFailedError):
        refine_inverse_factor(m, ZeroFactor(), 0.1)


def test_refinement_bounds_bracket_inner_spectrum():
    m = grid2d(32)
    _, crude = exact_chain_op(m, -1.0, 1.0)
    info = refine_inverse_factor(m, crude, 0.1).refinement
    z = crude.as_dense()
    lam = np.linalg.eigvalsh(z.T @ m.to_dense() @ z)
    assert info.spectrum_lo <= lam[0] and lam[-1] <= info.spectrum_hi
    # the padding is the residual, about 1e-3 of each end, not a blanket widening
    assert info.spectrum_lo >= 0.99 * lam[0] and info.spectrum_hi <= 1.01 * lam[-1]


def test_prepare_logs_nothing(caplog):
    m = grid2d(32)
    with caplog.at_level(logging.DEBUG):
        prepare(make_field(m, np.ones(m.n)), 0.1)
    assert caplog.records == []


# ------------------------------------------------- level degree by cost


@pytest.mark.parametrize("t", range(13))
def test_level_polynomial_is_positive_on_half_interval(t):
    # a_0 = 1 and every later coefficient is negative, so the truncated
    # series of (1 - x)^{1/2} stays at or above sqrt(1 - |x|) > 0
    a = coeffs(0.5, t)
    assert a[0] == 1.0 and np.all(a[1:] < 0.0)
    x = np.linspace(-0.5, 0.5, 2001)
    poly = make(0.5, 0.5, 0.5 ** (t - 1))
    assert poly.t == t
    assert np.all(eval_series(poly, x) >= np.sqrt(1.0 - np.abs(x)) - 1e-15)


@pytest.mark.parametrize("t", range(13))
def test_crude_level_poly_is_the_binomial_series(t):
    # the same polynomial in the Chebyshev basis of u = -x / (1/2), so the
    # positivity above carries over; its certificate records the series bound
    poly = crude_level_poly(t)
    assert (poly.s, poly.t, poly.delta, poly.certificate) == (0.5, t, 0.5, "series")
    assert poly.eps == poly.bound == sandwich_criterion(0.5, t)
    x = np.linspace(-0.5, 0.5, 2001)
    series = eval_series(make(0.5, 0.5, 0.5 ** (t - 1)), x)
    assert np.allclose(eval_scalar(poly, 1.0 - x), series, rtol=0, atol=1e-15)


def test_level_factor_is_positive_definite_at_every_degree():
    _, crude = exact_chain_op(grid2d(8), -1.0, 1.0)
    x0 = crude.chain.levels[0]
    for t in range(13):
        poly = crude_level_poly(t)
        factor = apply_operator_poly(poly, x0, (1.0, 0.5), np.eye(x0.n))
        assert np.linalg.eigvalsh(factor)[0] > 0.0


def prepared_operator(m):
    return prepare(make_field(m), 0.1).operator


def level_degree(op):
    degrees = {q.t for q in op.chain.polys}
    assert len(degrees) <= 1
    return degrees.pop() if degrees else 0


def test_prepare_stores_a_depth_zero_chain_on_grid32():
    op = prepared_operator(grid2d(32))
    assert op.chain.d == 0 and op.chain.levels == ()
    loaded, _ = operator_from_bytes(operator_bytes(op))
    assert loaded.chain.d == 0
    # a polynomial in M alone: 7 applies of M (the binomial series needed
    # 37, the Bernstein bound alone 14), 0.035 M flops per sample
    assert op.info.certificate == "truncation" and op.info.degree <= 7
    assert flops_per_sample(op) == op.info.degree * op.matrix.full_nnz < 37_500


def at_level_degree(crude, t):
    """The built crude chain with every level polynomial at degree t.

    These are the candidates of the exhaustive rule below: at t = 0 the
    chain keeps no level and no terminal factor and its gap is X_0's, and
    at t >= 1 each level records the sandwich bound of its degree at
    delta = 1/2.
    """
    ch = crude.chain
    if t == 0:
        gap = max(0.0, -math.log(ch.lambdas[0]))
        chain = replace(ch, levels=(), polys=(), eps_schedule=(gap,),
                        lambdas=ch.lambdas[:1], reports=(), terminal=None)
    else:
        poly = crude_level_poly(t)
        schedule = (poly.eps,) * ch.d + ch.eps_schedule[-1:]
        chain = replace(ch, polys=(poly,) * ch.d, eps_schedule=schedule)
    return ChainOperator(chain, crude.out_scale)


def exhaustive_rule(m, split, eps, sp=None):
    """The reference refine_by_cost must match: build the whole crude chain,
    then try t = 0, 1, ... until a degree is not cheaper than the best.
    Depth 0 is refined on the proven interval c [lo, hi] of Z^T M Z = cM."""
    crude = chain_operator(split, build_chain(split, -1.0, 1.0, sp))
    depth_zero = (split.c * split.bounds.lo, split.c * split.bounds.hi)
    best, best_cost, failure = None, math.inf, None
    for t in itertools.count():
        try:
            op = refine_inverse_factor(m, at_level_degree(crude, t), eps,
                                       None if t else depth_zero)
            cost = flops_per_sample(op)
        except (SpectrumEstimateFailedError, NoConvergenceError) as exc:
            op, cost, failure = None, math.inf, exc
        if t > 0 and cost >= best_cost:
            break
        best, best_cost = op, cost
    if best is None:
        raise failure
    return best


SAMPLED = SparsifyParams(eps=1.0, mode="sampled")

# matrix and squaring parameters.  grid16_slack1e-6 stores its levels at
# t >= 1 because depth 0 is infeasible; grid16_slack3e-6 does so at eps 0.5
# against a finite depth 0, which no level sum prunes
EQUIVALENCE_INPUTS = {
    "grid16": (lambda: grid2d(16), None),
    "grid16_slack1e-2": (lambda: grid2d(16, slack=1e-2), None),
    "grid16_slack1e-6": (lambda: grid2d(16, slack=1e-6), None),
    "grid16_slack3e-6": (lambda: grid2d(16, slack=3e-6), None),
    "random_regular128": (lambda: random_regular(128, 3), None),
    "lifted_sdd_mixed64": (lambda: gremban_lift(sdd_mixed(64, seed=6)).S, None),
    "path64": (lambda: path_graph(64), None),
    "grid8_sampled": (lambda: grid2d(8), SAMPLED),
}


@pytest.mark.parametrize("eps", [0.0125, 0.5])
@pytest.mark.parametrize("name", sorted(EQUIVALENCE_INPUTS))
def test_cost_rule_stores_what_the_exhaustive_rule_stores(name, eps):
    build, sp = EQUIVALENCE_INPUTS[name]
    m = build()
    split = split_of(m)
    assert operator_bytes(refine_by_cost(m, split, eps, sp)) == operator_bytes(
        exhaustive_rule(m, split, eps, sp))


def assert_squaring_stops(monkeypatch, m, calls_made, pruned_at):
    """prepare on m makes calls_made and stores depth 0, pruned once X_0 ..
    X_pruned_at, a filled level counted as n^2, cost as much as depth 0."""
    calls = dict.fromkeys(calls_made, 0)

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(chain_module, "sparsify_square_step",
                        counted("square", sparsify_square_step))
    monkeypatch.setattr(chain_module, "nonneg_spectral_radius",
                        counted("radius", nonneg_spectral_radius))
    monkeypatch.setattr(chain_module, "refine_inverse_factor",
                        counted("refine", refine_inverse_factor))
    monkeypatch.setattr(chain_module, "_terminal", counted("terminal", chain_module._terminal))
    op = prepared_operator(m)
    assert calls == calls_made
    assert op.chain.d == 0
    monkeypatch.undo()
    levels = [x for x, _, _ in itertools.islice(
        chain_module._squarings(split_of(m), chain_module.CRUDE_EPS, None), pruned_at + 1)]
    cost = [x.n ** 2 if x.filled else x.full_nnz for x in levels]
    assert sum(cost[:-1]) < flops_per_sample(op) <= sum(cost)
    return levels


def test_prepare_stops_squaring_once_no_deeper_factor_can_win(monkeypatch):
    # one radius per level, X_0's serving depth 0 too, and one refinement:
    # X_2, sparse and not terminal, was the last squaring, since with it
    # X_0 .. X_2 hold as many entries as depth 0 costs and X_0 .. X_1 did not
    levels = assert_squaring_stops(
        monkeypatch, grid2d(32), {"square": 2, "radius": 3, "refine": 1, "terminal": 0}, 2)
    assert not levels[-1].filled


def test_prepare_stops_at_a_filled_level_without_forming_its_factor(monkeypatch):
    # X_6 fills: X_0 .. X_5 and X_6's factor, n^2, cost as much as depth 0,
    # so no factor is formed; X_6's radius, one matvec, is taken as every
    # level's is
    levels = assert_squaring_stops(
        monkeypatch, path_graph(128, slack=1e-2),
        {"square": 6, "radius": 7, "refine": 1, "terminal": 0}, 6)
    assert levels[-1].filled


def test_prepare_squares_exactly_above_the_old_size_switch(monkeypatch):
    # n = 4,225, past the n = 4,096 at which squaring used to switch to the
    # sampled walk: two exact squares, drawing nothing, price the chain out
    reports = []

    def counted(*args, **kwargs):
        out = sparsify_square_step(*args, **kwargs)
        reports.append(out[1])
        return out

    monkeypatch.setattr(chain_module, "sparsify_square_step", counted)
    op = prepared_operator(grid2d(65))
    assert op.chain.d == 0
    assert [r.merge_attempts for r in reports] == [0, 0]


def refuse_every_square(monkeypatch):
    """Cap every square at 0 bytes, and fail if a product is formed."""
    def formed(x):
        raise AssertionError("a square was formed past the cap")

    monkeypatch.setattr(sparsify_module, "SQUARE_BYTE_CAP", 0)
    monkeypatch.setattr(sparsify_module, "square", formed)


def test_build_chain_refuses_a_square_past_the_cap_before_forming_it(monkeypatch):
    split = split_of(random_regular(128, 3, seed=0))
    refuse_every_square(monkeypatch)
    with pytest.raises(SquareTooLargeError, match="n = 128"):
        build_chain(split, -0.5, 0.3)


def test_a_sampled_step_refuses_a_square_past_the_cap_before_forming_it(monkeypatch):
    # sampled mode forms the same product, under the same cap
    x = split_of(grid2d(8)).X
    refuse_every_square(monkeypatch)
    with pytest.raises(SquareTooLargeError, match="n = 64"):
        sparsify_square_step(x, SparsifyParams(eps=0.5, mode="sampled"))


def test_a_refused_square_leaves_refine_by_cost_no_deeper_candidate(monkeypatch):
    # grid2d(16) stores depth 0 and squares past it to price t = 1: refused
    # there, it stores the same bytes; with depth 0 infeasible too, the
    # refusal is the error
    m = grid2d(16)
    split = split_of(m)
    kept = refine_by_cost(m, split, 0.1 / REFINE_SHARE)
    assert kept.chain.d == 0
    refuse_every_square(monkeypatch)
    squares = []
    monkeypatch.setattr(chain_module, "sparsify_square_step",
                        lambda *args: squares.append(args) or sparsify_square_step(*args))
    op = refine_by_cost(m, split, 0.1 / REFINE_SHARE)
    assert len(squares) == 1
    assert operator_bytes(op) == operator_bytes(kept)
    radii = iter([1.0 + 1e-3])
    real = chain_module.nonneg_spectral_radius
    monkeypatch.setattr(chain_module, "nonneg_spectral_radius",
                        lambda x, v: next(radii, None) or real(x, v))
    with pytest.raises(SquareTooLargeError):
        refine_by_cost(m, split, 0.1 / REFINE_SHARE)


def test_prepare_picks_depth_zero_on_ill_conditioned_grid():
    # kappa about 800: the Chebyshev degree grows like sqrt(kappa), yet a
    # polynomial in M alone beats the chain of 4 levels and F at degree 1
    m = grid2d(16, slack=1e-2)
    op = prepared_operator(m)
    built = build_chain(split_of(m), -1.0, 1.0)
    assert built.d == 4 and built.terminal is not None
    assert op.chain.d == 0 and level_degree(op) == 0
    assert op.info.certificate == "truncation"
    at_one = refine_inverse_factor(m, at_level_degree(chain_operator(split_of(m), built), 1),
                                   0.1 / REFINE_SHARE)
    assert flops_per_sample(op) < flops_per_sample(at_one)
    # the depth-0 chain keeps X_0's gap as its error term; the dense
    # certificate of this operator is test_prepared_operator_certifies_densely
    assert op.chain.eps_schedule == (op.chain.eps_total,)
    assert op.chain.lambdas == built.lambdas[:1]


def test_depth_zero_interval_contains_the_spectrum_on_an_expander():
    # Lanczos stored spectrum_hi = 1.9339 here, under the top 1.9359 of cM,
    # and a dense error of 0.054 against the recorded 0.0125; the proven
    # interval c [lo, hi] holds the spectrum, and the error is within eps
    m = random_regular(1024, 3, seed=0, slack=1e-2)
    op = prepared_operator(m)
    assert op.chain.d == 0
    split = split_of(m)
    lam = split.c * np.linalg.eigvalsh(m.to_dense())
    info = op.info
    assert (info.spectrum_lo, info.spectrum_hi) == (split.c * split.bounds.lo,
                                                    split.c * split.bounds.hi)
    # up to eigvalsh's own rounding, n u lambda_max: at the bottom lo is
    # min_slack, the bottom eigenvalue itself
    tol = m.n * 2.0 ** -52 * lam[-1]
    assert info.spectrum_lo <= lam[0] + tol and lam[-1] <= info.spectrum_hi
    c = op.as_dense()
    err = np.max(np.abs(np.log(np.linalg.eigvalsh(c.T @ m.to_dense() @ c))))
    assert err <= info.eps


def test_prepare_certifies_a_grid_of_kappa_eight_million():
    # grid2d(32, slack=1e-6): depth 0 passes MAX_DEGREE, and the chain at
    # t = 1 ends in a dense factor; the dense error max |log lambda(C^T M
    # C)| (numpy's eigvalsh: the Jacobi oracle stops at n = 512) is within
    # the recorded eps
    m = grid2d(32, slack=1e-6)
    op = prepared_operator(m)
    assert op.chain.terminal is not None and level_degree(op) == 1
    c = op.as_dense()
    assert np.max(np.abs(np.log(np.linalg.eigvalsh(c.T @ m.to_dense() @ c)))) <= op.info.eps


def test_prepare_stores_depth_zero_where_every_square_is_refused():
    # grid2d(128, slack=1e-4): the squaring refuses X_3 by its byte cap,
    # and depth 0, whose proven interval gives it a gap, is stored
    m = grid2d(128, slack=1e-4)
    op = prepared_operator(m)
    assert op.chain.d == 0 and op.info.spectrum_lo > 0.0
    assert op.info.degree == 1320


def test_prepare_on_the_grid_field_input_runs_no_lanczos(monkeypatch):
    # depth 0 is refined on its proven interval, and no t >= 1 candidate is
    # refined: both bindings of power_iteration stay uncalled
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(sparse_module, "power_iteration",
                        counted(sparse_module.power_iteration))
    monkeypatch.setattr(chain_module, "power_iteration",
                        counted(chain_module.power_iteration))
    m = grid2d(32)
    h = np.random.default_rng([0, 1]).standard_normal(m.n)
    op = prepare(make_field(m, h), 0.1).operator
    assert calls == []
    assert op.chain.d == 0 and op.info.degree == 7


def test_prepare_ends_an_ill_conditioned_grid_in_a_dense_factor():
    # kappa about 7.9e6: depth 0 would pass MAX_DEGREE, and the crude chain
    # ends at its first filled level, X_4, in F = (I - X_4)^{-1/2}
    m = grid2d(16, slack=1e-6)
    op = prepared_operator(m)
    assert op.chain.d <= 5 and op.chain.terminal is not None
    assert flops_per_sample(op) == op.info.degree * (
        2 * (sum(x.full_nnz for x in op.chain.levels) + m.n ** 2) + m.full_nnz
    ) + sum(x.full_nnz for x in op.chain.levels) + m.n ** 2
    c = op.as_dense()
    res = loewner_check(c @ c.T, dense_power(m.to_dense(), -1.0), 0.1 / REFINE_SHARE)
    assert res.passed, res.eps_measured


def test_depth_zero_without_a_gap_is_scored_infinite(monkeypatch):
    # a radius bound of X_0 at or above 1 leaves depth 0 no gap: it raises
    # a typed error, which refine_by_cost scores as an infinite cost
    m = grid2d(8)
    split = split_of(m)
    radii = iter([1.0 + 1e-3])
    real = chain_module.nonneg_spectral_radius
    monkeypatch.setattr(chain_module, "nonneg_spectral_radius",
                        lambda x, v: next(radii, None) or real(x, v))
    squarings = [next(chain_module._squarings(split, chain_module.CRUDE_EPS, None))]
    assert squarings[0][1] == 1.0 + 1e-3
    with pytest.raises(SpectrumEstimateFailedError, match="no gap"):
        chain_module._crude_factor(split, squarings, 0)
    radii = iter([1.0 + 1e-3])
    op = refine_by_cost(m, split, 0.1 / REFINE_SHARE)
    assert op.chain.d >= 1 and op.chain.lambdas[0] == 1.0 - (1.0 + 1e-3)
    c = op.as_dense()
    assert loewner_check(c @ c.T, dense_power(m.to_dense(), -1.0), 0.1 / REFINE_SHARE).passed


RULE_INPUTS = {
    "grid16": lambda: grid2d(16),
    "grid16_slack1e-2": lambda: grid2d(16, slack=1e-2),
    "lifted_sdd_mixed64": lambda: gremban_lift(sdd_mixed(64, seed=6)).S,
}


@functools.lru_cache(maxsize=None)
def dense_inverse(name):
    """The dense oracle M^{-1} of a RULE_INPUTS matrix, built once per run."""
    return dense_power(RULE_INPUTS[name]().to_dense(), -1.0)


# the fields prepare sees; the lifted one refines on RULE_INPUTS' lift
PREPARE_INPUTS = {
    "grid16": lambda: grid2d(16),
    "grid16_slack1e-2": lambda: grid2d(16, slack=1e-2),
    "lifted_sdd_mixed64": lambda: sdd_mixed(64, seed=6),
}


@pytest.mark.parametrize("name", sorted(PREPARE_INPUTS))
def test_prepared_operator_certifies_densely(name):
    field = make_field(PREPARE_INPUTS[name]())
    for eps in (0.1 / REFINE_SHARE, 1e-8):
        # prepare refines REFINE_SHARE times tighter than it is asked to
        op = prepare(field, eps * REFINE_SHARE).operator
        assert op.info.eps == eps and op.info.certificate == "truncation"
        assert op.matrix.n <= 512 and op.matrix.same_entries(RULE_INPUTS[name]())
        c = op.as_dense()
        res = loewner_check(c @ c.T, dense_inverse(name), eps)
        assert res.passed, (eps, res.eps_measured)


@pytest.mark.parametrize("name", sorted(RULE_INPUTS))
def test_cost_rule_certifies_and_beats_the_budget_degree(name):
    m = RULE_INPUTS[name]()
    split, crude = exact_chain_op(m, -1.0, 1.0)
    eps = 0.1 / REFINE_SHARE
    op = refine_by_cost(m, split, eps, SparsifyParams(eps=1.0, mode="exact"))
    # the uniform budget degree of earlier chains, 9 per level, refined
    budget = refine_inverse_factor(m, at_level_degree(crude, 9), eps)
    assert level_degree(budget) == 9
    assert flops_per_sample(op) <= flops_per_sample(budget)
    c = op.as_dense()
    res = loewner_check(c @ c.T, dense_inverse(name), eps)
    assert res.passed, res.eps_measured


def test_cost_rule_skips_an_infeasible_depth_zero():
    # kappa 7.9e6: a polynomial in M alone would need a certified degree
    # past MAX_DEGREE (33,463), so t = 0 costs infinity and the chain's
    # levels stay
    m = grid2d(16, slack=1e-6)
    split, crude = exact_chain_op(m, -1.0, 1.0)
    with pytest.raises(NoConvergenceError, match="MAX_DEGREE"):
        refine_inverse_factor(m, at_level_degree(crude, 0), 0.1 / REFINE_SHARE)
    op = refine_by_cost(m, split, 0.1 / REFINE_SHARE, SparsifyParams(eps=1.0, mode="exact"))
    assert op.chain.d == crude.chain.d and level_degree(op) == 1


def test_cost_rule_raises_when_no_candidate_is_finite():
    # c = 0 makes Z = c^{1/2} (...) = 0, so Z^T M Z = 0 at every degree
    m = grid2d(3)
    with pytest.raises(SpectrumEstimateFailedError):
        refine_by_cost(m, replace(split_of(m), c=0.0), 0.1)


@pytest.mark.parametrize("eps", [math.nan, math.inf, 0.0, -1.0])
def test_build_chain_rejects_a_non_finite_or_non_positive_eps(eps):
    with pytest.raises(InvalidParamsError, match="positive and finite"):
        build_chain(split_of(grid2d(4)), -1.0, eps)


@pytest.mark.parametrize("eps", [math.nan, math.inf, 0.0, -1.0])
def test_refinement_rejects_a_non_finite_or_non_positive_eps(eps):
    m = grid2d(4)
    _, crude = exact_chain_op(m, -1.0, 1.0)
    with pytest.raises(InvalidParamsError, match="positive and finite"):
        refine_inverse_factor(m, crude, eps)


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
