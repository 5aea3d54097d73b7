import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.chebyshev import chebval

from factorchain import (
    InvalidParamsError,
    SparseSymMatrix,
    grid2d,
    MaclaurinPoly,
    NoConvergenceError,
    abs_residue_bound,
    apply_operator_poly,
    bernstein_degree,
    coeffs,
    degree_for,
    eval_scalar,
    eval_series,
    inverse_sqrt,
    make,
    power,
)
from factorchain.maclaurin import CERTIFICATES, _interpolant

from conftest import random_sddm_dense


# ------------------------------------------------------------ coefficients


def test_coeffs_inverse_is_geometric():
    assert np.allclose(coeffs(-1.0, 3), [1.0, 1.0, 1.0, 1.0], atol=0)


def test_coeffs_square_root():
    # binomial series of (1-x)^{1/2}
    assert np.allclose(coeffs(0.5, 3), [1.0, -0.5, -0.125, -0.0625], atol=0)


def test_coeffs_linear_truncates_exactly():
    assert np.allclose(coeffs(1.0, 5), [1.0, -1.0, 0.0, 0.0, 0.0, 0.0], atol=0)


def test_coeffs_p_zero_is_constant():
    assert np.allclose(coeffs(0.0, 4), [1.0, 0.0, 0.0, 0.0, 0.0], atol=0)


@settings(deadline=None, max_examples=80)
@given(st.floats(-1.0, 1.0), st.integers(0, 60))
def test_coeff_magnitudes_never_exceed_one(p, t):
    a = coeffs(p, t)
    assert a[0] == 1.0
    assert np.all(np.abs(a) <= 1.0 + 1e-15)


@settings(deadline=None, max_examples=40)
@given(st.floats(-1.0, 1.0), st.integers(1, 40))
def test_coeffs_match_taylor_recurrence(p, t):
    # a_{k+1} = -a_k (p - k)/(k + 1), direct from differentiating (1-x)^p
    a = coeffs(p, t)
    for k in range(t):
        assert a[k + 1] == pytest.approx(-a[k] * (p - k) / (k + 1), rel=1e-13, abs=1e-300)


# ------------------------------------------------------------------ bounds


def test_abs_residue_bound_formula():
    assert abs_residue_bound(0.5, 3) == pytest.approx(0.5 ** 4 / 0.5)
    assert abs_residue_bound(0.25, 0) == pytest.approx(0.25 / 0.75)


def test_degree_for_half_radius():
    # smallest t with (1/2)^{t+1}/(1/4) <= 0.01 is t = 8
    assert degree_for(-0.5, 0.5, 0.01) == 8


def test_degree_for_small_radius():
    # t = 0 already satisfies 0.01/(0.99)^2 <= 0.1
    assert degree_for(0.5, 0.01, 0.1) == 0
    assert degree_for(0.5, 0.01, 1e-4) in (1, 2)


def test_degree_for_loose_tolerance_is_zero():
    d = 0.3
    assert degree_for(1.0, d, d / (1 - d) ** 2 + 1e-12) == 0


@settings(deadline=None, max_examples=60)
@given(st.floats(-1.0, 1.0), st.floats(0.05, 0.9),
       st.floats(1e-8, 0.5))
def test_degree_for_never_exceeds_log_bound(p, delta, eps):
    t = degree_for(p, delta, eps)
    cap = math.ceil(math.log(1.0 / (eps * (1 - delta) ** 2)) / (1 - delta))
    assert t <= max(cap, 0)
    # minimality: one degree less must violate the criterion
    if t > 0:
        assert delta ** t / (1 - delta) ** 2 > eps


# ----------------------------------------------------------- scalar series


def test_eval_scalar_at_one_is_one():
    for p in (-1.0, -0.5, 0.3, 1.0):
        poly = make(p, 0.5, 0.1)
        assert eval_scalar(poly, 1.0) == 1.0


def test_eval_scalar_geometric_partial_sum():
    poly = MaclaurinPoly(p=-1.0, t=3, coeffs=(1.0, 1.0, 1.0, 1.0),
                         delta=0.5, eps=0.5)
    # 1 + 1/2 + 1/4 + 1/8 against the exact inverse 2; residue 0.125
    assert eval_scalar(poly, 0.5) == pytest.approx(1.875, abs=0)
    assert abs(eval_scalar(poly, 0.5) - 2.0) <= abs_residue_bound(0.5, 3)


@settings(deadline=None, max_examples=40)
@given(st.sampled_from([-1.0, -0.5, 0.5, 1.0]),
       st.sampled_from([0.25, 0.5, 0.75]),
       st.integers(0, 20))
def test_scalar_residue_bound_on_grid(p, delta, t):
    xs = np.linspace(-delta, delta, 1000)
    poly = MaclaurinPoly(p=p, t=t, coeffs=tuple(coeffs(p, t)),
                         delta=delta, eps=math.inf)
    approx = eval_series(poly, xs)
    exact = (1.0 - xs) ** p
    bound = abs_residue_bound(delta, t)
    assert np.max(np.abs(approx - exact)) <= bound * (1 + 1e-9)


@settings(deadline=None, max_examples=30)
@given(st.sampled_from([-1.0, -0.5, 0.5]),
       st.floats(0.1, 0.75),
       st.floats(1e-6, 0.3))
def test_multiplicative_sandwich_at_chosen_degree(p, delta, eps):
    poly = make(p, delta, eps)
    lam = np.linspace(1 - delta, 1 + delta, 500)
    vals = eval_scalar(poly, lam)
    ratio = vals / lam ** p
    assert np.all(ratio <= math.exp(eps) * (1 + 1e-12))
    assert np.all(ratio >= math.exp(-eps) * (1 - 1e-12))


# --------------------------------------------------------- operator series


def test_apply_operator_poly_counts_matvecs():
    calls = 0

    def op(v):
        nonlocal calls
        calls += 1
        return 0.5 * v

    poly = power(0.5, 0.5, 0.1)
    v = np.ones(4)
    apply_operator_poly(poly, op, (0.0, 1.0), v)
    assert calls == poly.t > 0


def test_apply_operator_poly_matches_eigen_eval():
    rng = np.random.default_rng(11)
    a = random_sddm_dense(8, rng)
    # rescale into the certified window around 1
    lam = np.linalg.eigvalsh(a)
    s = 2.0 / (lam[0] + lam[-1])
    delta = (lam[-1] - lam[0]) / (lam[-1] + lam[0])
    poly = power(0.25, delta * 1.01, 1e-3)
    v = rng.standard_normal(8)

    got = apply_operator_poly(poly, lambda u: a @ u, (0.0, s), v)

    w, q = np.linalg.eigh(s * a)
    expect = q @ (eval_scalar(poly, w) * (q.T @ v))
    assert np.allclose(got, expect, atol=1e-12)


def test_apply_operator_poly_shift_scale_composition():
    # argument operator is alpha*I + beta*X, at alpha = 1 as every chain level
    x = np.diag([0.2, 0.4])
    poly = power(0.5, 0.9, 1e-6)
    v = np.array([1.0, 1.0])
    got = apply_operator_poly(poly, lambda u: x @ u, (1.0, 0.5), v)
    arg = 1.0 * np.eye(2) + 0.5 * x
    w = np.diag(arg)
    expect = eval_scalar(poly, w) * v
    assert np.allclose(got, expect, atol=1e-13)


def test_apply_operator_poly_batch_columns():
    x = np.diag([0.1, 0.3, 0.5])
    poly = power(0.25, 0.6, 1e-4)
    vs = np.eye(3)
    out = apply_operator_poly(poly, lambda u: x @ u, (0.0, 1.0), vs)
    for j in range(3):
        col = apply_operator_poly(poly, lambda u: x @ u, (0.0, 1.0), vs[:, j])
        assert np.allclose(out[:, j], col, atol=0)


# ------------------------------------------- Chebyshev refinement surrogate


@settings(deadline=None, max_examples=80)
@given(st.floats(1e-6, 0.999), st.floats(1e-10, 0.5))
def test_inverse_sqrt_stays_within_its_certified_bound(delta, eps):
    poly = inverse_sqrt(delta, eps)
    assert poly.certificate in CERTIFICATES
    assert poly.bound <= -math.expm1(-eps)
    y = np.linspace(1.0 - delta, 1.0 + delta, 4001)
    err = np.max(np.abs(eval_scalar(poly, y) * np.sqrt(y) - 1.0))
    # a few ulps of rounding on top of the truncation bound
    assert err <= poly.bound + 1e-14


# grid_field's interval, delta near 1 and near 0, across the eps range
SWEEP_DELTAS = (1e-6, 1e-3, 0.1 / 2.1, 0.5, 0.7998, 0.99, 0.999, 1.0 - 1e-4, 1.0 - 1e-5)
SWEEP_EPS = (1e-4, 1e-3, 0.1 / 16, 0.05, 0.5)


def test_truncation_certificate_holds_on_a_dense_grid():
    for delta, eps in itertools.product(SWEEP_DELTAS, SWEEP_EPS):
        poly = inverse_sqrt(delta, eps)
        assert poly.certificate == "truncation"
        assert poly.bound <= -math.expm1(-eps)
        y = np.linspace(1.0 - delta, 1.0 + delta, 20_001)
        err = np.max(np.abs(eval_scalar(poly, y) * np.sqrt(y) - 1.0))
        assert err <= poly.bound, (eps, err, poly.bound)


def test_truncation_degree_never_exceeds_either_former_certificate():
    # the Bernstein bound at the target and the binomial series' criterion
    # were the two certificates before the truncation replaced both
    for delta, eps in itertools.product(SWEEP_DELTAS, SWEEP_EPS):
        target = -math.expm1(-eps)
        try:
            t_series = degree_for(-0.5, delta, target)
        except NoConvergenceError:
            t_series = math.inf
        assert inverse_sqrt(delta, eps).t <= min(bernstein_degree(delta, target)[0], t_series)


def test_inverse_sqrt_degree_on_grid_field_spectrum():
    # depth 0 on grid2d(32): delta 0.7998 at eps 0.1/16 per factor
    poly = inverse_sqrt(0.7998, 0.1 / 16)
    assert (poly.t, poly.certificate) == (7, "truncation")
    target = -math.expm1(-0.1 / 16)
    assert bernstein_degree(0.7998, target)[0] == 14
    assert degree_for(-0.5, 0.7998, target) == 37


def test_inverse_sqrt_truncates_a_finer_interpolant():
    # hi/lo = 1.1: degree 1, as low as the binomial series certified
    delta = 0.1 / 2.1
    poly = inverse_sqrt(delta, 0.1 / 16)
    assert poly.t == 1 == degree_for(-0.5, delta, -math.expm1(-0.1 / 16))
    n, _ = bernstein_degree(delta, -math.expm1(-0.1 / 16) / 64)
    assert n > poly.t
    assert np.array_equal(poly.coeffs, _interpolant(-0.5, delta, n)[:2])


def test_interpolant_matches_the_function_at_chebyshev_points():
    t = 40
    u = np.cos(np.pi * np.arange(t + 1) / t)
    for s, delta in itertools.product((-0.5, 0.25), (0.5, 0.99)):
        y = 1.0 + delta * u
        assert np.allclose(chebval(u, _interpolant(s, delta, t)), y ** s, rtol=1e-12, atol=0)


def test_inverse_sqrt_refuses_what_no_degree_certifies():
    with pytest.raises(NoConvergenceError):
        inverse_sqrt(1.0 - 1e-12, 1e-3)


@pytest.mark.parametrize("delta,eps", [(0.0, 0.1), (1.0, 0.1), (0.5, 0.0),
                                       (0.5, math.nan), (0.5, math.inf)])
def test_inverse_sqrt_rejects_bad_arguments(delta, eps):
    with pytest.raises(InvalidParamsError):
        inverse_sqrt(delta, eps)


# -------------------------------------------- Chebyshev surrogate of y^s

POWER_EXPONENTS = (-0.5, -0.25, 0.25, 0.5)
POWER_DELTAS = (1e-4, 1e-2, 0.1, 0.3, 0.5, 0.9, 0.99)
POWER_EPS = (1e-4, 1e-3, 0.3 / 40, 0.05, 0.5)


def test_power_certificate_holds_on_a_dense_grid():
    for s, delta, eps in itertools.product(POWER_EXPONENTS, POWER_DELTAS, POWER_EPS):
        target = -math.expm1(-eps)
        poly = power(s, delta, eps)
        assert (poly.s, poly.certificate) == (s, "truncation")
        assert poly.bound <= target
        y = np.linspace(1.0 - delta, 1.0 + delta, 20_001)
        err = np.max(np.abs(eval_scalar(poly, y) * y ** -s - 1.0))
        assert err <= poly.bound, (s, delta, eps, err, poly.bound)
        # never dearer than the binomial series at the same relative target
        assert poly.t <= degree_for(s, delta, target), (s, delta, eps)


def test_power_at_minus_one_half_is_inverse_sqrt():
    for delta, eps in itertools.product(SWEEP_DELTAS, SWEEP_EPS):
        poly, ref = power(-0.5, delta, eps), inverse_sqrt(delta, eps)
        assert poly.t == ref.t and poly.bound == ref.bound
        assert poly.coeffs.tobytes() == ref.coeffs.tobytes()


@pytest.mark.parametrize("s,delta,eps", [(-0.75, 0.5, 0.1), (0.6, 0.5, 0.1),
                                         (math.nan, 0.5, 0.1), (0.25, 1.0, 0.1),
                                         (0.25, 0.5, 0.0)])
def test_power_rejects_bad_arguments(s, delta, eps):
    with pytest.raises(InvalidParamsError):
        power(s, delta, eps)


def test_apply_operator_poly_refuses_a_binomial_series():
    with pytest.raises(InvalidParamsError):
        apply_operator_poly(make(-0.5, 0.5, 0.1), lambda u: u, (1.0, 0.5), np.ones(2))


def test_clenshaw_counts_matvecs():
    calls = 0

    def op(v):
        nonlocal calls
        calls += 1
        return 0.5 * v

    poly = inverse_sqrt(0.5, 1e-4)
    apply_operator_poly(poly, op, (0.0, 2.0), np.ones(4))
    assert calls == poly.t > 0


@pytest.mark.parametrize("eps", [1e-2, 1e-8])
def test_clenshaw_apply_matches_eigen_eval(eps):
    rng = np.random.default_rng(12)
    a = random_sddm_dense(10, rng)
    lam = np.linalg.eigvalsh(a)
    s = 2.0 / (lam[0] + lam[-1])
    delta = (lam[-1] - lam[0]) / (lam[-1] + lam[0])
    poly = inverse_sqrt(delta * 1.01, eps)
    v = rng.standard_normal((10, 3))

    got = apply_operator_poly(poly, lambda u: a @ u, (0.0, s), v)

    w, q = np.linalg.eigh(s * a)
    expect = q @ (eval_scalar(poly, w)[:, None] * (q.T @ v))
    assert np.allclose(got, expect, rtol=0, atol=1e-12)
    # and within the certificate of the exact (s A)^{-1/2}
    exact = q @ ((w ** -0.5)[:, None] * (q.T @ v))
    assert np.max(np.abs(got - exact)) <= 2.0 * poly.bound * np.max(np.abs(exact))


def test_clenshaw_shift_scale_composition():
    # the polynomial sees alpha I + beta X, here diagonal with values in range
    x = np.diag([0.2, 0.4, 1.0])
    poly = inverse_sqrt(0.6, 1e-6)
    v = np.ones(3)
    got = apply_operator_poly(poly, lambda u: x @ u, (0.6, 0.8), v)
    expect = eval_scalar(poly, 0.6 + 0.8 * np.diag(x))
    assert np.allclose(got, expect, rtol=1e-14, atol=0)


def test_sparse_polynomial_builds_its_2u_once(monkeypatch):
    # the prepared 2U is derived on the first apply and reused by the next
    builds = 0
    wrap = SparseSymMatrix._from_csr.__func__

    def counting(cls, *csr):
        nonlocal builds
        builds += 1
        return wrap(cls, *csr)

    m = grid2d(8)
    poly = inverse_sqrt(0.6, 1e-6)
    monkeypatch.setattr(SparseSymMatrix, "_from_csr", classmethod(counting))
    x = np.random.default_rng(3).standard_normal((m.n, 5))
    first = apply_operator_poly(poly, m, (0.0, 0.1), x)
    for v in (x, x[:, 0], x[:, :2]):
        apply_operator_poly(poly, m, (0.0, 0.1), v)
    assert builds == 1
    assert np.array_equal(apply_operator_poly(poly, m, (0.0, 0.1), x), first)


def test_sparse_clenshaw_matches_the_callable_path():
    # the CSR path on 2U and the product path on X sum the same series
    m = grid2d(8)
    poly = inverse_sqrt(0.6, 1e-8)
    x = np.random.default_rng(4).standard_normal((m.n, 3))
    for shift_scale in ((0.0, 0.1), (1.0, 0.05)):
        csr = apply_operator_poly(poly, m, shift_scale, x)
        ref = apply_operator_poly(poly, lambda u: m.to_scipy() @ u, shift_scale, x)
        assert np.allclose(csr, ref, rtol=1e-13, atol=1e-13)


def test_sparse_x_whose_2u_fills_stays_on_the_csr_kernel():
    # 780 of X's 1,600 entries are stored, and 2U's diagonal adds 40 more,
    # past the fill rule; Clenshaw reads 2U through matvec_add all the same
    n, rng = 40, np.random.default_rng(5)
    upper = np.zeros((n, n))
    rows, cols = np.triu_indices(n, 1)
    pick = rng.choice(rows.size, 390, replace=False)
    upper[rows[pick], cols[pick]] = rng.random(390)
    m = SparseSymMatrix.from_dense(upper + upper.T)
    assert not m.filled
    poly = inverse_sqrt(0.6, 1e-8)
    x = rng.standard_normal((n, 3))
    got = apply_operator_poly(poly, m, (0.0, 0.05), x)
    assert m._shifted[1].filled
    ref = apply_operator_poly(poly, lambda u: m.to_scipy() @ u, (0.0, 0.05), x)
    assert np.allclose(got, ref, rtol=1e-13, atol=1e-13)
