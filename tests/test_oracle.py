import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factorchain import (
    NoConvergenceError,
    NotPositiveDefiniteError,
    TooLargeForDenseCheckError,
    dense_power,
    fact_suite,
    jacobi_eigh,
    loewner_check,
    spectral_radius,
)
from factorchain.sparse import SparseSymMatrix

from conftest import random_sddm_dense


def sym(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    return (a + a.T) / 2.0


# -------------------------------------------------------------- eigensolve


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 12), st.integers(0, 100_000))
def test_jacobi_matches_lapack(n, seed):
    a = sym(n, seed)
    w, v = jacobi_eigh(a)
    w_ref = np.linalg.eigvalsh(a)
    assert np.allclose(w, w_ref, atol=1e-10 * max(1.0, np.abs(w_ref).max()))
    # reconstruction and orthonormality
    assert np.allclose(v @ np.diag(w) @ v.T, a, atol=1e-10)
    assert np.allclose(v.T @ v, np.eye(n), atol=1e-12)


def test_jacobi_sorted_ascending():
    w, _ = jacobi_eigh(np.diag([3.0, -1.0, 2.0]))
    assert np.array_equal(w, np.sort(w))


def test_jacobi_handles_already_diagonal():
    a = np.diag([1.0, 1.0, 2.0])
    w, v = jacobi_eigh(a)
    assert np.allclose(w, [1.0, 1.0, 2.0])
    assert np.allclose(np.abs(v), np.eye(3))


def test_jacobi_converges_on_nearly_diagonal():
    # tiny off-diagonal mass on top of large diagonal values must not stall
    a = np.diag(np.linspace(1.0, 50.0, 30))
    a[0, 1] = a[1, 0] = 1e-9
    w, _ = jacobi_eigh(a)
    assert np.allclose(w, np.linalg.eigvalsh(a), atol=1e-12)


def test_jacobi_no_vectors_mode():
    a = sym(6, 1)
    w, v = jacobi_eigh(a, vectors=False)
    assert v is None
    assert np.allclose(w, np.linalg.eigvalsh(a), atol=1e-10)


def test_jacobi_max_sweeps_exhausted_raises():
    with pytest.raises(NoConvergenceError):
        jacobi_eigh(sym(12, 3), max_sweeps=1, tol=1e-15)


# ------------------------------------------------------------- dense power


def test_dense_power_identity_exponents():
    a = random_sddm_dense(6, np.random.default_rng(2))
    assert np.allclose(dense_power(a, 1.0), a, atol=1e-12)
    assert np.allclose(dense_power(a, 0.0), np.eye(6), atol=1e-12)


def test_dense_power_inverse():
    a = random_sddm_dense(7, np.random.default_rng(3))
    assert np.allclose(dense_power(a, -1.0), np.linalg.inv(a), atol=1e-9)


def test_dense_power_half_squares_back():
    a = random_sddm_dense(7, np.random.default_rng(4))
    r = dense_power(a, 0.5)
    assert np.allclose(r @ r, a, atol=1e-10)


def test_dense_power_output_symmetric():
    a = random_sddm_dense(9, np.random.default_rng(5))
    r = dense_power(a, -0.5)
    assert np.array_equal(r, r.T)


def test_dense_power_rejects_indefinite_for_fractional_p():
    a = np.diag([1.0, -1.0])
    with pytest.raises(NotPositiveDefiniteError):
        dense_power(a, 0.5)
    with pytest.raises(NotPositiveDefiniteError):
        dense_power(a, -1.0)
    # integer nonnegative powers stay defined
    assert np.allclose(dense_power(a, 1.0), a)


# ------------------------------------------------------------ loewner check


def test_loewner_identical_matrices():
    a = random_sddm_dense(6, np.random.default_rng(6))
    res = loewner_check(a, a, 1e-12)
    assert res.passed
    assert res.eps_measured <= 1e-12


def test_loewner_pure_scaling_measures_log():
    a = random_sddm_dense(5, np.random.default_rng(7))
    res = loewner_check(1.5 * a, a, np.inf)
    assert res.eps_measured == pytest.approx(np.log(1.5), abs=1e-9)


def test_loewner_fails_beyond_tolerance():
    a = np.eye(4)
    res = loewner_check(2.0 * a, a, 0.5)
    assert not res.passed
    assert res.eps_measured == pytest.approx(np.log(2.0), abs=1e-12)


def test_loewner_asymmetric_stretch_takes_worst_side():
    a = np.diag([np.exp(0.3), np.exp(-0.8)])
    res = loewner_check(a, np.eye(2), np.inf)
    assert res.eps_measured == pytest.approx(0.8, abs=1e-9)


def test_loewner_indefinite_reference_fails_cleanly():
    res = loewner_check(np.diag([1.0, -1.0]), np.eye(2), 1.0)
    assert not res.passed
    assert res.eps_measured == np.inf


# --------------------------------------------------------- spectral radius


def test_spectral_radius_small_dense_route():
    a = SparseSymMatrix.from_dense(np.diag([0.9, -0.3, 0.2]))
    assert spectral_radius(a) == pytest.approx(0.9, abs=1e-10)


def test_spectral_radius_accepts_negative_extreme():
    # dominant eigenvalue by magnitude is negative; radius is its magnitude
    a = SparseSymMatrix.from_dense(np.diag([-2.0, 1.0]))
    assert spectral_radius(a) == pytest.approx(2.0, rel=1e-6)


def test_spectral_radius_refuses_beyond_dense_limit():
    with pytest.raises(TooLargeForDenseCheckError):
        spectral_radius(SparseSymMatrix.from_dense(np.eye(513)))


# ----------------------------------------------------------- self checking


def test_fact_suite_all_pass():
    result = fact_suite(trials=20, seed=0)
    assert result["failures"] == 0
    assert result["trials"] == 20
