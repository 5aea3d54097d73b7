import numpy as np
import pytest

from factorchain import (
    InvalidParamsError,
    grid2d,
    path_graph,
    random_regular,
    random_sddm,
    sdd_mixed,
    sdd_slack,
    validate_sddm,
)


def test_path_graph_structure():
    m = path_graph(4, slack=0.5)
    d = m.to_dense()
    expect = np.array([
        [1.5, -1.0, 0.0, 0.0],
        [-1.0, 2.5, -1.0, 0.0],
        [0.0, -1.0, 2.5, -1.0],
        [0.0, 0.0, -1.0, 1.5],
    ])
    assert np.allclose(d, expect, atol=0)
    assert validate_sddm(m).is_sddm


def test_grid2d_structure():
    m = grid2d(3)
    assert m.n == 9
    d = m.to_dense()
    # interior node 4 touches 4 neighbors
    assert d[4, 1] == d[4, 3] == d[4, 5] == d[4, 7] == -1.0
    assert d[4, 4] == 5.0
    # corner node 0 touches 2
    assert d[0, 0] == 3.0
    assert validate_sddm(m).is_sddm
    assert np.allclose(validate_sddm(m).row_slack, 1.0)


def test_random_regular_degrees():
    m = random_regular(20, degree=4, seed=1)
    d = m.to_dense()
    off = (d != 0.0).sum(axis=1) - 1
    assert np.all(off == 4)
    assert validate_sddm(m).is_sddm


def test_random_regular_deterministic():
    a = random_regular(16, degree=3, seed=5)
    b = random_regular(16, degree=3, seed=5)
    assert a.same_entries(b)
    c = random_regular(16, degree=3, seed=6)
    assert not a.same_entries(c)


def test_random_regular_rejects_odd_product():
    with pytest.raises(InvalidParamsError):
        random_regular(5, degree=3)


def test_random_regular_rejects_degree_too_large():
    with pytest.raises(InvalidParamsError):
        random_regular(4, degree=4)


def test_sdd_mixed_has_both_signs_and_is_sdd():
    m = sdd_mixed(20, seed=0)
    d = m.to_dense()
    off = d[~np.eye(20, dtype=bool)]
    assert np.any(off > 0.0)
    assert np.any(off < 0.0)
    assert not validate_sddm(m).is_sddm
    assert np.all(sdd_slack(m) > 0.0)


def test_random_sddm_validates():
    for seed in range(4):
        m = random_sddm(24, seed=seed)
        cert = validate_sddm(m)
        assert cert.is_sddm
        assert cert.min_slack > 0.0


def test_random_sddm_deterministic():
    a = random_sddm(24, seed=3)
    b = random_sddm(24, seed=3)
    assert a.same_entries(b)


def test_slack_parameter_scales_dominance():
    tight = random_sddm(16, seed=1, slack=0.1)
    loose = random_sddm(16, seed=1, slack=10.0)
    assert validate_sddm(loose).min_slack > validate_sddm(tight).min_slack
