import hashlib
import os
import subprocess
import sys

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
    write_matrix_string,
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


# SHA-256 of write_matrix_string for each family over several sizes and
# seeds, pinned when each generator built its own Laplacian and ring
GENERATOR_CASES = {
    "path_1": lambda: path_graph(1),
    "path_2": lambda: path_graph(2),
    "path_7_slack0.5": lambda: path_graph(7, slack=0.5),
    "grid_1": lambda: grid2d(1),
    "grid_2": lambda: grid2d(2),
    "grid_5_slack1e-3": lambda: grid2d(5, slack=1e-3),
    "regular_2_1": lambda: random_regular(2, 1),
    "regular_16_3_seed5": lambda: random_regular(16, 3, seed=5),
    "regular_20_4_seed1_slack0.25": lambda: random_regular(20, 4, seed=1, slack=0.25),
    "regular_512_3_seed1": lambda: random_regular(512, 3, seed=1),
    # drawn at attempts 111 and 30: the earlier pairings were rejected
    "regular_8_4_seed2": lambda: random_regular(8, 4, seed=2),
    "regular_6_3_seed1": lambda: random_regular(6, 3, seed=1),
    "mixed_2": lambda: sdd_mixed(2),
    "mixed_2_flip1": lambda: sdd_mixed(2, seed=3, flip_fraction=1.0),
    "mixed_3_seed1": lambda: sdd_mixed(3, seed=1),
    "mixed_24_seed5": lambda: sdd_mixed(24, seed=5),
    "mixed_40_seed3_flip1": lambda: sdd_mixed(40, seed=3, flip_fraction=1.0),
    "mixed_16_seed2_slack0.1_flip0.05": lambda: sdd_mixed(16, seed=2, slack=0.1,
                                                          flip_fraction=0.05),
    "mixed_128_seed0": lambda: sdd_mixed(128),
    "sddm_2": lambda: random_sddm(2),
    "sddm_3_seed1": lambda: random_sddm(3, seed=1),
    "sddm_24_seed3": lambda: random_sddm(24, seed=3),
    "sddm_16_seed1_slack0.1": lambda: random_sddm(16, seed=1, slack=0.1),
    "sddm_100_seed7_slack10": lambda: random_sddm(100, seed=7, slack=10.0),
}

GENERATOR_HASHES = {
    "path_1": "7298dc582693ef16f41c53cb1fb240dc9ba7a5446dad84f8ce93e02fed2e010c",
    "path_2": "1dd64ae033122f41e7a191d09a0277c08b0b0841c4a48c43d581d32cb556045b",
    "path_7_slack0.5": "855b78840d740acbfc84712dea40ee0abf11711f51c98ff14d02bb564d202afd",
    "grid_1": "7298dc582693ef16f41c53cb1fb240dc9ba7a5446dad84f8ce93e02fed2e010c",
    "grid_2": "d90699161b6d9bdc267bcbe0b5bdbaaac3334fdec1d627bae9e188eba910b4a0",
    "grid_5_slack1e-3": "2e5a2420482f13dc2357691630ccf3e05ad1ff7f1a5a5b2edd1dbca3c2b6fdf9",
    "regular_2_1": "1dd64ae033122f41e7a191d09a0277c08b0b0841c4a48c43d581d32cb556045b",
    "regular_16_3_seed5": "401a7dd09d41a79b2e4fbec37685aee7de8e23d023e8d0b313580a3860921348",
    "regular_20_4_seed1_slack0.25": "0a87532a409791600ba7996045c436e65dbbd25c029ef68156803124533279ac",
    "regular_512_3_seed1": "cee594be2d64594f4709bedb29d2b856a028251b9a49aab58e7c44f62f6ced3d",
    "mixed_2": "6ff50760ffb342f9f442cd8645bfbc283d54a01d1195c9e6a282f989fa81ecca",
    "mixed_2_flip1": "dc5304463d6bc530ae0ec6c4b947e2c194cf7a1480d546d555565299381a26f0",
    "mixed_3_seed1": "8b98f1726fc7295e3884e60e415eb1adb68236fb962d988f707996584c9255ec",
    "mixed_24_seed5": "e71029f4a2de8e91826002fa5c1ae40b14cfb276a1b561b2afb200094e9dea8e",
    "mixed_40_seed3_flip1": "d2e1219ed2d4bd11500d5c63d5a9e70c10321d28b5ba849d7f4a82a33b968cd3",
    "mixed_16_seed2_slack0.1_flip0.05": "90582ad5ad899a4c89ff74c5d444d455f8d596ea4a9611adb752bcb315b474a0",
    "mixed_128_seed0": "8b59971fa5f63258b51f6cb748cbd85eab2e53ab082c9ad65847394e2579a328",
    "sddm_2": "80891f0681e318dc86b26299b6f138622f13ac8410d0c429852b780df218e9c6",
    "sddm_3_seed1": "1fbe2b52bca2fa13f79c699ab5d45c033cc3682437f369f9a20373bd3c7d14b4",
    "sddm_24_seed3": "c25e3a031f9f82bceca1f31b4fa6a35acb62c4021e5f3115f4af6342714e2bc3",
    "sddm_16_seed1_slack0.1": "1c1999c87f3b5246cb1b4729e222137a95bb59e0fdef7e9ddffab4ac26fc2a53",
    "sddm_100_seed7_slack10": "bdca9a624d0058051e6ff362aefc08e61524b7edefb7013044efe862323c8b89",
    "regular_8_4_seed2": "1ec1c6eb633d1316c2053d9ae05eae2f6409b6fcaccdd70abef76fdf44eda50f",
    "regular_6_3_seed1": "c43b0facd50109c40224f57efefc3f23781a212642c457ac6cf6f4599b6320c5",
}


@pytest.mark.parametrize("case", sorted(GENERATOR_CASES))
def test_generator_bytes_are_pinned(case):
    text = write_matrix_string(GENERATOR_CASES[case]())
    assert hashlib.sha256(text.encode()).hexdigest() == GENERATOR_HASHES[case]


@pytest.mark.parametrize("n, degree, seed", [(10, 6, 0), (12, 5, 4)])
def test_random_regular_gives_up_where_every_pairing_repeats(n, degree, seed):
    with pytest.raises(InvalidParamsError, match="could not realize"):
        random_regular(n, degree, seed=seed)


@pytest.mark.parametrize("make", [
    lambda: path_graph(3, slack=0.0),
    lambda: grid2d(2, slack=-1.0),
    lambda: random_regular(8, 3, slack=0.0),
    lambda: sdd_mixed(8, slack=-0.5),
    lambda: random_sddm(8, slack=0.0),
], ids=["path", "grid2d", "random_regular", "sdd_mixed", "random_sddm"])
def test_every_generator_refuses_nonpositive_slack(make):
    with pytest.raises(InvalidParamsError, match="slack must be positive"):
        make()


def test_random_regular_loads_no_masked_arrays():
    # a repeated edge is found among sorted keys, not by np.unique(axis=0),
    # which loads numpy.ma on its first call
    code = ("import sys\n"
            "from factorchain import random_regular\n"
            "random_regular(64, 3, seed=1)\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m == 'numpy.ma' or m.startswith('numpy.ma.')))\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
