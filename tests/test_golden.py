"""Byte-stability of the library's outputs.

Each case pins the SHA-256 of a serialized operator and of the raw bytes
of a sample batch.  A change to the sparse arithmetic, the chain or the
colouring that moves a single bit of output fails here; an intended
output change updates the hashes together with a format note.
"""

import hashlib

import numpy as np
import pytest

from factorchain import (
    PreparedSampler,
    SparsifyParams,
    build_chain,
    chain_operator,
    grid2d,
    make_field,
    normalize,
    operator_bytes,
    prepare,
    random_regular,
    sample,
    sdd_mixed,
    sparsify_square_step,
    validate_sddm,
    write_matrix_string,
)


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def grid_prepared():
    m = grid2d(8)
    h = np.random.default_rng(3).standard_normal(m.n)
    return prepare(make_field(m, h), 0.2)


def lifted_prepared():
    lam = sdd_mixed(24, seed=5)
    h = np.random.default_rng(4).standard_normal(lam.n)
    return prepare(make_field(lam, h), 0.3)


def direct_prepared():
    m = random_regular(64, 3, seed=2)
    split = normalize(m, validate_sddm(m))
    op = chain_operator(split, build_chain(split, -0.5, 0.5))
    return PreparedSampler(field=make_field(m), operator=op,
                           mean=np.zeros(m.n), eps=op.chain.eps_total)


GOLDEN = {
    "grid2d_8": (
        grid_prepared,
        "d7df88fc5ed1360f07a4d1503f9f97fd2c3a19ded6df16c722873aec7bb6772a",
        "a3bbfa2b62c45a7fd2d6fc24c9cc9ecbc6c039d883adb0a90f9968de73005aef",
    ),
    "lifted_sdd_mixed_24": (
        lifted_prepared,
        "b6364de3c63fcd345b7e092ee439f761681d2b20b9193c2f9f9410332b599604",
        "392fecbe1d0e18118a8588efbf00f21ee44ca672fb7612ab2d910cdd20047c20",
    ),
    "direct_p_half_random_regular_64": (
        direct_prepared,
        "c6129db8cd8773c9988ef4dfa939a2bb915a67621c6c5715323c9ede8adbfe21",
        "8b0ef6eac41c8922854833a2d16994dd4dce26ca9d4a989e9501f3dadb16265d",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_operator_and_sample_bytes_are_pinned(name):
    build, op_hash, sample_hash = GOLDEN[name]
    prep = build()
    assert sha(operator_bytes(prep.operator)) == op_hash
    assert sha(sample(prep, 7, seed=11).samples.tobytes()) == sample_hash


def test_sampled_square_step_bytes_are_pinned():
    # the walk estimate and the resistance subsampling, both stages drawn
    m = grid2d(6)
    x = normalize(m, validate_sddm(m)).X
    params = SparsifyParams(eps=0.5, seed=9, mode="sampled",
                            samples_per_edge=4, merge_oversample=3.0)
    xt, _ = sparsify_square_step(x, params)
    assert sha(write_matrix_string(xt).encode("utf-8")) == (
        "8128650d111984e408cec010305fec0bb5d23af28e503ada2d53d1dbf565573d")
