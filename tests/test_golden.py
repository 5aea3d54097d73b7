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
        "481999a0a17701bd2af91cfce295f0a648b3070c3b85875a2835fab5ec99fc28",
        "a3bbfa2b62c45a7fd2d6fc24c9cc9ecbc6c039d883adb0a90f9968de73005aef",
    ),
    "lifted_sdd_mixed_24": (
        lifted_prepared,
        "7cea76fdcee1d948940f5b1c810e8eddea773aa0eb36eefff9f8107e5ade723f",
        "392fecbe1d0e18118a8588efbf00f21ee44ca672fb7612ab2d910cdd20047c20",
    ),
    "direct_p_half_random_regular_64": (
        direct_prepared,
        "121d9e9e39263ccfa21d02a43eb0352767452363d62e4e54823c59b58fad296a",
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
