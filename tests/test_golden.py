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
        "597453fc8e48cadc2657d8d91d83726bdee809564392fb7bd8ab1219adbdd1d0",
        "a3bbfa2b62c45a7fd2d6fc24c9cc9ecbc6c039d883adb0a90f9968de73005aef",
    ),
    "lifted_sdd_mixed_24": (
        lifted_prepared,
        "21eca35b41dc804917f9b0820684d43eaea820fb8f09021d5b322d1e526a2e6f",
        "392fecbe1d0e18118a8588efbf00f21ee44ca672fb7612ab2d910cdd20047c20",
    ),
    "direct_p_half_random_regular_64": (
        direct_prepared,
        "de49333c7b03e953caf9c1391e122b3ca3e187981e9b48e32767fea31b412101",
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
    params = SparsifyParams(eps=0.5, seed=9, mode="sampled", samples_per_edge=4)
    xt, _ = sparsify_square_step(x, params)
    assert sha(write_matrix_string(xt).encode("utf-8")) == (
        "2088acc221edd147ed51ca0b3f94fb4730c4cba4002d0a50349854ad97928116")
