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
        "03367f76a6505b83f23f53270ed002191da02455714f5a92dc81933b6677e125",
        "802b261d3b85ffab6305e3dc91ce9e63874edf924d561c2c826adb8c57c38b9d",
    ),
    "lifted_sdd_mixed_24": (
        lifted_prepared,
        "6f719f71ec3bd19508bfe6afaa2f6d3a9d434c5e9f51b4ea98f1ba052660d1e4",
        "086cb92769651e8c8c375e7fc80c13adb5d9a8d6aa9e4c621bce54072412ef7d",
    ),
    "direct_p_half_random_regular_64": (
        direct_prepared,
        "877366de8220856092e30003965a02a04e5ca4983ca17e61de70d309dfb61eac",
        "ac690d25da21f6445f69b87c97d827dc161763e97442897afd84b14e0b6f6d53",
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
        "fac28a55b8c6da14e2155b0fa0974aa132848d9102cf31706143ac41e7aa2bd6")
