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


# Format note, container schema 9: the layout is that of schemas 6 to 8,
# in which every level polynomial is stored in Chebyshev form.  Each
# Clenshaw degree now sets c_k v - b_2 first and adds 2U b_1 into it, with
# U = g X + h I; past the first degree a sparse matrix adds its product
# through 2U, its shift merged into the CSR.  That rounds differently from
# scaling a product of X, then adding the shift and c_k v - b_2, both for
# sparse levels and for the direct chain's folded dense product.  Every
# case applies a polynomial of degree at least 2, so all three sample
# hashes changed; no stored value did, and each operator moved only by the
# header's schema digit.
GOLDEN = {
    "grid2d_8": (
        grid_prepared,
        "69697647be6549b1a98ccc10238fe145394a873a304bef2a6846a2881f9ee03a",
        "278e7a8d3eb111eff8ee7251fa9c88411aaa76d8dca1962725acefdbcf20af45",
    ),
    "lifted_sdd_mixed_24": (
        lifted_prepared,
        "ce2834c1a6c6903de13ee48798e184e25052b2deaa8bc1fcbc615997a5719a01",
        "61b49f76cc1490e8a36e16b5066ca0a46ac7664a5028094cab4c0aac1c3e6801",
    ),
    "direct_p_half_random_regular_64": (
        direct_prepared,
        "d36914c5c16ac7094996dd2d3be4cc7dfc607786efb3dcf3dcae227115ab1d4b",
        "cd14817248e2a59fba01975aef82a827350d8b35afbe4b6c1fa62fcebb43d802",
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
        "1b99bd042b64db4f122c48399fbfb0d9a6715c63000d299c10b16b97e2a0ad3b")
