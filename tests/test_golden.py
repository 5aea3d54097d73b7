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


# Format note, container schema 6: every level polynomial is stored in
# Chebyshev form, its header record {s, t, delta, eps, certificate, bound}.
# The direct chain's levels are now fit by the certified Chebyshev builder
# maclaurin.power instead of the binomial series, at lower degree, so its
# operator and sample bytes changed.  Both refined cases store depth 0, with
# no level polynomial: their operators moved only by the header's schema
# digit and their sample bytes did not move.
GOLDEN = {
    "grid2d_8": (
        grid_prepared,
        "e7fa845300a89f3e5ee01dc392a89298aeeb85d569dc9214fbf1b25fec90eda2",
        "bb139db7be3186b976f1308ffb879164e74a977700b0087d077b9e3a7d7cd703",
    ),
    "lifted_sdd_mixed_24": (
        lifted_prepared,
        "5d47cb00babb1ad75db7dce24aef646aa5ecf5d701f8f1052fad30e88bb816b6",
        "ec748142ecf5f22322192fd80b6593cbb1d969bc582ac0db3f5ab3867879c9a6",
    ),
    "direct_p_half_random_regular_64": (
        direct_prepared,
        "21dc8258aa502d4e781de53fbfb1e7531564b0f6fc12cca428acd61e7a936e7e",
        "6a4d47500bc5effe39ea0757badbdc6996ef277d6eebaaa169050a27fe8c5be8",
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
