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


# Format note, container schema 8: the layout is that of schemas 6 and 7,
# in which every level polynomial is stored in Chebyshev form.  A chain's
# filled top levels, whose degrees sum to at least 2, are now multiplied as
# one dense matrix formed when the operator is built, which rounds
# differently from applying them one by one.  The direct chain's top two
# levels fill, so its sample bytes changed; its operator moved only by the
# header's schema digit.  Both refined cases store depth 0: their operators
# moved only by the schema digit and their sample bytes did not move.
GOLDEN = {
    "grid2d_8": (
        grid_prepared,
        "86b060f43bdca5fb4d0a9239963b5c8179deef87486952566b06fa9af9c9e777",
        "bb139db7be3186b976f1308ffb879164e74a977700b0087d077b9e3a7d7cd703",
    ),
    "lifted_sdd_mixed_24": (
        lifted_prepared,
        "7771c68b6a5c57440e3b14f9823d0567144ece0bbf2106ede30b6d5ea70127c1",
        "ec748142ecf5f22322192fd80b6593cbb1d969bc582ac0db3f5ab3867879c9a6",
    ),
    "direct_p_half_random_regular_64": (
        direct_prepared,
        "3e1b4910ce1b888e8b112a38b15569053603f78f561dc6308d0bdebc02f85a43",
        "19450243e7b6f7962f7a03c1989404b8f94efc5e784c8e87c0b4060eebbc4dcd",
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
