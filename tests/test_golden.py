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


# Format note, container schema 4: the refinement stores Chebyshev
# coefficients at the certified degree and records its certificate, so
# both refined cases changed operator and sample bytes.  The direct chain
# has no refinement: only its header's schema moved, its samples did not.
GOLDEN = {
    "grid2d_8": (
        grid_prepared,
        "01db941f49e217d615828f6ffbb476a295a27e0d0e259a6cc1d4f6fb8e130571",
        "c3155ade1b605ab12d200b1ab6cab87c7179d1c1644f10da68baf4871ab22085",
    ),
    "lifted_sdd_mixed_24": (
        lifted_prepared,
        "f7ffca391fb9b8c8742e27a6cbcf927d425db0d069205cea948cc7f4d2546466",
        "24e333dcf3ca12b08b5c4625939d42a71e658022413a6b2cc2725087bc582169",
    ),
    "direct_p_half_random_regular_64": (
        direct_prepared,
        "57f229fd65127ec4b77ec03c4d6ea731baf66aac08c477fc20c587def2422425",
        "3616296bbae5d14286e0c790b7cb2f040cc31430f57e1c65741ad69c343d5cff",
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
