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


# Format note, container schema 7: the layout is schema 6's, in which every
# level polynomial is stored in Chebyshev form.  Filled matrices (at least
# half of n^2 entries) now multiply through BLAS on a dense array, padded to
# 8 columns per gemm, and square densely with a mirrored upper triangle.
# The direct chain's top levels fill, so its radii, polynomials, operator
# and sample bytes changed.  Both refined cases store depth 0, with no
# level polynomial: their operators moved only by the header's schema digit
# and their sample bytes did not move.
GOLDEN = {
    "grid2d_8": (
        grid_prepared,
        "e209f88dd309add3eb482ca63dc4642abf8a65ded00c12680e6db0af1bfccc0a",
        "bb139db7be3186b976f1308ffb879164e74a977700b0087d077b9e3a7d7cd703",
    ),
    "lifted_sdd_mixed_24": (
        lifted_prepared,
        "58437ede2da07826a7eabb09311a41ecd92970a9ac787a2cdfd003449a9d894b",
        "ec748142ecf5f22322192fd80b6593cbb1d969bc582ac0db3f5ab3867879c9a6",
    ),
    "direct_p_half_random_regular_64": (
        direct_prepared,
        "d3d0db02d22fcc7619259c48aa3e336554bed4b759c1ebf32cdde904edeab51b",
        "fccd0668e53dc017aa073c520dc69ed00884273db4c1ca92b4906a8f5364d244",
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
