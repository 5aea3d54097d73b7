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


# Format note, container schema 5: the refinement stores the Chebyshev
# interpolant truncated at the degree its a-posteriori bound certifies,
# under the certificate "truncation", so both refined cases changed
# operator bytes (each went from degree 12 to 6).  Sample noise now comes from one Philox keyed (seed,
# TAG_SAMPLE) with sample j at counter j instead of a key per sample, so
# every case changed sample bytes, the direct chain's too; its operator
# moved only by the header's schema digit.
GOLDEN = {
    "grid2d_8": (
        grid_prepared,
        "c9f4663a501e060b6509aa269b81342b5b0432c1515b3f4eb9c504c504f59ffe",
        "bb139db7be3186b976f1308ffb879164e74a977700b0087d077b9e3a7d7cd703",
    ),
    "lifted_sdd_mixed_24": (
        lifted_prepared,
        "6124013d1ec9f267cef4fed46b7aff3c9d0b9396e3fab06d3387265b79ee993d",
        "ec748142ecf5f22322192fd80b6593cbb1d969bc582ac0db3f5ab3867879c9a6",
    ),
    "direct_p_half_random_regular_64": (
        direct_prepared,
        "b5bc347d508002307e4f5bfb3aaf57894545428535114e451fc6530e12bbdfd6",
        "8b98d21135530d1389269b6a9989da803f60e438c46859e4e007b7c13214e61a",
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
