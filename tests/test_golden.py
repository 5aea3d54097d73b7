"""Byte-stability of the library's outputs.

Each case pins the SHA-256 of a serialized operator and of the raw bytes
of a sample batch.  A change to the sparse arithmetic, the chain or the
colouring that moves a single bit of output fails here; an intended
output change updates the hashes together with a format note.

LAPACK's eigh gives other bits at two BLAS threads than at one from n =
256 on, so a chain ending in a dense factor that large is built, and
pinned, in a process held to one BLAS thread; sampling a stored
container does not depend on the thread count.
"""

import hashlib
import os
import subprocess
import sys

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


# Format note, container schema 10: a chain ends at its first filled level,
# kept as the dense factor F = (I - X_k)^{p/2} stored after the levels, and
# the header gained "terminal".  The direct chain on random_regular(64, 3)
# now stores X_0 and X_1 and F (X_2 fills) where it stored four levels, so
# both of its hashes changed.  The two refined cases store the same depth-0
# operators: their containers moved by the schema digit and the header's
# "terminal": false, and their samples kept every bit.
#
# Format note, container schema 11: the header no longer stores kind, d,
# eps_total or a level polynomial's degree t, which the loader derives from
# the refinement, the polynomial records, the schedule and the coefficient
# blocks.  Every operator hash here and the one-thread fractional pin moved
# by those header bytes alone; every block after the header and every
# sample kept every bit.
#
# Format note, container schema 12: kappa, every chain radius and the
# depth-0 refinement interval are proven row-sum (Collatz-Wielandt) bounds
# where they were Lanczos estimates.  kappa moves, and with it the scale c
# of the splitting, X_0 and every level, kappa_used and lambdas; the
# depth-0 refinements' scale s moves with their interval.  So every hash
# here moved, samples included, and so did the sampled-step pin, whose
# input X_0 = I - cM moved with c.  The direct chain keeps its shape.
#
# Format note, container schema 13: a direct chain's level polynomials
# share what eps/2 leaves after the terminal's error, and each is fitted
# on its level's proven interval [floor, rho], whose centre m the loader
# derives; schema 12 fitted 1 +- rho/2 at eps / (8 d_max).  The direct
# chain on random_regular(64, 3) keeps X_0, X_1 and F, but both levels
# now have degree 0 where they had 2, so both of its hashes changed, and
# so did the one-thread fractional pin (degrees 1/0/0 for 3/2/2).  The
# two refined cases store the same crude operators: their containers moved
# by the schema digit alone, and their samples kept every bit.
GOLDEN = {
    "grid2d_8": (
        grid_prepared,
        "bab6a977b350276ece10232380833281003252fd7551c9b7d29cc98c79c43014",
        "c8fab91304ca3a954623857409577775e9acb633e0c9ff220bb56ec5e9bcd157",
    ),
    "lifted_sdd_mixed_24": (
        lifted_prepared,
        "e231a749a9e10cd575028a8c491fadfa14682ed8e4a961fb1f96228f3f2c84f6",
        "e3cf6bdf70d412d38cff62bbc1f96ed770dc2d51f48adda4dbbed553095778c9",
    ),
    "direct_p_half_random_regular_64": (
        direct_prepared,
        "0f5ac224e75e89ebe60905d865f5eae28d2baaa74ac13e0bea90dac66ac19979",
        "bddcfedb12d657197e90d64b91058530981a890c0cdba2e92c63399946935daf",
    ),
}

@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_operator_and_sample_bytes_are_pinned(name):
    build, op_hash, sample_hash = GOLDEN[name]
    prep = build()
    assert sha(operator_bytes(prep.operator)) == op_hash
    assert sha(sample(prep, 7, seed=11).samples.tobytes()) == sample_hash


def test_sampled_square_step_bytes_are_pinned():
    # the resistance subsampling of the exact X/2 + X^2/2, drawn twice;
    # re-pinned when the walk estimate of X^2 it once sampled was removed
    m = grid2d(6)
    x = normalize(m, validate_sddm(m)).X
    params = SparsifyParams(eps=0.5, seed=9, mode="sampled")
    xt, _ = sparsify_square_step(x, params)
    assert sha(write_matrix_string(xt).encode("utf-8")) == (
        "c5e41b01493b253e4d7b428948d7d96994b6398619eb984b4bbdf47321ef166c")


# the fractional_chain benchmark's operator, random_regular(512, 3) at
# p = -1/2: three sparse levels and F = (I - X_3)^{1/4}, 512 x 512; built
# here, or loaded from the container named by the first argument
_FRACTIONAL = """
import hashlib, sys
import numpy as np
import factorchain as fc
m = fc.random_regular(512, 3)
if len(sys.argv) > 1:
    op, _ = fc.load_operator(sys.argv[1])
else:
    split = fc.normalize(m, fc.validate_sddm(m))
    op = fc.chain_operator(split, fc.build_chain(split, -0.5, 0.3))
prep = fc.PreparedSampler(field=fc.make_field(m), operator=op, mean=np.zeros(m.n),
                          eps=op.chain.eps_total)
print(hashlib.sha256(fc.operator_bytes(op)).hexdigest())
print(hashlib.sha256(fc.sample(prep, 7, seed=11).samples.tobytes()).hexdigest())
"""


def pinned_run(threads, *args):
    """stdout words of _FRACTIONAL in a fresh process held to threads BLAS threads."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path),
           **dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                            "MKL_NUM_THREADS"), str(threads))}
    proc = subprocess.run([sys.executable, "-c", _FRACTIONAL, *args], env=env,
                          check=True, capture_output=True, text=True)
    return proc.stdout.split()


def test_dense_terminal_bytes_are_pinned_at_one_thread():
    assert pinned_run(1) == [
        "839d9a043d45ba030d45158ad0975f007de6ddba99013dc739cf9499e5505cd4",
        "9316e9b592a0da98746809d9748d93a3904b175fbd807cdf713a8917108971e4",
    ]


def test_sampling_a_stored_container_does_not_depend_on_the_thread_count(tmp_path):
    # a container built at this process's thread count is read back at one
    # and at two BLAS threads: F and the levels keep their bytes, and so
    # does every sample
    m = random_regular(512, 3)
    split = normalize(m, validate_sddm(m))
    blob = operator_bytes(chain_operator(split, build_chain(split, -0.5, 0.3)))
    path = tmp_path / "frac.fcop"
    path.write_bytes(blob)
    one = pinned_run(1, str(path))
    assert one[0] == hashlib.sha256(blob).hexdigest()
    assert pinned_run(2, str(path)) == one
