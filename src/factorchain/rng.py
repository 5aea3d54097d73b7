"""Deterministic random streams.

All randomness in the package flows through Philox, a counter-based bit
generator (Salmon et al., "Parallel random numbers: as easy as 1, 2, 3",
SC'11).  Streams are keyed by integer tuples (seed, stage tag, index), so
any unit of work (a chain level's squaring, a merge attempt) owns an
independent stream and results do not depend on execution order: the
stream for work unit i is a pure function of the seed, never of which
worker ran it.

Where units are many and small, as samples are, one keyed generator
serves them all: seek_each moves it to a counter fixed by the unit's
index, so unit i's draws are still a pure function of (key, i), with no
key derived per unit.
"""

from __future__ import annotations

import numpy as np
# numpy loads numpy.random on first use: load it with the package, not on the
# first draw
import numpy.random  # noqa: F401

# Stage tags keep streams for different purposes disjoint even when the
# same user seed is passed everywhere.
TAG_MERGE = 0x4D36
TAG_SAMPLE = 0x5A3C
TAG_LEVEL = 0x1E7E
TAG_PROBE = 0xBEEF
TAG_GEN = 0x6E40

# uint64 words Philox computes per counter value; a buffer position this
# large makes the next draw compute a fresh block
_PHILOX_BUFFER = 4


def stream(*key: int) -> np.random.Generator:
    """Return a Generator on an independent Philox stream for this key."""
    seq = np.random.SeedSequence(tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(seq))


def seek_each(gen: np.random.Generator, indices):
    """Yield gen once per index, its Philox moved to counter (0, 0, 0, index).

    The buffer is emptied at each move, and Philox counts in the low word
    first, so the draws that follow read the blocks (k, 0, 0, index),
    k = 1, 2, ...: each index owns 2^64 blocks of the key, and what gen
    draws before the next move depends on the key and index alone.
    """
    bit_gen = gen.bit_generator
    state = bit_gen.state
    state["buffer_pos"] = _PHILOX_BUFFER
    state["has_uint32"] = 0
    counter = state["state"]["counter"]
    counter[:] = 0
    for index in indices:
        counter[3] = index
        bit_gen.state = state
        yield gen


def substream_seed(*key: int) -> int:
    """Derive a child integer seed from a key, for APIs that take plain seeds."""
    seq = np.random.SeedSequence(tuple(int(k) for k in key))
    return int(seq.generate_state(1, np.uint64)[0])
