"""Test-instance generators.

Each generator returns a graph Laplacian plus a positive diagonal slack,
which is the canonical way to get an SDDM matrix with a controlled
condition number.  sdd_mixed instead flips some edge signs to produce a
matrix that is strictly diagonally dominant but not SDDM, exercising the
lifting path.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidParamsError
from .rng import TAG_GEN, stream
from .sparse import SparseSymMatrix


def _laplacian_plus_slack(n, eu, ev, off, slack) -> SparseSymMatrix:
    """The matrix with entries off at the edges (eu, ev), each diagonal its
    row's sum of |off| plus slack (a scalar or one per row).  Negative off
    gives a graph Laplacian plus slack, an SDDM matrix; positive entries
    keep it SDD but not SDDM."""
    slack = np.broadcast_to(np.asarray(slack, dtype=np.float64), (n,))
    if np.any(slack <= 0.0):
        raise InvalidParamsError("slack must be positive")
    w = np.abs(off)
    diag = slack.copy()
    np.add.at(diag, eu, w)
    np.add.at(diag, ev, w)
    rows = np.concatenate([eu, np.arange(n)])
    cols = np.concatenate([ev, np.arange(n)])
    vals = np.concatenate([off, diag])
    return SparseSymMatrix.from_entries(n, rows, cols, vals)


def _ring_plus_chords(n: int, chords: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """Edges (eu < ev, sorted) of the ring on n nodes, or the one edge at n =
    2, plus up to chords random ones; a draw of a loop or of an edge already
    there adds nothing."""
    if n == 2:
        return np.array([0]), np.array([1])
    edges = {(min(i, (i + 1) % n), max(i, (i + 1) % n)) for i in range(n)}
    for _ in range(chords):
        u, v = rng.integers(0, n, size=2)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    eu, ev = np.array(sorted(edges), dtype=np.int64).T
    return eu, ev


def path_graph(n: int, slack: float = 1.0) -> SparseSymMatrix:
    """Path on n nodes, unit edge weights, slack added to every diagonal."""
    if n < 1:
        raise InvalidParamsError("n must be at least 1")
    idx = np.arange(n - 1)
    return _laplacian_plus_slack(n, idx, idx + 1, -np.ones(n - 1), slack)


def grid2d(side: int, slack: float = 1.0) -> SparseSymMatrix:
    """side x side grid with 4-neighbor unit edges; n = side**2."""
    if side < 1:
        raise InvalidParamsError("side must be at least 1")
    n = side * side
    ids = np.arange(n).reshape(side, side)
    eu = np.concatenate([ids[:, :-1].ravel(), ids[:-1, :].ravel()])
    ev = np.concatenate([ids[:, 1:].ravel(), ids[1:, :].ravel()])
    return _laplacian_plus_slack(n, eu, ev, -np.ones(eu.size), slack)


def random_regular(n: int, degree: int = 3, *, seed: int = 0,
                   slack: float = 1.0) -> SparseSymMatrix:
    """Random simple degree-regular graph via the pairing model.

    Pairings with self-loops or repeated edges are rejected and redrawn
    from the next substream; a couple hundred attempts is far more than
    enough for the sizes used here.  A repeated edge shows as equal
    neighbours among the sorted keys eu * n + ev.
    """
    if n < 2 or degree < 1 or degree >= n:
        raise InvalidParamsError("need 2 <= degree + 1 <= n")
    if (n * degree) % 2 != 0:
        raise InvalidParamsError("n * degree must be even")
    stubs = np.repeat(np.arange(n), degree)
    for attempt in range(200):
        rng = stream(seed, TAG_GEN, attempt)
        pairs = rng.permutation(stubs).reshape(-1, 2)
        eu = np.minimum(pairs[:, 0], pairs[:, 1])
        ev = np.maximum(pairs[:, 0], pairs[:, 1])
        if np.any(eu == ev):
            continue
        keys = np.sort(eu * n + ev)
        if np.any(keys[1:] == keys[:-1]):
            continue
        return _laplacian_plus_slack(n, eu, ev, -np.ones(eu.size), slack)
    raise InvalidParamsError("could not realize a simple regular graph")


def sdd_mixed(n: int, *, seed: int = 0, slack: float = 1.0,
              flip_fraction: float = 0.4) -> SparseSymMatrix:
    """SDD matrix with both signs off the diagonal (so not SDDM).

    A ring plus random chords gets random weights in [0.5, 1.5]; roughly
    flip_fraction of the edges keep a positive off-diagonal entry (at
    least one always does).  Diagonals dominate by exactly slack.
    """
    if n < 2:
        raise InvalidParamsError("n must be at least 2")
    if not 0.0 < flip_fraction <= 1.0:
        raise InvalidParamsError("flip_fraction must be in (0, 1]")
    rng = stream(seed, TAG_GEN, 0xD1)
    eu, ev = _ring_plus_chords(n, n // 2, rng)
    w = rng.uniform(0.5, 1.5, size=eu.size)
    pos = rng.random(eu.size) < flip_fraction
    if not np.any(pos):
        pos[0] = True
    return _laplacian_plus_slack(n, eu, ev, np.where(pos, w, -w), slack)


def random_sddm(n: int, *, seed: int = 0, slack: float = 1.0) -> SparseSymMatrix:
    """Random SDDM test matrix: ring plus chords, varied weights and slack."""
    if n < 2:
        raise InvalidParamsError("n must be at least 2")
    rng = stream(seed, TAG_GEN, 0xA5)
    eu, ev = _ring_plus_chords(n, int(np.ceil(0.7 * n)), rng)
    w = rng.uniform(0.5, 1.5, size=eu.size)
    return _laplacian_plus_slack(n, eu, ev, -w, slack * rng.uniform(0.5, 1.5, size=n))
