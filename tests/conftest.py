import json
import struct

import numpy as np
import pytest

from factorchain import SparseSymMatrix, grid2d, path_graph
from factorchain.serialize import MAGIC, SCHEMA

# verdict lines appended by the acceptance tests; echoed once at the end of
# the run so they are visible without -s
acceptance_lines = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)


@pytest.fixture
def two_by_two():
    # smallest nontrivial SDDM matrix: path on 2 nodes with unit slack
    return SparseSymMatrix.from_dense(np.array([[2.0, -1.0], [-1.0, 2.0]]))


@pytest.fixture
def grid9():
    return grid2d(3)


@pytest.fixture
def path8():
    return path_graph(8)


def random_sddm_dense(n, rng, density=0.5, slack=0.5):
    """Dense SDDM matrix with random nonpositive off-diagonals."""
    a = -rng.random((n, n)) * (rng.random((n, n)) < density)
    a = np.tril(a, -1)
    a = a + a.T
    np.fill_diagonal(a, 0.0)
    d = -a.sum(axis=1) + slack * (0.5 + rng.random(n))
    return a + np.diag(d)


def empty_level_container(n, d):
    """An inverse-factor chain container claiming n rows, with d empty levels."""
    header = {
        "schema": SCHEMA, "n": n, "p": -1.0, "out_scale": 1.0, "kappa_used": 2.0,
        "eps_schedule": [0.1] * d + [0.5 - 0.1 * d], "lambdas": [0.5] * (d + 1),
        "polys": [{"s": 0.5, "delta": 0.5, "eps": 0.1,
                   "certificate": "series", "bound": 0.1}] * d,
        "terminal": False, "refinement": None, "meta": {},
    }
    blocks = ([json.dumps(header).encode("utf-8")] + [b""] * (3 * d)
              + [np.ones(1).tobytes()] * d)
    return MAGIC + b"".join(struct.pack("<Q", len(b)) + b for b in blocks)
