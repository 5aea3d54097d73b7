import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factorchain import (
    NonSymmetricError,
    SerializationError,
    SparseSymMatrix,
    grid2d,
    read_matrix,
    read_matrix_string,
    write_matrix,
    write_matrix_string,
)


def test_round_trip_exact_values(two_by_two):
    m2, comments = read_matrix_string(write_matrix_string(two_by_two))
    assert m2.n == 2
    assert np.array_equal(m2.to_dense(), two_by_two.to_dense())
    assert comments == []


def test_header_declares_symmetric(two_by_two):
    text = write_matrix_string(two_by_two)
    assert text.splitlines()[0] == "%%MatrixMarket matrix coordinate real symmetric"


def test_comments_round_trip(grid9):
    text = write_matrix_string(grid9, comments=["made by tests", "second line"])
    m2, comments = read_matrix_string(text)
    assert comments == ["made by tests", "second line"]
    assert m2.same_entries(grid9)


def test_comment_with_newline_rejected(two_by_two):
    with pytest.raises(SerializationError):
        write_matrix_string(two_by_two, comments=["bad\ncomment"])


def test_entries_are_one_based_lower_triangle(two_by_two):
    lines = [l for l in write_matrix_string(two_by_two).splitlines()
             if not l.startswith("%")]
    # size line then entries; indices start at 1 and row >= col
    assert lines[0].split() == ["2", "2", "3"]
    for line in lines[1:]:
        i, j, _ = line.split()
        assert int(i) >= int(j) >= 1


def test_values_survive_full_precision():
    v = 0.4428571661138917
    m = SparseSymMatrix.from_dense(np.array([[v]]))
    m2, _ = read_matrix_string(write_matrix_string(m))
    assert m2.to_dense()[0, 0] == v


def test_general_header_accepted_when_symmetric():
    text = "\n".join([
        "%%MatrixMarket matrix coordinate real general",
        "2 2 3",
        "1 1 2.0",
        "2 1 -1.0",
        "1 2 -1.0",
        "",
    ])
    m, _ = read_matrix_string(text)
    assert np.array_equal(m.to_dense(), np.array([[2.0, -1.0], [-1.0, 0.0]]))


def test_bad_header_rejected():
    with pytest.raises(SerializationError):
        read_matrix_string("%%MatrixMarket matrix array real general\n1 1\n2.0\n")


def test_wrong_entry_count_rejected():
    text = "%%MatrixMarket matrix coordinate real symmetric\n2 2 2\n1 1 1.0\n"
    with pytest.raises(SerializationError):
        read_matrix_string(text)


def test_size_line_beyond_entries_rejected():
    # allocation follows the entries present, not the declared count
    text = "%%MatrixMarket matrix coordinate real symmetric\n3 3 1000000000000\n1 1 2.0\n"
    with pytest.raises(SerializationError, match="found 1"):
        read_matrix_string(text)


@pytest.mark.parametrize("entry", ["1 1 abc", "1 x 1.0", "1 1", "1.5 1 2.0",
                                   "99999999999999999999 1 1.0"])
def test_bad_entry_line_names_the_line(entry):
    text = f"%%MatrixMarket matrix coordinate real symmetric\n%c\n2 2 2\n1 1 1.0\n\n{entry}\n"
    with pytest.raises(SerializationError, match=f"line 6: '{entry}'"):
        read_matrix_string(text)


def test_non_square_rejected():
    text = "%%MatrixMarket matrix coordinate real symmetric\n2 3 1\n1 1 1.0\n"
    with pytest.raises(NonSymmetricError):
        read_matrix_string(text)


def test_file_round_trip(tmp_path, grid9):
    path = tmp_path / "g.mtx"
    write_matrix(path, grid9, comments=["grid 3x3"])
    m2, comments = read_matrix(path)
    assert m2.same_entries(grid9)
    assert np.array_equal(m2.to_dense(), grid9.to_dense())
    assert comments == ["grid 3x3"]


@settings(deadline=None, max_examples=40)
@given(st.integers(1, 9), st.integers(0, 10_000))
def test_round_trip_random_matrices(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    a = (a + a.T) / 2.0
    a[np.abs(a) < 0.5] = 0.0
    m = SparseSymMatrix.from_dense(a)
    m2, _ = read_matrix_string(write_matrix_string(m))
    assert np.array_equal(m2.to_dense(), m.to_dense())
