import json
import struct

import numpy as np
import pytest

from factorchain import (
    ChainOperator,
    FactorChain,
    EdgeOperator,
    SerializationError,
    SparsifyParams,
    build_chain,
    chain_operator,
    edge_factor,
    grid2d,
    load_operator,
    normalize,
    operator_bytes,
    operator_from_bytes,
    random_sddm,
    refine_inverse_factor,
    save_operator,
    validate_sddm,
)
from factorchain.serialize import MAGIC, SCHEMA

from conftest import empty_level_container


def make_ops():
    m = random_sddm(10, seed=1)
    split = normalize(m, validate_sddm(m))
    sp = SparsifyParams(eps=1.0, mode="exact")
    crude = chain_operator(split, build_chain(split, -1.0, 1.0, sp))
    refined = refine_inverse_factor(m, crude, 0.01)
    return m, crude, refined


def test_chain_operator_round_trip():
    _, crude, _ = make_ops()
    blob = operator_bytes(crude)
    op2, meta = operator_from_bytes(blob)
    assert meta == {}
    assert op2.kind == "chain"
    v = np.arange(10.0)
    assert np.array_equal(op2.apply(v), crude.apply(v))
    assert np.array_equal(op2.apply_transpose(v), crude.apply_transpose(v))


def test_refined_operator_round_trip():
    _, _, refined = make_ops()
    blob = operator_bytes(refined, meta={"lifted": False, "n_original": 10})
    op2, meta = operator_from_bytes(blob)
    assert op2.kind == "chain_refined"
    assert meta == {"lifted": False, "n_original": 10}
    v = np.linspace(-1, 1, 10)
    assert np.array_equal(op2.apply(v), refined.apply(v))
    assert op2.refinement == refined.refinement
    assert op2.poly.certificate == refined.poly.certificate
    assert op2.poly.bound == refined.poly.bound


def test_bytes_are_stable_across_save_load_save():
    _, _, refined = make_ops()
    blob = operator_bytes(refined, meta={"k": 3})
    op2, meta = operator_from_bytes(blob)
    assert operator_bytes(op2, meta=meta) == blob


def test_file_round_trip(tmp_path):
    _, crude, _ = make_ops()
    path = tmp_path / "op.fcop"
    save_operator(path, crude, meta={"note": "test"})
    op2, meta = load_operator(path)
    assert meta == {"note": "test"}
    v = np.ones(10)
    assert np.array_equal(op2.apply(v), crude.apply(v))


def test_edge_operator_not_serializable():
    m, _, refined = make_ops()
    eop = EdgeOperator(refined, edge_factor(m))
    with pytest.raises(SerializationError):
        operator_bytes(eop)


def test_bad_magic_rejected():
    with pytest.raises(SerializationError):
        operator_from_bytes(b"NOTANOP\n" + b"\x00" * 32)


def test_truncated_container_rejected():
    _, crude, _ = make_ops()
    blob = operator_bytes(crude)
    with pytest.raises(SerializationError):
        operator_from_bytes(blob[: len(blob) // 2])


def test_trailing_garbage_rejected():
    _, crude, _ = make_ops()
    blob = operator_bytes(crude)
    with pytest.raises(SerializationError):
        operator_from_bytes(blob + b"extra")


def test_magic_prefix_present():
    _, crude, _ = make_ops()
    assert operator_bytes(crude).startswith(MAGIC)


def blocks_of(blob):
    out, pos = [], len(MAGIC)
    while pos < len(blob):
        (length,) = struct.unpack_from("<Q", blob, pos)
        out.append(blob[pos + 8:pos + 8 + length])
        pos += 8 + length
    return out


def container(blocks):
    return MAGIC + b"".join(struct.pack("<Q", len(b)) + b for b in blocks)


def test_layout_is_header_then_raw_arrays():
    _, _, refined = make_ops()
    blocks = blocks_of(operator_bytes(refined))
    header = json.loads(blocks[0])
    assert header["schema"] == SCHEMA == 13
    chain = refined.chain
    levels = [blocks[1 + 3 * i:4 + 3 * i] for i in range(chain.d)]
    levels.append(blocks[-4:-1])  # the refinement matrix
    for (rows, cols, vals), m in zip(levels, [*chain.levels, refined.matrix]):
        r, c, v = m.upper_triangle()
        assert np.array_equal(np.frombuffer(rows, "<i4"), r)
        assert np.array_equal(np.frombuffer(cols, "<i4"), c)
        assert np.frombuffer(vals, "<f8").tobytes() == v.tobytes()
    # X_1 of this crude chain fills: the levels are followed by F, n x n
    # row-major
    assert header["terminal"] is True and chain.d == 1
    assert blocks[1 + 3 * chain.d] == chain.terminal.astype("<f8").tobytes()
    assert len(blocks) == 1 + 3 * chain.d + 1 + chain.d + 4
    # the refinement's last block holds its Chebyshev coefficients
    assert np.frombuffer(blocks[-1], "<f8").tobytes() == refined.poly.coeffs.tobytes()
    assert header["refinement"]["certificate"] == refined.poly.certificate
    # each level polynomial's block holds its Chebyshev coefficients
    for q, raw in zip(chain.polys, blocks[2 + 3 * chain.d:-4]):
        assert np.frombuffer(raw, "<f8").tobytes() == q.coeffs.tobytes()
    assert header["polys"] == [{"s": q.s, "delta": q.delta, "eps": q.eps,
                                "certificate": q.certificate, "bound": q.bound}
                               for q in chain.polys]


@pytest.mark.parametrize("edit", [
    lambda f: f[:-8],
    lambda f: f + f[:8],
    lambda f: np.where(np.arange(len(f) // 8) == 3, np.nan,
                       np.frombuffer(f, "<f8")).astype("<f8").tobytes(),
], ids=["short", "long", "non_finite"])
def test_malformed_terminal_factor_rejected(edit):
    # F is validated by its exact length, 8 n^2 bytes, and its values
    _, crude, _ = make_ops()
    blocks = blocks_of(operator_bytes(crude))
    blocks[4] = edit(blocks[4])
    with pytest.raises(SerializationError):
        operator_from_bytes(container(blocks))


def without(record, key):
    return {k: v for k, v in record.items() if k != key}


@pytest.mark.parametrize("edit", [
    lambda h: [h],
    lambda h: {**h, "n": -1},
    lambda h: {**h, "extra": 0},
    lambda h: {**h, "lambdas": ["x"]},
    lambda h: {**h, "lambdas": [0.5] * (len(h["polys"]) + 7)},
    lambda h: {**h, "polys": [{"p": 0.5}] * len(h["polys"])},
    lambda h: {**h, "polys": [{**q, "certificate": "taylor"} for q in h["polys"]]},
    lambda h: {**h, "polys": [{**q, "delta": 0.0} for q in h["polys"]]},
    lambda h: {**h, "refinement": {**h["refinement"], "degree": 2.5}},
    lambda h: {**h, "refinement": without(h["refinement"], "scale")},
    lambda h: {**h, "refinement": {**h["refinement"], "certificate": "taylor"}},
    lambda h: {**h, "refinement": without(h["refinement"], "certificate")},
    lambda h: {**h, "terminal": 1},
    lambda h: {**h, "terminal": False},
    lambda h: without(h, "terminal"),
], ids=["list", "negative_n", "extra_field",
        "lambda_string", "lambda_count", "poly_record", "poly_certificate",
        "poly_delta_zero", "degree_float", "missing_scale",
        "unknown_certificate", "missing_certificate", "terminal_int",
        "terminal_false_with_its_block", "missing_terminal"])
def test_malformed_header_rejected(edit):
    _, _, refined = make_ops()
    blocks = blocks_of(operator_bytes(refined))
    blocks[0] = json.dumps(edit(json.loads(blocks[0]))).encode("utf-8")
    with pytest.raises(SerializationError):
        operator_from_bytes(container(blocks))


@pytest.mark.parametrize("key", ["d", "eps_total", "kind", "t"])
def test_header_carrying_a_derived_value_rejected(key):
    # the header stores nothing the loader derives, not even a true copy
    _, _, refined = make_ops()
    ch = refined.chain
    blocks = blocks_of(operator_bytes(refined))
    header = json.loads(blocks[0])
    if key == "t":
        header["polys"] = [{**r, "t": q.t} for r, q in zip(header["polys"], ch.polys)]
    else:
        header[key] = {"d": ch.d, "eps_total": ch.eps_total, "kind": refined.kind}[key]
    assert ch.d >= 1
    blocks[0] = json.dumps(header).encode("utf-8")
    with pytest.raises(SerializationError, match="malformed"):
        operator_from_bytes(container(blocks))


def test_empty_level_coefficient_block_rejected():
    # a level's degree is its coefficient count less one, so an empty block
    # would be degree -1
    _, _, refined = make_ops()
    d = refined.chain.d
    blocks = blocks_of(operator_bytes(refined))
    blocks[2 + 3 * d] = b""
    with pytest.raises(SerializationError, match="t \\+ 1 coefficients"):
        operator_from_bytes(container(blocks))


def test_negative_degree_rejected():
    # degree -1 with an empty coefficient block is consistent in length
    _, _, refined = make_ops()
    blocks = blocks_of(operator_bytes(refined))
    header = json.loads(blocks[0])
    header["refinement"]["degree"] = -1
    blocks[0] = json.dumps(header).encode("utf-8")
    blocks[-1] = b""
    with pytest.raises(SerializationError):
        operator_from_bytes(container(blocks))


@pytest.mark.parametrize("schema", range(1, 13))
def test_older_schema_container_rejected(schema):
    # schemas 1 to 12 have no reader; schema 10 stored kind, d, eps_total
    # and each level's degree t, which schema 11 derives, schema 11
    # operators were normalized by Lanczos' kappa, not the proven one, and
    # schema 12 fitted a direct chain's levels on 1 +- rho/2
    _, _, refined = make_ops()
    blocks = blocks_of(operator_bytes(refined))
    blocks[0] = json.dumps({**json.loads(blocks[0]), "schema": schema}).encode("utf-8")
    with pytest.raises(SerializationError, match=f"unsupported schema {schema}$"):
        operator_from_bytes(container(blocks))


def test_container_smaller_than_its_n_rejected():
    # every stored matrix has at least n entries, so 10^7 rows cannot fit
    # in a few hundred bytes; refused before any matrix is allocated
    with pytest.raises(SerializationError, match="too large"):
        operator_from_bytes(empty_level_container(10**7, d=1))
    # a d = 0 chain stores no matrix and allocates nothing
    op, _ = operator_from_bytes(empty_level_container(10**7, d=0))
    assert op.input_dim == 10**7


def edit_level0(rows, cols, vals, case):
    if case == "unsorted":
        return rows[::-1], cols[::-1], vals[::-1]
    if case == "duplicate":
        return (np.append(rows, rows[0]), np.append(cols, cols[0]),
                np.append(vals, vals[0]))
    if case == "explicit_zero":
        return rows, cols, np.where(np.arange(vals.size) == 1, 0.0, vals)
    if case == "lower_triangle":
        return cols, rows, vals
    if case == "out_of_range":
        return rows, np.where(np.arange(cols.size) == cols.size - 1, 10, cols), vals
    if case == "non_finite":
        return rows, cols, np.where(np.arange(vals.size) == 0, np.nan, vals)
    if case == "length_mismatch":
        return rows, cols[:-1], vals
    raise AssertionError(case)


@pytest.mark.parametrize("case", ["unsorted", "duplicate", "explicit_zero",
                                  "lower_triangle", "out_of_range",
                                  "non_finite", "length_mismatch"])
def test_non_canonical_matrix_block_rejected(case):
    _, crude, _ = make_ops()
    blocks = blocks_of(operator_bytes(crude))
    arrays = (np.frombuffer(blocks[1], "<i4"), np.frombuffer(blocks[2], "<i4"),
              np.frombuffer(blocks[3], "<f8"))
    rows, cols, vals = edit_level0(*arrays, case)
    blocks[1:4] = [rows.astype("<i4").tobytes(), cols.astype("<i4").tobytes(),
                   vals.astype("<f8").tobytes()]
    with pytest.raises(SerializationError):
        operator_from_bytes(container(blocks))


@pytest.mark.parametrize("index", [1, 3, -1], ids=["rows", "vals", "coeffs"])
def test_block_not_a_whole_number_of_items_rejected(index):
    _, _, refined = make_ops()
    blocks = blocks_of(operator_bytes(refined))
    blocks[index] = blocks[index][:-1]
    with pytest.raises(SerializationError):
        operator_from_bytes(container(blocks))


def test_missing_or_extra_block_rejected():
    _, crude, _ = make_ops()
    blocks = blocks_of(operator_bytes(crude))
    with pytest.raises(SerializationError):
        operator_from_bytes(container(blocks[:-1]))
    with pytest.raises(SerializationError):
        operator_from_bytes(container(blocks + [b""]))


def test_dimension_beyond_int32_indices_refused_on_save():
    chain = FactorChain(n=2**31, levels=(), eps_schedule=(0.0,), polys=(), p=0.0,
                        kappa_used=2.0, lambdas=(1.0,), reports=())
    with pytest.raises(SerializationError):
        operator_bytes(ChainOperator(chain))
