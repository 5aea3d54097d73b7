"""Binary container for factor operators, schema 3.

Layout: the magic ``FCOP1`` and a newline, then blocks, each a uint64
little-endian byte count followed by that many bytes:

- the header, JSON with sorted keys: schema, kind, n, the chain's p, d,
  kappa_used, eps_total, eps_schedule and lambdas, out_scale, one
  {p, t, delta, eps} record per level polynomial, the RefinementInfo
  fields (or null) and the caller's meta dict;
- each level X_0..X_{d-1} as three raw arrays holding its upper
  triangle as SparseSymMatrix.rows / cols / vals gives it: rows ``<i4``,
  cols ``<i4``, vals ``<f8``; every matrix has dimension n;
- each level polynomial's coefficients, ``<f8``;
- for a refined operator, its matrix as three arrays and its
  polynomial's coefficients.

Floats round-trip exactly and loading accepts only the canonical
triangle, so saving a loaded operator reproduces the input byte for byte.
Every stored matrix has a positive diagonal, hence at least 16 n bytes,
so a header n beyond the file's size is rejected before any allocation.
Every malformed input raises SerializationError.  Edge-based operators
are not serialized; they are cheap to rebuild from the matrix and the
wrapped operator.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from .chain import (
    ChainOperator,
    FactorChain,
    RefinedOperator,
    RefinementInfo,
)
from .errors import FactorChainError, SerializationError
from .maclaurin import MaclaurinPoly
from .sparse import SparseSymMatrix

MAGIC = b"FCOP1\n"
SCHEMA = 3

# indices are stored as <i4
INDEX_LIMIT = 2**31
# a matrix is three blocks: rows, cols and vals of its upper triangle
_MATRIX_DTYPES = ("<i4", "<i4", "<f8")


def _type(*kinds):
    # type(True) is bool, so JSON true/false never pass as numbers
    return lambda v: type(v) in kinds


def _list_of(check):
    return lambda v: type(v) is list and all(map(check, v))


def _object(spec: dict):
    return lambda v: (type(v) is dict and v.keys() == spec.keys()
                      and all(check(v[k]) for k, check in spec.items()))


_INT, _NUMBER = _type(int), _type(int, float)
_POLY = _object({"p": _NUMBER, "t": _INT, "delta": _NUMBER, "eps": _NUMBER})
_REFINEMENT = _object({f.name: _INT if f.name == "degree" else _NUMBER
                       for f in fields(RefinementInfo)})
# the header as operator_bytes writes it
_HEADER = _object({
    "schema": _INT, "kind": _type(str), "n": _INT, "p": _NUMBER, "d": _INT,
    "out_scale": _NUMBER, "kappa_used": _NUMBER, "eps_total": _NUMBER,
    "eps_schedule": _list_of(_NUMBER), "lambdas": _list_of(_NUMBER),
    "polys": _list_of(_POLY), "refinement": lambda v: v is None or _REFINEMENT(v),
    "meta": _type(dict),
})


def _matrix_blocks(m: SparseSymMatrix) -> list[bytes]:
    return [a.astype(t).tobytes()
            for a, t in zip((m.rows, m.cols, m.vals), _MATRIX_DTYPES)]


def operator_bytes(op, meta: dict | None = None) -> bytes:
    if isinstance(op, RefinedOperator):
        base, refined = op.base, op
    elif isinstance(op, ChainOperator):
        base, refined = op, None
    else:
        raise SerializationError(f"cannot serialize operator kind {op.kind!r}")
    ch = base.chain
    if ch.n >= INDEX_LIMIT:
        raise SerializationError(f"n = {ch.n} does not fit <i4 indices")
    header = {
        "schema": SCHEMA,
        "kind": op.kind,
        "n": ch.n,
        "p": ch.p,
        "d": ch.d,
        "out_scale": base.out_scale,
        "kappa_used": ch.kappa_used,
        "eps_total": ch.eps_total,
        "eps_schedule": list(ch.eps_schedule),
        "lambdas": list(ch.lambdas),
        "polys": [{"p": q.p, "t": q.t, "delta": q.delta, "eps": q.eps}
                  for q in ch.polys],
        "refinement": None,
        "meta": meta or {},
    }
    blocks: list[bytes] = []
    for level in ch.levels:
        blocks += _matrix_blocks(level)
    for q in ch.polys:
        blocks.append(np.asarray(q.coeffs, dtype="<f8").tobytes())
    if refined is not None:
        header["refinement"] = asdict(refined.info)
        blocks += _matrix_blocks(refined.matrix)
        blocks.append(np.asarray(refined.poly.coeffs, dtype="<f8").tobytes())
    blocks.insert(0, json.dumps(header, sort_keys=True).encode("utf-8"))
    return MAGIC + b"".join(struct.pack("<Q", len(b)) + b for b in blocks)


def _split(buf: bytes) -> list[bytes]:
    if not buf.startswith(MAGIC):
        raise SerializationError("not a factor-operator container")
    blocks, pos = [], len(MAGIC)
    while not blocks or pos < len(buf):
        if pos + 8 > len(buf):
            raise SerializationError("truncated container: missing block length")
        (length,) = struct.unpack_from("<Q", buf, pos)
        pos += 8 + length
        if pos > len(buf):
            raise SerializationError("truncated container: block shorter than declared")
        blocks.append(buf[pos - length:pos])
    return blocks


def _read_header(head: bytes) -> dict:
    try:
        header = json.loads(head.decode("utf-8"))
    except ValueError as exc:
        raise SerializationError("malformed container header") from exc
    if type(header) is not dict:
        raise SerializationError("malformed container header: not a JSON object")
    if header.get("schema") != SCHEMA:
        raise SerializationError(f"unsupported schema {header.get('schema')!r}")
    if not (_HEADER(header) and 0 <= header["n"] < INDEX_LIMIT and header["d"] >= 0):
        raise SerializationError(f"malformed container header for schema {SCHEMA}")
    return header


def _array(raw: bytes, dtype: str) -> np.ndarray:
    if len(raw) % np.dtype(dtype).itemsize:
        raise SerializationError(f"{dtype} block of {len(raw)} bytes")
    return np.frombuffer(raw, dtype=dtype)


def _matrix(n: int, blocks) -> SparseSymMatrix:
    stored = [_array(next(blocks), t) for t in _MATRIX_DTYPES]
    m = SparseSymMatrix(n, *stored)
    # the constructor sorts, sums duplicates and drops zeros, so only the
    # canonical triangle comes back unchanged
    if not all(map(np.array_equal, (m.rows, m.cols, m.vals), stored)):
        raise SerializationError("matrix arrays are not a sorted upper "
                                 "triangle without duplicates or zeros")
    return m


def _poly(ph: dict, blocks) -> MaclaurinPoly:
    return MaclaurinPoly(p=ph["p"], t=ph["t"], coeffs=_array(next(blocks), "<f8"),
                         delta=ph["delta"], eps=ph["eps"])


def operator_from_bytes(buf: bytes):
    blocks = _split(buf)
    header = _read_header(blocks[0])
    n, d, rh = header["n"], header["d"], header["refinement"]
    expect = 1 + 3 * d + len(header["polys"]) + (0 if rh is None else 4)
    if len(blocks) != expect:
        raise SerializationError(
            f"container holds {len(blocks)} blocks, its header implies {expect}")
    if n * (d + (rh is not None)) > len(buf):
        raise SerializationError(f"n = {n} is too large for a {len(buf)}-byte container")
    it = iter(blocks[1:])
    try:
        chain = FactorChain(
            n=n,
            levels=tuple(_matrix(n, it) for _ in range(d)),
            eps_schedule=tuple(header["eps_schedule"]),
            polys=tuple(_poly(ph, it) for ph in header["polys"]),
            p=header["p"],
            d=d,
            kappa_used=header["kappa_used"],
            eps_total=header["eps_total"],
            lambdas=tuple(header["lambdas"]),
            reports=(),
        )
        op = ChainOperator(chain, out_scale=header["out_scale"])
        if rh is not None:
            info = RefinementInfo(**rh)
            matrix = _matrix(n, it)
            poly = _poly({"p": -0.5, "t": info.degree, "delta": info.delta,
                          "eps": info.eps / 2.0}, it)
            op = RefinedOperator(op, matrix, poly, info.scale, info)
    except SerializationError:
        raise
    except FactorChainError as exc:
        raise SerializationError(f"inconsistent container: {exc}") from exc
    return op, header["meta"]


def save_operator(path, op, meta: dict | None = None) -> None:
    Path(path).write_bytes(operator_bytes(op, meta))


def load_operator(path):
    """Returns (operator, meta dict)."""
    return operator_from_bytes(Path(path).read_bytes())
