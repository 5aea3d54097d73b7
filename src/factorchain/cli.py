"""Command line front end.

Subcommands: gen (write test matrices), factor (build and serialize an
operator chain), sample (draw Gaussian field samples from a stored
chain), check (dense certification of a stored chain against its
matrix).

Flags fall back to FACTORCHAIN_* environment variables when not given
on the command line (FACTORCHAIN_EPS, FACTORCHAIN_P, FACTORCHAIN_SEED,
FACTORCHAIN_EXACT, FACTORCHAIN_GREMBAN, FACTORCHAIN_FORMAT).

sample colors noise through the sampler's own code path, so a stored
operator and the library produce the same bytes for the same seed and
potential.

Exit codes: 0 success, 1 numerical failure (a check that ran and did
not certify, divergence, loss of positive definiteness), 2 invalid
input (bad files, bad parameters, matrices outside the supported
class).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict

import numpy as np

from .chain import build_chain, chain_operator, refine_inverse_factor
from .errors import (
    ChainDivergedError,
    DimensionMismatchError,
    InvalidParamsError,
    NoConvergenceError,
    NonFiniteError,
    NonSymmetricError,
    NotPositiveDefiniteError,
    NotSddError,
    NotSddmError,
    SerializationError,
    SpectrumEstimateFailedError,
    TooLargeForDenseCheckError,
    WrongExponentError,
)
from .generators import grid2d, path_graph, random_regular, sdd_mixed
from .mmio import read_matrix, write_matrix
from .oracle import dense_power, loewner_check
from .sampler import _color, _mean_of, _potential, write_batch_bin, write_batch_csv
from .serialize import load_operator, save_operator
from .sparse import gremban_lift, gremban_project, normalize, validate_sddm
from .sparsify import SparsifyParams

DENSE_CHECK_LIMIT = 512

_INPUT_ERRORS = (
    NonSymmetricError,
    NonFiniteError,
    NotSddError,
    NotSddmError,
    DimensionMismatchError,
    WrongExponentError,
    InvalidParamsError,
    SerializationError,
    TooLargeForDenseCheckError,
    OSError,
    ValueError,
)
_NUMERIC_ERRORS = (
    ChainDivergedError,
    NotPositiveDefiniteError,
    SpectrumEstimateFailedError,
    NoConvergenceError,
)

_TRUTHY = {"1", "true", "yes", "on"}
_FALSY = {"0", "false", "no", "off"}


def _env_name(name: str) -> str:
    return "FACTORCHAIN_" + name.upper()


def _resolve(value, name, cast, default):
    """Flag if given, else FACTORCHAIN_<NAME>, else the built-in default."""
    if value is not None:
        return value
    raw = os.environ.get(_env_name(name))
    if raw is None:
        return default
    if cast is bool:
        low = raw.strip().lower()
        if low in _TRUTHY:
            return True
        if low in _FALSY:
            return False
        raise InvalidParamsError(f"{_env_name(name)} must be a boolean, got {raw!r}")
    try:
        return cast(raw)
    except ValueError as exc:
        raise InvalidParamsError(f"bad {_env_name(name)}: {raw!r}") from exc


def _resolve_format(value):
    fmt = _resolve(value, "format", str, "csv")
    if fmt not in ("csv", "bin"):
        raise InvalidParamsError(f"format must be csv or bin, got {fmt!r}")
    return fmt


def _write_report(path, payload) -> None:
    if not path:
        return
    body = {"schema_version": 1}
    body.update(payload)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(body, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _chain_summary(chain) -> dict:
    return {
        "d": chain.d,
        "p": chain.p,
        "kappa_used": chain.kappa_used,
        "eps_total": chain.eps_total,
        "eps_schedule": [float(e) for e in chain.eps_schedule],
        "lambdas": [float(l) for l in chain.lambdas],
        "level_nnz": [int(level.full_nnz) for level in chain.levels],
        "poly_degrees": [int(poly.t) for poly in chain.polys],
    }


def cmd_gen(args) -> int:
    t0 = time.perf_counter()
    seed = _resolve(args.seed, "seed", int, 0)
    if args.kind == "path":
        m = path_graph(args.size, slack=args.slack)
    elif args.kind == "grid2d":
        m = grid2d(args.size, slack=args.slack)
    elif args.kind == "random_regular":
        m = random_regular(args.size, args.degree, seed=seed, slack=args.slack)
    else:
        m = sdd_mixed(args.size, seed=seed, slack=args.slack)
    write_matrix(args.out, m, comments=(f"factorchain gen kind={args.kind} "
                                        f"size={args.size} seed={seed}",))
    print(f"wrote {args.out}: n={m.n} nnz={m.full_nnz}")
    _write_report(args.report, {
        "command": "gen",
        "config": {"kind": args.kind, "size": args.size,
                   "slack": args.slack, "degree": args.degree,
                   "seed": seed, "out": args.out},
        "n": m.n,
        "nnz": m.full_nnz,
        "seed": seed,
        "timings": {"total_s": time.perf_counter() - t0},
    })
    return 0


def cmd_factor(args) -> int:
    t0 = time.perf_counter()
    p = _resolve(args.p, "p", float, -1.0)
    eps = _resolve(args.eps, "eps", float, 0.5)
    seed = _resolve(args.seed, "seed", int, 0)
    exact = _resolve(args.exact, "exact", bool, False)
    gremban = _resolve(args.gremban, "gremban", bool, False)
    if not -1.0 <= p <= 1.0:
        raise InvalidParamsError("p must lie in [-1, 1]")
    if eps <= 0.0:
        raise InvalidParamsError("eps must be positive")

    m, _ = read_matrix(args.matrix)
    cert = validate_sddm(m)
    lifted = False
    if cert.is_sddm:
        target = m
    elif gremban:
        if p != -1.0:
            raise InvalidParamsError("--gremban is only supported with p = -1")
        target = gremban_lift(m).S
        lifted = True
    else:
        raise NotSddmError(
            "matrix is not SDDM; pass --gremban if it is SDD with both signs")

    split = normalize(target, validate_sddm(target))
    sp = SparsifyParams(eps=1.0, seed=seed, mode="exact" if exact else "auto")
    t_build = time.perf_counter()
    if p == -1.0 and not args.no_refine:
        chain = build_chain(split, -1.0, 1.0, sp)
        t_chain = time.perf_counter()
        op = refine_inverse_factor(target, chain_operator(split, chain), eps)
    else:
        chain = build_chain(split, p, eps, sp)
        t_chain = time.perf_counter()
        op = chain_operator(split, chain)
    t_done = time.perf_counter()

    meta = {"lifted": lifted, "n_original": m.n}
    save_operator(args.out, op, meta=meta)
    refinement = getattr(op, "refinement", None)
    print(f"wrote {args.out}: n={target.n} d={chain.d} "
          f"eps_total={chain.eps_total:.6g}"
          + (f" refine_degree={refinement.degree}" if refinement else ""))
    _write_report(args.report, {
        "command": "factor",
        "config": {"matrix": args.matrix, "p": p, "eps": eps, "seed": seed,
                   "exact": exact, "gremban": gremban,
                   "no_refine": bool(args.no_refine), "out": args.out},
        "lifted": lifted,
        "n": target.n,
        "n_original": m.n,
        "kappa_used": chain.kappa_used,
        "chain": _chain_summary(chain),
        "refinement": asdict(refinement) if refinement else None,
        "seed": seed,
        "timings": {
            "read_s": t_build - t0,
            "chain_s": t_chain - t_build,
            "refine_s": t_done - t_chain,
            "total_s": time.perf_counter() - t0,
        },
    })
    return 0


def _read_potential(path, n) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        return _potential([float(line) for line in fh if line.strip()], n)


def cmd_sample(args) -> int:
    t0 = time.perf_counter()
    seed = _resolve(args.seed, "seed", int, 0)
    fmt = _resolve_format(args.format)
    if args.count < 0:
        raise InvalidParamsError("count must be nonnegative")

    op, meta = load_operator(args.chain)
    if op.chain.p != -1.0:
        raise WrongExponentError(
            f"sampling needs an inverse factor (p = -1), chain has p = {op.chain.p}")
    lifted = bool(meta.get("lifted", False))
    n_out = int(meta.get("n_original", op.output_dim)) if lifted else op.output_dim

    h = _read_potential(args.h, n_out) if args.h is not None else np.zeros(n_out)
    eps_cert = op.refinement.eps if op.refinement is not None else op.chain.eps_total
    batch = _color(op, _mean_of(op, h, lifted), args.count, seed,
                   float(eps_cert), lifted)
    if fmt == "csv":
        write_batch_csv(batch, args.out)
    else:
        write_batch_bin(batch, args.out)
    print(f"wrote {args.out}: count={args.count} n={n_out} "
          f"gaussians={batch.gaussians_consumed}")
    _write_report(args.report, {
        "command": "sample",
        "config": {"chain": args.chain, "count": args.count, "seed": seed,
                   "format": fmt, "h": args.h, "out": args.out},
        "n": n_out,
        "lifted": lifted,
        "gaussians_consumed": batch.gaussians_consumed,
        "seed": seed,
        "timings": {"total_s": time.perf_counter() - t0},
    })
    return 0


def cmd_check(args) -> int:
    t0 = time.perf_counter()
    eps = _resolve(args.eps, "eps", float, 0.5)
    if eps <= 0.0:
        raise InvalidParamsError("eps must be positive")
    m, _ = read_matrix(args.matrix)
    if m.n > DENSE_CHECK_LIMIT:
        raise TooLargeForDenseCheckError(
            f"n = {m.n} exceeds the dense check limit {DENSE_CHECK_LIMIT}")
    op, meta = load_operator(args.chain)
    lifted = bool(meta.get("lifted", False))
    expect = 2 * m.n if lifted else m.n
    if op.output_dim != expect:
        raise DimensionMismatchError(
            f"operator dimension {op.output_dim} does not match matrix "
            f"({'lifted ' if lifted else ''}n = {expect})")

    dense = op.as_dense()
    w = dense @ dense.T
    if lifted:
        w = gremban_project(gremban_project(w).T)
        w = 0.5 * (w + w.T)
    p = op.chain.p
    target = dense_power(m.to_dense(), p)
    res = loewner_check(w, target, eps)
    verdict = "passed" if res.passed else "FAILED"
    print(f"check {verdict}: eps_measured={res.eps_measured:.6g} eps={eps} "
          f"p={p} n={m.n}")
    _write_report(args.report, {
        "command": "check",
        "config": {"matrix": args.matrix, "chain": args.chain, "eps": eps},
        "n": m.n,
        "p": p,
        "lifted": lifted,
        "checks": {"passed": bool(res.passed),
                   "eps_measured": float(res.eps_measured),
                   "eps": eps},
        "timings": {"total_s": time.perf_counter() - t0},
    })
    return 0 if res.passed else 1


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="factorchain",
        description="Sparse factor chains for SDDM matrix powers and "
                    "Gaussian field sampling.")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a test matrix")
    g.add_argument("--kind", required=True,
                   choices=["path", "grid2d", "random_regular", "sdd_mixed"])
    g.add_argument("--size", type=int, required=True,
                   help="node count, or side length for grid2d")
    g.add_argument("--slack", type=float, default=1.0,
                   help="diagonal slack added to every row")
    g.add_argument("--degree", type=int, default=3,
                   help="degree for random_regular")
    g.add_argument("--seed", type=int, default=None)
    g.add_argument("--out", required=True)
    g.add_argument("--report", default=None)

    f = sub.add_parser("factor", help="build a factor chain for M^p")
    f.add_argument("matrix", help="input matrix in Matrix Market format")
    f.add_argument("--p", type=float, default=None,
                   help="exponent in [-1, 1] (default -1)")
    f.add_argument("--eps", type=float, default=None,
                   help="target tolerance (default 0.5)")
    f.add_argument("--seed", type=int, default=None)
    f.add_argument("--exact", action="store_true", default=None,
                   help="square levels exactly instead of sparsifying")
    f.add_argument("--gremban", action="store_true", default=None,
                   help="lift an SDD matrix with positive off-diagonals")
    f.add_argument("--no-refine", dest="no_refine", action="store_true",
                   help="store the crude chain without inverse refinement")
    f.add_argument("--out", required=True)
    f.add_argument("--report", default=None)

    s = sub.add_parser("sample", help="draw Gaussian samples from a stored chain")
    s.add_argument("chain", help="operator file written by factor")
    s.add_argument("--count", type=int, default=1)
    s.add_argument("--seed", type=int, default=None)
    s.add_argument("--h", default=None,
                   help="potential vector file, one value per line")
    s.add_argument("--format", choices=["csv", "bin"], default=None)
    s.add_argument("--out", required=True)
    s.add_argument("--report", default=None)

    c = sub.add_parser("check", help="dense certification of a stored chain")
    c.add_argument("matrix")
    c.add_argument("chain")
    c.add_argument("--eps", type=float, default=None)
    c.add_argument("--report", default=None)

    return ap


_DISPATCH = {
    "gen": cmd_gen,
    "factor": cmd_factor,
    "sample": cmd_sample,
    "check": cmd_check,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except _NUMERIC_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
