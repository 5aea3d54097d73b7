"""Command line front end.

Subcommands: gen (write test matrices), factor (build and serialize an
operator chain), sample (draw Gaussian field samples from a stored
chain), check (dense certification of a stored chain against its
matrix).

sample colors noise through the sampler's own code path, so a stored
operator and the library produce the same bytes for the same seed and
potential.

Exit codes: 0 success, 1 numerical failure (a check that ran and did
not certify, or any errors.NumericalError: divergence, loss of positive
definiteness, a level whose exact square would pass
sparsify.SQUARE_BYTE_CAP), 2 invalid input (every other
FactorChainError, OSError or ValueError: bad files, bad parameters,
matrices outside the supported class).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .chain import build_chain, chain_operator, flops_per_sample, refine_by_cost
from .errors import (
    DimensionMismatchError,
    FactorChainError,
    InvalidParamsError,
    NotSddError,
    NotSddmError,
    NumericalError,
    SerializationError,
    TooLargeForDenseCheckError,
    WrongExponentError,
    check_eps,
)
from .generators import grid2d, path_graph, random_regular, sdd_mixed
from .mmio import parse_matrix_string, write_matrix
from .oracle import DENSE_CHECK_LIMIT, dense_power, loewner_check
from .sampler import (
    _block_columns,
    _color,
    _mean_of,
    _potential,
    make_field,
    write_batch_bin,
    write_batch_csv,
)
from .serialize import load_operator, save_operator
from .sparse import gremban_project, normalize, validate_sddm


def _write_report(args, payload) -> None:
    """Write payload to --report, if given, under the command and its config:
    every parsed flag but --report."""
    if not args.report:
        return
    config = {k: v for k, v in vars(args).items() if k not in ("command", "report")}
    body = {"schema_version": 1, "command": args.command, "config": config}
    body.update(payload)
    with open(args.report, "w", encoding="utf-8") as fh:
        json.dump(body, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _parse_dominant(path):
    """Parse a matrix for factor or check, refusing before the build one with
    fewer entries than rows: a strictly dominant matrix stores its diagonal."""
    parsed = parse_matrix_string(Path(path).read_text(encoding="utf-8"))
    if parsed.n > parsed.entries[2].size:
        raise NotSddError(f"n = {parsed.n} but the file lists {parsed.entries[2].size} "
                          "entries: a strictly dominant matrix stores all n diagonal ones")
    return parsed


def _lift_of(meta, op) -> tuple[bool, int]:
    """(lifted, sample width): lifted is absent or a bool, and a lifted
    operator's n_original is an int, half its output dimension."""
    lifted, n = meta.get("lifted", False), meta.get("n_original")
    fits = not lifted or (type(n) is int and 2 * n == op.output_dim)
    if not isinstance(lifted, bool) or not fits:
        raise SerializationError(
            f"container meta {meta!r} does not fit an operator of dimension {op.output_dim}")
    return lifted, n if lifted else op.output_dim


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
        # the level X_d kept as the dense factor the chain ends in, or None
        "dense_terminal_level": chain.d if chain.terminal is not None else None,
    }


def cmd_gen(args) -> int:
    t0 = time.perf_counter()
    seed = args.seed
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
    _write_report(args, {
        "n": m.n,
        "nnz": m.full_nnz,
        "timings": {"total_s": time.perf_counter() - t0},
    })
    return 0


def cmd_factor(args) -> int:
    t0 = time.perf_counter()
    p, eps = args.p, args.eps
    if not -1.0 <= p <= 1.0:
        raise InvalidParamsError("p must lie in [-1, 1]")
    if args.no_refine and p != -1.0:
        raise InvalidParamsError("--no-refine is only supported with p = -1")
    check_eps(eps)

    m = _parse_dominant(args.matrix).build()
    field = make_field(m)
    lifted = field.lifted is not None
    if lifted and not args.gremban:
        raise NotSddmError(
            "matrix is not SDDM; pass --gremban if it is SDD with both signs")
    if lifted and p != -1.0:
        raise InvalidParamsError("--gremban is only supported with p = -1")
    target = field.lifted if lifted else m

    split = normalize(target, validate_sddm(target))
    t_build = time.perf_counter()
    if p == -1.0 and not args.no_refine:
        # levels and refinement candidates interleave: all of it is refine_s
        t_chain = t_build
        op = refine_by_cost(target, split, eps)
    else:
        op = chain_operator(split, build_chain(split, p, eps))
        t_chain = time.perf_counter()
    t_done = time.perf_counter()

    meta = {"lifted": lifted, "n_original": m.n}
    save_operator(args.out, op, meta=meta)
    refinement = getattr(op, "refinement", None)
    summary = _chain_summary(op.chain)
    summary["flops_per_sample"] = flops_per_sample(op)
    if refinement:
        # the stored levels share one chosen degree, or there are none at
        # degree 0; the error is the refinement's eps, not the chain's sum
        summary["chosen_degree"] = op.chain.polys[0].t if op.chain.d else 0
        bound = f"eps={refinement.eps:.6g} refine_degree={refinement.degree}"
    else:
        bound = f"eps_total={op.chain.eps_total:.6g}"
    print(f"wrote {args.out}: n={target.n} d={op.chain.d} {bound}")
    _write_report(args, {
        "lifted": lifted,
        "n": target.n,
        "n_original": m.n,
        "kappa_used": op.chain.kappa_used,
        "chain": summary,
        "refinement": asdict(refinement) if refinement else None,
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
    if args.count < 0:
        raise InvalidParamsError("count must be nonnegative")

    op, meta = load_operator(args.chain)
    if op.chain.p != -1.0:
        raise WrongExponentError(
            f"sampling needs an inverse factor (p = -1), chain has p = {op.chain.p}")
    lifted, n_out = _lift_of(meta, op)
    _block_columns(op.input_dim, args.count, n_out)  # refuse before allocating

    h = _read_potential(args.h, n_out) if args.h is not None else np.zeros(n_out)
    # an unrefined chain certifies C C^T to 2 eps_total
    eps_cert = op.refinement.eps if op.refinement is not None else 2.0 * op.chain.eps_total
    batch = _color(op, _mean_of(op, h, lifted), args.count, args.seed,
                   float(eps_cert), lifted)
    if args.format == "csv":
        write_batch_csv(batch, args.out)
    else:
        write_batch_bin(batch, args.out)
    print(f"wrote {args.out}: count={args.count} n={n_out} "
          f"gaussians={batch.gaussians_consumed}")
    _write_report(args, {
        "n": n_out,
        "lifted": lifted,
        "gaussians_consumed": batch.gaussians_consumed,
        "timings": {"total_s": time.perf_counter() - t0},
    })
    return 0


def cmd_check(args) -> int:
    t0 = time.perf_counter()
    eps = args.eps
    check_eps(eps)
    parsed = _parse_dominant(args.matrix)
    if parsed.n > DENSE_CHECK_LIMIT:
        raise TooLargeForDenseCheckError(
            f"n = {parsed.n} exceeds the dense check limit {DENSE_CHECK_LIMIT}")
    m = parsed.build()
    op, meta = load_operator(args.chain)
    lifted, n_out = _lift_of(meta, op)
    if n_out != m.n:
        raise DimensionMismatchError(
            f"operator samples n = {n_out}, the matrix has n = {m.n}")

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
    _write_report(args, {
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

    formatter = argparse.ArgumentDefaultsHelpFormatter
    g = sub.add_parser("gen", help="generate a test matrix", formatter_class=formatter)
    g.add_argument("--kind", required=True,
                   choices=["path", "grid2d", "random_regular", "sdd_mixed"])
    g.add_argument("--size", type=int, required=True,
                   help="node count, or side length for grid2d")
    g.add_argument("--slack", type=float, default=1.0,
                   help="diagonal slack added to every row")
    g.add_argument("--degree", type=int, default=3,
                   help="degree for random_regular")
    g.add_argument("--seed", type=int, default=0, help="random seed")
    g.add_argument("--out", required=True)
    g.add_argument("--report", default=None)

    f = sub.add_parser("factor", help="build a factor chain for M^p",
                       formatter_class=formatter)
    f.add_argument("matrix", help="input matrix in Matrix Market format")
    f.add_argument("--p", type=float, default=-1.0, help="exponent in [-1, 1]")
    f.add_argument("--eps", type=float, default=0.5, help="target tolerance")
    f.add_argument("--seed", type=int, default=0,
                   help="recorded in the report; factor draws no random numbers")
    f.add_argument("--gremban", action="store_true",
                   help="lift an SDD matrix with positive off-diagonals")
    f.add_argument("--no-refine", dest="no_refine", action="store_true",
                   help="store the crude chain without inverse refinement")
    f.add_argument("--out", required=True)
    f.add_argument("--report", default=None)

    s = sub.add_parser("sample", help="draw Gaussian samples from a stored chain",
                       formatter_class=formatter)
    s.add_argument("chain", help="operator file written by factor")
    s.add_argument("--count", type=int, default=1, help="number of samples")
    s.add_argument("--seed", type=int, default=0, help="random seed")
    s.add_argument("--h", default=None,
                   help="potential vector file, one value per line")
    s.add_argument("--format", choices=["csv", "bin"], default="csv",
                   help="output encoding")
    s.add_argument("--out", required=True)
    s.add_argument("--report", default=None)

    c = sub.add_parser("check", help="dense certification of a stored chain",
                       formatter_class=formatter)
    c.add_argument("matrix")
    c.add_argument("chain")
    c.add_argument("--eps", type=float, default=0.5, help="tolerance to certify")
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
    except (FactorChainError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, NumericalError) else 2


if __name__ == "__main__":
    sys.exit(main())
