"""Measure how sparsified-square size scales with n on grid graphs.

Runs one sampled squaring step (the exact square X/2 + X^2/2, thinned by
effective-resistance sampling) at a fixed tolerance on grids of increasing
size and fits the log-log slope of nnz against n.  Near-linear slope means
the sampled step stays sparse; a dense square would scale as n^2.
Optionally certifies each step against the exact average (slow, dense,
small n only).
"""

import argparse

import numpy as np

from factorchain import SparsifyParams, grid2d, normalize, sparsify_square_step, validate_sddm
from factorchain.sparsify import measure_step


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--eps", type=float, default=0.5)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--sides", type=int, nargs="+", default=[8, 16, 32])
    ap.add_argument("--certify", action="store_true",
                    help="dense-check each step (n <= 256 only)")
    args = ap.parse_args()

    ns, nnzs = [], []
    print(f"{'n':>6} {'nnz(X)':>8} {'nnz(Xt)':>8} {'measured':>10}")
    for side in args.sides:
        m = grid2d(side)
        split = normalize(m, validate_sddm(m))
        params = SparsifyParams(eps=args.eps, seed=args.seed, mode="sampled")
        xt, report = sparsify_square_step(split.X, params)
        measured = ""
        if args.certify and m.n <= 256:
            measured = f"{measure_step(split.X, xt):10.4f}"
        ns.append(m.n)
        nnzs.append(xt.full_nnz)
        print(f"{m.n:>6} {split.X.full_nnz:>8} {xt.full_nnz:>8} {measured:>10}")

    slope = np.polyfit(np.log(ns), np.log(nnzs), 1)[0]
    print(f"\nlog-log slope of nnz vs n: {slope:.3f}")


if __name__ == "__main__":
    main()
