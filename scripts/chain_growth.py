"""Track per-level spectral decay while building factor chains.

For each test graph this prints the lambda (= 1 - rho(X_i)) sequence, the
growth ratio between consecutive levels, each level's stored entries and
fill (full nnz / n^2; the chain ends at the first level filled to at least
0.5, which it keeps as one dense factor), each level polynomial's degree
and the relative half-width delta of the interval [floor, rho] of X_i it
is fit to, and compares the realized chain length against the a priori
bound.  Useful for eyeballing whether the sparsified squares keep the
geometric decay that the exact squares have.  Each level's proven floor
and radius rho (chain.build_chain, sparse.nonneg_spectral_radius) are
printed next to its dense smallest eigenvalue and dense radius, the
largest |eigenvalue|, from numpy's eigvalsh for n <= 512, so the table
shows how loose the bounds are.

After each chain it prints what refine_by_cost stores for the same input
at the same eps (as `factor --eps` does): the depth, the level degree and
the refinement degree, and how many levels it squared before it stopped.
"""

import argparse

import numpy as np

import factorchain.chain as chain_module
from factorchain.chain import level_centre
from factorchain import (
    SparsifyParams,
    build_chain,
    chain_length_bound,
    grid2d,
    normalize,
    path_graph,
    random_sddm,
    validate_sddm,
)


def describe(name, m, eps, mode, seed):
    cert = validate_sddm(m)
    split = normalize(m, cert)
    sp = SparsifyParams(eps=1.0, seed=seed, mode=mode)
    chain = build_chain(split, -1.0, eps, sp)
    bound = chain_length_bound(split.kappa_bound, eps)
    end = "dense factor" if chain.terminal is not None else "dropped"
    print(f"\n{name}: n={m.n} kappa_hat={split.kappa_bound:.3f} "
          f"d={chain.d} bound={bound} eps_total={chain.eps_total:.4f} X_d {end}")
    print(f"  {'level':>5} {'lambda':>10} {'ratio':>8} {'nnz':>8} {'fill':>6} "
          f"{'poly_t':>6} {'delta':>8} {'floor':>10} {'dense min':>10} "
          f"{'rho':>10} {'dense rho':>10}")
    # every level X_0 .. X_d, the terminal one too, as build_chain squared it
    levels = [x for x, _, _ in
              chain_module._squarings(split, eps, sp, chain_module._rho_stop(eps))]
    prev = None
    for i, (lam, x) in enumerate(zip(chain.lambdas, levels)):
        ratio = "" if prev is None else f"{lam / prev:8.4f}"
        nnz = fill = deg = delta = floor = "-"
        if i < chain.d:
            q = chain.polys[i]
            nnz, deg, delta = chain.levels[i].full_nnz, q.t, f"{q.delta:8.5f}"
            fill = f"{nnz / m.n ** 2:6.3f}"
            # the bottom of the fitted interval of y = 1 + X_i/2, in X_i
            floor = f"{2.0 * (level_centre(q, lam) * (1.0 - q.delta) - 1.0):10.6f}"
        dense_min = dense = "-"
        if m.n <= 512:
            w = np.linalg.eigvalsh(x.to_dense())
            dense_min, dense = f"{w[0]:10.6f}", f"{max(abs(w[0]), abs(w[-1])):10.6f}"
        print(f"  {i:>5} {lam:>10.5f} {ratio:>8} {nnz:>8} {fill:>6} {deg:>6} {delta:>8} "
              f"{floor:>10} {dense_min:>10} {1.0 - lam:10.6f} {dense:>10}")
        prev = lam
    ok = all(b >= (9.0 / 8.0) * a or a > 0.5
             for a, b in zip(chain.lambdas, chain.lambdas[1:]))
    print(f"  growth >= 9/8 while lambda <= 1/2: {ok}   d <= bound: {chain.d <= bound}")

    squared = 0
    square_step = chain_module.sparsify_square_step

    def counted(*args, **kwargs):
        nonlocal squared
        squared += 1
        return square_step(*args, **kwargs)

    chain_module.sparsify_square_step = counted
    try:
        op = chain_module.refine_by_cost(m, split, eps, sp)
    finally:
        chain_module.sparsify_square_step = square_step
    level_t = op.chain.polys[0].t if op.chain.d else 0
    print(f"  refine_by_cost at eps={eps}: stores depth {op.chain.d}, level degree "
          f"{level_t}, refine degree {op.info.degree}; squared {squared} levels")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--eps", type=float, default=0.5)
    ap.add_argument("--mode", choices=["exact", "sampled"], default="exact")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    describe("path n=64", path_graph(64), args.eps, args.mode, args.seed)
    describe("grid 8x8", grid2d(8), args.eps, args.mode, args.seed)
    describe("grid 16x16", grid2d(16), args.eps, args.mode, args.seed)
    describe("random sddm n=100", random_sddm(100, seed=args.seed),
             args.eps, args.mode, args.seed)


if __name__ == "__main__":
    main()
