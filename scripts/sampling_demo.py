"""Draw Gaussian field samples on a grid and validate the empirical covariance.

Builds the precision matrix of a 2d grid, prepares an inverse factor at the
requested tolerance, draws a batch of i.i.d. samples, and compares the sample
covariance against the dense inverse entry by entry (z-scores under the
Wishart standard error).  Also reports wall time and gaussians consumed.
"""

import argparse
import time

import numpy as np

from factorchain import (
    covariance_check,
    dense_power,
    grid2d,
    make_field,
    prepare,
    sample,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--side", type=int, default=4)
    ap.add_argument("--eps", type=float, default=0.1)
    ap.add_argument("--count", type=int, default=50000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    m = grid2d(args.side)
    n = m.n
    h = np.sin(np.arange(n) * 0.7)
    field = make_field(m, h)

    t0 = time.perf_counter()
    prep = prepare(field, args.eps)
    t1 = time.perf_counter()
    batch = sample(prep, args.count, args.seed)
    t2 = time.perf_counter()

    target = dense_power(m.to_dense(), -1.0)
    res = covariance_check(batch, target)
    mean_err = np.max(np.abs(batch.samples.mean(axis=0) - prep.mean))

    print(f"n={n} eps={args.eps} count={args.count} seed={args.seed}")
    print(f"prepare {t1 - t0:.2f}s  sample {t2 - t1:.2f}s  "
          f"gaussians={batch.gaussians_consumed}")
    print(f"covariance: pass_fraction={res.pass_fraction:.4f} "
          f"max|z|={res.max_abs_z:.2f} over {res.n_checked} entries")
    print(f"mean: max deviation from solve {mean_err:.4g} "
          f"(expect ~{3 * np.sqrt(np.max(np.diag(target)) / args.count):.4g})")


if __name__ == "__main__":
    main()
