"""factorchain benchmark: factor set-up and Gaussian field sampling.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see README.md for why each was chosen):

    grid_field        make_field + prepare(eps=0.1) + sample on grid2d(32)
                      with a seeded nonzero potential (p = -1, refined)
    fractional_chain  direct chain for p = -1/2 on random_regular(512, 3),
                      no refinement, colouring batches of normals
    lifted_cli        sdd_mixed(128) through `factorchain factor --gremban`
                      and `factorchain sample --format bin` processes

A run times one cold set-up, then repeats whole rounds of (one single
draw, one batch) until S seconds have passed, then serializes the factor,
reads peak RSS and only then runs the correctness checks in checks.py.
The last line of stdout is one JSON object with correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1.  A traced run alternates traced and untraced
rounds, so the tracing overhead is measured in the same process.  If the
set-up fails, the line still comes, with correct false, the tally and no
metrics, and nothing else runs.
"""

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path
from statistics import median

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RUNS_DIR = BENCH_DIR / "runs"

# One BLAS/OpenMP thread everywhere: on a shared 2-CPU machine, threaded
# BLAS in the dense reference checks and the program's few dense ops only
# adds contention noise.  Set before numpy loads, and passed to children.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}

WORKLOADS = ("grid_field", "fractional_chain", "lifted_cli")

GRID_SIDE, GRID_EPS, GRID_BATCH = 32, 0.1, 64
FRAC_N, FRAC_DEGREE, FRAC_P, FRAC_EPS, FRAC_BATCH = 512, 3, -0.5, 0.3, 128
LIFT_N, LIFT_EPS, LIFT_BATCH = 128, 0.1, 400
# The lifted matrix is one fixed sdd_mixed instance: its random chords set
# the chain's depth and fill-in, and so the container size and sampling
# speed, which spread by a third across generator seeds.  --seed drives
# the potential and the noise.
LIFT_MATRIX_SEED = 0

CLI_TIMEOUT_S = 150

END_TO_END = {
    "setup_s": "s", "samples_per_s": "1/s", "first_sample_s": "s",
    "container_bytes": "B", "peak_rss_mb": "MB",
}

# per-layer metric -> unit; see README.md for what each should move
PER_LAYER = {
    "sparse.validate_s": "s", "sparse.normalize_s": "s", "sparse.matvec_s": "s",
    "sparse.matvec_cols_setup": "count", "sparse.matvec_cols_per_sample": "count",
    "sparsify.step_s": "s", "sparsify.nnz_out": "count",
    "chain.build_s": "s", "chain.radius_s": "s", "chain.levels": "count",
    "chain.level_nnz": "count", "chain.poly_degree_sum": "count",
    "chain.refine_s": "s", "chain.refine_power_steps": "count",
    "chain.refine_degree": "count", "chain.solve_s": "s",
    "maclaurin.horner_self_s": "s", "sampler.prepare_s": "s",
    "sampler.color_s": "s", "rng.stream_s": "s", "rng.normals_per_sample": "count",
    "serialize.save_s": "s", "serialize.load_s": "s", "cli.startup_s": "s",
    "cli.factor_read_s": "s", "cli.factor_chain_s": "s", "cli.factor_refine_s": "s",
    "trace.overhead_s": "s",
}


class Run:
    """Operation tally and timings of one benchmark run."""

    def __init__(self, args):
        self.args = args
        self.attempted = 0
        self.failed = 0
        self.rounds: list[dict] = []

    def op(self, fn, *fargs):
        """Run one operation; a raise counts as failed and returns None."""
        self.attempted += 1
        try:
            return fn(*fargs)
        except Exception:  # noqa: BLE001  (the run reports and goes on)
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None

    def more_rounds(self, loop_start: float) -> bool:
        # at least two rounds; a traced run alternates traced and untraced
        # rounds, so it stops only after whole pairs
        r = len(self.rounds)
        if r < 2 or (self.args.trace and r % 2):
            return True
        return time.perf_counter() - loop_start < self.args.seconds


def _timed(fn, *fargs):
    t = time.perf_counter()
    out = fn(*fargs)
    return out, time.perf_counter() - t


def _median_of(rounds, key, traced=None):
    """Median of a round field, over traced or untraced rounds or all."""
    vals = [r[key] for r in rounds
            if r.get(key) is not None and (traced is None or r["traced"] == traced)]
    return median(vals) if vals else None


def _check_inputs_exist() -> None:
    if not (SRC / "factorchain" / "__init__.py").is_file():
        print(f"error: program sources not found under {SRC}", file=sys.stderr)
        sys.exit(2)


# -- library workloads ---------------------------------------------------------


def _grid_inputs(fc, np, seed):
    m = fc.grid2d(GRID_SIDE)
    h = np.random.default_rng([seed, 1]).standard_normal(m.n)
    return m, h


def _frac_inputs(fc, np, seed):
    return fc.random_regular(FRAC_N, FRAC_DEGREE, seed=seed), None


def _grid_setup(fc, np, m, h):
    return fc.prepare(fc.make_field(m, h), GRID_EPS)


def _frac_setup(fc, np, m, h):
    split = fc.normalize(m, fc.validate_sddm(m))
    chain = fc.build_chain(split, FRAC_P, FRAC_EPS)
    op = fc.chain_operator(split, chain)
    # the sampler's colouring path, fed a p = -1/2 factor and no mean
    return fc.PreparedSampler(field=fc.make_field(m), operator=op,
                              mean=np.zeros(m.n), eps=2.0 * chain.eps_total)


def run_library(args, run: Run, tracer) -> dict | None:
    import numpy as np

    import factorchain as fc
    import checks

    grid = args.workload == "grid_field"
    m, h = (_grid_inputs if grid else _frac_inputs)(fc, np, args.seed)
    batch_n = GRID_BATCH if grid else FRAC_BATCH
    sample_seed = args.seed

    if tracer:
        tracer.install()
    prep, setup_t = _timed(run.op, _grid_setup if grid else _frac_setup, fc, np, m, h)
    if tracer:
        tracer.uninstall()
    if prep is None:
        return None

    first_batch = last_batch = first_row = None
    loop_start = time.perf_counter()
    while run.more_rounds(loop_start):
        r = len(run.rounds)
        traced = bool(tracer) and r % 2 == 0
        if traced:
            tracer.install()
            tracer.set_phase("first", r)
        one, first_s = _timed(run.op, fc.sample, prep, 1, sample_seed)
        if traced:
            tracer.set_phase("batch", r)
        batch, batch_s = _timed(run.op, fc.sample, prep, batch_n, sample_seed)
        if traced:
            tracer.uninstall()
        run.rounds.append({
            "traced": traced,
            "first_s": first_s if one is not None else None,
            "batch_s": batch_s if batch is not None else None,
        })
        if one is not None and first_row is None:
            first_row = one.samples
        if batch is not None:
            first_batch = batch.samples if first_batch is None else first_batch
            last_batch = batch.samples

    if tracer:
        tracer.install()
        tracer.set_phase("container")
    blob = run.op(fc.operator_bytes, prep.operator)
    loaded = run.op(fc.operator_from_bytes, blob) if blob is not None else None
    if tracer:
        tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # -- checks: dense references are built only after peak RSS was read
    op = prep.operator
    ref = checks.DenseReference(m.to_dense())
    probes = ref.probes(np.random.default_rng([args.seed, 2]))
    if grid:
        p, tol, mu = -1.0, GRID_EPS, np.linalg.solve(ref.m, h)
        precision = ref.m
    else:
        p, tol, mu = FRAC_P, 2.0 * op.chain.eps_total, np.zeros(m.n)
        precision = ref.power(-FRAC_P)
    results = [checks.factor_check(op.apply_transpose, ref, p, tol, probes)]
    if grid:
        results.append(checks.mean_check(prep.mean, ref, h, GRID_EPS))
    if last_batch is not None:
        results += [
            checks.batch_mean_check(last_batch, mu, precision, tol),
            checks.whitened_check(last_batch, mu, precision, tol),
            checks.same_check("repeat", first_batch, last_batch),
        ]
    if first_row is not None and last_batch is not None:
        results.append(checks.prefix_check(first_row, last_batch))
    if loaded is not None:
        op2, _ = loaded
        results.append(checks.same_check(
            "round_trip", op.apply_transpose(probes), op2.apply_transpose(probes)))
    missing = last_batch is None or first_row is None or loaded is None

    return {
        "checks": results, "complete": not missing,
        "setup_s": setup_t,
        "samples_per_s": batch_n / _median_of(run.rounds, "batch_s")
        if last_batch is not None else None,
        "first_sample_s": _median_of(run.rounds, "first_s"),
        "container_bytes": len(blob) if blob is not None else None,
        "peak_rss_mb": peak_rss_mb,
        "batch_n": batch_n,
        "cli_report": None,
    }


# -- CLI workload -----------------------------------------------------------------


def _child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def _cli(work: Path, cli_args, *, traced, phase, round_index):
    """One CLI process; returns (wall seconds, start-up seconds or None)."""
    if traced:
        spans_path = work / f"spans-{phase}-{round_index}.json"
        cmd = [sys.executable, str(BENCH_DIR / "cli_shim.py"), str(spans_path),
               phase, "-" if round_index is None else str(round_index), "--"]
    else:
        spans_path = None
        cmd = [sys.executable, "-m", "factorchain.cli"]
    launched = time.time()
    t = time.perf_counter()
    proc = subprocess.run(cmd + [str(a) for a in cli_args], env=_child_env(),
                          cwd=str(work), capture_output=True, text=True,
                          timeout=CLI_TIMEOUT_S)
    wall = time.perf_counter() - t
    if proc.returncode != 0:
        raise RuntimeError(f"{cli_args[0]} exited {proc.returncode}: {proc.stderr.strip()}")
    startup = None
    if spans_path is not None:
        with open(spans_path, encoding="utf-8") as fh:
            startup = json.load(fh)["main_entry_epoch"] - launched
    return wall, startup


def run_cli(args, run: Run, tracer) -> dict | None:
    import numpy as np

    import factorchain as fc
    import checks

    work = RUNS_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    lam = fc.sdd_mixed(LIFT_N, seed=LIFT_MATRIX_SEED)
    h = np.random.default_rng([args.seed, 1]).standard_normal(LIFT_N)
    fc.write_matrix(work / "m.mtx", lam)
    with open(work / "h.txt", "w", encoding="utf-8") as fh:
        fh.write("".join(f"{float(v)!r}\n" for v in h))
    sample_seed = args.seed
    traced_run = tracer is not None

    factor_args = ["factor", "m.mtx", "--gremban", "--eps", LIFT_EPS,
                   "--seed", args.seed, "--out", "op.fcop", "--report", "factor.json"]
    setup = run.op(lambda: _cli(work, factor_args, traced=traced_run,
                                phase="setup", round_index=None))
    if setup is None:
        shutil.rmtree(work)
        return None

    def sample_args(count, out):
        return ["sample", "op.fcop", "--count", count, "--seed", sample_seed,
                "--h", "h.txt", "--format", "bin", "--out", out]

    loop_start = time.perf_counter()
    while run.more_rounds(loop_start):
        r = len(run.rounds)
        traced = traced_run and r % 2 == 0
        first = run.op(lambda: _cli(work, sample_args(1, "first.bin"),
                                    traced=traced, phase="first", round_index=r))
        batch = run.op(lambda: _cli(work, sample_args(LIFT_BATCH, f"batch-{r}.bin"),
                                    traced=traced, phase="batch", round_index=r))
        run.rounds.append({
            "traced": traced,
            "first_s": first[0] if first else None,
            "startup_s": first[1] if first else None,
            "batch_s": batch[0] if batch else None,
            "batch_file": f"batch-{r}.bin" if batch else None,
        })
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    # -- checks
    n = LIFT_N
    batch_files = [r["batch_file"] for r in run.rounds if r["batch_file"]]
    ref = checks.DenseReference(lam.to_dense())
    mu = np.linalg.solve(ref.m, h)
    op, meta = fc.load_operator(work / "op.fcop")
    probes = ref.probes(np.random.default_rng([args.seed, 2]))

    def lifted_ct(v):
        # embed by hand: v -> (v, -v)/sqrt(2) on the doubled system
        return op.apply_transpose(np.vstack([v, -v]) / np.sqrt(2.0))

    results = [checks.factor_check(lifted_ct, ref, -1.0, LIFT_EPS, probes),
               checks.Check("lifted", meta.get("lifted") is True,
                            f"container meta lifted={meta.get('lifted')!r}")]
    if batch_files:
        first_batch = np.fromfile(work / batch_files[0], dtype="<f8").reshape(-1, n)
        last_batch = np.fromfile(work / batch_files[-1], dtype="<f8").reshape(-1, n)
        results += [
            checks.batch_mean_check(last_batch, mu, ref.m, LIFT_EPS),
            checks.whitened_check(last_batch, mu, ref.m, LIFT_EPS),
            checks.same_check("repeat", first_batch, last_batch),
        ]
        if (work / "first.bin").exists():
            one = np.fromfile(work / "first.bin", dtype="<f8").reshape(-1, n)
            results.append(checks.prefix_check(one, last_batch))
    with open(work / "factor.json", encoding="utf-8") as fh:
        report = json.load(fh)
    missing = not batch_files or any(r["first_s"] is None for r in run.rounds)

    out = {
        "checks": results, "complete": not missing,
        "setup_s": setup[0],
        "samples_per_s": LIFT_BATCH / _median_of(run.rounds, "batch_s")
        if batch_files else None,
        "first_sample_s": _median_of(run.rounds, "first_s"),
        "container_bytes": os.path.getsize(work / "op.fcop"),
        "peak_rss_mb": peak_rss_mb,
        "batch_n": LIFT_BATCH,
        "cli_report": report,
    }
    if tracer is not None:
        for path in sorted(work.glob("spans-*.json")):
            with open(path, encoding="utf-8") as fh:
                body = json.load(fh)
            tracer.spans += body["spans"]
            tracer.counts += body["counts"]
            tracer.values += body["values"]
    shutil.rmtree(work)
    return out


# -- metrics ------------------------------------------------------------------------


def layer_metrics(tracer, run: Run, res: dict) -> dict:
    from spans import count_total, span_time, value_total

    sp, ct, vals = tracer.spans, tracer.counts, tracer.values
    setup, batch = ("setup",), ("batch",)
    b = res["batch_n"]
    report = res["cli_report"]
    timings = report["timings"] if report else {}
    traced_batch = _median_of(run.rounds, "batch_s", True)
    plain_batch = _median_of(run.rounds, "batch_s", False)
    m = {
        "sparse.validate_s": span_time(sp, "sparse.validate", setup),
        "sparse.normalize_s": span_time(sp, "sparse.normalize", setup),
        "sparse.matvec_s": span_time(sp, "sparse.matvec", batch),
        "sparse.matvec_cols_setup": count_total(ct, "sparse.matvec_cols", setup),
        "sparse.matvec_cols_per_sample": count_total(ct, "sparse.matvec_cols", batch) / b,
        "sparsify.step_s": span_time(sp, "sparsify.step", setup),
        "sparsify.nnz_out": value_total(vals, "sparsify.nnz_out"),
        "chain.build_s": span_time(sp, "chain.build", setup),
        "chain.radius_s": span_time(sp, "chain.radius", setup),
        "chain.levels": value_total(vals, "chain.levels"),
        "chain.level_nnz": value_total(vals, "chain.level_nnz"),
        "chain.poly_degree_sum": value_total(vals, "chain.poly_degree_sum"),
        "chain.refine_s": span_time(sp, "chain.refine", setup),
        "chain.refine_power_steps": count_total(ct, "chain.refine_power_steps", setup),
        "chain.refine_degree": value_total(vals, "chain.refine_degree"),
        "chain.solve_s": span_time(sp, "chain.solve", ("setup", "batch")),
        "maclaurin.horner_self_s": span_time(sp, "maclaurin.horner", batch, self_time=True),
        "sampler.prepare_s": span_time(sp, "sampler.prepare", setup),
        "sampler.color_s": span_time(sp, "sampler.color", batch),
        "rng.stream_s": span_time(sp, "rng.stream", batch),
        "rng.normals_per_sample": count_total(ct, "rng.normals", batch) / b,
        "serialize.save_s": span_time(sp, "serialize.save", ("setup", "container")),
        "serialize.load_s": span_time(sp, "serialize.load", ("container", "batch")),
        "cli.startup_s": _median_of(run.rounds, "startup_s", True) or 0.0,
        "cli.factor_read_s": timings.get("read_s", 0.0),
        "cli.factor_chain_s": timings.get("chain_s", 0.0),
        "cli.factor_refine_s": timings.get("refine_s", 0.0),
        "trace.overhead_s": (traced_batch - plain_batch
                             if traced_batch is not None and plain_batch is not None
                             else 0.0),
    }
    return {k: {"value": v, "unit": PER_LAYER[k]} for k, v in m.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    _check_inputs_exist()
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(SRC))
    import logging

    # the chain's "did not reach tol" warnings would bury the result line
    logging.getLogger("factorchain").setLevel(logging.ERROR)

    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
    run = Run(args)
    res = (run_cli if args.workload == "lifted_cli" else run_library)(args, run, tracer)
    if res is None:
        # set-up failed: report the tally, skip the rounds and the checks
        print(json.dumps({"correct": False, "attempted": run.attempted,
                          "failed": run.failed, "metrics": {}}))
        return 0

    failed_checks = [c for c in res["checks"] if not c.passed]
    for c in res["checks"]:
        print(f"check {c.name}: {'pass' if c.passed else 'FAIL'} ({c.detail})",
              file=sys.stderr)
    if tracer is not None:
        RUNS_DIR.mkdir(parents=True, exist_ok=True)
        tracer.dump(RUNS_DIR / f"spans-{args.workload}-{args.seed}-{os.getpid()}.json",
                    {"workload": args.workload, "seed": args.seed,
                     "rounds": run.rounds})
        metrics = layer_metrics(tracer, run, res)
    else:
        metrics = {k: {"value": res[k], "unit": u} for k, u in END_TO_END.items()
                   if res[k] is not None}
    print(json.dumps({
        "correct": bool(res["complete"] and not failed_checks),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
