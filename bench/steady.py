"""Steadiness tool: repeat every workload and compare sets of runs.

Usage (from the repository root):

    python3 bench/steady.py --runs 10 --sets 2 [--trace 0|1]
                            [--workloads grid_field,lifted_cli] [--out FILE]
    python3 bench/steady.py --report FILE     (print the table of a saved run)

Each set runs every workload --runs times, each run a fresh process of
bench/run.py for run_seconds of BENCHMARK.json, with seeds 1 ... runs
(the same seeds in every set).  The order of the workloads alternates
from one run index to the next, so no workload always follows the same
neighbour.  For every metric and
workload it prints each set's median and quartiles, the spread
(q3 - q1) / median, and how much the last set's median is worse than the
first's, next to the bound from BENCHMARK.json; every end-to-end
metric, setup_s included, is held to its bound.  With --trace 1 it also
reports whether every count metric repeated exactly for equal seeds.
Raw results go to --out (default bench/runs/steady-<time>.json).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, quantiles

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def _one(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t = time.perf_counter()
    proc = subprocess.run(cmd, cwd=str(ROOT), capture_output=True, text=True,
                          timeout=600)
    wall = time.perf_counter() - t
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": proc.stderr[-2000:], "wall_s": wall}
    out = json.loads(lines[-1])
    out["wall_s"] = wall
    return out


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    return {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}


def _stats(vals):
    q1, q2, q3 = quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
    med = median(vals)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def report(records: list[dict], spec: dict) -> bool:
    """Print the per-metric table; returns whether every bound held."""
    ok = True
    sets = sorted({r["set"] for r in records})
    workloads = list(dict.fromkeys(r["workload"] for r in records))
    for w in workloads:
        rows = [r for r in records if r["workload"] == w]
        bad = [r for r in rows if "error" in r["result"]]
        good = [r for r in rows if "error" not in r["result"]]
        print(f"\n== {w}: {len(good)} runs, {len(bad)} crashed")
        ok &= not bad
        for s in sets:
            res = [r["result"] for r in good if r["set"] == s]
            att = sum(x["attempted"] for x in res)
            fail = sum(x["failed"] for x in res)
            wrong = sum(not x["correct"] for x in res)
            wall = median(r["result"]["wall_s"] for r in good if r["set"] == s)
            print(f"   set {s}: failed {fail}/{att}, incorrect runs {wrong}, "
                  f"median run wall {wall:.1f} s")
            ok &= wrong == 0
        names = list(dict.fromkeys(k for r in good for k in r["result"]["metrics"]))
        print(f"   {'metric':32s} {'unit':>5s} {'set':>3s} {'median':>12s} {'q1':>12s} "
              f"{'q3':>12s} {'spread':>7s}  {'worse':>7s} {'bound':>6s}")
        for name in names:
            meta = spec.get(name, {})
            bound = meta.get("bound")
            per_set = {}
            for s in sets:
                vals = [r["result"]["metrics"][name]["value"] for r in good
                        if r["set"] == s and name in r["result"]["metrics"]]
                if vals:
                    per_set[s] = _stats(vals)
            first = per_set[sets[0]][0] if sets[0] in per_set else None
            for s, (med, q1, q3, spread) in per_set.items():
                worse = ""
                if s != sets[0] and first:
                    change = (med - first) / first
                    if meta.get("better") == "higher":
                        change = -change
                    worse = f"{100 * change:+6.2f}%"
                    if bound is not None and change > bound:
                        ok = False
                        worse += "!"
                flag = ""
                if bound is not None and spread > bound:
                    ok = False
                    flag = "!"
                print(f"   {name:32s} {meta.get('unit', ''):>5s} {s:>3d} {med:12.6g} "
                      f"{q1:12.6g} {q3:12.6g} "
                      f"{100 * spread:6.2f}%{flag} {worse:>8s} "
                      f"{'' if bound is None else f'{bound:.2f}':>6s}")
        counts = [n for n in names if spec.get(n, {}).get("unit") == "count"]
        if counts and len(sets) > 1:
            by_seed: dict = {}
            for r in good:
                for n in counts:
                    by_seed.setdefault((r["seed"], n), set()).add(
                        r["result"]["metrics"][n]["value"])
            varied = sorted({n for (_, n), v in by_seed.items() if len(v) > 1})
            print(f"   counts repeated exactly for equal seeds: "
                  f"{'yes' if not varied else 'NO: ' + ', '.join(varied)}")
            ok &= not varied
    return ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workloads", default=None,
                    help="comma-separated subset (default: all of BENCHMARK.json)")
    ap.add_argument("--out", default=None)
    ap.add_argument("--report", default=None, metavar="FILE",
                    help="print the table of earlier raw results and exit")
    args = ap.parse_args(argv)
    if args.report:
        with open(args.report, encoding="utf-8") as fh:
            return 0 if report(json.load(fh)["records"], _spec()) else 1

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    out = Path(args.out) if args.out else (
        BENCH_DIR / "runs" / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json")
    out.parent.mkdir(parents=True, exist_ok=True)

    records = []
    for s in range(1, args.sets + 1):
        for i in range(args.runs):
            order = workloads if (i + s) % 2 == 0 else workloads[::-1]
            for w in order:
                seed = 1 + i
                res = _one(w, seed, seconds, args.trace)
                records.append({"set": s, "run": i, "workload": w, "seed": seed,
                                "result": res})
                status = "crash" if "error" in res else (
                    "ok" if res["correct"] else "INCORRECT")
                print(f"set {s} run {i} {w} seed {seed}: {status} "
                      f"({res['wall_s']:.1f} s)", flush=True)
                with open(out, "w", encoding="utf-8") as fh:
                    json.dump({"seconds": seconds, "trace": args.trace,
                               "records": records}, fh, indent=1)
    ok = report(records, _spec())
    print(f"\nraw results: {out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
