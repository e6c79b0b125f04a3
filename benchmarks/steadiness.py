"""Steadiness check: run the whole benchmark twice on the same code and compare.

    python3 benchmarks/steadiness.py --seeds 10 --out benchmarks/baseline.json

Side A and side B run every workload once per seed, each run in its own
process, with the run length from BENCHMARK.json. The two sides are
interleaved seed by seed, and the side that goes first alternates, so that
a slow drift of the machine falls on both sides alike. For every
end-to-end metric on every workload it prints each side's median and
quartiles and the spread (quartile distance over the median). A metric
that BENCHMARK.json bounds agrees when each side's spread is within the
bound and the two medians differ by at most the bound, in either
direction; the check also wants every spread below a third of its bound.
Metrics without a bound are printed for information. Every run must be
correct, and the same seed must give the same output digests on both
sides. One traced run per workload (seed 1) then gives the per-layer
figures of the summary.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 180


def run_once(workload, seed, seconds, trace=0):
    """One benchmark run in its own process; returns its full result record."""
    cmd = [sys.executable, str(ROOT / "benchmarks" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    path = ROOT / ".bench_out" / f"{workload}-seed{seed}-trace{trace}.json"
    record = json.loads(path.read_text(encoding="utf-8"))
    if record["metrics"] != last["metrics"]:
        raise RuntimeError(f"{path} does not match the printed result")
    return record


def stats(values):
    values = [v for v in values if v is not None]
    if len(values) < 2:
        return None
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / abs(median) if median else float("inf")
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "n": len(values)}


def compare(sides, bounds):
    """Rows of (workload, metric, stats A, stats B, bound, verdict)."""
    rows, ok = [], True
    for workload in sides["A"]:
        metrics = sides["A"][workload][0]["end_to_end"]
        for name, first in metrics.items():
            a = stats([r["end_to_end"][name]["value"] for r in sides["A"][workload]])
            b = stats([r["end_to_end"][name]["value"] for r in sides["B"][workload]])
            bound = bounds.get(name)
            verdict = "info"
            if bound is not None and a and b:
                shift = abs(b["median"] - a["median"]) / abs(a["median"])
                spread = max(a["spread"], b["spread"])
                agree = spread <= bound["bound"] and shift <= bound["bound"]
                verdict = (f"{'agree' if agree else 'DISAGREE'} (shift {shift:.3f})"
                           + ("" if spread < bound["bound"] / 3 else ", spread above bound/3"))
                ok = ok and agree
            rows.append((workload, name, first["unit"], a, b, bound, verdict))
    return rows, ok


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10, help="seeds 1..N on each side")
    parser.add_argument("--out", default=None, help="write the summary JSON here")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    seeds = list(range(1, args.seeds + 1))

    sides = {side: {w: [] for w in workloads} for side in ("A", "B")}
    for seed in seeds:
        for workload in workloads:
            for side in ("A", "B") if seed % 2 else ("B", "A"):
                record = run_once(workload, seed, spec["run_seconds"])
                sides[side][workload].append(record)
                print(f"side {side} {workload} seed {seed}: "
                      + ", ".join(f"{k}={v['value']:.4g}" for k, v in record["metrics"].items()),
                      flush=True)

    problems = []
    for side, by_workload in sides.items():
        for workload, records in by_workload.items():
            problems += [f"side {side} {workload} seed {r['seed']}: not correct"
                         for r in records if not r["correct"]]
    for workload in workloads:
        for a, b in zip(sides["A"][workload], sides["B"][workload]):
            if {p["digest"] for p in a["passes"]} != {p["digest"] for p in b["passes"]}:
                problems.append(f"{workload} seed {a['seed']}: outputs differ between sides")

    per_layer = {}
    for workload in workloads:
        record = run_once(workload, seeds[0], spec["run_seconds"], trace=1)
        per_layer[workload] = {k: v["value"] for k, v in record["metrics"].items()}
        if not record["correct"]:
            problems.append(f"traced {workload}: not correct")
        print(f"traced {workload}: trace.overhead_frac="
              f"{per_layer[workload]['trace.overhead_frac']:.3f}", flush=True)

    rows, agree = compare(sides, bounds)
    print(f"\n{'workload':13s} {'metric':24s} {'unit':6s} {'A median [q1, q3]':>32s} "
          f"{'B median [q1, q3]':>32s} {'spread A/B':>13s}  bound verdict")

    def cell(s):
        return f"{s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}]" if s else "n/a"

    for workload, name, unit, a, b, bound, verdict in rows:
        spread = f"{a['spread']:.3f}/{b['spread']:.3f}" if a and b else "n/a"
        limit = f"{bound['bound']:.2f}" if bound else "  -  "
        print(f"{workload:13s} {name:24s} {unit:6s} {cell(a):>32s} {cell(b):>32s} "
              f"{spread:>13s}  {limit} {verdict}")
    for problem in problems:
        print(f"PROBLEM: {problem}")
    ok = agree and not problems
    print("steady: the two sides agree within the bounds" if ok else "NOT steady")

    if args.out:
        summary = {
            "run_seconds": spec["run_seconds"], "seeds": seeds,
            "environment": sides["A"][workloads[0]][0]["environment"],
            "metrics": [{"workload": w, "name": n, "unit": u, "A": a, "B": b,
                         "bound": bound["bound"] if bound else None, "verdict": v}
                        for w, n, u, a, b, bound, v in rows],
            "per_layer": per_layer, "problems": problems, "steady": ok,
        }
        Path(args.out).write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
