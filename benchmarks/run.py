"""Run one platerec benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload pipeline-cae --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
`src/`. With `--trace 0` the run prints the end-to-end metrics; with
`--trace 1` it alternates untraced and traced passes and prints the
per-layer metrics, the CPU use and the tracing overhead. The last line of
standard output is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`. Full results, the environment and the spans go
under `.bench_out/`; scratch data goes under `.bench_work/` and is removed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("pipeline-cae", "pipeline-rp", "rank")
SETUP_REPEATS = 5
# what a fresh process imports before it can run a workload
IMPORTS = "import numpy, scipy.ndimage, platerec.harness"
# a warm-up pass, then at least two timed ones: the determinism check compares
# passes, and a traced run needs one untraced and one traced pass
MIN_PASSES = 3
TAIL_LADDER = (99.9, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)
# One BLAS thread on both sides of any comparison: on a shared 2-core machine a
# second thread did not speed up an autoencoder step but widened its spread.
BLAS_THREADS = 1
# numpy asks for transparent huge pages on large arrays by default, and whether
# it gets them depends on the machine's memory. With the request off, the
# 10-seed spread of pipeline-cae's peak RSS fell from 0.076 to 0.036.
FIXED_ENV = {"OPENBLAS_NUM_THREADS": str(BLAS_THREADS), "OMP_NUM_THREADS": str(BLAS_THREADS),
             "MKL_NUM_THREADS": str(BLAS_THREADS), "NUMPY_MADVISE_HUGEPAGE": "0"}


def tail(values):
    """(percentile, value) for the highest percentile with >= 10 samples beyond it."""
    for pct in TAIL_LADDER:
        if len(values) * (1.0 - pct / 100.0) >= 10:
            import numpy as np
            return pct, float(np.percentile(values, pct))
    return None, None


def environment(blas_threads_read):
    import numpy
    import scipy
    sha = None
    try:  # only when ROOT itself is the top of a git work tree
        lines = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                               capture_output=True, text=True, timeout=30).stdout.split()
        if len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            sha = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    source = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        source.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "git_sha": sha, "source_sha256": source.hexdigest(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": blas.get("name"), "blas_version": blas.get("version"),
        "blas_threads_set": BLAS_THREADS, "blas_threads_read": blas_threads_read,
        "fixed_env": FIXED_ENV,
        "nproc": os.cpu_count(), "cpu_model": cpu_model,
    }


def time_imports():
    """Wall time of a fresh interpreter that imports the program and exits."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    t0 = time.perf_counter()
    # no timeout: with one, subprocess polls the child in steps of up to 50 ms
    subprocess.run([sys.executable, "-c", IMPORTS], env=env, check=True)
    return time.perf_counter() - t0


def openblas_threads():
    """The thread count OpenBLAS reports, where numpy bundles scipy-openblas."""
    import ctypes
    import numpy
    for lib in (Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*"):
        try:
            fn = ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_int
        return fn()
    return None


def run_passes(workload, ctx, work_dir, seconds, trace, recorder):
    """Closed loop of passes until the next one would end after `seconds`.

    The first pass warms caches and allocator; it is checked but not timed.
    Untraced runs time every later pass. Traced runs alternate untraced and
    traced passes after it, so both kinds run under the same conditions.
    """
    passes = []
    first_digest = None
    loop_start = time.perf_counter()
    while True:
        index = len(passes)
        traced = bool(trace) and index > 0 and index % 2 == 0
        out_dir = work_dir / f"pass{index}"
        cpu0, t0 = os.times(), time.perf_counter()
        try:
            if traced:
                with recorder.recording():
                    raw = workload.run(ctx, out_dir)
            else:
                raw = workload.run(ctx, out_dir)
            wall = time.perf_counter() - t0
            cpu1 = os.times()
            outcome = workload.check(ctx, raw, out_dir)
        except Exception as exc:  # a failed pass is counted and reported, not fatal
            from workloads import PassOutcome
            wall, cpu1 = time.perf_counter() - t0, os.times()
            ops = workload.ops_per_pass(ctx)
            outcome = PassOutcome(ops=ops, failed=ops,
                                  messages=[f"{type(exc).__name__}: {exc}"])
        if outcome.digest is not None:
            first_digest = first_digest or outcome.digest
            if outcome.digest != first_digest and not outcome.failed:
                outcome.failed = 1
                outcome.messages.append("outputs differ from the first pass with the same seed")
        shutil.rmtree(out_dir, ignore_errors=True)
        cpu = (cpu1.user - cpu0.user) + (cpu1.system - cpu0.system)
        passes.append({"warmup": index == 0, "traced": traced, "wall_s": wall, "cpu_s": cpu,
                       "outcome": outcome})
        elapsed = time.perf_counter() - loop_start
        per_pass = elapsed / len(passes)
        if len(passes) >= MIN_PASSES and elapsed + per_pass > seconds:
            return passes


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def end_to_end(workload_name, passes, setup_s, attempted, failed):
    """Every end-to-end metric of this workload: name -> (value, unit, note)."""
    passes = [p for p in passes if not p["warmup"]]
    walls = [p["wall_s"] for p in passes]
    values = [p["outcome"].values for p in passes]
    pct, run_tail = tail(walls)
    out = {
        "setup_s": (setup_s, "s", ""),
        "run_s": (statistics.median(walls), "s",
                  f"median of {len(walls)} passes; " + (
                      f"p{pct:g} {run_tail:.4f}" if pct else "too few passes for a tail")),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", ""),
        "failed_frac": (failed / attempted, "ratio", f"{failed} of {attempted} operations"),
    }
    names = {
        "pipeline-cae": [("cae_train_img_per_s", "1/s"), ("cae_val_loss", "loss"),
                         ("rec_train_triads_per_s", "1/s"), ("test_b_score", "score")],
        "pipeline-rp": [("rec_train_triads_per_s", "1/s"), ("test_b_score", "score")],
        "rank": [("encode_img_per_s", "1/s"), ("rank_req_per_s", "1/s")],
    }[workload_name]
    for name, unit in names:
        out[name] = (_median([v.get(name) for v in values]), unit,
                     f"median of {len(values)} passes")
    if workload_name == "rank":
        requests = [s for v in values for s in v.get("request_s", [])]
        pct, req_tail = tail(requests)
        note = f"{len(requests)} requests"
        out["rank_p50_ms"] = (1000.0 * statistics.median(requests), "ms", note)
        out["rank_tail_ms"] = (None if req_tail is None else 1000.0 * req_tail, "ms",
                               f"p{pct:g} of {note}" if pct else f"too few: {note}")
    return out


def per_layer(passes, recorder):
    import tracing
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"] and not p["warmup"]]
    values = [p["outcome"].values for p in traced]
    stages = {}
    for v in values:
        for stage, secs in v.get("stage_s", {}).items():
            stages[stage] = stages.get(stage, 0.0) + secs / len(values)
    extra = {
        "cae_epoch_s": _median([v.get("cae_epoch_s") for v in values]) or 0.0,
        "rec_epoch_s": _median([v.get("rec_epoch_s") for v in values]) or 0.0,
        "cae_batches_planned": _median([v.get("cae_batches_planned") for v in values]) or 0.0,
        "stage_s": stages,
        "cpu_util": sum(p["cpu_s"] for p in plain) / sum(p["wall_s"] for p in plain),
        "overhead_frac": (statistics.median(p["wall_s"] for p in traced)
                          / statistics.median(p["wall_s"] for p in plain) - 1.0),
    }
    return tracing.per_layer_metrics(recorder.spans, len(traced), extra)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "platerec" / "__init__.py").is_file():
        print(f"error: no platerec sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    os.environ.update(FIXED_ENV)   # read once, when numpy and BLAS load
    sys.path.insert(0, str(ROOT / "src"))
    import numpy  # noqa: F401
    import scipy.ndimage  # noqa: F401
    import platerec
    if Path(platerec.__file__).resolve().parent != ROOT / "src" / "platerec":
        print(f"error: imported platerec from {platerec.__file__}, not this checkout",
              file=sys.stderr)
        return 2
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    out_root = ROOT / ".bench_out"
    out_root.mkdir(exist_ok=True)
    work_dir = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    recorder = tracing.SpanRecorder()
    try:
        # set-up is imports in a fresh process plus the workload's set-up;
        # it is done several times and the median is reported
        setup_times = []
        for i in range(SETUP_REPEATS):
            if i:
                shutil.rmtree(work_dir / f"setup{i - 1}")
            import_s = time_imports()
            t0 = time.perf_counter()
            ctx = workload.setup(work_dir / f"setup{i}", args.seed)
            setup_times.append((import_s, time.perf_counter() - t0))
        setup_s = statistics.median(imp + work for imp, work in setup_times)
        passes = run_passes(workload, ctx, work_dir, args.seconds, args.trace, recorder)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted = sum(p["outcome"].ops for p in passes)
    failed = sum(p["outcome"].failed for p in passes)
    messages = [m for p in passes for m in p["outcome"].messages]
    env = environment(openblas_threads())
    # end-to-end figures come only from untraced runs
    e2e = {} if args.trace else end_to_end(args.workload, passes, setup_s, attempted, failed)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"blas {env['blas']} {env['blas_version']} x{env['blas_threads_read']}  "
          f"nproc {env['nproc']}  git {env['git_sha'] or 'n/a'}")
    for message in messages:
        print(f"CHECK FAILED: {message}")
    if args.trace:
        layer = per_layer(passes, recorder)
        spans_path = out_root / f"{args.workload}-seed{args.seed}-spans.jsonl"
        recorder.write(spans_path)
        for name, value in layer.items():
            print(f"  {name:40s} {value:14.6f} {tracing.unit_of(name)}")
        metrics = {name: {"value": value, "unit": tracing.unit_of(name)}
                   for name, value in layer.items()}
    else:
        for name, (value, unit, note) in e2e.items():
            shown = "n/a" if value is None else f"{value:.6g}"
            print(f"  {name:24s} {shown:>12s} {unit:6s} {note}")
        metrics = {name: {"value": e2e[name][0], "unit": e2e[name][1]}
                   for name in ("setup_s", "run_s", "peak_rss_mb")}

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, environment=env,
                  setup_repeats_s=[{"import_s": imp, "setup_s": work} for imp, work in setup_times],
                  check_failures=messages,
                  end_to_end={k: {"value": v, "unit": u, "note": n}
                              for k, (v, u, n) in e2e.items()},
                  passes=[{"warmup": p["warmup"], "traced": p["traced"], "wall_s": p["wall_s"],
                           "cpu_s": p["cpu_s"], "ops": p["outcome"].ops, "failed": p["outcome"].failed,
                           "digest": p["outcome"].digest} for p in passes])
    with open(out_root / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
