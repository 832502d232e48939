"""Benchmark of the unitals package: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  It writes the workload's inputs under
.bench_work/, repeats passes over them for S seconds in one closed loop
(one client), checks every output against a reference, and prints as its
last line one JSON object: correct, attempted, failed and metrics.  With
--trace 0 the metrics are the end-to-end ones of BENCHMARK.json; with
--trace 1 the run alternates untraced and traced passes and reports the
per-layer ones, with the tracing overhead.  perfbench/README.md describes
the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Set-ups in fresh processes are taken between passes, at most one after
# each, so that their median sees the host at the same mix of speeds as
# the passes; they take at most this share of the run, and a run takes at
# least SETUP_MIN of them.
SETUP_SHARE = 0.2
SETUP_MIN = 5
# The reported tail of the operation times has this many beyond it.
TAIL_BEYOND = 10


def _setup_time(workload: str, workdir: Path) -> float:
    """One set-up of the workload, in a fresh process."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("PERFBENCH_SPANS", None)
    proc = subprocess.run([sys.executable, str(HERE / "child.py"), "setup", workload, str(workdir)],
                          env=env, capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1])


def _run_pass(workload, manifest, state, workdir: Path, index: int, traced: bool, rec):
    if workload == "census-o4":
        return workloads.census_pass(manifest, workdir / f"pass{index}", traced)
    run = workloads.dualnets_pass if workload == "dualnets-o4" else workloads.queries_pass
    if not traced:
        return run(state)
    rec.install()
    try:
        result = run(state, rec)
    finally:
        rec.uninstall()
    result.spans = rec.take()
    result.missing = rec.missing
    return result


def _tail(values: list) -> tuple:
    """The slowest value with TAIL_BEYOND values beyond it (the slowest of
    all when there are fewer), and its percentile."""
    ranked = sorted(values)
    i = len(ranked) - 1 - TAIL_BEYOND if len(ranked) > TAIL_BEYOND else len(ranked) - 1
    return ranked[i], 100 * (i + 1) / len(ranked)


def end_to_end(plain: list, setup_s: list) -> tuple:
    """The end-to-end metrics of the untraced passes, and notes: the
    median and tail of the operation times, each operation's time being
    its median over the passes of the run.  The census has 3 operations
    and dualnets 4, too few for a tail, so these are notes, not metrics."""
    typical = [median(p.ops[i] for p in plain) for i in range(len(plain[0].ops))]
    tail, pct = _tail(typical)
    rss = [p.peak_rss_mb for p in plain if p.peak_rss_mb is not None]
    metrics = {
        "setup_s": median(setup_s),
        "wall_s": median(p.wall for p in plain),
        "peak_rss_mb": median(rss) if rss else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {"operations": len(typical), "op_p50_ms": 1000 * median(typical),
             "op_tail_ms": 1000 * tail, "op_tail_percentile": round(pct, 2)}
    return metrics, notes


def measure(workload: str, seed: int, seconds: float, traced: bool, workdir: Path) -> dict:
    subprocess.run([sys.executable, str(HERE / "gen.py"), workload, str(seed), str(workdir)],
                   cwd=ROOT, timeout=120, check=True)
    manifest = json.loads((workdir / "manifest.json").read_text())
    rec = tracing.Recorder()
    state = None  # census-o4 sets up inside its census subprocess
    if workload != "census-o4":
        if traced:
            rec.install()
        try:
            state = workloads.setup(workload, manifest)
        finally:
            rec.uninstall()
    setup_spans = rec.take()
    missing = list(rec.missing)

    plain, traced_passes, setup_s = [], [], []
    setup_spent = 0.0
    start = perf_counter()
    while True:
        if not traced and setup_spent < SETUP_SHARE * (perf_counter() - start):
            t = perf_counter()
            setup_s.append(_setup_time(workload, workdir))
            setup_spent += perf_counter() - t
        plain.append(_run_pass(workload, manifest, state, workdir, len(plain) + len(traced_passes), False, rec))
        if traced:
            traced_passes.append(
                _run_pass(workload, manifest, state, workdir, len(plain) + len(traced_passes), True, rec))
        if perf_counter() - start >= seconds:
            break
    while not traced and len(setup_s) < SETUP_MIN:
        setup_s.append(_setup_time(workload, workdir))

    runs = plain + traced_passes
    result = {
        "attempted": sum(len(p.ops) for p in runs),
        "failed": sum(p.failed for p in runs),
        "passes": len(plain),
    }
    if not traced:
        result["metrics"], notes = end_to_end(plain, setup_s)
        result.update(notes, setup_samples=setup_s)
        return result

    workers = workloads.CENSUS_WORKERS if workload == "census-o4" else 0
    per_pass = [tracing.layer_metrics(setup_spans + p.spans, workers, p.wall) for p in traced_passes]
    overhead = 100 * (median(p.wall for p in traced_passes) / median(p.wall for p in plain) - 1)
    result["counts_agree"] = tracing.counts_agree(per_pass)
    result["targets_missing"] = sorted(set(missing).union(*(p.missing for p in traced_passes)))
    result["metrics"] = tracing.combine(per_pass, overhead)
    trace_file = ROOT / ".bench_work" / "traces" / f"{workload}.jsonl"
    trace_file.parent.mkdir(parents=True, exist_ok=True)
    trace_file.unlink(missing_ok=True)
    tracing.write_spans(setup_spans + [s for p in traced_passes for s in p.spans], trace_file)
    result["trace_file"] = str(trace_file.relative_to(ROOT))
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("census-o4", "dualnets-o4", "pair-queries"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "unitals" / "__init__.py").is_file():
        print(f"error: the unitals package is not at {ROOT / 'src' / 'unitals'}", file=sys.stderr)
        return 2
    sys.path.insert(1, str(ROOT / "src"))
    import unitals

    if Path(unitals.__file__).resolve().parent != ROOT / "src" / "unitals":
        print(f"error: imported unitals from {unitals.__file__}, not from this checkout", file=sys.stderr)
        return 2

    workdir = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    env = {"nproc": os.cpu_count(), "python": platform.python_version(), "workload": args.workload,
           "seed": args.seed, **{k: v for k, v in result.items() if k not in ("metrics", "attempted", "failed")}}
    print(json.dumps(env))
    # A layer target that no longer exists would read as a layer that got
    # free: the run is then not correct.
    correct = result["failed"] == 0 and result.get("counts_agree", True) and not result.get("targets_missing")
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": result["metrics"][name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
