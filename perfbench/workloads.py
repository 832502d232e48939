"""The three workloads: set-up, one timed pass, and the check of its outputs.

A pass returns its wall time, the time of each operation (a file or a
query) and how many operations failed: gave an output other than the
reference, or raised.  The program is imported inside `setup`, so that a
fresh process run through `setup` times the import too.
"""

from __future__ import annotations

import csv
import json
import os
import signal
import subprocess
import sys
import threading
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import oracle
import tracing

CENSUS_WORKERS = 2
CENSUS_TIMEOUT_S = 150
HERE = Path(__file__).resolve().parent


@dataclass
class Pass:
    wall: float
    ops: list  # seconds per operation
    failed: int
    peak_rss_mb: float | None = None  # the census process tree; None in process
    spans: list = field(default_factory=list)
    missing: list = field(default_factory=list)  # traced census: targets not found


def _report(what: str) -> None:
    print(f"mismatch: {what}", file=sys.stderr)


def setup(workload: str, manifest: dict):
    """Everything a fresh process does before its first unit of work:
    import, H(q) construction or first loads, and naming one perspectivity
    group, which builds the structure catalog.  Returns the pass state."""
    if workload == "census-o4":
        import unitals.cli  # noqa: F401  (what every `unital` command imports)
    import unitals

    if workload == "dualnets-o4":
        for q in (4, 5):
            u = unitals.hermitian_unital(q).unital
            if (u.num_points, u.num_blocks) != (q**3 + 1, q * q * (q * q - q + 1)):
                raise ValueError(f"hermitian_unital({q}) has {u.num_points} points, {u.num_blocks} blocks")
        designs = json.loads(Path(manifest["designs"]).read_text())
        state = [(d["name"], unitals.validate_unital(d["points"], d["blocks"])) for d in designs]
        i, b1, b2 = manifest["probe"]
        unitals.structure_name(unitals.persp_group(state[i][1], b1, b2))
        return state

    if workload == "pair-queries":
        for path in manifest["files"]:
            unitals.load_unital(path)
    path, b1, b2 = manifest["probe"]
    unitals.structure_name(unitals.persp_group(unitals.load_unital(path), b1, b2))
    if workload == "pair-queries":
        return json.loads(Path(manifest["queries"]).read_text())
    return None


def dualnets_pass(state, rec=None) -> Pass:
    """`unital dualnets` on each design: find the embedded dual 3-nets and
    test each for cyclicity."""
    import unitals

    ops, failed = [], 0
    start = perf_counter()
    for name, u in state:
        if rec:
            rec.request = name
        t = perf_counter()
        try:
            nets = unitals.find_dual_3nets(u)
            got = (len(nets), sum(1 for net in nets if unitals.is_cyclic_3net(u, net)))
        except Exception:
            traceback.print_exc()
            got = None
        ops.append(perf_counter() - t)
        if got != oracle.NETS[name]:
            failed += 1
            _report(f"{name}: (nets, cyclic) = {got}, expected {oracle.NETS[name]}")
    return Pass(perf_counter() - start, ops, failed)


def _query(unitals, path, b1, b2):
    """One `unital fullpoints` query."""
    from unitals.census import is_sfpr_triple

    u = unitals.load_unital(path)
    fp = unitals.full_points(u, b1, b2)
    group = None
    if len(fp) >= 2:
        g = unitals.persp_group(u, b1, b2, fp=fp)
        group = [g.order(), unitals.structure_name(g)]
    sfpr = is_sfpr_triple(u, b1, b2, fp=fp) if u.blocks_disjoint(b1, b2) else None
    return [list(fp), group, sfpr]


def queries_pass(queries, rec=None) -> Pass:
    import unitals

    ops, failed = [], 0
    start = perf_counter()
    for qid, (path, b1, b2, _stratum, expect) in enumerate(queries):
        if rec:
            rec.request = qid
        t = perf_counter()
        try:
            got = _query(unitals, path, b1, b2)
        except Exception:
            traceback.print_exc()
            got = None
        ops.append(perf_counter() - t)
        if got != expect:
            failed += 1
            _report(f"query {qid} {os.path.basename(path)} ({b1},{b2}): {got}, expected {expect}")
    return Pass(perf_counter() - start, ops, failed)


def _tree_rss_mb(pid: int) -> float:
    """Resident set of a process and all its descendants."""
    pages, todo = 0, [pid]
    while todo:
        p = todo.pop()
        try:
            with open(f"/proc/{p}/statm") as fh:
                pages += int(fh.read().split()[1])
            for task in os.listdir(f"/proc/{p}/task"):
                with open(f"/proc/{p}/task/{task}/children") as fh:
                    todo.extend(int(c) for c in fh.read().split())
        except (FileNotFoundError, ProcessLookupError):
            continue
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def _read_rows(path: Path) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))[1:]


def census_pass(manifest: dict, outdir: Path, traced: bool) -> Pass:
    """`unital census DIR` in a subprocess with two workers."""
    outdir.mkdir()
    prefix = outdir / "census"
    env = dict(os.environ, PYTHONPATH=str(HERE.parent / "src"), UNITAL_THREADS=str(CENSUS_WORKERS),
               PERFBENCH_SPANS=str(outdir), PERFBENCH_TRACE="1" if traced else "0")
    cmd = [sys.executable, str(HERE / "child.py"), "census", manifest["dir"], "--out", str(prefix)]
    peak = [0.0]
    done = threading.Event()
    with open(outdir / "stdout", "w") as out, open(outdir / "stderr", "w") as err:
        start = perf_counter()
        proc = subprocess.Popen(cmd, env=env, stdout=out, stderr=err, start_new_session=True)

        def sample():
            while not done.wait(0.05):
                peak[0] = max(peak[0], _tree_rss_mb(proc.pid))

        sampler = threading.Thread(target=sample)
        sampler.start()
        try:
            code = proc.wait(timeout=CENSUS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)  # the census and its workers
            code = proc.wait()
        finally:
            wall = perf_counter() - start
            done.set()
            sampler.join()

    spans = tracing.read_spans(sorted(outdir.glob("spans-*.jsonl")))
    missing = []
    if traced:
        missing_file = outdir / "missing.json"
        missing = json.loads(missing_file.read_text()) if missing_file.is_file() else ["census tracing"]
    files = manifest["files"]
    ops = {s.request: s.end - s.start for s in spans if s.name == "cli.census_worker"}
    failed = 0
    if code != 0 or sorted(ops) != sorted(files):
        _report(f"census exit code {code}, files served {sorted(ops)}")
        failed = len(files)
    else:
        skipped = {}
        for line in (outdir / "stderr").read_text().splitlines():
            if line.startswith("skipped "):
                path, _, reason = line[len("skipped "):].partition(": ")
                skipped[os.path.basename(path)] = reason
        for name in files:
            expect_skip = name == manifest["bad"]
            if (name in skipped) != expect_skip or (expect_skip and "covered by blocks" not in skipped[name]):
                failed += 1
                _report(f"census file {name}: skipped with {skipped.get(name)!r}")
        want = oracle.census_tables(manifest["kinds"], Path(manifest["dir"]).name)
        got = {
            "groups": _read_rows(Path(f"{prefix}_groups.csv")),
            "totals": _read_rows(Path(f"{prefix}_totals.csv")),
            "large": [row[::2] for row in _read_rows(Path(f"{prefix}_large.csv"))],
        }
        if got != want:
            _report(f"census tables {got}, expected {want}")
            failed = len(files)
    return Pass(wall, [ops.get(name, 0.0) for name in files], failed, peak[0], spans, missing)
