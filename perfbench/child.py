"""Subprocesses of the benchmark.

    python3 perfbench/child.py census DIR --out PREFIX
        `unital census DIR --out PREFIX`, run through the program's own
        CLI entry point, with each census file timed as one span.  With
        PERFBENCH_TRACE=1 the layer spans of tracing.py are recorded too.
        Spans go to PERFBENCH_SPANS/spans-<pid>.jsonl, from the workers as
        each file is done and from the main process at exit.

    python3 perfbench/child.py setup WORKLOAD WORKDIR
        Time one set-up of WORKLOAD in this fresh process and print it.

The census hooks are installed at import, so that workers started by
either fork or spawn carry them.
"""

from __future__ import annotations

import functools
import json
import os
import pickle
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import tracing  # noqa: E402


def _report_bytes(result):
    report = result[1]
    return None if report is None else len(pickle.dumps(report))


def _hook_census(outdir: Path, traced: bool) -> tracing.Recorder:
    import unitals.cli as cli

    rec = tracing.Recorder()
    if traced:
        rec.install()
        (outdir / "missing.json").write_text(json.dumps(rec.missing))
    original = cli._census_worker
    span = rec.span("cli.census_worker", original, _report_bytes if traced else None)

    @functools.wraps(original)
    def census_worker(*args, **kwargs):
        path = args[0][0] if isinstance(args[0], tuple) else args[0]
        rec.request = os.path.basename(path)
        try:
            return span(*args, **kwargs)
        finally:
            tracing.write_spans(rec.take(), outdir / f"spans-{os.getpid()}.jsonl")

    cli._census_worker = census_worker
    os.register_at_fork(after_in_child=rec.after_fork)
    return rec


_SPANS = os.environ.get("PERFBENCH_SPANS")
_REC = _hook_census(Path(_SPANS), os.environ.get("PERFBENCH_TRACE") == "1") if _SPANS else None


def main(argv) -> None:
    if argv[:1] == ["census"] and _REC is not None:
        import unitals.cli

        try:
            unitals.cli.main(args=argv, prog_name="unital")
        finally:
            tracing.write_spans(_REC.take(), Path(_SPANS) / f"spans-{os.getpid()}.jsonl")
    elif argv[:1] == ["setup"] and len(argv) == 3:
        import workloads

        workload, workdir = argv[1], Path(argv[2])
        manifest = json.loads((workdir / "manifest.json").read_text())
        start = perf_counter()
        workloads.setup(workload, manifest)
        print(perf_counter() - start)
    else:
        sys.exit(f"usage: see {__file__}; census needs PERFBENCH_SPANS")


if __name__ == "__main__":
    main(sys.argv[1:])
