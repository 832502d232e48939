"""Spans around calls into the program's layers, recorded from outside.

`install` replaces each target below, in every loaded `unitals` module
that binds it, with a wrapper that appends one span per call: id, parent,
name, start, end, request id and an optional count taken from the result.
Spans stay in memory until the benchmark writes them out.  A layer's self
time is its spans' duration minus the time of their child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
from collections import namedtuple
from statistics import median
from time import perf_counter

_FAILED = object()

Span = namedtuple("Span", "pid id parent name start end request value")


def _size(result):
    return len(result)


def _group_order(group):
    return group.order()


# (span name, module, attribute, count taken from the result)
TARGETS = [
    ("formats.load_unital", "unitals.formats", "load_unital", None),
    ("formats.parse_unital", "unitals.formats", "parse_unital", None),
    ("design.validate_unital", "unitals.design", "validate_unital", None),
    ("design.disjoint_block_pairs", "unitals.design", "AbstractUnital.disjoint_block_pairs", "yields"),
    ("persp.full_points", "unitals.persp", "full_points", _size),
    ("persp.persp_group", "unitals.persp", "persp_group", None),
    ("groups.closure", "unitals.groups", "closure", _group_order),
    ("groups.structure_name", "unitals.groups", "structure_name", None),
    ("groups.is_cyclic", "unitals.groups", "PermGroup.is_cyclic", None),
    ("groups.is_semiregular", "unitals.groups", "PermGroup.is_semiregular", None),
    ("nets.find_dual_3nets", "unitals.nets", "find_dual_3nets", _size),
    ("nets.is_cyclic_3net", "unitals.nets", "is_cyclic_3net", None),
    ("census.classify_unital", "unitals.census", "classify_unital", None),
    ("census.is_fpr_triple", "unitals.census", "is_fpr_triple", None),
    ("census.is_sfpr_triple", "unitals.census", "is_sfpr_triple", None),
    ("census.group_table_rows", "unitals.census", "group_table_rows", None),
    ("census.totals_row", "unitals.census", "totals_row", None),
    ("census.large_set_rows", "unitals.census", "large_set_rows", None),
    ("hermitian.hermitian_unital", "unitals.hermitian", "hermitian_unital", None),
    ("plane.ProjectivePlane.__init__", "unitals.plane", "ProjectivePlane.__init__", None),
    ("plane.points_on_line", "unitals.plane", "ProjectivePlane.points_on_line", None),
    ("plane.lines_through_point", "unitals.plane", "ProjectivePlane.lines_through_point", None),
    ("gf.GaloisField.__init__", "unitals.gf", "GaloisField.__init__", None),
]


class Recorder:
    """Spans of one process.  `request` names the file or query being served."""

    def __init__(self):
        self.pid = os.getpid()
        self.spans = []
        self.stack = []
        self.request = None
        self._next_id = 0
        self._patched = []
        self.missing = []

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def span(self, name: str, fn, count=None):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = rec._new_id()
            parent = rec.stack[-1] if rec.stack else None
            rec.stack.append(sid)
            result = _FAILED
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                rec.stack.pop()
                value = None if count is None or result is _FAILED else count(result)
                rec.spans.append(Span(rec.pid, sid, parent, name, start, end, rec.request, value))

        return wrapper

    def counting(self, name: str, fn):
        """Wrap a generator function: one zero-length span carrying the
        number of items it yielded."""
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            n = 0
            try:
                for item in fn(*args, **kwargs):
                    n += 1
                    yield item
            finally:
                t = perf_counter()
                parent = rec.stack[-1] if rec.stack else None
                rec.spans.append(Span(rec.pid, rec._new_id(), parent, name, t, t, rec.request, n))

        return wrapper

    def install(self) -> None:
        """Wrap every target that exists; `missing` names those that do not."""
        self.missing = []
        for name, module, attr, count in TARGETS:
            owner_name, _, fn_name = attr.rpartition(".")
            owner = importlib.import_module(module)
            if owner_name:
                owner = getattr(owner, owner_name, None)
            original = getattr(owner, fn_name, None)
            if original is None:
                self.missing.append(name)
                continue
            wrapped = self.counting(name, original) if count == "yields" else self.span(name, original, count)
            if owner_name:
                self._patch(owner, fn_name, wrapped)
                continue
            for mod_name, m in list(sys.modules.items()):
                if mod_name == "unitals" or mod_name.startswith("unitals."):
                    for key, value in list(vars(m).items()):
                        if value is original:
                            self._patch(m, key, wrapped)

    def _patch(self, owner, key, wrapped) -> None:
        self._patched.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    def take(self) -> list:
        """Remove and return the recorded spans."""
        out = self.spans
        self.spans = []
        return out

    def after_fork(self) -> None:
        self.pid = os.getpid()
        self.spans.clear()
        self.stack.clear()


def write_spans(spans, path) -> None:
    """Append spans to a file, one JSON array per line in Span's field order."""
    with open(path, "a", encoding="utf-8") as fh:
        fh.writelines(json.dumps(s) + "\n" for s in spans)


def read_spans(paths) -> list:
    out = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            out.extend(Span(*json.loads(line)) for line in fh)
    return out


# ----------------------------------------------------------------------
# per-layer metrics
#
# Each metric names the end-to-end metric and workload it should move:
# see perfbench/README.md.

def _self_times(spans) -> dict:
    child = {}
    for s in spans:
        if s.parent is not None:
            key = (s.pid, s.parent)
            child[key] = child.get(key, 0.0) + s.end - s.start
    return {(s.pid, s.id): s.end - s.start - child.get((s.pid, s.id), 0.0) for s in spans}


def _of(spans, *names):
    return [s for s in spans if s.name in names]


PLANE = ("plane.ProjectivePlane.__init__", "plane.points_on_line", "plane.lines_through_point",
         "gf.GaloisField.__init__")
AGGREGATE = ("census.group_table_rows", "census.totals_row", "census.large_set_rows")

# Metrics that count work done; they must repeat exactly between two
# traced runs of one seed.
COUNTS = ("formats.files_parsed", "persp.full_points_calls", "design.disjoint_pairs", "persp.pairs_fp2",
          "persp.persp_group_calls", "groups.closure_calls", "groups.elements", "nets.found", "cli.report_kb")


def layer_metrics(spans, census_workers: int = 0, census_wall: float = 0.0) -> dict:
    """Every per-layer metric except trace.overhead_pct; 0 where a layer
    did not run.  The census metrics need the worker count and the wall
    time of the traced census run."""
    selfs = _self_times(spans)

    def self_s(*names):
        return sum(selfs[s.pid, s.id] for s in _of(spans, *names))

    fp_calls = _of(spans, "persp.full_points")
    fp2 = sum(1 for s in fp_calls if s.value >= 2)
    classify = [s.end - s.start for s in _of(spans, "census.classify_unital")]
    reports = [s.value for s in _of(spans, "cli.census_worker") if s.value]
    return {
        "formats.parse_s": self_s("formats.load_unital", "formats.parse_unital"),
        "design.validate_s": self_s("design.validate_unital"),
        "formats.files_parsed": len(_of(spans, "formats.parse_unital")),
        "persp.full_points_s": self_s("persp.full_points"),
        "persp.full_points_calls": len(fp_calls),
        "design.disjoint_pairs": sum(s.value for s in _of(spans, "design.disjoint_block_pairs")),
        "persp.pairs_fp2": fp2,
        "persp.fp2_ratio": fp2 / len(fp_calls) if fp_calls else 0.0,
        "persp.persp_group_s": self_s("persp.persp_group"),
        "persp.persp_group_calls": len(_of(spans, "persp.persp_group")),
        "groups.closure_s": self_s("groups.closure"),
        "groups.closure_calls": len(_of(spans, "groups.closure")),
        "groups.elements": sum(s.value or 0 for s in _of(spans, "groups.closure")),
        "groups.naming_s": self_s("groups.structure_name"),
        "groups.cyclic_test_s": self_s("groups.is_cyclic", "groups.is_semiregular"),
        "nets.search_s": self_s("nets.find_dual_3nets"),
        "nets.found": sum(s.value or 0 for s in _of(spans, "nets.find_dual_3nets")),
        "nets.latin_s": self_s("nets.is_cyclic_3net"),
        "census.classify_s": sum(classify) / len(classify) if classify else 0.0,
        "census.regularity_s": self_s("census.is_fpr_triple", "census.is_sfpr_triple"),
        "census.aggregate_s": self_s(*AGGREGATE),
        "cli.report_kb": sum(reports) / len(reports) / 1024 if reports else 0.0,
        "cli.parallel_efficiency": sum(classify) / (census_workers * census_wall) if census_workers else 0.0,
        "hermitian.build_s": self_s("hermitian.hermitian_unital"),
        "plane.build_s": self_s(*PLANE),
    }


def combine(per_pass: list, overhead_pct: float) -> dict:
    """One value per metric from the metrics of several traced passes: the
    median, except counts, which must agree and are taken as they are."""
    out = {name: per_pass[0][name] if name in COUNTS else median(p[name] for p in per_pass)
           for name in per_pass[0]}
    out["trace.overhead_pct"] = overhead_pct
    return out


def counts_agree(per_pass: list) -> bool:
    return all(p[name] == per_pass[0][name] for p in per_pass for name in COUNTS)
