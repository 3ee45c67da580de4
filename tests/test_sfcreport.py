#!/usr/bin/env python3
"""Tests for tools/sfcreport.py: validator rejections, diff and the gate.

Each rejection fixture mutates one valid artifact so that exactly one
structural check fails; `validate` must exit 1 on every one of them. The
diff and gate tests exercise the shared cell extraction and delta rule on
small synthetic run reports and bench snapshots.

Run with `python3 tests/test_sfcreport.py`, or through ctest (label
`tools`).
"""

import contextlib
import copy
import io
import json
import os
import sys
import tempfile
import unittest

sys.dont_write_bytecode = True  # keep __pycache__ out of the source tree
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "..", "tools"))
import sfcreport  # noqa: E402


# ---------------------------------------------------------------------------
# Valid artifacts
# ---------------------------------------------------------------------------

def granularity(granule_bytes):
    return {"granule_bytes": granule_bytes, "accesses": 100, "distinct": 10,
            "cold": 10, "utilization": 0.5, "reuse_log2": [4, 2],
            "mrc": [{"capacity_bytes": 32 << 10, "miss_ratio": 0.5},
                    {"capacity_bytes": 1 << 20, "miss_ratio": 0.1}]}


def job(job_id):
    return {"id": job_id, "kernel": "raycast", "state": "done", "tiles": 8,
            "tiles_run": 8, "run_ns": 5000,
            "structure_cache_hits": 1, "structure_cache_misses": 0}


def valid_report():
    """A run report with every optional section live: hw counters, a
    locality profile with a sampled slice, two jobs, brick-cache totals
    and one table."""
    return {
        "sfcvis_run_report": 3, "span_tracing": True, "dropped_spans": 0,
        "hw_counters": {"available": True, "source": "perf-group"},
        "run_totals": {"cache_misses": 7},
        "locality": {"available": True, "source": "locality profiler",
                     "profiles": [{"kernel": "bilateral", "layout": "z-order",
                                   "accesses": 100, "bytes": 400,
                                   "line": granularity(64),
                                   "page": granularity(4096),
                                   "sample_rate_log2": 3,
                                   "sampled": granularity(64)}]},
        "jobs": {"available": True, "source": "exec::JobGraph",
                 "jobs": [job(1), job(2)]},
        "threads": [{"tid": 1, "worker": 0, "spans": 3, "dropped": 0}],
        "phases": [{"name": "filter.bilateral", "tag": "z-order", "count": 3,
                    "total_ms": 1.5, "mean_us": 500.0, "max_us": 600.0,
                    "imbalance": 1.1, "per_thread": [],
                    "counters": {"cache_misses": 7}}],
        "metrics": [{"name": "bricked.cache_hit", "total": 90},
                    {"name": "bricked.cache_miss", "total": 10},
                    {"name": "bricked.prefetch_hits", "total": 4},
                    {"name": "bricked.prefetch_issued", "total": 5}],
        "histograms": [{"name": "h", "count": 2, "mean": 1.5, "min": 1,
                        "max": 2}],
        "tables": [{"name": "abl_demo", "title": "demo", "rows": ["a", "b"],
                    "cols": ["x"], "cells": [[1.0], [2.0]]}],
    }


def valid_trace():
    return {"traceEvents": [
        {"ph": "M", "name": "thread_name", "pid": 1, "tid": 1,
         "args": {"name": "worker 0"}},
        {"ph": "X", "name": "filter.bilateral", "ts": 0.0, "dur": 5.0,
         "pid": 1, "tid": 1}]}


# ---------------------------------------------------------------------------
# Rejection fixtures: (name, valid artifact, mutation, required section)
# ---------------------------------------------------------------------------

def _walk(doc, path):
    for key in path[:-1]:
        doc = doc[key]
    return doc, path[-1]


def put(*path_and_value):
    *path, value = path_and_value

    def mutate(doc):
        parent, key = _walk(doc, path)
        parent[key] = copy.deepcopy(value)
    return mutate


def drop(*path):
    def mutate(doc):
        parent, key = _walk(doc, path)
        del parent[key]
    return mutate


def both(*mutations):
    def mutate(doc):
        for m in mutations:
            m(doc)
    return mutate


LINE = ("locality", "profiles", 0, "line")
PROFILE = ("locality", "profiles", 0)
JOB0 = ("jobs", "jobs", 0)

REJECTIONS = [
    # Chrome trace
    ("trace events not a list", valid_trace, put("traceEvents", {}), None),
    ("trace events empty", valid_trace, put("traceEvents", []), None),
    ("trace event not an object", valid_trace, put("traceEvents", 1, 7), None),
    ("trace event missing ts", valid_trace, drop("traceEvents", 1, "ts"), None),
    ("complete event without dur", valid_trace, drop("traceEvents", 1, "dur"), None),
    ("no duration events", valid_trace, put("traceEvents", 1, "ph", "i"), None),
    # run report: top level, counters, phases, tables
    ("report missing required key", valid_report, drop("histograms"), None),
    ("report schema version not current", valid_report, put("sfcvis_run_report", 2), None),
    ("hw_counters without source", valid_report, drop("hw_counters", "source"), None),
    ("hw available, run_totals null", valid_report, put("run_totals", None), None),
    ("phase missing key", valid_report, drop("phases", 0, "max_us"), None),
    ("phase non-positive count", valid_report, put("phases", 0, "count", 0), None),
    ("table cells mismatch labels", valid_report, put("tables", 0, "cells", [[1.0]]), None),
    # run report: brick cache
    ("required brick cache absent", valid_report, put("metrics", []), "brick-cache"),
    ("brick cache missing miss total", valid_report, drop("metrics", 1), None),
    ("prefetch hits, none issued", valid_report, put("metrics", 3, "total", 0), None),
    ("required brick cache untouched", valid_report,
     both(put("metrics", 0, "total", 0), put("metrics", 1, "total", 0)), "brick-cache"),
    # run report: locality granularity slice
    ("granularity missing key", valid_report, drop(*LINE, "cold"), None),
    ("granule not a power of two", valid_report, put(*LINE, "granule_bytes", 48), None),
    ("granularity counts inconsistent", valid_report, put(*LINE, "distinct", 1000), None),
    ("utilization above 1", valid_report, put(*LINE, "utilization", 1.5), None),
    ("MRC capacities not ascending", valid_report,
     put(*LINE, "mrc", 1, "capacity_bytes", 1024), None),
    ("MRC miss ratio above 1", valid_report, put(*LINE, "mrc", 0, "miss_ratio", 1.5), None),
    ("MRC not monotone", valid_report, put(*LINE, "mrc", 1, "miss_ratio", 0.9), None),
    # run report: locality section
    ("locality without source", valid_report, drop("locality", "source"), None),
    ("required locality unavailable", valid_report,
     put("locality", {"available": False, "source": "off", "profiles": []}), "locality"),
    ("locality available, no profiles", valid_report, put("locality", "profiles", []), None),
    ("locality profile missing key", valid_report, drop(*PROFILE, "bytes"), None),
    ("locality profile no accesses", valid_report, put(*PROFILE, "accesses", 0), None),
    ("line granule above page granule", valid_report, put(*LINE, "granule_bytes", 8192), None),
    # run report: jobs section
    ("jobs without source", valid_report, drop("jobs", "source"), None),
    ("required jobs unavailable", valid_report,
     put("jobs", {"available": False, "source": "off", "jobs": []}), "jobs"),
    ("jobs available, no entries", valid_report, put("jobs", "jobs", []), None),
    ("job missing key", valid_report, drop(*JOB0, "run_ns"), None),
    ("job id repeated", valid_report, put("jobs", "jobs", 1, "id", 1), None),
    ("job state not terminal", valid_report, put(*JOB0, "state", "running"), None),
    ("job ran more tiles than it has", valid_report, put(*JOB0, "tiles_run", 99), None),
    ("done job ran fewer tiles", valid_report, put(*JOB0, "tiles_run", 4), None),
]


def rejection_fixtures():
    """Yields (name, doc, required section or None) per rejection."""
    for name, make, mutate, require in REJECTIONS:
        doc = make()
        mutate(doc)
        yield name, doc, require


# ---------------------------------------------------------------------------
# Snapshots for diff and gate
# ---------------------------------------------------------------------------

def snapshot(tables, directions):
    return {"sha": "test", "threshold": sfcreport.THRESHOLD,
            "directions": directions,
            "tables": {name: {"rows": ["r"], "cols": ["c"], "cells": [[v]]}
                       for name, v in tables.items()}}


class SfcreportCase(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory(prefix="test_sfcreport_")
        self.addCleanup(self.tmp.cleanup)

    def write(self, name, doc):
        path = os.path.join(self.tmp.name, name)
        with open(path, "w", encoding="utf-8") as f:
            if isinstance(doc, str):
                f.write(doc)
            else:
                json.dump(doc, f)
        return path

    def run_tool(self, *argv):
        """Runs sfcreport in-process; returns (exit code, stdout + stderr)."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            try:
                code = sfcreport.main(list(argv))
            except SystemExit as e:
                code = e.code
        return code, out.getvalue()


class Validate(SfcreportCase):
    def test_valid_artifacts_pass_with_every_requirement(self):
        paths = [self.write("report.json", valid_report()),
                 self.write("trace.json", valid_trace())]
        argv = ["validate"]
        for section in sfcreport.REQUIRABLE:
            argv += ["--require", section]
        code, out = self.run_tool(*argv, *paths)
        self.assertEqual(code, 0, out)

    def test_unavailable_sections_pass_unless_required(self):
        doc = valid_report()
        doc["hw_counters"]["available"] = False
        doc["run_totals"] = None
        for name in ("locality", "jobs"):
            doc[name] = {"available": False, "source": "off"}
        doc["metrics"] = []
        path = self.write("report.json", doc)
        self.assertEqual(self.run_tool("validate", path)[0], 0)
        for section in sfcreport.REQUIRABLE:
            self.assertEqual(self.run_tool("validate", "--require", section, path)[0], 1)

    def test_every_rejection_exits_1(self):
        self.assertEqual(len(REJECTIONS), 38)
        for name, doc, require in rejection_fixtures():
            with self.subTest(name):
                path = self.write("fixture.json", doc)
                argv = ["validate", path] + (["--require", require] if require else [])
                code, out = self.run_tool(*argv)
                self.assertEqual(code, 1, out)
                self.assertIn("FAIL", out)

    def test_required_fixtures_pass_without_the_requirement(self):
        for name, doc, require in rejection_fixtures():
            if require:
                with self.subTest(name):
                    self.assertEqual(
                        self.run_tool("validate", self.write("f.json", doc))[0], 0)

    def test_unreadable_or_unknown_input_exits_2(self):
        cases = [os.path.join(self.tmp.name, "missing.json"),
                 self.write("bad.json", "{not json"),
                 self.write("list.json", [1, 2]),
                 self.write("other.json", {"hello": 1}),
                 self.write("snapshot.json", snapshot({}, {}))]
        for path in cases:
            with self.subTest(path):
                self.assertEqual(self.run_tool("validate", path)[0], 2)
                self.assertEqual(self.run_tool("summarize", path)[0], 2)

    def test_former_layout_registry_is_an_unknown_artifact(self):
        # A tuned layout is named by its spec string (gmorton:<pattern>);
        # the registry document that stored tuned patterns is no artifact.
        path = self.write("registry.json", {"sfcvis_layout_registry": 1, "entries": [
            {"kernel": "bilateral", "shape": "16x16x16", "platform": "generic",
             "interleave": "xyzxyzxyzxyz"}]})
        code, out = self.run_tool("validate", path)
        self.assertEqual(code, 2, out)
        self.assertIn("unknown artifact", out)
        self.assertEqual(self.run_tool("diff", path, path)[0], 2)

    def test_bad_usage_exits_2(self):
        self.assertEqual(self.run_tool("validate", "--require", "nope", "x.json")[0], 2)
        self.assertEqual(self.run_tool()[0], 2)


class Summarize(SfcreportCase):
    def test_every_kind_summarizes(self):
        paths = [self.write("report.json", valid_report()),
                 self.write("trace.json", valid_trace())]
        code, out = self.run_tool("summarize", *paths)
        self.assertEqual(code, 0, out)
        for needle in ("hit rate 90.0%", "bilateral/z-order", "#1",
                       "tables: abl_demo", "1 spans"):
            self.assertIn(needle, out)


class Diff(SfcreportCase):
    def diff(self, base, cur, *flags):
        return self.run_tool("diff", *flags, self.write("base.json", base),
                             self.write("cur.json", cur))

    def test_self_diff_passes(self):
        snap = snapshot({"t.csv": 1.0}, {"t.csv": "lower"})
        for doc in (valid_report(), snap):
            code, out = self.diff(doc, doc)
            self.assertEqual(code, 0, out)
            self.assertIn("diff OK: 0 of", out)

    def test_report_cells_cover_every_section(self):
        groups, _ = sfcreport.cells(valid_report(), "report")
        self.assertEqual(groups["abl_demo.csv"], {"a | x": 1.0, "b | x": 2.0})
        self.assertEqual(groups["brick-cache"]["bricked.cache_hit"], 90)
        loc = groups["locality[bilateral/z-order]"]
        for label in ("accesses", "line distinct", "page utilization",
                      "sampled cold", "line miss@32KB", "page miss@1MB"):
            self.assertIn(label, loc)

    def test_moved_cell_fails_either_way(self):
        for factor in (1.2, 0.8):
            cur = valid_report()
            cur["tables"][0]["cells"][1][0] *= factor
            code, out = self.diff(valid_report(), cur)
            self.assertEqual(code, 1, out)
            self.assertIn("abl_demo.csv [b | x]", out)

    def test_moved_locality_and_brick_cells_fail(self):
        for mutate in (put(*LINE, "mrc", 1, "miss_ratio", 0.05),
                       put("metrics", 1, "total", 20)):
            cur = valid_report()
            mutate(cur)
            self.assertEqual(self.diff(valid_report(), cur)[0], 1)

    def test_shape_change_fails(self):
        cur = valid_report()
        cur["tables"][0]["rows"].append("c")
        cur["tables"][0]["cells"].append([3.0])
        code, out = self.diff(valid_report(), cur)
        self.assertEqual(code, 1, out)
        self.assertIn("table shape changed (2x1 -> 3x1)", out)

    def test_advisory_always_passes(self):
        cur = valid_report()
        cur["tables"][0]["cells"][0][0] = 5.0
        code, out = self.diff(valid_report(), cur, "--advisory")
        self.assertEqual(code, 0, out)
        self.assertIn("diff OK: 1 of", out)

    def test_report_against_snapshot_compares_shared_tables(self):
        snap = snapshot({"abl_demo.csv": 1.0}, {"abl_demo.csv": "lower"})
        snap["tables"]["abl_demo.csv"] = {"rows": ["a", "b"], "cols": ["x"],
                                          "cells": [[1.0], [2.0]]}
        code, out = self.diff(snap, valid_report())
        self.assertEqual(code, 0, out)
        self.assertIn("brick-cache: only in current", out)


class GateCompare(unittest.TestCase):
    """gate_compare is the whole verdict of `gate` once the benches ran."""

    def verdict(self, base_value, cur_value, direction):
        failed, _, _ = sfcreport.gate_compare(
            snapshot({"t.csv": base_value}, {"t.csv": direction}),
            snapshot({"t.csv": cur_value}, {"t.csv": direction}))
        return not failed

    def test_lower_cell_fails_on_rise(self):
        self.assertFalse(self.verdict(100.0, 120.0, "lower"))
        self.assertTrue(self.verdict(100.0, 114.0, "lower"))
        self.assertTrue(self.verdict(100.0, 50.0, "lower"))

    def test_higher_cell_fails_on_drop(self):
        self.assertFalse(self.verdict(100.0, 80.0, "higher"))
        self.assertTrue(self.verdict(100.0, 86.0, "higher"))
        self.assertTrue(self.verdict(100.0, 200.0, "higher"))

    def test_zero_baseline_pins_both_directions(self):
        for direction in ("lower", "higher"):
            for cur in (1.0, -1.0, 1e-6):
                self.assertFalse(self.verdict(0.0, cur, direction), (direction, cur))
            self.assertTrue(self.verdict(0.0, 0.0, direction))
            self.assertTrue(self.verdict(0.0, 1e-10, direction))

    def test_advisory_cell_never_fails(self):
        for cur in (0.0, 1000.0, -5.0):
            self.assertTrue(self.verdict(1.0, cur, "advisory"))
        self.assertTrue(self.verdict(0.0, 5.0, "advisory"))

    def test_shape_change_fails(self):
        base = snapshot({"t.csv": 1.0}, {"t.csv": "advisory"})
        cur = copy.deepcopy(base)
        cur["tables"]["t.csv"]["cols"] = ["other"]
        failed, _, _ = sfcreport.gate_compare(base, cur)
        self.assertEqual(len(failed), 1)
        self.assertIn("shape changed", failed[0])

    def test_new_table_is_not_gated(self):
        base = snapshot({}, {})
        cur = snapshot({"t.csv": 1.0}, {"t.csv": "lower"})
        failed, _, notes = sfcreport.gate_compare(base, cur)
        self.assertEqual(failed, [])
        self.assertIn("t.csv: only in current (skipped)", notes)


class Rerecord(unittest.TestCase):
    """`gate --update-baseline` re-records only the tables that changed."""

    def test_only_new_reshaped_and_failing_tables_are_replaced(self):
        directions = {"wall.csv": "advisory", "shape.csv": "lower",
                      "fail.csv": "lower", "same.csv": "lower", "new.csv": "lower"}
        base = snapshot({"wall.csv": 1.0, "shape.csv": 1.0, "fail.csv": 1.0,
                         "same.csv": 1.0, "gone.csv": 1.0}, directions)
        base["sha"] = "recorded"
        cur = snapshot({"wall.csv": 1.3, "shape.csv": 1.0, "fail.csv": 1.2,
                        "same.csv": 1.1, "new.csv": 5.0}, directions)
        cur["sha"] = "current"
        cur["tables"]["shape.csv"]["cols"] = ["c", "d"]
        cur["tables"]["shape.csv"]["cells"] = [[1.0, 2.0]]
        merged, taken = sfcreport.rerecord(base, cur)
        self.assertEqual(merged["sha"], "current")
        self.assertEqual(merged["directions"], directions)
        self.assertEqual(sorted(taken), ["fail.csv", "new.csv", "shape.csv"])
        self.assertEqual(set(merged["tables"]),
                         {"wall.csv", "shape.csv", "fail.csv", "same.csv", "new.csv"})
        # A passing table keeps its recorded cells, the advisory one that
        # moved 30% and the gated one that moved 10% alike.
        self.assertEqual(merged["tables"]["wall.csv"], base["tables"]["wall.csv"])
        self.assertEqual(merged["tables"]["same.csv"], base["tables"]["same.csv"])
        for name in taken:
            self.assertEqual(merged["tables"][name], cur["tables"][name])
        # The merged baseline passes against the run it was recorded from.
        failed, _, _ = sfcreport.gate_compare(merged, cur)
        self.assertEqual(failed, [])


if __name__ == "__main__":
    unittest.main()
