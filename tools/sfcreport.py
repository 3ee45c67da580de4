#!/usr/bin/env python3
"""Validate, summarize, diff and gate sfcvis run artifacts.

Three artifact kinds, detected by their top-level keys:
  * run report      "sfcvis_run_report" (trace::run_report_json, written by
                    --report-out= on benches, examples and tools)
  * Chrome trace    "traceEvents" (trace::chrome_trace_json, --trace-out=;
                    loadable in Perfetto)
  * bench snapshot  "tables" + "directions" (BENCH_<sha>.json written by
                    `gate`, and the committed bench/BENCH_baseline.json)

Subcommands:
  validate [--require SECTION]... FILE...
      Checks the structural invariants of run reports and traces.
      --require brick-cache, locality or jobs also fails a run report
      whose section is missing or unavailable.
  summarize FILE...
      Prints a human-readable breakdown of each report or trace.
  diff [--advisory] BASE CURRENT
      Compares every cell two run reports or snapshots share: result
      tables, bricked.* totals, and locality miss-ratio curves,
      utilization and working sets. Fails when a cell moved more than 15%
      either way or a table changed shape; --advisory reports the same
      lines but exits 0. A self-diff always passes.
  gate [--build-dir=build] [--baseline=FILE] [--out-dir=DIR] [--update-baseline]
      Runs the --quick figure and ablation benches with --report-out=,
      writes their tables to <out-dir>/BENCH_<sha>.json, and fails when a
      gated cell moved more than 15% in its bad direction against the
      baseline (default bench/BENCH_baseline.json). --update-baseline
      instead re-records the baseline's tables that are new, reshaped or
      hold a failing cell, drops the ones this run lacks, keeps every
      other table's cells as recorded and stamps this run's sha.

Exit codes: 0 ok, 1 failed check or threshold, 2 usage error or
unreadable input.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

# A cell moved when its relative delta exceeds THRESHOLD. Base cells with
# magnitude below ABS_FLOOR compare absolutely (a relative delta against ~0
# is meaningless): a gated ~0 cell fails on any move in either direction.
THRESHOLD = 0.15
ABS_FLOOR = 1e-9

# ---------------------------------------------------------------------------
# Run-report schema (trace::run_report_json). These tables are the schema's
# one written form; the validators below enforce them and the extraction
# reads them.
# ---------------------------------------------------------------------------

# The value of "sfcvis_run_report" a report of this schema carries; any
# other version fails validation.
REPORT_VERSION = 5

REPORT_KEYS = ("sfcvis_run_report", "span_tracing", "dropped_spans",
               "hw_counters", "locality", "jobs", "threads",
               "phases", "metrics", "tables")
# hw_counters, locality and jobs are always present; an unavailable one
# says why in "source" (the reported-fallback idiom).
SECTION_KEYS = ("available", "source")
PHASE_KEYS = ("name", "count", "total_ms", "mean_us", "max_us", "per_thread")
LOCALITY_PROFILE_KEYS = ("kernel", "layout", "accesses", "bytes", "line",
                         "page", "sample_rate_log2", "sampled")
LOCALITY_GRANULARITY_KEYS = ("granule_bytes", "accesses", "distinct", "cold",
                             "utilization", "reuse_log2", "mrc")
JOB_ENTRY_KEYS = ("id", "kernel", "state", "tiles", "tiles_run", "run_ns")
JOB_STATES = ("done", "cancelled")
# Sections `validate --require` can insist on.
REQUIRABLE = ("brick-cache", "locality", "jobs")

# Keys Perfetto's trace-event importer needs on every non-metadata event.
TRACE_EVENT_KEYS = ("ph", "ts", "pid", "tid", "name")

# Bench binaries `gate` runs (all with --quick) and, per binary, which of
# their tables gate and in which direction.
#   "lower"    — regression is an increase  (misses, cycles)
#   "higher"   — regression is a decrease   (skip rate)
#   "advisory" — record + report, never fail (wall clock)
# Wall-clock tables never gate: CI machines are too noisy for sub-2x
# timing comparisons to mean anything.
BENCHES = {
    # The paper's figures. A ds cell above 0 means Z-order wins, so the
    # modeled and counter ds tables gate "higher": a drop means Z-order's
    # advantage shrank. Fig. 1 and Fig. 4 count lines per ray and modeled
    # counter events per viewpoint, so they gate "lower".
    "fig1_alignment": {
        "fig1_lines_per_ray.csv": "lower",
    },
    "fig2_bilateral_ivybridge": {
        "bilateral_ivybridge_runtime_ds.csv": "advisory",
        "bilateral_ivybridge_modeled_ds.csv": "higher",
        "bilateral_ivybridge_counter_ds.csv": "higher",
    },
    "fig3_bilateral_mic": {
        "bilateral_mic_runtime_ds.csv": "advisory",
        "bilateral_mic_modeled_ds.csv": "higher",
        "bilateral_mic_counter_ds.csv": "higher",
    },
    "fig4_volrend_viewpoints": {
        "volrend_viewpoint_runtime.csv": "advisory",
        "volrend_viewpoint_counter.csv": "lower",
    },
    "fig5_volrend_ivybridge": {
        "volrend_ivybridge_runtime_ds.csv": "advisory",
        "volrend_ivybridge_modeled_ds.csv": "higher",
        "volrend_ivybridge_counter_ds.csv": "higher",
    },
    "fig6_volrend_mic": {
        "volrend_mic_runtime_ds.csv": "advisory",
        "volrend_mic_modeled_ds.csv": "higher",
        "volrend_mic_counter_ds.csv": "higher",
    },
    "abl_traversal": {
        "abl_traversal_escapes.csv": "lower",
        "abl_traversal_cycles.csv": "lower",
    },
    "abl_empty_space": {
        "abl_empty_fills.csv": "lower",
        "abl_empty_skiprate.csv": "higher",
        "abl_empty_runtime.csv": "advisory",
        "abl_empty_speedup.csv": "advisory",
    },
    "abl_layout_compare": {
        # The main layout tables mix wall clock (noisy) with memsim rows,
        # so they only advise; the tuned-vs-canonical-Z restatement is
        # pure memsim and gates: the quick_search winner must keep
        # beating (or matching) canonical Z-order on modeled cost.
        "abl_layout_bilateral.csv": "advisory",
        "abl_layout_volrend.csv": "advisory",
        "abl_layout_tuned_cycles.csv": "lower",
    },
    "abl_simd": {
        # Samples the shaded macrocell render takes are deterministic; any
        # growth means the traversal stopped skipping samples it used to.
        "abl_simd_samples.csv": "lower",
    },
    "abl_out_of_core": {
        # Deterministic LRU replay of a stencil sweep at working set =
        # 4x cache budget: demand faults / codec ops / modeled cost of
        # SFC brick hops + curve-order prefetch vs decode-recompute.
        "abl_ooc_sim.csv": "lower",
        # Live brick-cache counters and wall clock depend on thread
        # interleaving and the machine: record, never gate.
        "abl_ooc_brickcache.csv": "advisory",
        "abl_ooc_runtime.csv": "advisory",
    },
    "abl_job_overhead": {
        # Job-path replay counters must equal the direct loop's exactly
        # (the ratio row is pinned at 1.0). They are deterministic; the
        # binary additionally hard-fails on any divergence. Wall-clock
        # dispatch overhead only advises.
        "abl_job_model.csv": "lower",
        "abl_job_walltime.csv": "advisory",
    },
    "abl_locality": {
        # Locality observatory over the traced bilateral replay.
        # TracedView rebases every address to a synthetic origin, so
        # miss-ratio curve, line utilization, and SHARDS error are all
        # pure functions of (layout, kernel) — bit-stable, fully gated.
        "abl_locality_mrc.csv": "lower",
        "abl_locality_util.csv": "higher",
        "abl_locality_shards_err.csv": "lower",
        # Working-set counts shift legitimately whenever a layout's
        # padding rules change: record, never gate.
        "abl_locality_ws.csv": "advisory",
    },
}


# ---------------------------------------------------------------------------
# Loading
# ---------------------------------------------------------------------------

def usage_error(msg):
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(2)


def kind_of(doc):
    if not isinstance(doc, dict):
        return None
    if "sfcvis_run_report" in doc:
        return "report"
    if "traceEvents" in doc:
        return "trace"
    if "tables" in doc and "directions" in doc:
        return "snapshot"
    return None


def load(path, kinds):
    """Reads one artifact as (kind, doc); exits 2 when it is unreadable or
    not one of `kinds`."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        usage_error(f"{path}: {e}")
    kind = kind_of(doc)
    if kind not in kinds:
        usage_error(f"{path}: {kind or 'unknown artifact'}, expected one of: "
                    f"{', '.join(kinds)}")
    return kind, doc


def write_json(path, doc):
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

class Invalid(Exception):
    """A failed structural check (exit 1)."""


def need(ok, msg):
    if not ok:
        raise Invalid(msg)


def need_keys(obj, keys, who):
    for key in keys:
        need(key in obj, f"{who} missing '{key}'")


def section(doc, name):
    sec = doc[name]
    need(isinstance(sec, dict) and all(k in sec for k in SECTION_KEYS),
         f"{name} must carry available + source")
    return sec


def validate_trace(doc, require):
    events = doc["traceEvents"]
    need(isinstance(events, list), "traceEvents is not a list")
    need(events, "traceEvents is empty")
    for n, ev in enumerate(events):
        need(isinstance(ev, dict), f"traceEvents[{n}] is not an object")
        if ev.get("ph") == "M":
            continue  # metadata events carry name/pid/tid but no ts by contract
        need_keys(ev, TRACE_EVENT_KEYS, f"traceEvents[{n}] ({ev.get('name', '?')})")
        need(ev["ph"] != "X" or "dur" in ev,
             f"traceEvents[{n}] is a complete event without 'dur'")
    need(any(ev.get("ph") == "X" for ev in events),
         "no duration ('X') events recorded")


def validate_report(doc, require):
    need_keys(doc, REPORT_KEYS, "run report")
    version = doc["sfcvis_run_report"]
    need(version == REPORT_VERSION,
         f"run report schema version {version!r}, expected {REPORT_VERSION}")
    hw = section(doc, "hw_counters")
    need(not hw["available"] or doc.get("run_totals") is not None,
         "hw counters reported available but run_totals is null")
    for phase in doc["phases"]:
        need_keys(phase, PHASE_KEYS, f"phase {phase.get('name', '?')}")
        need(phase["count"] > 0, f"phase {phase['name']} has non-positive count")
    for table in doc["tables"]:
        rows, cols = len(table.get("rows", [])), len(table.get("cols", []))
        cells = table.get("cells", [])
        need(len(cells) == rows and all(len(r) == cols for r in cells),
             f"table {table.get('name', '?')} cells do not match its row/col "
             f"labels ({rows}x{cols})")
    validate_brick_cache(brick_totals(doc), "brick-cache" in require)
    validate_locality(section(doc, "locality"), "locality" in require)
    validate_jobs(section(doc, "jobs"), "jobs" in require)


def report_tables(doc):
    """A run report's result tables keyed like their CSV twins
    ("<name>.csv"), as bench snapshots key them."""
    return {t["name"] + ".csv": t for t in doc.get("tables", [])}


def brick_totals(doc):
    """The report's 'bricked.*' metric totals (exec::publish_brick_cache_
    metrics), or an empty dict when the run had no bricked volume."""
    return {m["name"]: m["total"] for m in doc.get("metrics", [])
            if m["name"].startswith("bricked.")}


def validate_brick_cache(brick, required):
    """A publish always writes the hit/miss pair, and a prefetch hit implies
    an issued prefetch. Required (CI's out-of-core smoke), a missing or
    untouched section fails outright."""
    if not brick:
        need(not required, "no bricked.* metrics — the run never published "
             "brick-cache counters (exec::publish_brick_cache_metrics)")
        return
    need_keys(brick, ("bricked.cache_hit", "bricked.cache_miss"),
              "brick-cache section")
    need(not (brick.get("bricked.prefetch_hits", 0) > 0 and
              brick.get("bricked.prefetch_issued", 0) == 0),
         "brick-cache reports prefetch hits without any issued prefetches")
    need(not (required and
              brick["bricked.cache_hit"] + brick["bricked.cache_miss"] == 0),
         "brick-cache section present but never touched (0 hits + 0 misses)")


def validate_granularity(gran, who):
    need_keys(gran, LOCALITY_GRANULARITY_KEYS, who)
    gb = gran["granule_bytes"]
    need(gb > 0 and not gb & (gb - 1),
         f"{who} granule_bytes {gb} is not a power of two")
    need(gran["distinct"] <= gran["accesses"] and gran["cold"] <= gran["accesses"],
         f"{who} counts inconsistent (distinct/cold > accesses)")
    util = gran["utilization"]
    need(util is None or 0.0 <= util <= 1.0,
         f"{who} utilization {util} outside [0, 1]")
    prev_capacity, prev_ratio = 0, 1.0
    for point in gran["mrc"]:
        cap, ratio = point["capacity_bytes"], point["miss_ratio"]
        need(cap > prev_capacity,
             f"{who} MRC capacities not strictly ascending at {cap}")
        need(0.0 <= ratio <= 1.0, f"{who} miss ratio {ratio} at {cap}B outside [0, 1]")
        # An LRU miss-ratio curve over a fixed trace can only fall (or hold)
        # as the modeled cache grows; allow float-rounding slack.
        need(ratio <= prev_ratio + 1e-9, f"{who} MRC not monotone "
             f"nonincreasing at {cap}B ({prev_ratio} -> {ratio})")
        prev_capacity, prev_ratio = cap, ratio


def validate_locality(loc, required):
    """An available section holds at least one reuse-distance profile, each
    with well-formed line and page (and optional SHARDS-sampled) slices."""
    if not loc["available"]:
        need(not required, f"locality section unavailable ({loc['source']}) "
             f"but --require locality was given")
        return
    profiles = loc.get("profiles")
    need(profiles, "locality reported available with no profiles")
    for n, profile in enumerate(profiles):
        need_keys(profile, LOCALITY_PROFILE_KEYS, f"locality profile [{n}]")
        who = f"locality[{profile['kernel']}/{profile['layout']}]"
        need(profile["accesses"] > 0, f"{who} recorded no accesses")
        validate_granularity(profile["line"], who + " line")
        validate_granularity(profile["page"], who + " page")
        need(profile["line"]["granule_bytes"] <= profile["page"]["granule_bytes"],
             f"{who} line granule larger than page granule")
        if profile["sampled"] is not None:
            validate_granularity(profile["sampled"], who + " sampled")


def validate_jobs(jobs, required):
    """An available section holds at least one job (exec::JobGraph), each
    with a unique positive id, a terminal state, and tiles_run consistent
    with it: only cancellation may cut a job short."""
    if not jobs["available"]:
        need(not required, f"jobs section unavailable ({jobs['source']}) but "
             f"--require jobs was given")
        return
    entries = jobs.get("jobs")
    need(entries, "jobs reported available with no entries")
    seen_ids = set()
    for n, job in enumerate(entries):
        need_keys(job, JOB_ENTRY_KEYS, f"job [{n}]")
        who = f"job {job['id']} ({job['kernel']})"
        need(job["id"] > 0 and job["id"] not in seen_ids,
             f"{who} id not unique and positive")
        seen_ids.add(job["id"])
        need(job["state"] in JOB_STATES, f"{who} state '{job['state']}' not "
             f"terminal (expected one of {JOB_STATES})")
        need(job["tiles_run"] <= job["tiles"], f"{who} ran more tiles than "
             f"decomposed ({job['tiles_run']} > {job['tiles']})")
        need(job["state"] != "done" or job["tiles_run"] == job["tiles"],
             f"{who} done with {job['tiles_run']}/{job['tiles']} tiles — only "
             f"cancellation may cut a job short")


VALIDATORS = {"report": validate_report, "trace": validate_trace}


def cmd_validate(args):
    failures = 0
    for path in args.files:
        kind, doc = load(path, tuple(VALIDATORS))
        try:
            VALIDATORS[kind](doc, set(args.require))
            print(f"[sfcreport] OK: {path} ({kind})")
        except Invalid as e:
            print(f"[sfcreport] FAIL: {path}: {e}", file=sys.stderr)
            failures += 1
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# summarize
# ---------------------------------------------------------------------------

def fmt_count(v):
    return f"{v:,}"


def summarize_report(doc, path):
    hw = doc["hw_counters"]
    print(f"== run report: {path} ==")
    print(f"span tracing: {'on' if doc['span_tracing'] else 'off'}  |  "
          f"counters: {hw['source']}  |  dropped spans: {doc['dropped_spans']}")

    if doc["phases"]:
        have_hw = any(p.get("counters") for p in doc["phases"])
        head = (f"{'phase':<34} {'count':>8} {'total ms':>10} {'mean us':>10} "
                f"{'max us':>10} {'imbal':>6}")
        print("\n" + head + (f" {'cache miss':>12}" if have_hw else ""))
        for phase in doc["phases"]:
            label = phase["name"] + (f" [{phase['tag']}]" if phase.get("tag") else "")
            line = (f"{label:<34} {fmt_count(phase['count']):>8} "
                    f"{phase['total_ms']:>10.3f} {phase['mean_us']:>10.1f} "
                    f"{phase['max_us']:>10.1f} {phase.get('imbalance', 0.0):>6.2f}")
            if have_hw:
                misses = (phase.get("counters") or {}).get("cache_misses")
                line += f" {'-' if misses is None else fmt_count(misses):>12}"
            print(line)

    if doc["threads"]:
        print(f"\nthreads ({len(doc['threads'])}):")
        for t in doc["threads"]:
            who = f"worker {t['worker']}" if t.get("worker") is not None else \
                f"thread {t['tid']}"
            drop = f", dropped {fmt_count(t['dropped'])}" if t["dropped"] else ""
            print(f"  {who:<12} {fmt_count(t['spans'])} spans{drop}")

    brick = brick_totals(doc)
    if brick:
        hits = brick.get("bricked.cache_hit", 0)
        misses = brick.get("bricked.cache_miss", 0)
        rate = f"{hits / (hits + misses):.1%}" if hits + misses else "n/a"
        print(f"\nbrick cache: {fmt_count(hits)} hits / {fmt_count(misses)} "
              f"misses (hit rate {rate})")
        print(f"  evictions {fmt_count(brick.get('bricked.evictions', 0))}  "
              f"overflow {fmt_count(brick.get('bricked.overflow_bricks', 0))}  "
              f"prefetch {fmt_count(brick.get('bricked.prefetch_hits', 0))}/"
              f"{fmt_count(brick.get('bricked.prefetch_issued', 0))} hit/issued")

    loc = doc["locality"]
    if loc.get("available"):
        print(f"\nlocality ({len(loc['profiles'])} profiles):")
        for p in loc["profiles"]:
            line, page = p["line"], p["page"]
            util = line["utilization"]
            util_s = f"{util:.3f}" if util is not None else "n/a"
            first, last = line["mrc"][0], line["mrc"][-1]
            print(f"  {p['kernel']}/{p['layout']:<28} "
                  f"{fmt_count(p['accesses'])} accesses  "
                  f"WS {fmt_count(line['distinct'])} lines / "
                  f"{fmt_count(page['distinct'])} pages  util {util_s}")
            print(f"    MRC {first['capacity_bytes'] // 1024}KB "
                  f"{first['miss_ratio']:.4f} .. "
                  f"{last['capacity_bytes'] // (1 << 20)}MB "
                  f"{last['miss_ratio']:.4f}"
                  + ("" if p["sampled"] is None else
                     f"  (SHARDS rate 1/{1 << p['sample_rate_log2']})"))
    else:
        print(f"\nlocality: unavailable ({loc.get('source', '?')})")

    jobs = doc["jobs"]
    if jobs.get("available"):
        print(f"\njobs ({len(jobs['jobs'])}):")
        for j in jobs["jobs"]:
            print(f"  #{j['id']:<4} {j['kernel']:<26} {j['state']:<10} "
                  f"{fmt_count(j['tiles_run'])}/{fmt_count(j['tiles'])} tiles  "
                  f"run {j['run_ns'] / 1e6:.3f} ms")
    else:
        print(f"\njobs: unavailable ({jobs.get('source', '?')})")

    if doc["metrics"]:
        print("\nmetrics:")
        for m in doc["metrics"]:
            print(f"  {m['name']:<34} total {fmt_count(m['total']):>14}  "
                  f"imbal {m.get('imbalance', 0.0):.2f}")
    if doc["tables"]:
        print(f"\ntables: {', '.join(t['name'] for t in doc['tables'])}")


def summarize_trace(doc, path):
    events = doc["traceEvents"]
    spans = [ev for ev in events if ev.get("ph") == "X"]
    print(f"== chrome trace: {path} ==")
    print(f"{len(events)} events, {len(spans)} spans")
    by_name = {}
    for ev in spans:
        agg = by_name.setdefault(ev["name"], [0, 0.0])
        agg[0] += 1
        agg[1] += ev.get("dur", 0.0)
    for name in sorted(by_name, key=lambda n: -by_name[n][1]):
        count, dur = by_name[name]
        print(f"  {name:<34} {fmt_count(count):>10} spans {dur / 1e3:>10.3f} ms")


SUMMARIZERS = {"report": summarize_report, "trace": summarize_trace}


def cmd_summarize(args):
    for path in args.files:
        kind, doc = load(path, tuple(SUMMARIZERS))
        SUMMARIZERS[kind](doc, path)
        print()
    return 0


# ---------------------------------------------------------------------------
# Cells: the one extraction diff and gate compare
# ---------------------------------------------------------------------------

def capacity_label(cap):
    return f"{cap // 1024}KB" if cap < (1 << 20) else f"{cap // (1 << 20)}MB"


def cells(doc, kind):
    """Turns a run report or bench snapshot into named cells.

    Returns (groups, shapes): groups maps a group name to {label: value},
    shapes maps each table's group to its (rows, cols) labels. Groups are
    result tables ("<name>.csv", labels "row | col"), "brick-cache" (the
    bricked.* totals) and "locality[<kernel>/<layout>]" (accesses plus,
    per line/page/sampled slice, working set, cold misses, utilization
    and each MRC point).
    """
    tables = report_tables(doc) if kind == "report" else doc["tables"]
    groups, shapes = {}, {}
    for name, t in tables.items():
        shapes[name] = (t["rows"], t["cols"])
        groups[name] = {f"{row} | {col}": t["cells"][r][c]
                        for r, row in enumerate(t["rows"])
                        for c, col in enumerate(t["cols"])}
    if kind != "report":
        return groups, shapes
    brick = brick_totals(doc)
    if brick:
        groups["brick-cache"] = brick
    loc = doc.get("locality") or {}
    for p in loc.get("profiles", []) if loc.get("available") else []:
        group = groups[f"locality[{p['kernel']}/{p['layout']}]"] = {
            "accesses": p["accesses"]}
        for slice_name in ("line", "page", "sampled"):
            gran = p[slice_name]
            if gran is None:
                continue
            for key in ("distinct", "cold", "utilization"):
                group[f"{slice_name} {key}"] = gran[key]
            for point in gran["mrc"]:
                group[f"{slice_name} miss@{capacity_label(point['capacity_bytes'])}"] = \
                    point["miss_ratio"]
    return groups, shapes


def delta(base, cur, direction):
    """One cell's verdict as (failed, moved, text).

    `moved`: the cell changed by more than THRESHOLD either way. `failed`:
    it moved in its direction's bad way — "lower" fails on a rise, "higher"
    on a drop, "both" on either, "advisory" never. A base within ABS_FLOOR
    of zero compares absolutely, so every non-advisory cell pinned at ~0
    fails on any move.
    """
    if abs(base) < ABS_FLOOR:
        moved = abs(cur - base) > ABS_FLOOR
        return (moved and direction != "advisory", moved,
                f"{base:.6g} -> {cur:.6g} (base ~0)")
    rel = (cur - base) / abs(base)
    bad = {"lower": rel, "higher": -rel, "both": abs(rel)}.get(direction, 0.0)
    return bad > THRESHOLD, abs(rel) > THRESHOLD, f"{base:.6g} -> {cur:.6g} ({rel:+.1%})"


def compare(base, cur, direction_of):
    """Compares two `cells()` results cell by cell.

    direction_of(group, label) gives each cell's delta direction. Returns
    (failed, moved, notes, compared): lines for failed cells and changed
    table shapes, lines for cells that moved without failing, notes on
    what only one side has, and the number of cells compared.
    """
    (base_groups, base_shapes), (cur_groups, cur_shapes) = base, cur
    failed, moved, notes, compared = [], [], [], 0

    def one_sided(name, in_base):
        notes.append(f"{name}: only in {'base' if in_base else 'current'} (skipped)")

    for group in sorted(set(base_groups) | set(cur_groups)):
        if (group in base_groups) != (group in cur_groups):
            one_sided(group, group in base_groups)
            continue
        if base_shapes.get(group) != cur_shapes.get(group):
            (br, bc), (cr, cc) = base_shapes[group], cur_shapes[group]
            failed.append(f"{group}: table shape changed ({len(br)}x{len(bc)} -> "
                          f"{len(cr)}x{len(cc)})")
            continue
        b, c = base_groups[group], cur_groups[group]
        for label in sorted(set(b) ^ set(c)):
            one_sided(f"{group} [{label}]", label in b)
        for label in b:
            if label not in c or b[label] is None or c[label] is None:
                continue
            compared += 1
            fail, move, text = delta(b[label], c[label], direction_of(group, label))
            if fail:
                failed.append(f"{group} [{label}]: {text}")
            elif move:
                moved.append(f"{group} [{label}]: {text}")
    return failed, moved, notes, compared


def cmd_diff(args):
    base_kind, base = load(args.base, ("report", "snapshot"))
    cur_kind, cur = load(args.current, ("report", "snapshot"))
    failed, _, notes, compared = compare(cells(base, base_kind), cells(cur, cur_kind),
                                         lambda group, label: "both")
    verdict = "OK" if not failed or args.advisory else "FAIL"
    print(f"[sfcreport] diff {verdict}: {len(failed)} of {compared} compared "
          f"cells moved beyond {THRESHOLD:.0%} ({args.base} vs {args.current})")
    for line in failed + notes:
        print(f"  {line}")
    return 1 if failed and not args.advisory else 0


# ---------------------------------------------------------------------------
# gate
# ---------------------------------------------------------------------------

def run_benches(build_dir, work_dir):
    """Runs every bench in BENCHES with --quick --report-out= and returns
    the snapshot's (tables, directions) from the run reports."""
    tables, directions = {}, {}
    for binary, gated in BENCHES.items():
        exe = os.path.join(build_dir, "bench", binary)
        if not os.path.exists(exe):
            usage_error(f"bench binary not found: {exe} "
                        f"(build with -DSFCVIS_BUILD_BENCH=ON)")
        report = os.path.join(work_dir, binary + "_report.json")
        cmd = [exe, "--quick", f"--report-out={report}"]
        print(f"[sfcreport] running {' '.join(cmd)}")
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            usage_error(f"{binary} exited {proc.returncode}")
        _, doc = load(report, ("report",))
        found = report_tables(doc)
        for name, direction in gated.items():
            if name not in found:
                usage_error(f"{binary} run report lacks table {name}")
            tables[name] = {k: found[name][k] for k in ("rows", "cols", "cells")}
            directions[name] = direction
    return tables, directions


def gate_compare(baseline, snapshot):
    """Compares a fresh snapshot to the baseline, each table by its
    direction. Returns compare()'s lists."""
    directions = snapshot["directions"]
    failed, moved, notes, _ = compare(
        cells(baseline, "snapshot"), cells(snapshot, "snapshot"),
        lambda group, label: directions.get(group, "advisory"))
    return failed, moved, notes


def rerecord(baseline, snapshot):
    """The baseline `gate --update-baseline` writes, and the names of the
    tables it took from `snapshot`. A table that is new, reshaped or holds
    a failing cell takes this run's cells; every other table keeps its
    recorded cells, so advisory wall-clock cells that moved are not
    re-recorded. Tables this run lacks are dropped. The result carries
    this run's sha and directions."""
    recorded = baseline["tables"]
    tables, taken = {}, []
    for name, table in snapshot["tables"].items():
        old = recorded.get(name)
        if old is not None:
            failed, _, _, _ = compare(
                cells({"tables": {name: old}}, "snapshot"),
                cells({"tables": {name: table}}, "snapshot"),
                lambda group, label: snapshot["directions"][name])
            if not failed:
                tables[name] = old
                continue
        tables[name] = table
        taken.append(name)
    return dict(snapshot, tables=tables), taken


def git_sha(repo_root):
    try:
        out = subprocess.run(
            ["git", "-C", repo_root, "rev-parse", "--short=12", "HEAD"],
            capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (subprocess.CalledProcessError, OSError):
        return "unknown"


def cmd_gate(args):
    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    baseline_path = args.baseline or os.path.join(repo_root, "bench",
                                                  "BENCH_baseline.json")
    with tempfile.TemporaryDirectory(prefix="sfcreport_") as work_dir:
        tables, directions = run_benches(args.build_dir, work_dir)
    sha = git_sha(repo_root)
    snapshot = {"sha": sha, "threshold": THRESHOLD, "directions": directions,
                "tables": tables}
    out_dir = args.out_dir or args.build_dir
    os.makedirs(out_dir, exist_ok=True)
    out_path = os.path.join(out_dir, f"BENCH_{sha}.json")
    write_json(out_path, snapshot)
    print(f"[sfcreport] wrote {out_path}")

    if args.update_baseline:
        if os.path.exists(baseline_path):
            _, baseline = load(baseline_path, ("snapshot",))
            snapshot, taken = rerecord(baseline, snapshot)
            dropped = sorted(set(baseline["tables"]) - set(snapshot["tables"]))
            print(f"[sfcreport] re-recorded {len(taken)} table(s): "
                  f"{', '.join(taken) or '-'}; dropped: {', '.join(dropped) or '-'}")
        write_json(baseline_path, snapshot)
        print(f"[sfcreport] baseline updated: {baseline_path}")
        return 0
    if not os.path.exists(baseline_path):
        usage_error(f"no baseline at {baseline_path}; create one with "
                    f"--update-baseline on a known-good commit")
    _, baseline = load(baseline_path, ("snapshot",))
    failed, moved, notes = gate_compare(baseline, snapshot)
    for line in moved + notes:
        print(f"[sfcreport] advisory: {line}")
    base_sha = baseline.get("sha", "?")
    if failed:
        print(f"[sfcreport] FAIL: {len(failed)} gated cell(s) regressed more "
              f"than {THRESHOLD:.0%} vs baseline {base_sha}:", file=sys.stderr)
        for line in failed:
            print(f"  {line}", file=sys.stderr)
        print("  (if the change is an intended tradeoff, rerun with "
              "--update-baseline and commit the new baseline)", file=sys.stderr)
        return 1
    print(f"[sfcreport] OK: all gated tables within {THRESHOLD:.0%} of "
          f"baseline {base_sha}")
    return 0


# ---------------------------------------------------------------------------

def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("validate", help="check structural invariants")
    p.add_argument("files", nargs="+", help="artifact JSON files")
    p.add_argument("--require", action="append", default=[], choices=REQUIRABLE,
                   metavar="SECTION", help="fail a run report whose SECTION "
                   f"({', '.join(REQUIRABLE)}) is missing or unavailable")
    p = sub.add_parser("summarize", help="print a human-readable breakdown")
    p.add_argument("files", nargs="+", help="artifact JSON files")
    p = sub.add_parser("diff", help="compare two run reports or snapshots")
    p.add_argument("base", help="base run report / bench snapshot")
    p.add_argument("current", help="current run report / bench snapshot")
    p.add_argument("--advisory", action="store_true",
                   help="report every delta but exit 0")
    p = sub.add_parser("gate", help="run the quick benches against the baseline")
    p.add_argument("--build-dir", default="build")
    p.add_argument("--baseline", default=None,
                   help="baseline snapshot (default bench/BENCH_baseline.json)")
    p.add_argument("--out-dir", default=None,
                   help="where BENCH_<sha>.json is written (default build dir)")
    p.add_argument("--update-baseline", action="store_true",
                   help="re-record the new, reshaped and failing tables of "
                   "the baseline from this run and exit 0")
    args = parser.parse_args(argv)
    return {"validate": cmd_validate, "summarize": cmd_summarize,
            "diff": cmd_diff, "gate": cmd_gate}[args.command](args)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:  # e.g. `sfcreport.py summarize ... | head`
        sys.exit(0)
