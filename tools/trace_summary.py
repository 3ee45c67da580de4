#!/usr/bin/env python3
"""Summarize (or validate) sfcvis trace artifacts.

Takes the JSON files written by a traced run (bench binaries with
--trace-out=/--report-out=, see bench/common.hpp) and either prints a
human-readable breakdown or — with --validate — checks structural
invariants and exits nonzero on the first violation, which is how CI's
trace-smoke job and the unit tests consume it.

File kinds are auto-detected:
  * run report    — top-level key "sfcvis_run_report" (run_report_json).
    Summary: per-phase table (count, total, mean, max, load imbalance,
    cache misses when hardware counters were live), per-thread span/drop
    counts, metrics registry totals, histogram shapes.
  * Chrome trace  — top-level key "traceEvents" (chrome_trace_json,
    loadable in Perfetto). Summary: event counts per name; validation
    checks every duration event carries the Perfetto-required keys.

Usage:
  tools/trace_summary.py report.json [trace.json ...]
  tools/trace_summary.py --validate report.json trace.json

Exit codes: 0 OK, 1 validation failure, 2 usage / unreadable input.
"""

import argparse
import json
import sys

# Keys Perfetto's trace-event importer needs on every duration event.
DURATION_EVENT_KEYS = ("ph", "ts", "pid", "tid", "name")

RUN_REPORT_REQUIRED = (
    "sfcvis_run_report",
    "span_tracing",
    "dropped_spans",
    "hw_counters",
    "topdown",
    "locality",
    "jobs",
    "threads",
    "phases",
    "metrics",
    "histograms",
    "tables",
)

# Slot-ratio keys an available top-down section must carry beyond the raw
# counts; the stall-derived ratios additionally require has_stalls.
TOPDOWN_AVAILABLE_KEYS = ("cycles", "instructions", "has_stalls", "retiring")
TOPDOWN_STALL_KEYS = ("frontend_bound", "backend_bound", "bad_speculation",
                      "stalled_cycles_frontend", "stalled_cycles_backend")


class ValidationError(Exception):
    pass


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"error: {path}: {e}", file=sys.stderr)
        sys.exit(2)


def detect_kind(doc):
    if isinstance(doc, dict) and "sfcvis_run_report" in doc:
        return "report"
    if isinstance(doc, dict) and "traceEvents" in doc:
        return "trace"
    return None


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def validate_trace(doc, path):
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        raise ValidationError(f"{path}: traceEvents is not a list")
    if not events:
        raise ValidationError(f"{path}: traceEvents is empty")
    for n, ev in enumerate(events):
        if not isinstance(ev, dict):
            raise ValidationError(f"{path}: traceEvents[{n}] is not an object")
        if ev.get("ph") == "M":
            continue  # metadata events carry name/pid/tid but no ts by contract
        for key in DURATION_EVENT_KEYS:
            if key not in ev:
                raise ValidationError(
                    f"{path}: traceEvents[{n}] ({ev.get('name', '?')}) "
                    f"missing required key '{key}'")
        if ev["ph"] == "X" and "dur" not in ev:
            raise ValidationError(
                f"{path}: traceEvents[{n}] is a complete event without 'dur'")
    if not any(ev.get("ph") == "X" for ev in events):
        raise ValidationError(f"{path}: no duration ('X') events recorded")


def validate_report(doc, path):
    for key in RUN_REPORT_REQUIRED:
        if key not in doc:
            raise ValidationError(f"{path}: missing required key '{key}'")
    hw = doc["hw_counters"]
    if not isinstance(hw, dict) or "available" not in hw or "source" not in hw:
        raise ValidationError(f"{path}: hw_counters must carry available + source")
    if hw["available"] and doc.get("run_totals") is None:
        raise ValidationError(
            f"{path}: hw counters reported available but run_totals is null")
    td = doc["topdown"]
    if not isinstance(td, dict) or "available" not in td or "source" not in td:
        raise ValidationError(f"{path}: topdown must carry available + source")
    if td["available"]:
        for key in TOPDOWN_AVAILABLE_KEYS:
            if key not in td:
                raise ValidationError(
                    f"{path}: available topdown section missing '{key}'")
        if td["has_stalls"]:
            for key in TOPDOWN_STALL_KEYS:
                if key not in td:
                    raise ValidationError(
                        f"{path}: topdown with stalls missing '{key}'")
        total = td["retiring"] + sum(
            td.get(k, 0.0)
            for k in ("frontend_bound", "backend_bound", "bad_speculation"))
        if not 0.0 <= td["retiring"] or (td["has_stalls"] and total > 3.0):
            # Ratios are approximations; be loose, but catch garbage.
            raise ValidationError(
                f"{path}: topdown slot ratios out of range (sum {total:.3f})")
    for phase in doc["phases"]:
        for key in ("name", "count", "total_ms", "mean_us", "max_us", "per_thread"):
            if key not in phase:
                raise ValidationError(
                    f"{path}: phase {phase.get('name', '?')} missing '{key}'")
        if phase["count"] <= 0:
            raise ValidationError(
                f"{path}: phase {phase['name']} has non-positive count")
    for table in doc["tables"]:
        rows, cols = len(table.get("rows", [])), len(table.get("cols", []))
        cells = table.get("cells", [])
        if len(cells) != rows or any(len(r) != cols for r in cells):
            raise ValidationError(
                f"{path}: table {table.get('name', '?')} cells do not match "
                f"its row/col labels ({rows}x{cols})")
    validate_brick_cache(doc, path, required=False)
    validate_locality(doc, path, required=False)
    validate_jobs(doc, path, required=False)


def brick_cache_totals(doc):
    """The report's 'bricked.*' metric totals (exec::publish_brick_cache_
    metrics), or an empty dict when the run had no bricked volume."""
    return {m["name"]: m["total"] for m in doc.get("metrics", [])
            if m["name"].startswith("bricked.")}


def validate_brick_cache(doc, path, required):
    """Checks the out-of-core brick-cache section of a run report.

    When any 'bricked.*' counter is present, the hit/miss pair must both
    exist (a publish always writes the full set) and a prefetch hit must
    imply an issued prefetch. With required=True (CI's out-of-core smoke
    job), a report without the section fails outright.
    """
    brick = brick_cache_totals(doc)
    if not brick:
        if required:
            raise ValidationError(
                f"{path}: no bricked.* metrics — the run never published "
                f"brick-cache counters (exec::publish_brick_cache_metrics)")
        return
    for key in ("bricked.cache_hit", "bricked.cache_miss"):
        if key not in brick:
            raise ValidationError(
                f"{path}: brick-cache section incomplete: missing '{key}'")
    if brick.get("bricked.prefetch_hits", 0) > 0 and \
            brick.get("bricked.prefetch_issued", 0) == 0:
        raise ValidationError(
            f"{path}: brick-cache reports prefetch hits without any issued "
            f"prefetches")
    if required and brick["bricked.cache_hit"] + brick["bricked.cache_miss"] == 0:
        raise ValidationError(
            f"{path}: brick-cache section present but never touched "
            f"(0 hits + 0 misses)")


LOCALITY_PROFILE_KEYS = ("kernel", "layout", "accesses", "bytes", "line",
                         "page", "sample_rate_log2", "sampled")
LOCALITY_GRANULARITY_KEYS = ("granule_bytes", "accesses", "distinct", "cold",
                             "utilization", "reuse_log2", "mrc")


def validate_locality_granularity(gran, path, who):
    for key in LOCALITY_GRANULARITY_KEYS:
        if key not in gran:
            raise ValidationError(f"{path}: {who} missing '{key}'")
    gb = gran["granule_bytes"]
    if gb <= 0 or gb & (gb - 1):
        raise ValidationError(
            f"{path}: {who} granule_bytes {gb} is not a power of two")
    if gran["distinct"] > gran["accesses"] or gran["cold"] > gran["accesses"]:
        raise ValidationError(
            f"{path}: {who} counts inconsistent (distinct/cold > accesses)")
    util = gran["utilization"]
    if util is not None and not 0.0 <= util <= 1.0:
        raise ValidationError(
            f"{path}: {who} utilization {util} outside [0, 1]")
    prev_capacity, prev_ratio = 0, 1.0
    for point in gran["mrc"]:
        cap, ratio = point["capacity_bytes"], point["miss_ratio"]
        if cap <= prev_capacity:
            raise ValidationError(
                f"{path}: {who} MRC capacities not strictly ascending at {cap}")
        if not 0.0 <= ratio <= 1.0:
            raise ValidationError(
                f"{path}: {who} miss ratio {ratio} at {cap}B outside [0, 1]")
        # An LRU miss-ratio curve over a fixed trace can only fall (or hold)
        # as the modeled cache grows; allow float-rounding slack.
        if ratio > prev_ratio + 1e-9:
            raise ValidationError(
                f"{path}: {who} MRC not monotone nonincreasing at {cap}B "
                f"({prev_ratio} -> {ratio})")
        prev_capacity, prev_ratio = cap, ratio


def validate_locality(doc, path, required):
    """Checks the 'locality' run-report section (reuse-distance profiles).

    The section is always present; available=False carries a reason in
    'source'. An available section must hold at least one profile, and each
    profile's miss-ratio curves must be well-formed: strictly ascending
    capacities, ratios in [0, 1], monotone nonincreasing (a bigger modeled
    LRU cache can only hit more). With required=True (CI's locality smoke),
    an unavailable section fails outright.
    """
    loc = doc.get("locality")
    if not isinstance(loc, dict) or "available" not in loc or "source" not in loc:
        raise ValidationError(f"{path}: locality must carry available + source")
    if not loc["available"]:
        if required:
            raise ValidationError(
                f"{path}: locality section unavailable ({loc['source']}) but "
                f"--require-locality was given")
        return
    profiles = loc.get("profiles")
    if not profiles:
        raise ValidationError(
            f"{path}: locality reported available with no profiles")
    for n, profile in enumerate(profiles):
        who = f"locality profile [{n}]"
        for key in LOCALITY_PROFILE_KEYS:
            if key not in profile:
                raise ValidationError(f"{path}: {who} missing '{key}'")
        who = (f"locality[{profile['kernel']}/{profile['layout']}]")
        if profile["accesses"] <= 0:
            raise ValidationError(f"{path}: {who} recorded no accesses")
        validate_locality_granularity(profile["line"], path, who + " line")
        validate_locality_granularity(profile["page"], path, who + " page")
        if profile["line"]["granule_bytes"] > profile["page"]["granule_bytes"]:
            raise ValidationError(
                f"{path}: {who} line granule larger than page granule")
        if profile["sampled"] is not None:
            validate_locality_granularity(profile["sampled"], path,
                                          who + " sampled")


JOB_ENTRY_KEYS = ("id", "kernel", "state", "tiles", "tiles_run",
                  "queue_wait_ns", "run_ns",
                  "structure_cache_hits", "structure_cache_misses")
JOB_STATES = ("done", "cancelled")


def validate_jobs(doc, path, required):
    """Checks the 'jobs' run-report section (exec::JobGraph dispatch).

    The section is always present; available=False carries a reason in
    'source'. An available section must hold at least one job entry, each
    with the full per-job accounting set: unique positive ids, a terminal
    state, and tiles_run consistent with the state (a done job ran every
    tile; only cancellation cuts a job short). With required=True (CI's
    trace-smoke job on the job-overhead bench), an unavailable section
    fails outright.
    """
    jobs = doc.get("jobs")
    if not isinstance(jobs, dict) or "available" not in jobs or "source" not in jobs:
        raise ValidationError(f"{path}: jobs must carry available + source")
    if not jobs["available"]:
        if required:
            raise ValidationError(
                f"{path}: jobs section unavailable ({jobs['source']}) but "
                f"--require-jobs was given")
        return
    entries = jobs.get("jobs")
    if not entries:
        raise ValidationError(f"{path}: jobs reported available with no entries")
    seen_ids = set()
    for n, job in enumerate(entries):
        who = f"job [{n}]"
        for key in JOB_ENTRY_KEYS:
            if key not in job:
                raise ValidationError(f"{path}: {who} missing '{key}'")
        who = f"job {job['id']} ({job['kernel']})"
        if job["id"] <= 0 or job["id"] in seen_ids:
            raise ValidationError(f"{path}: {who} id not unique and positive")
        seen_ids.add(job["id"])
        if job["state"] not in JOB_STATES:
            raise ValidationError(
                f"{path}: {who} state '{job['state']}' not terminal "
                f"(expected one of {JOB_STATES})")
        if job["tiles_run"] > job["tiles"]:
            raise ValidationError(
                f"{path}: {who} ran more tiles than decomposed "
                f"({job['tiles_run']} > {job['tiles']})")
        if job["state"] == "done" and job["tiles_run"] != job["tiles"]:
            raise ValidationError(
                f"{path}: {who} done with {job['tiles_run']}/{job['tiles']} "
                f"tiles — only cancellation may cut a job short")


# ---------------------------------------------------------------------------
# Summaries
# ---------------------------------------------------------------------------

def fmt_count(v):
    return f"{v:,}"


def phase_label(phase):
    tag = phase.get("tag")
    return f"{phase['name']} [{tag}]" if tag else phase["name"]


def summarize_report(doc, path):
    hw = doc["hw_counters"]
    print(f"== run report: {path} ==")
    print(f"span tracing: {'on' if doc['span_tracing'] else 'off'}  |  "
          f"counters: {hw['source']}  |  dropped spans: {doc['dropped_spans']}")

    td = doc.get("topdown")
    if td:
        if td.get("available"):
            line = f"top-down: retiring {td['retiring']:.1%}"
            if td.get("has_stalls"):
                line += (f"  frontend-bound {td['frontend_bound']:.1%}"
                         f"  backend-bound {td['backend_bound']:.1%}"
                         f"  bad-speculation {td['bad_speculation']:.1%}")
            else:
                line += "  (stall counters unavailable; level-1 split omitted)"
            print(line)
        else:
            print(f"top-down: unavailable ({td.get('source', '?')})")

    if doc["phases"]:
        have_hw = any(p.get("counters") for p in doc["phases"])
        head = (f"{'phase':<34} {'count':>8} {'total ms':>10} {'mean us':>10} "
                f"{'max us':>10} {'imbal':>6}")
        if have_hw:
            head += f" {'cache miss':>12}"
        print("\n" + head)
        for phase in doc["phases"]:
            line = (f"{phase_label(phase):<34} {fmt_count(phase['count']):>8} "
                    f"{phase['total_ms']:>10.3f} {phase['mean_us']:>10.1f} "
                    f"{phase['max_us']:>10.1f} {phase.get('imbalance', 0.0):>6.2f}")
            if have_hw:
                misses = (phase.get("counters") or {}).get("cache_misses")
                line += f" {fmt_count(misses):>12}" if misses is not None else \
                    f" {'-':>12}"
            print(line)

    threads = doc["threads"]
    if threads:
        print(f"\nthreads ({len(threads)}):")
        for t in threads:
            who = f"worker {t['worker']}" if t.get("worker") is not None else \
                f"thread {t['tid']}"
            drop = f", dropped {fmt_count(t['dropped'])}" if t["dropped"] else ""
            print(f"  {who:<12} {fmt_count(t['spans'])} spans{drop}")

    brick = brick_cache_totals(doc)
    if brick:
        hits = brick.get("bricked.cache_hit", 0)
        misses = brick.get("bricked.cache_miss", 0)
        total = hits + misses
        rate = f"{hits / total:.1%}" if total else "n/a"
        print(f"\nbrick cache: {fmt_count(hits)} hits / {fmt_count(misses)} "
              f"misses (hit rate {rate})")
        print(f"  evictions {fmt_count(brick.get('bricked.evictions', 0))}  "
              f"overflow {fmt_count(brick.get('bricked.overflow_bricks', 0))}  "
              f"prefetch {fmt_count(brick.get('bricked.prefetch_hits', 0))}/"
              f"{fmt_count(brick.get('bricked.prefetch_issued', 0))} hit/issued")

    loc = doc.get("locality")
    if loc:
        if loc.get("available"):
            print(f"\nlocality ({len(loc['profiles'])} profiles):")
            for p in loc["profiles"]:
                line, page = p["line"], p["page"]
                util = line["utilization"]
                util_s = f"{util:.3f}" if util is not None else "n/a"
                mrc = line["mrc"]
                first, last = mrc[0], mrc[-1]
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

    jobs = doc.get("jobs")
    if jobs:
        if jobs.get("available"):
            entries = jobs["jobs"]
            print(f"\njobs ({len(entries)}):")
            for j in entries:
                cache = ""
                if j["structure_cache_hits"] or j["structure_cache_misses"]:
                    cache = (f"  cache {j['structure_cache_hits']}h/"
                             f"{j['structure_cache_misses']}m")
                print(f"  #{j['id']:<4} {j['kernel']:<26} {j['state']:<10} "
                      f"{fmt_count(j['tiles_run'])}/{fmt_count(j['tiles'])} tiles  "
                      f"wait {j['queue_wait_ns'] / 1e6:.3f} ms  "
                      f"run {j['run_ns'] / 1e6:.3f} ms{cache}")
        else:
            print(f"\njobs: unavailable ({jobs.get('source', '?')})")

    if doc["metrics"]:
        print("\nmetrics:")
        for m in doc["metrics"]:
            imbal = m.get("imbalance", 0.0)
            print(f"  {m['name']:<34} total {fmt_count(m['total']):>14}  "
                  f"imbal {imbal:.2f}")
    if doc["histograms"]:
        print("\nhistograms (log2 buckets):")
        for h in doc["histograms"]:
            print(f"  {h['name']:<34} n={fmt_count(h['count'])} "
                  f"mean={h['mean']:.2f} min={h['min']} max={h['max']}")
    if doc["tables"]:
        names = ", ".join(t["name"] for t in doc["tables"])
        print(f"\ntables: {names}")
    print()


def summarize_trace(doc, path):
    events = doc.get("traceEvents", [])
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
    print()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="+", help="run report / trace JSON files")
    parser.add_argument("--validate", action="store_true",
                        help="check structure instead of printing a summary")
    parser.add_argument("--require-brick-cache", action="store_true",
                        help="with --validate: fail a run report that carries "
                             "no (or an untouched) bricked.* cache section")
    parser.add_argument("--require-locality", action="store_true",
                        help="with --validate: fail a run report whose "
                             "locality section is unavailable (no reuse-"
                             "distance profiles were published)")
    parser.add_argument("--require-jobs", action="store_true",
                        help="with --validate: fail a run report whose jobs "
                             "section is unavailable (no exec::JobGraph job "
                             "ran while the trace session was active)")
    args = parser.parse_args()

    failures = 0
    for path in args.files:
        doc = load(path)
        kind = detect_kind(doc)
        if kind is None:
            print(f"error: {path}: neither a run report nor a Chrome trace",
                  file=sys.stderr)
            sys.exit(2)
        if args.validate:
            try:
                (validate_report if kind == "report" else validate_trace)(doc, path)
                if args.require_brick_cache and kind == "report":
                    validate_brick_cache(doc, path, required=True)
                if args.require_locality and kind == "report":
                    validate_locality(doc, path, required=True)
                if args.require_jobs and kind == "report":
                    validate_jobs(doc, path, required=True)
                print(f"[trace_summary] OK: {path} ({kind})")
            except ValidationError as e:
                print(f"[trace_summary] FAIL: {e}", file=sys.stderr)
                failures += 1
        else:
            (summarize_report if kind == "report" else summarize_trace)(doc, path)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
