#!/usr/bin/env bash
# Dispatch gate, three source-level rules over src/ bench/ examples/ tools/
# (tests/ are exempt from all three: they unit-test the primitives):
#
#  1. The raw threads::parallel_for* primitives may only be called from
#     src/sfcvis/exec/ (the ExecutionContext / JobGraph dispatch layer) and
#     src/sfcvis/threads/ (their home). Every kernel driver must go through
#     an exec::KernelJob (filters/kernels_common.hpp builders) or, for
#     structure builds, the ctx.parallel_* methods — never the free
#     functions. bench/abl_scheduler.cpp is allowlisted: it times the raw
#     pool schedulers, static vs dynamic, on uneven render tiles, without
#     job-graph overhead (the paper's Sec. III scheduling claim; DESIGN.md
#     Sec. 12).
#  2. make_traced_view may only appear under src/sfcvis/core/, where its
#     overloads and the core::traced_views factory live. A counter run is
#     the kernel's own job replayed with core::traced_views through
#     exec::JobGraph::replay, never a hand-written traced twin of a
#     driver. bench/abl_job_overhead.cpp is allowlisted: its hand-written
#     direct replay loop is the reference the abl_job_model gate compares
#     the job replay against.
#  3. Nothing reads the process environment: no C library environment
#     lookup anywhere, with no allowlist. The project's two environment
#     variables (the backend choice and the tuned-layout registry path)
#     were hidden settings that changed results without a flag; both were
#     removed. A setting is an ExecOptions field or a command-line flag.
#
# Usage: check_dispatch_gate.sh [repo-root]   (defaults to the script's repo)
set -u

root="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
status=0

# check <pattern> <message> <allowed path prefix>...
check() {
  local pattern=$1 message=$2
  shift 2
  local hits allowed
  hits=$(grep -rnE "$pattern" "$root/src" "$root/bench" "$root/examples" "$root/tools" \
    2>/dev/null | grep -v "^$root/tools/check_dispatch_gate.sh:")
  for allowed in "$@"; do
    hits=$(printf '%s\n' "$hits" | grep -v "^$root/$allowed")
  done
  if [ -n "$hits" ]; then
    echo "dispatch gate FAILED: $message"
    echo
    echo "$hits"
    echo
    status=1
  fi
}

check 'parallel_for(_static(_state)?|_dynamic)?[[:space:]]*\(' \
  "direct threads::parallel_for* calls outside src/sfcvis/exec/ and src/sfcvis/threads/ — build an exec::KernelJob and submit it through ExecutionContext::jobs() (or use the ctx.parallel_* methods for structure builds):" \
  src/sfcvis/exec/ src/sfcvis/threads/ bench/abl_scheduler.cpp:
check 'make_traced_view' \
  "make_traced_view outside src/sfcvis/core/ — replay the kernel's own job with core::traced_views through exec::JobGraph::replay instead of writing a traced twin:" \
  src/sfcvis/core/ bench/abl_job_overhead.cpp:
check '[g]etenv' \
  "environment reads — pass the setting as an ExecOptions field or a command-line flag instead:"

if [ "$status" -eq 0 ]; then
  echo "dispatch gate OK: no direct parallel_for calls outside exec/ and threads/," \
    "no make_traced_view outside core/, no environment reads"
fi
exit "$status"
