#!/usr/bin/env python3
"""End-to-end benchmark of sfcvis: array-order vs Z-order on four workloads.

Builds bench/e2e (Release, into build-bench/ at the checkout root), makes
each workload's input files from --seed, runs each workload in its own
process and prints every metric by name and unit. The last line of
standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. See README.md.

  python3 bench/e2e/run.py --seed=N                 all workloads, untraced
  python3 bench/e2e/run.py --workload orbit --seed 3 --seconds 10 --trace 1
  python3 bench/e2e/run.py --smoke                  tiny sizes, one pair each
  python3 bench/e2e/run.py --selftest               paired-statistics self-test
  python3 bench/e2e/run.py --seed=N --out runs.json append the run to a file
  python3 bench/e2e/run.py --compare A.json B.json  B against A, per bound
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, "..", ".."))
BUILD = os.path.join(ROOT, "build-bench")
BINARY = os.path.join(BUILD, "e2e")
WORKLOADS = ["orbit", "denoise", "pipeline", "stream"]
WORKLOAD_TIMEOUT_S = 110
GENERATE_TIMEOUT_S = 30
PROBE_TIMEOUT_S = 15
NOISY_COPY_CHANGE = 0.10


def die(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configures (once) and builds the e2e binary; output goes to stderr."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src", "sfcvis"))):
        die("the sfcvis sources are not next to bench/e2e; run from a full checkout")
    if shutil.which("cmake") is None:
        die("cmake not found")
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "--target", "e2e", "-j", jobs],
                   stdout=sys.stderr, check=True)


def inputs_for(workload, seed, smoke):
    """The workload's generated inputs for `seed`, generating them when they
    are not cached. Only the latest seed per workload is kept on disk."""
    tag = f"{workload}{'-smoke' if smoke else ''}"
    base = os.path.join(BUILD, "inputs")
    path = os.path.join(base, f"{tag}-s{seed}")
    if os.path.isfile(os.path.join(path, "done")):
        return path
    os.makedirs(base, exist_ok=True)
    for entry in os.listdir(base):
        if entry.rsplit("-s", 1)[0] == tag:
            shutil.rmtree(os.path.join(base, entry))
    cmd = [BINARY, f"--generate={workload}", f"--seed={seed}", f"--dir={path}"]
    subprocess.run(cmd + (["--smoke"] if smoke else []), stdout=sys.stderr, check=True,
                   timeout=GENERATE_TIMEOUT_S)
    return path


def copy_bandwidth(threads):
    out = subprocess.run([BINARY, "--bandwidth", f"--threads={threads}"], check=True,
                         capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    return json.loads(out.stdout.strip().splitlines()[-1])


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown (not a git checkout)"


def run_workload(workload, args, threads):
    """Runs one workload process; returns its parsed result, or None when
    it crashed or timed out."""
    inputs = inputs_for(workload, args.seed, args.smoke)
    before = copy_bandwidth(threads)
    cmd = [BINARY, f"--run={workload}", f"--dir={inputs}", f"--seconds={args.seconds}",
           f"--trace={args.trace}", f"--threads={threads}",
           f"--ppm-dir={os.path.join(BUILD, 'out', workload)}",
           f"--spans-out={os.path.join(BUILD, f'spans-{workload}.json')}"]
    if args.smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=WORKLOAD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"== {workload}: timed out after {WORKLOAD_TIMEOUT_S} s ==")
        return None
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        print(f"== {workload}: exited with {proc.returncode} ==\n{proc.stderr}")
        return None
    result = json.loads(lines[-1])
    after = copy_bandwidth(threads)
    change = abs(after["copy_gbs"] - before["copy_gbs"]) / before["copy_gbs"]
    result["env"].update({"git_sha": git_sha(), "seed": args.seed,
                          "copy_gbs_before": before["copy_gbs"],
                          "copy_gbs_after": after["copy_gbs"],
                          "copy_array_mib": before["array_mib"],
                          "noisy": change > NOISY_COPY_CHANGE})
    print(f"  run: git {result['env']['git_sha']}, seed {args.seed}, copy "
          f"{before['copy_gbs']:.2f} -> {after['copy_gbs']:.2f} GB/s on "
          f"{before['array_mib']:.0f} MiB arrays"
          f"{' NOISY (>10% change)' if result['env']['noisy'] else ''}")
    if args.trace:
        result["metrics"]["machine.copy_gbs.before"] = {"value": before["copy_gbs"],
                                                        "unit": "GB/s"}
        result["metrics"]["machine.copy_gbs.after"] = {"value": after["copy_gbs"],
                                                       "unit": "GB/s"}
    return result


def expected_metrics(spec, trace):
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run(args):
    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    build()
    threads = min(4, len(os.sched_getaffinity(0)))
    workloads = [args.workload] if args.workload else WORKLOADS
    results = {}
    for workload in workloads:
        results[workload] = run_workload(workload, args, threads)

    wanted = expected_metrics(spec, args.trace)
    attempted = failed = 0
    metrics = {}
    for workload, result in results.items():
        if result is None:  # a crash or timeout fails all of its checks
            attempted, failed = attempted + 1, failed + 1
            continue
        attempted += result["attempted"]
        failed += result["failed"]
        missing = [name for name in wanted if name not in result["metrics"]]
        if missing and not args.smoke:
            die(f"{workload} did not report {missing}")
        for name in wanted:
            if name in result["metrics"]:
                key = name if args.workload else f"{workload}/{name}"
                metrics[key] = result["metrics"][name]
    if args.out:
        record = {"seed": args.seed, "trace": args.trace, "time": time.time(),
                  "workloads": results}
        runs = {"runs": []}
        if os.path.isfile(args.out):
            with open(args.out) as f:
                runs = json.load(f)
        runs["runs"].append(record)
        with open(args.out, "w") as f:
            json.dump(runs, f, indent=1)
    correct = failed == 0 and all(r is not None for r in results.values())
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1), "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def spread(values):
    """Interquartile range as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def compare(path_a, path_b):
    """B against A: for each (workload, end-to-end metric), B's median over
    its runs may be worse than A's by at most the metric's bound."""
    spec = load_spec()
    sets = []
    for path in (path_a, path_b):
        with open(path) as f:
            sets.append([r for r in json.load(f)["runs"] if not r["trace"]])
    ok = True
    print(f"{'workload':10} {'metric':16} {'median A':>12} {'median B':>12} "
          f"{'change':>8} {'bound':>6} {'spread A':>8} {'spread B':>8}  verdict")
    for workload in WORKLOADS:
        for metric in spec["end_to_end"]:
            values = []
            for runs in sets:
                values.append([r["workloads"][workload]["metrics"][metric["name"]]["value"]
                               for r in runs if r["workloads"].get(workload)])
            if not values[0] or not values[1]:
                continue
            med_a, med_b = statistics.median(values[0]), statistics.median(values[1])
            change = (med_b - med_a) / med_a
            worse = change if metric["better"] == "lower" else -change
            verdict = "pass" if worse <= metric["bound"] else "FAIL"
            ok = ok and verdict == "pass"
            print(f"{workload:10} {metric['name']:16} {med_a:12.6g} {med_b:12.6g} "
                  f"{change:+8.3f} {metric['bound']:6.2f} {spread(values[0]):8.3f} "
                  f"{spread(values[1]):8.3f}  {verdict}")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--traced", action="store_true", help="same as --trace 1")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--out")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args()
    if args.traced:
        args.trace = 1
    if args.compare:
        return compare(*args.compare)
    if args.selftest:
        build()
        return subprocess.run([BINARY, "--selftest"]).returncode
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
