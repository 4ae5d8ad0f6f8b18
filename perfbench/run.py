#!/usr/bin/env python3
"""spECK-cpp benchmark: build, run one workload, check, report.

    python3 perfbench/run.py --workload oneshot|reuse|tricount|service \
        --seed N --seconds S --trace 0|1 [--tiny]

Run from the repository root. Builds the library and the benchmark program from source
into .bench_build/perfbench (CMake, Release), runs the workload with inputs
generated from the seed, checks every output against the Gustavson / masked
oracles, and prints a host fingerprint, sample counts and the failure ratio
as '#' lines, then one JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json; with
--trace 1 they are its per-layer metrics, from a separate traced run whose
spans are written to .bench_build/perfbench/trace-<workload>-<seed>.json and
checked for nesting. Exits non-zero when an output is wrong, a metric is
missing or malformed, or the build fails (then without printing a result).
"""

import argparse
import json
import os
import re
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("oneshot", "reuse", "tricount", "service")
NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")
# The configuration is fixed by the workload, never by the environment.
SPECK_ENV = ("SPECK_THREADS", "SPECK_SIMD", "SPECK_PLANNING", "SPECK_PARTITIONS")
TIME_LIMIT_S = 170.0


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def clean_env():
    env = dict(os.environ)
    for var in SPECK_ENV:
        env.pop(var, None)
    return env


def build(root):
    """Configures (once) and builds the benchmark program; returns its path or None."""
    build_dir = os.path.join(root, ".bench_build", "perfbench")
    env = clean_env()
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env)
        if proc.returncode != 0:
            log("perfbench: build step failed: " + " ".join(cmd))
            return None
    exe = os.path.join(build_dir, "perfbench")
    return exe if os.path.exists(exe) else None


def git_sha(root):
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown (not a git checkout)"


def check_spans(path):
    """Errors in a span file: every child lies inside its parent's interval
    (so the union of children never exceeds the parent), ends after it
    starts, and children on their parent's thread, which cannot overlap,
    sum to at most the parent. Returns (errors, span count)."""
    with open(path) as f:
        spans = json.load(f)["spans"]
    by_id = {s["id"]: s for s in spans}
    errors = []
    same_thread_children = {}
    for s in spans:
        parent = by_id.get(s["parent"])
        if parent is not None and parent.get("thread") == s.get("thread"):
            same_thread_children[parent["id"]] = (
                same_thread_children.get(parent["id"], 0) + s["end_ns"] - s["start_ns"])
    for pid, total in same_thread_children.items():
        p = by_id[pid]
        if total > p["end_ns"] - p["start_ns"]:
            errors.append("children of span %d (%s) sum past it" % (pid, p["name"]))
    for s in spans:
        if not NAME_RE.match(s["name"]):
            errors.append("bad span name %r" % s["name"])
        if s["end_ns"] < s["start_ns"]:
            errors.append("span %d (%s) ends before it starts" % (s["id"], s["name"]))
        if s["parent"] == 0:
            continue
        parent = by_id.get(s["parent"])
        if parent is None:
            errors.append("span %d (%s) has no parent %d" % (s["id"], s["name"], s["parent"]))
        elif s["start_ns"] < parent["start_ns"] or s["end_ns"] > parent["end_ns"]:
            errors.append("span %d (%s) exceeds its parent %d (%s)" %
                          (s["id"], s["name"], parent["id"], parent["name"]))
    return errors, len(spans)


def load_contract(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="small inputs (self-test smoke mode)")
    args = ap.parse_args(argv)
    root = os.getcwd()

    contract = load_contract(root)
    wanted = contract["per_layer" if args.trace else "end_to_end"]
    with open(os.path.join(HERE, "workloads.json")) as f:
        service = json.load(f)["service"]

    exe = build(root)
    if exe is None:
        return 2
    started = time.monotonic()  # the time limit covers the run, not the build

    trace_out = os.path.join(root, ".bench_build", "perfbench",
                             "trace-%s-%d.json" % (args.workload, args.seed))
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--rate", str(service["nominal_rps"]),
           "--ladder", ",".join(str(r) for r in service["ladder_rps"])]
    if args.trace:
        cmd += ["--trace-out", trace_out]
    if args.tiny:
        cmd.append("--tiny")
    budget = max(10.0, TIME_LIMIT_S - (time.monotonic() - started))
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              env=clean_env(), timeout=budget)
    except subprocess.TimeoutExpired:
        log("perfbench: run exceeded %.0f s" % budget)
        return 3
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log("perfbench: benchmark program exited with %d" % proc.returncode)
        return 3
    run = json.loads(lines[-1])

    problems = list(run["failures"])
    metrics = {}
    for m in wanted:
        got = run["metrics"].get(m["name"])
        if got is None:
            problems.append("metric %s not printed" % m["name"])
            continue
        if got["unit"] != m["unit"]:
            problems.append("metric %s has unit %s, expected %s" %
                            (m["name"], got["unit"], m["unit"]))
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    for name in run["metrics"]:
        if not NAME_RE.match(name):
            problems.append("metric name %r is malformed" % name)
    if args.trace:
        span_errors, span_count = check_spans(trace_out)
        problems += span_errors[:5]
        run["info"]["trace.checked_spans"] = span_count

    fp = dict(run["fingerprint"])
    fp["git_sha"] = git_sha(root)
    fp["workload"] = args.workload
    fp["planning"] = {"oneshot": "exact", "reuse": "estimated",
                      "tricount": "exact (masked)", "service": "exact"}[args.workload]
    print("# fingerprint: " + json.dumps(fp, sort_keys=True))
    print("# samples: " + json.dumps(run["info"], sort_keys=True))
    attempted, failed = run["attempted"], run["failed"]
    print("# fail_frac: %.6g (%d failed of %d attempted)" %
          (failed / attempted if attempted else 0.0, failed, attempted))
    for p in problems:
        print("# problem: " + p)
    correct = failed == 0 and not problems and attempted > 0
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
