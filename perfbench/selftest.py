#!/usr/bin/env python3
"""Self-tests of the benchmark itself (not of the library).

    python3 perfbench/selftest.py

Run from the repository root. Checks that BENCHMARK.json is well formed and
that every metric name matches [A-Za-z0-9_.-]+; smoke-runs every workload on
tiny inputs, untraced and traced, with the oracle gates on, plus once more on
a second seed, and checks that each run prints exactly the metrics
BENCHMARK.json names for its mode; checks that the span checker rejects a
child span that exceeds its parent; and checks that the benchmark fails
without printing a result in a directory holding only BENCHMARK.json and the
benchmark's own files. Exits non-zero on the first failure.
"""

import importlib.util
import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

spec = importlib.util.spec_from_file_location("perfbench_run", os.path.join(HERE, "run.py"))
run_mod = importlib.util.module_from_spec(spec)
spec.loader.exec_module(run_mod)


def fail(msg):
    print("selftest FAILED: " + msg)
    sys.exit(1)


def check_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        b = json.load(f)
    names = set()
    for section in ("workloads", "end_to_end", "per_layer"):
        for entry in b[section]:
            if not NAME_RE.match(entry["name"]) or len(entry["name"]) > 64:
                fail("bad name %r in %s" % (entry["name"], section))
            if entry["name"] in names:
                fail("name %r used twice" % entry["name"])
            names.add(entry["name"])
            if section != "workloads" and not UNIT_RE.match(entry["unit"]):
                fail("bad unit %r of %s" % (entry["unit"], entry["name"]))
    if not any(m["name"] == "setup_s" for m in b["end_to_end"]):
        fail("setup_s missing from end_to_end")
    return b


def smoke(workload, seed, trace, wanted):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("%s seed %d trace %d exited %d:\n%s%s" %
             (workload, seed, trace, proc.returncode, proc.stdout, proc.stderr[-2000:]))
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("%s: result keys %s" % (workload, sorted(result)))
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        fail("%s: outputs not correct: %s" % (workload, lines))
    names = {m["name"] for m in wanted}
    if set(result["metrics"]) != names:
        fail("%s trace %d: printed %s, BENCHMARK.json names %s" %
             (workload, trace, sorted(result["metrics"]), sorted(names)))
    for name, metric in result["metrics"].items():
        if not NAME_RE.match(name) or not isinstance(metric["value"], (int, float)):
            fail("%s: malformed metric %r" % (workload, name))
    print("ok  %-8s seed %d trace %d: %d attempted" %
          (workload, seed, trace, result["attempted"]))


def check_span_checker():
    path = os.path.join(ROOT, ".bench_build", "selftest-spans.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    spans = [{"id": 1, "parent": 0, "name": "speck.multiply", "start_ns": 0, "end_ns": 100},
             {"id": 2, "parent": 1, "name": "row_analysis", "start_ns": 10, "end_ns": 50}]
    with open(path, "w") as f:
        json.dump({"spans": spans}, f)
    if run_mod.check_spans(path)[0]:
        fail("span checker rejects nested spans")
    spans[1]["end_ns"] = 120
    with open(path, "w") as f:
        json.dump({"spans": spans}, f)
    if not run_mod.check_spans(path)[0]:
        fail("span checker accepts a child that exceeds its parent")
    print("ok  span checker")


def check_stripped():
    stripped = os.path.join(ROOT, ".bench_build", "selftest-stripped")
    shutil.rmtree(stripped, ignore_errors=True)
    os.makedirs(stripped)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), stripped)
    shutil.copytree(HERE, os.path.join(stripped, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oneshot", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=stripped, capture_output=True, text=True, timeout=170)
    shutil.rmtree(stripped, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 or (lines and lines[-1].startswith("{")):
        fail("benchmark succeeded without the library sources")
    print("ok  fails without the library sources (exit %d)" % proc.returncode)


def main():
    contract = check_contract()
    print("ok  BENCHMARK.json names and units")
    check_span_checker()
    for w in contract["workloads"]:
        smoke(w["name"], 1, 0, contract["end_to_end"])
        smoke(w["name"], 1, 1, contract["per_layer"])
        smoke(w["name"], 2, 0, contract["end_to_end"])
    check_stripped()
    print("selftest passed")


if __name__ == "__main__":
    main()
