#!/usr/bin/env python3
"""Smoke test of the benchmark itself: a short run of every workload.

Run from the root of a checkout:

    python3 perfbench/smoke.py

For each workload in BENCHMARK.json it makes one untraced and one traced
run and checks that every end-to-end and per-layer metric named there is
present with its unit and that no request failed (failed_frac == 0). A
second traced oneshot run with the same seed must repeat the exact counts:
core.pe.* and pcode.compiles. Exits 1 and lists the problems otherwise.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7
SECONDS = "2"
EXACT = ("core.pe.loops_unrolled", "core.pe.branches_eliminated",
         "core.pe.strength_reductions", "pcode.compiles")


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(SEED), "--seconds", SECONDS,
           "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=900)
    if done.returncode != 0:
        sys.exit("smoke: %s exited with %d" % (" ".join(cmd), done.returncode))
    return json.loads(done.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    problems = []
    traced = {}
    for w in (x["name"] for x in bench["workloads"]):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            r = run(w, trace)
            if not r["correct"] or r["failed"] != 0 or r["attempted"] < 1:
                problems.append("%s trace=%d: %d of %d requests failed"
                                % (w, trace, r["failed"], r["attempted"]))
            for m in bench[group]:
                got = r["metrics"].get(m["name"])
                if got is None:
                    problems.append("%s trace=%d: %s missing"
                                    % (w, trace, m["name"]))
                elif got["unit"] != m["unit"]:
                    problems.append("%s trace=%d: %s unit %s, expected %s"
                                    % (w, trace, m["name"], got["unit"],
                                       m["unit"]))
            if trace:
                traced[w] = r["metrics"]
            print("smoke: %s trace=%d ok (%d requests)"
                  % (w, trace, r["attempted"]), flush=True)
    again = run("oneshot", 1)["metrics"]
    for name in EXACT:
        a, b = traced["oneshot"][name]["value"], again[name]["value"]
        if a != b:
            problems.append("oneshot: %s differs between runs of one seed: "
                            "%r vs %r" % (name, a, b))
    for p in problems:
        print("smoke: FAIL " + p)
    print("smoke: %s" % ("FAILED" if problems else "all checks passed"))
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
