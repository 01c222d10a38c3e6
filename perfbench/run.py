#!/usr/bin/env python3
"""Builds and runs the tickc benchmark; prints one JSON result line last.

Run from the root of a checkout:

    python3 perfbench/run.py --workload oneshot|server|restart \
        --seed N --seconds S --trace 0|1

The first run configures and builds the library and the perfbench binary
from source into .bench_build/perfbench; later runs only bring that build up
to date. With --trace 0 the result carries the end-to-end metrics; with
--trace 1 the binary runs twice, untraced and traced, for half the time
each, and the result carries the per-layer metrics, including
trace.overhead (traced / untraced request_us_p50). Every TICKC_* variable is
removed from the binary's environment, so the library runs in the pinned
configuration; the removed variables are listed in the output.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_build", "work")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "-j", jobs, "--target", "perfbench"]]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            log(done.stdout)
            log("perfbench: build failed: " + " ".join(cmd))
            sys.exit(1)


def source_digest():
    """Content hash of the library and benchmark sources (the checkout the
    benchmark runs in need not be a git repository)."""
    h = hashlib.sha256()
    for top in (os.path.join(ROOT, "src"), HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def run_binary(args, seconds, trace, env):
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--workdir", WORK]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: binary timed out")
        sys.exit(1)
    lines = {}
    for line in done.stdout.splitlines():
        tag, _, rest = line.partition(" ")
        if tag in ("PERFBENCH_E2E", "PERFBENCH_LAYERS"):
            lines[tag] = json.loads(rest)
        else:
            print(line)
    if done.returncode != 0 or "PERFBENCH_E2E" not in lines:
        log("perfbench: binary failed with exit code %d" % done.returncode)
        sys.exit(1)
    return lines


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["oneshot", "server", "restart"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    build()
    os.makedirs(WORK, exist_ok=True)
    env = {k: v for k, v in os.environ.items() if not k.startswith("TICKC_")}
    removed = sorted(k for k in os.environ if k.startswith("TICKC_"))
    print("source: %s; TICKC_* removed from the environment: %s"
          % (source_digest(), ", ".join(removed) or "none"))

    # A traced run splits its time between an untraced and a traced pass,
    # so that it takes as long as an untraced one.
    seconds = args.seconds / 2 if args.trace else args.seconds
    plain = run_binary(args, seconds, 0, env)["PERFBENCH_E2E"]
    attempted, failed = plain["attempted"], plain["failed"]
    metrics = plain["metrics"]
    if args.trace:
        traced = run_binary(args, seconds, 1, env)
        if "PERFBENCH_LAYERS" not in traced:
            log("perfbench: traced run printed no per-layer metrics")
            sys.exit(1)
        e2e = traced["PERFBENCH_E2E"]
        attempted += e2e["attempted"]
        failed += e2e["failed"]
        metrics = traced["PERFBENCH_LAYERS"]["metrics"]
        base = plain["metrics"]["request_us_p50"]["value"]
        metrics["trace.overhead"] = {
            "value": e2e["metrics"]["request_us_p50"]["value"] / base
            if base else 0.0,
            "unit": "ratio"}
    print("failed_frac: %.6g (%d of %d requests)"
          % (failed / attempted if attempted else 0.0, failed, attempted))
    print(json.dumps({"correct": failed == 0 and attempted > 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
