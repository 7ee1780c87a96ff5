#!/usr/bin/env python3
"""Run one benchmark workload from the root of a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/main.exe from the checkout's sources with dune (into
.perfbench/_build, so the tree's own _build is left alone), runs it, and
forwards its output. Passes main.exe how long it may wait for calm
trials (see MAX_WAIT). The last line printed is the result object; the
metric names in it must be exactly the ones BENCHMARK.json declares for
the mode, or the run fails. Exits non-zero, printing no result, when the
build, the run or a correctness check fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".perfbench", "_build")
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
# A run must end within 180 s; leave the margin to this script.
RUN_TIMEOUT = 170
# Trials during which the hypervisor stole the CPU do not count toward
# --seconds (see main.ml): a run waits up to MAX_WAIT seconds more for
# calm ones, and all the runs in one checkout together wait at most
# WAIT_BUDGET seconds, so that a long busy spell cannot push a whole
# series of runs far past its time.
MAX_WAIT = 75
WAIT_BUDGET = 600
LEDGER = os.path.join(ROOT, ".perfbench", "waited")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for top in ("lib", "perfbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for f in sorted(files):
                if f.endswith((".ml", ".mli")) or f == "dune":
                    p = os.path.join(d, f)
                    h.update(os.path.relpath(p, ROOT).encode())
                    with open(p, "rb") as fh:
                        h.update(fh.read())
    return "src-" + h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    with open("/proc/loadavg") as fh:
        loadavg = fh.read().split()[0]
    if not os.path.exists(os.path.join(ROOT, "dune-project")):
        fail("no dune-project at the checkout root: the library sources are missing")
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    names = {w["name"] for w in spec["workloads"]}
    if args.workload not in names:
        fail(f"unknown workload {args.workload}")

    os.makedirs(os.path.dirname(BUILD_DIR), exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR, "--profile", "release",
         "--display", "quiet", "./perfbench/main.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
    )
    if build.returncode != 0:
        fail("build failed")

    try:
        with open(LEDGER) as fh:
            waited = float(fh.read())
    except (OSError, ValueError):
        waited = 0.0
    max_wait = max(0.0, min(MAX_WAIT, WAIT_BUDGET - waited))

    t0 = time.monotonic()
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--max-wait", f"{max_wait:.3f}", "--commit", source_id(), "--loadavg", loadavg]
    try:
        run = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT} s")
    if run.returncode != 0:
        sys.stderr.write(run.stdout)
        fail(f"run failed with code {run.returncode}")
    lines = run.stdout.rstrip("\n").split("\n")
    body, last = lines[:-1], lines[-1]
    for line in body:
        if line.startswith("# waited "):
            with open(LEDGER, "w") as fh:
                fh.write(f"{waited + float(line.split()[2]):.3f}\n")
    sys.stdout.write("".join(line + "\n" for line in body))
    try:
        result = json.loads(last)
    except json.JSONDecodeError:
        fail("last line is not a JSON result")
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != declared:
        fail("metrics differ from BENCHMARK.json: "
             f"{sorted(set(got.items()) ^ set(declared.items()))}")
    print(f"# run took {time.monotonic() - t0:.1f} s")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
