#!/usr/bin/env python3
"""Host-performance benchmark of the simulator: build, time set-up, run.

Run from the repository root:

    python3 perfbench/run.py --workload paper-n192 --seed 7 --seconds 20 --trace 0

Builds perfbench/perfbench.exe with dune, times its set-up (process start,
suite and baseline load, tracer ring allocation) over several fresh
processes and scales it to the host-speed reference, runs the workload on
one domain and prints the benchmark's output. The last line is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics of the span run with --trace 1. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

WORKLOADS = ("paper-n192", "pr-tier", "trace-export")
EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
SETUP_REPS = 15
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def child_env():
    env = dict(os.environ)
    # Scheduler overrides would change what is measured; the shared dune
    # cache would write outside the checkout.
    for var in ("EPOCHS_SHARDS", "EPOCHS_EPSILON", "EPOCHS_EVENT_QUEUE", "EPOCHS_JOBS"):
        env.pop(var, None)
    env["DUNE_CACHE"] = "disabled"
    return env


def build(env):
    if not os.path.isfile("dune-project"):
        fail("no dune-project here: run from the repository root")
    dune = shutil.which("dune")
    if dune is None:
        fail("dune is not on PATH")
    done = subprocess.run(
        [dune, "build", "--root", ".", "./perfbench/perfbench.exe"],
        env=env,
        stdout=sys.stderr,
    )
    if done.returncode != 0:
        fail("build failed")


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def setup_seconds(workload, env):
    """Median set-up time over fresh processes, scaled to the reference speed
    (see perfbench.ml) by factors read in processes between them."""
    times, factors = [], []
    for i in range(SETUP_REPS):
        t0 = time.perf_counter()
        subprocess.run([EXE, "setup", "--workload", workload], env=env, check=True)
        times.append(time.perf_counter() - t0)
        if i % 3 == 2:
            done = subprocess.run(
                [EXE, "reference"], env=env, check=True, stdout=subprocess.PIPE, text=True
            )
            factors.append(float(done.stdout))
    return statistics.median(times) * statistics.median(factors), times, factors


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, help="trial seed (default: each entry's blessed seed)")
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    env = child_env()
    build(env)
    print("host cpu: %s" % cpu_model())
    cmd = [EXE, "run", "--workload", args.workload, "--seconds", str(args.seconds)]
    cmd += ["--trace", str(args.trace)]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    try:
        done = subprocess.run(
            cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout)
        fail("run failed with exit code %d" % done.returncode)
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
    if args.trace == 0:
        setup_s, times, factors = setup_seconds(args.workload, env)
        print("setup: %s s" % " ".join("%.4f" % t for t in times))
        print("setup host-speed factors: %s" % " ".join("%.3f" % f for f in factors))
        result["metrics"]["setup_s"] = {"value": setup_s, "unit": "s"}
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
