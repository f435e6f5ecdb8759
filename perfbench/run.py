#!/usr/bin/env python3
"""Builds and runs the benchmark for one workload; prints one JSON result.

Run from the root of a checkout:

    python3 perfbench/run.py --workload saturate --seed 1 --seconds 30 --trace 0

The first run configures and builds perfbench/ (the library from src/ plus
the driver) into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench.
The last line of standard output is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}} with the
end-to-end metrics of BENCHMARK.json (--trace 0) or its per-layer metrics
(--trace 1, which also writes a Chrome trace under <build dir>/traces/).
The line before it records the host: nproc, the thread split and the share
of CPU time stolen by the hypervisor during the run.
"""

import argparse
import fcntl
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = [["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                 ["cmake", "--build", build_dir, "-j", "4"]]
        with open(log_path, "w") as log:
            for step in steps:
                if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                    with open(log_path) as f:
                        sys.stderr.write("".join(f.readlines()[-30:]))
                    fail("build failed (log: %s)" % log_path)
    return os.path.join(build_dir, "perfbench")


def cpu_times():
    with open("/proc/stat") as f:
        fields = f.readline().split()[1:]
    values = [int(v) for v in fields[:8]]  # user .. steal (guest is in user)
    return sum(values), values[7]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--static", action="store_true",
                        help="native workloads under the static paradigm (reference)")
    args = parser.parse_args()

    if not os.path.exists("BENCHMARK.json"):
        fail("run from the root of the checkout (BENCHMARK.json not found)")
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(target, "perfbench")
    binary = build(build_dir)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(traces, f"{args.workload}-seed{args.seed}.json")]
    if args.static:
        cmd.append("--static")

    total0, steal0 = cpu_times()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run timed out")
    total1, steal1 = cpu_times()
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        fail(f"run exited with code {proc.returncode}")
    raw = json.loads(lines[-1])
    print(lines[-1])  # Every value the run measured, both metric sets.

    metrics = {}
    for m in wanted:
        value = raw["values"].get(m["name"])
        if value is None or not math.isfinite(value):
            fail(f"run did not report {m['name']}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    steal = (steal1 - steal0) / max(1, total1 - total0)
    host = {"nproc": os.cpu_count(),
            "threads": "sim: 1 thread" if args.workload.startswith("sim")
                       else "1 source + 3 workers + 1 driver",
            "steal_share": round(steal, 4)}
    print(json.dumps({"host": host}))
    print(json.dumps({"correct": raw["correct"], "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
