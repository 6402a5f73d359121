#!/usr/bin/env python3
"""Benchmark runner for the icache_opt reproduction.

Builds perfbench/bench.exe from source, then runs one workload as a
closed loop from a single client: cold samples back to back, each in a
fresh process (see bench.ml for why), until --seconds have passed.  The
last line of standard output is one JSON object:

    {"correct": bool, "attempted": int, "failed": int, "metrics": {...}}

With --trace 0 the metrics are the end-to-end medians over the samples;
with --trace 1 they are the per-layer metrics of one traced sample, plus
the tracing overhead against an untraced sample run just before it.
attempted/failed count the correctness checks, which run once per
invocation after the first sample's timed work.

    python3 perfbench/run.py --workload cache_sweep --seed 11 --seconds 30 --trace 0

Every file it writes goes under _build/ (the trace, the self-time table
and a record of every sample with its environment).
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
OUT = os.path.join(ROOT, "_build", "perfbench")
# A sample that has not finished by then has hung.
SAMPLE_TIMEOUT_S = 150
# setup_s is short next to run_s, so it gets extra set-up-only samples up
# to this count.
SETUP_SAMPLES = 9


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    # --root pins the workspace to this checkout even when a parent
    # directory holds another dune project.
    try:
        done = subprocess.run(
            ["dune", "build", "--root", ROOT, "./perfbench/bench.exe"],
            cwd=ROOT,
            stdout=sys.stderr,
        )
    except OSError as e:
        fail("cannot run dune: %s" % e)
    if done.returncode != 0 or not os.path.isfile(EXE):
        fail("build failed")


def environment():
    nproc = len(os.sched_getaffinity(0))
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
        ).stdout.strip()
    except OSError:
        commit = ""
    return {
        "nproc": nproc,
        "OCAMLRUNPARAM": os.environ.get("OCAMLRUNPARAM", ""),
        "git_commit": commit or "unknown (not a git checkout)",
    }


def sample(env, workload, seed, *flags):
    """One cold sample in a fresh process."""
    try:
        done = subprocess.run(
            [EXE, "--workload", workload, "--seed", str(seed), *flags],
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            text=True,
            timeout=SAMPLE_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        fail("%s sample timed out after %d s" % (workload, SAMPLE_TIMEOUT_S))
    if done.returncode != 0:
        fail("%s sample exited with %d" % (workload, done.returncode))
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail("%s sample printed nothing" % workload)
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    # A SIGTERM unwinds through subprocess.run, which kills and reaps the
    # process in flight instead of leaving it running.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    # BENCHMARK.json names the workloads, every metric and its unit; a
    # sample that lacks a metric is an error, not a silent gap.
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=[w["name"] for w in spec["workloads"]]
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    build()
    record = environment()
    # A closed loop from one client: the library fans out over nproc
    # domains inside each call; the benchmark starts no threads itself.
    env = dict(os.environ, ICACHE_JOBS=str(record["nproc"]))
    os.makedirs(OUT, exist_ok=True)

    start = time.monotonic()
    first = sample(env, args.workload, args.seed, "--check")
    samples = [first]
    if args.trace:
        traced = sample(env, args.workload, args.seed, "--traced", "--out", OUT)
        metrics = dict(traced["layers"])
        metrics["util.trace_overhead_ratio"] = traced["run_s"] / first["run_s"]
        samples.append(traced)
        expected = [m["name"] for m in spec["per_layer"]]
    else:
        while time.monotonic() - start < args.seconds:
            samples.append(sample(env, args.workload, args.seed))
        while len(samples) < SETUP_SAMPLES:
            samples.append(sample(env, args.workload, args.seed, "--setup-only"))
        metrics = {}
        # The time metrics are net of host steal (see bench.ml); the raw
        # wall times sit beside them in every sample.
        for name in end_to_end + ["setup_wall_s", "run_wall_s"]:
            measured = [s[name] for s in samples if name in s]
            q1, median, q3 = quartiles(measured)
            metrics[name] = median
            print(
                "%-14s %12.4f %-6s  q1 %.4f  q3 %.4f  n %d"
                % (name, median, units.get(name, "s"), q1, q3, len(measured))
            )
        expected = end_to_end
    missing = set(expected) - set(metrics)
    if missing:
        fail("metrics missing from the samples: " + ", ".join(sorted(missing)))

    record.update(first["env"])
    record.update(workload=args.workload, trace=args.trace, samples=samples)
    path = os.path.join(
        OUT, "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    )
    with open(path, "w") as f:
        json.dump(record, f, indent=1)
    print("environment: " + json.dumps({k: v for k, v in record.items() if k != "samples"}))
    print("samples and environment written to " + os.path.relpath(path, ROOT))

    failed = first["checks_failed"]
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": first["checks_run"],
                "failed": failed,
                "metrics": {
                    k: {"value": metrics[k], "unit": units[k]} for k in expected
                },
            }
        )
    )


if __name__ == "__main__":
    main()
