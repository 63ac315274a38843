#!/usr/bin/env python3
"""The ednsm benchmark: builds the harness from source and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fig2-cold --seed 20250704 --seconds 30 --trace 0

The last line of standard output is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}
with every end-to-end metric of BENCHMARK.json (--trace 0) or every
per-layer metric (--trace 1). Lines before it are the harness's own report.

Steadiness self-check (two sets of --runs runs of every workload, one seed
each; checks each end-to-end metric's quartile spread within a set, and the
shift between the two sets' medians, against the metric's bound):

    python3 perfbench/run.py --self-check [--runs 10]

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench),
relative to the checkout root.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEFAULT_SEED = 20250704


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def load_config():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures (once) and builds the harness; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("program sources (src/) not found next to perfbench/; run from a full checkout")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "--target", "perfbench_harness", "-j", "3"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench_harness")


def harness(binary, args, echo):
    """Runs the harness; returns the JSON object on its last output line."""
    proc = subprocess.run([binary] + args, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if echo:
        for line in lines[:-1]:
            print(line)
    if proc.returncode != 0 or not lines:
        fail(f"harness exited with {proc.returncode}: {' '.join(args)}")
    try:
        return json.loads(lines[-1])
    except ValueError:
        fail("harness printed no result line")


def run_once(binary, config, workload, seed, seconds, trace, echo=True):
    """One benchmark run; returns the result object and every value the
    harness measured."""
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", "1" if trace else "0"]
    if trace:
        spans_dir = os.path.join(build_dir(), "spans")
        os.makedirs(spans_dir, exist_ok=True)
        args += ["--spans-out", os.path.join(spans_dir, f"{workload}-{seed}.json")]
    res = harness(binary, args, echo)
    values = res["values"]
    metrics = {}
    for m in config["per_layer" if trace else "end_to_end"]:
        if m["name"] not in values:
            fail(f"harness did not measure {m['name']} on {workload}")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    return {"correct": bool(res["correct"]) and res["failed"] == 0,
            "attempted": int(res["attempted"]), "failed": int(res["failed"]),
            "metrics": metrics}, values


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med if med else float("inf")


SETS = 2


def self_check(binary, config, runs, seconds, first_seed):
    """Prints median, quartiles and spread of every end-to-end metric per
    workload and set; returns False when a spread, or the shift between the
    two sets' medians in either direction, exceeds the metric's bound."""
    ok = True
    for workload in [w["name"] for w in config["workloads"]]:
        medians = []
        for s in range(SETS):
            samples = {m["name"]: [] for m in config["end_to_end"]}
            failed = attempted = 0
            for i in range(runs):
                seed = first_seed + s * runs + i
                res, values = run_once(binary, config, workload, seed, seconds, False,
                                       echo=False)
                failed += res["failed"]
                attempted += res["attempted"]
                ok &= res["correct"]
                for name, m in res["metrics"].items():
                    samples[name].append(m["value"])
                print(f"{workload} set {s} seed {seed}: " + ", ".join(
                    f"{n}={m['value']:.6g}" for n, m in res["metrics"].items())
                    + f"; host_ref_ms={values['host_ref_ms']:.3f}", flush=True)
            print(f"{workload} set {s}: failed_ratio {failed / max(attempted, 1):.6g} "
                  f"({failed}/{attempted} jobs)")
            set_medians = {}
            for m in config["end_to_end"]:
                q1, med, q3, sp = spread(samples[m["name"]])
                set_medians[m["name"]] = med
                within = sp <= m["bound"]
                ok &= within
                print(f"  {m['name']:<16} median {med:.6g} {m['unit']}  q1 {q1:.6g}  q3 {q3:.6g}  "
                      f"spread {sp:.4f} (bound {m['bound']}){'' if within else '  OUT OF BOUND'}",
                      flush=True)
            medians.append(set_medians)
        for m in config["end_to_end"]:
            a, b = medians[0][m["name"]], medians[1][m["name"]]
            shift = abs(b - a) / a
            within = shift <= m["bound"]
            ok &= within
            print(f"  {workload} set 1 vs set 0: {m['name']} median moved by {shift:.4f} "
                  f"(bound {m['bound']}){'' if within else '  OUT OF BOUND'}")
    return ok


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--self-check", action="store_true")
    p.add_argument("--runs", type=int, default=10)
    a = p.parse_args()

    config = load_config()
    names = [w["name"] for w in config["workloads"]]
    seconds = a.seconds if a.seconds is not None else config["run_seconds"]
    binary = build()

    if a.self_check:
        if not self_check(binary, config, a.runs, seconds, a.seed):
            print("self-check: FAILED")
            sys.exit(1)
        print("self-check: every end-to-end metric within its bound")
        return

    if a.workload not in names:
        fail(f"--workload must be one of {', '.join(names)}")
    result, _ = run_once(binary, config, a.workload, a.seed, seconds, a.trace == 1)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
