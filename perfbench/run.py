#!/usr/bin/env python3
"""Campaign benchmark: time to a Table I row, end to end and per layer.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Builds `perfbench` (a package of its own, against the repository's crates)
and runs one workload. Every rep is a fresh process running one whole
campaign through `Campaign::run`; every set-up measurement is a fresh
process too.

--trace 0 times SETUP_REPS set-ups (setup_s is their median), then runs
reps until --seconds is used up, finishing a rep that is past its half-way
point. Rep 0 runs the workload seed, rep i > 0 a seed derived from it,
because a campaign's work depends strongly on its seed (see
perfbench/README.md); the set-ups run at the same seeds. campaign_s, cpu_s
and peak_rss_mb are the means over the reps. --trace 1 runs one untraced and one traced rep at the
workload seed and reports the per-layer metrics plus the tracing overhead.

Every rep passes the correctness gate or counts all its strategies as
failed. Every rep must end with zero errored, truncated or stalled
outcomes; a rep at the reference seed (7) must reproduce the Table I row,
the Table II attack names and the outcome-projection digest recorded in
perfbench/reference.json; a traced rep must reproduce the projection of
the untraced rep at the same seed.

The last line of standard output is the result as one JSON object.
`--record-reference` instead runs one rep at the reference seed and
rewrites that workload's entry in reference.json.
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
ROOT = os.path.dirname(HERE)
REFERENCE = os.path.join(HERE, "reference.json")
REFERENCE_SEED = 7
WORKLOADS = ("tcp-table1", "dccp-sharded", "tree256-chaos")
# Set-up processes per untraced run, at the rep seeds; setup_s is their
# median.
SETUP_REPS = 7
# A benchmark process that runs longer than this is treated as hung.
PROCESS_TIMEOUT_S = 150
MASK64 = (1 << 64) - 1


def die(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Builds the benchmark binary and returns its path."""
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    manifest = os.path.join(HERE, "Cargo.toml")
    done = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        cwd=ROOT,
        env=dict(os.environ, CARGO_TARGET_DIR=target),
        stdout=sys.stderr,
    )
    if done.returncode != 0:
        die("build failed")
    return os.path.join(target, "release", "snake-perfbench")


def invoke(binary, *args):
    """Runs one benchmark process and returns its JSON line."""
    try:
        done = subprocess.run(
            [binary, *args], cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=PROCESS_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        die(f"`{' '.join(args)}` ran past {PROCESS_TIMEOUT_S} s")
    if done.returncode != 0:
        die(f"`{' '.join(args)}` exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def rep(binary, workload, seed, trace=False):
    scratch = os.path.join(ROOT, ".bench_tmp", f"{os.getpid()}-{time.monotonic_ns()}")
    args = ["rep", "--workload", workload, "--seed", str(seed), "--scratch", scratch]
    try:
        r = invoke(binary, *args, *(["--trace"] if trace else []))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(
        f"perfbench: {'traced ' if trace else ''}rep at seed {seed}: campaign "
        f"{r['campaign_s']:.3f} s, cpu {r['cpu_s']:.2f} s, peak rss {r['peak_rss_mb']:.1f} MiB",
        file=sys.stderr,
    )
    return r


def rep_seed(seed, i):
    """Seed of rep `i`: the workload seed, then splitmix64 derivations."""
    if i == 0:
        return seed
    z = (seed + i * 0x9E3779B97F4A7C15) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return (z ^ (z >> 31)) & 0xFFFFFFFF


def gate(r, reference, problems):
    """The correctness problems of one rep (empty when it passes), on top
    of the run-wide `problems`."""
    problems = list(problems)
    if r["bad_outcomes"]:
        problems.append(f"{r['bad_outcomes']} errored/truncated/stalled outcomes")
    if r["seed"] == REFERENCE_SEED:
        for key in ("row", "attacks", "digest"):
            if r[key] != reference[key]:
                problems.append(f"{key} {r[key]} != reference {reference[key]}")
    return problems


def record_reference(binary, workload):
    r = rep(binary, workload, REFERENCE_SEED)
    if r["bad_outcomes"]:
        die("refusing to record a reference with failed outcomes")
    with open(REFERENCE) as f:
        reference = json.load(f)
    reference["workloads"][workload] = {k: r[k] for k in ("row", "attacks", "digest")}
    with open(REFERENCE, "w") as f:
        json.dump(reference, f, indent=2, sort_keys=True)
        f.write("\n")
    print(json.dumps(reference["workloads"][workload]))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args()
    seed = args.seed & MASK64

    binary = build()
    if args.record_reference:
        record_reference(binary, args.workload)
        return
    with open(REFERENCE) as f:
        reference = json.load(f)["workloads"].get(args.workload)
    if reference is None:
        die(f"reference.json has no entry for {args.workload}")

    started = time.monotonic()
    run_problems = []
    if args.trace:
        untraced = rep(binary, args.workload, seed)
        traced = rep(binary, args.workload, seed, trace=True)
        reps = [untraced, traced]
        if traced["digest"] != untraced["digest"]:
            run_problems.append("the traced projection differs from the untraced one")
        metrics = dict(traced["layers"])
        metrics["trace.overhead"] = {
            "value": traced["campaign_s"] / untraced["campaign_s"],
            "unit": "x",
        }
    else:
        setups = [
            invoke(binary, "setup", "--workload", args.workload, "--seed", str(rep_seed(seed, i)))[
                "setup_s"
            ]
            for i in range(SETUP_REPS)
        ]
        reps = []
        while True:
            t0 = time.monotonic()
            reps.append(rep(binary, args.workload, rep_seed(seed, len(reps))))
            half_rep = (time.monotonic() - t0) / 2
            if time.monotonic() - started + half_rep > args.seconds:
                break
        mean = lambda key: statistics.fmean(r[key] for r in reps)  # noqa: E731
        metrics = {
            "campaign_s": {"value": mean("campaign_s"), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "cpu_s": {"value": mean("cpu_s"), "unit": "s"},
            "peak_rss_mb": {"value": mean("peak_rss_mb"), "unit": "MiB"},
        }

    attempted = failed = 0
    correct = True
    for r in reps:
        problems = gate(r, reference, run_problems)
        for problem in problems:
            print(f"perfbench: {args.workload} seed {r['seed']}: {problem}", file=sys.stderr)
        correct = correct and not problems
        attempted += r["attempted"]
        failed += r["attempted"] if problems else r["bad_outcomes"]
    if not args.trace:
        # The share of strategies that passed: failed_frac, turned into a
        # metric that is never zero.
        metrics["ok_frac"] = {"value": (attempted - failed) / attempted, "unit": "frac"}
    print(
        f"perfbench: {args.workload} seed {seed}: {len(reps)} rep(s) at seeds "
        f"{[r['seed'] for r in reps]}, {time.monotonic() - started:.1f} s",
        file=sys.stderr,
    )
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
