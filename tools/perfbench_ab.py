#!/usr/bin/env python3
"""Alternating parent/change perfbench runs over two checkouts.

    python3 tools/perfbench_ab.py --parent <checkout> --change <checkout> \
        --workload <name> --seed <n> [--pairs 10] [--seconds 20] \
        [--build-root <dir>]

Each checkout runs its own perfbench/run.py, built under
<build-root>/<parent|change> (default: a perfbench-ab directory in the
system temp directory), so the two builds never share a cache. Pair i runs
both sides once, the parent first on even pairs and the change first on
odd ones, so slow drift of the host load falls on both sides alike.

Prints every run, the per-side medians of the end-to-end metrics, the
`correct` and `failed` totals, each side's fingerprints, and on how many
pairs the change beat the parent on ops_per_s. Exits 1 when a run fails,
reads `correct: false` or has failed ops, 0 otherwise. Nothing in either
checkout is written to apart from what perfbench/run.py itself builds.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

METRICS = ["ops_per_s", "op_p50_ms", "op_p90_ms", "setup_s",
           "toc_cents_per_task", "sla_met_share", "ok_share", "peak_rss_mb"]


def run_once(checkout, build_dir, workload, seed, seconds):
    """One perfbench run; returns (result JSON, fingerprint) or raises."""
    env = dict(os.environ, CARGO_TARGET_DIR=build_dir)
    cmd = [sys.executable, os.path.join(checkout, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s exited %d: %s" % (
            checkout, proc.returncode, proc.stderr.strip()[-2000:]))
    fingerprint = None
    for line in lines:
        if line.startswith("fingerprint "):
            fingerprint = line.split()[1]
    return json.loads(lines[-1]), fingerprint


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--build-root",
                        default=os.path.join(tempfile.gettempdir(),
                                             "perfbench-ab"))
    args = parser.parse_args(argv)

    sides = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    runs = {side: [] for side in sides}
    fingerprints = {side: set() for side in sides}
    bad = 0
    print("pair side   " + " ".join("%12s" % m for m in METRICS[:4]) +
          "  correct failed fingerprint")
    for pair in range(args.pairs):
        order = ["parent", "change"] if pair % 2 == 0 else ["change", "parent"]
        for side in order:
            build_dir = os.path.join(os.path.abspath(args.build_root), side)
            result, fingerprint = run_once(sides[side], build_dir,
                                           args.workload, args.seed,
                                           args.seconds)
            values = {m: result["metrics"][m]["value"] for m in METRICS}
            runs[side].append((values, result))
            fingerprints[side].add(fingerprint)
            if not result["correct"] or result["failed"] != 0:
                bad += 1
            print("%4d %-6s " % (pair, side) +
                  " ".join("%12.6g" % values[m] for m in METRICS[:4]) +
                  "  %-7s %6d %s" % (result["correct"], result["failed"],
                                      fingerprint), flush=True)

    print("\n%s seed %d, %d pairs of %g-s runs" % (
        args.workload, args.seed, args.pairs, args.seconds))
    print("%-20s %14s %14s %9s" % ("median", "parent", "change", "change"))
    for m in METRICS:
        p = statistics.median(v[m] for v, _ in runs["parent"])
        c = statistics.median(v[m] for v, _ in runs["change"])
        delta = "%+8.1f%%" % (100.0 * (c - p) / p) if p else "%9s" % "-"
        print("%-20s %14.6g %14.6g %s" % (m, p, c, delta))
    parent_q = statistics.quantiles(
        [v["ops_per_s"] for v, _ in runs["parent"]], n=4) \
        if args.pairs >= 2 else [0, 0, 0]
    wins = sum(1 for (c, _), (p, _) in zip(runs["change"], runs["parent"])
               if c["ops_per_s"] > p["ops_per_s"])
    print("parent ops_per_s interquartile range: %.6g" %
          (parent_q[2] - parent_q[0]))
    print("pairs where the change has the higher ops_per_s: %d of %d" %
          (wins, args.pairs))
    for side in sides:
        correct = sum(1 for _, r in runs[side] if r["correct"])
        failed = sum(r["failed"] for _, r in runs[side])
        attempted = sum(r["attempted"] for _, r in runs[side])
        print("%-6s correct %d/%d runs, failed %d of %d ops, fingerprints %s"
              % (side, correct, len(runs[side]), failed, attempted,
                 " ".join(sorted(str(f) for f in fingerprints[side]))))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
