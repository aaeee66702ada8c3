#!/usr/bin/env python3
"""Build and run the ccmm benchmark.

One measured run (the result object is the last line of stdout):

    python3 perfbench/run.py --workload sweep-b5 --seed 1 --seconds 45 --trace 0

Steadiness report (N runs of one workload, one seed each; prints the
spread of the gated best-decile values next to that of per-run medians,
and the host-speed probe of every run):

    python3 perfbench/run.py --report 10 --workload sweep-b5 --seed 1 --seconds 45

Run from the root of a checkout. The benchmark is built from source with
cargo into $CARGO_TARGET_DIR (default: .bench_build in the checkout);
traced runs write their spans to .bench_out/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ["sweep-b5", "members-b6", "watch-matmul", "serve-session"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def run(cmd, timeout, **kw):
    """Runs cmd to completion, killing and reaping it on timeout."""
    with subprocess.Popen(cmd, **kw) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise
        return proc.returncode, out


def build():
    """Builds the benchmark binary; returns its path or None."""
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(BENCH_DIR, "Cargo.toml")]
    try:
        code, _ = run(cmd, BUILD_TIMEOUT_S, env=env, stdout=sys.stderr)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"error: building the benchmark: {e}", file=sys.stderr)
        return None
    if code != 0:
        print(f"error: cargo build exited {code}", file=sys.stderr)
        return None
    binary = os.path.join(target, "release", "ccmm-perfbench")
    return binary if os.path.isfile(binary) else None


def git_rev():
    """The checkout's commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure(binary, workload, seed, seconds, trace):
    """One run of the binary: (detail dict, result dict, stdout lines)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--rev", git_rev()]
    if trace:
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        cmd += ["--spans-out", os.path.join(out_dir, f"spans-{workload}-seed{seed}.jsonl")]
    code, out = run(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE, text=True)
    lines = out.splitlines()
    if code != 0 or len(lines) < 2 or not lines[-2].startswith("detail "):
        raise RuntimeError(f"benchmark exited {code} without a result")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise RuntimeError("malformed result line")
    return json.loads(lines[-2][len("detail "):]), result, lines


def spread(values):
    """(median, q1, q3, iqr/median, min, max), quartiles by statistics.quantiles."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med, min(values), max(values)


def report(binary, args):
    """Runs one workload --report times and prints the spreads."""
    gated, best, rss_end, probes, units = {}, {}, [], [], []
    for i in range(args.report):
        seed = args.seed + i
        detail, result, _ = measure(binary, args.workload, seed, args.seconds, 0)
        if not result["correct"]:
            print(f"seed {seed}: INCORRECT ({result['failed']} failed)", file=sys.stderr)
        for name, m in result["metrics"].items():
            gated.setdefault(name, []).append(m["value"])
        for name, v in detail["best_decile"].items():
            best.setdefault(name, []).append(v)
        probes.append(detail["host_probe_max_over_min"])
        units.append(detail["units"])
        rss_end.append(detail["peak_rss_end_mib"])
        print(f"seed {seed}: units {detail['units']}, host probe max/min "
              f"{detail['host_probe_max_over_min']:.3f}, " +
              ", ".join(f"{k} {m['value']:.6g}" for k, m in result["metrics"].items()),
              flush=True)
    print(f"\n{args.workload}: {args.report} runs of {args.seconds} s, units/run {units}")
    print(f"{'metric':<14} {'stat':<13} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'iqr/med':>8} {'min':>12} {'max':>12} {'max/min':>8}")
    rows = [(name, "gated", values) for name, values in gated.items()]
    rows += [(name, "best decile", values) for name, values in best.items()]
    rows.append(("peak_rss_mib", "at run end", rss_end))
    for name, label, vals in rows:
        med, q1, q3, rel, lo, hi = spread(vals)
        print(f"{name:<14} {label:<13} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
              f"{rel:>8.4f} {lo:>12.6g} {hi:>12.6g} {hi / lo:>8.4f}")
    print(f"host probe max/min per run: {', '.join(f'{p:.3f}' for p in probes)}")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=45)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--report", type=int, metavar="N", default=0,
                   help="steadiness report over N runs instead of one result")
    args = p.parse_args()
    binary = build()
    if binary is None:
        return 2
    try:
        if args.report:
            report(binary, args)
            return 0
        _, _, lines = measure(binary, args.workload, args.seed, args.seconds, args.trace)
    except (OSError, RuntimeError, ValueError, subprocess.TimeoutExpired) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
