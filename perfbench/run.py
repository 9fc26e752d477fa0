#!/usr/bin/env python3
"""ProtoPipe host-cost benchmark: build, set up, measure, check, report.

Run from the root of a ProtoPipe checkout:

    python3 perfbench/run.py --workload paper_pingpong --seed 1 \
        --seconds 25 --trace 0

Workloads: paper_pingpong, fabric_collectives, chaos_audited. The
simulator and the benchmark binary are built from source into
.bench_build/perfbench on first use. Set-up time is taken in fresh
processes (the binary with --setup-only) and reported as their median;
everything else comes from one measuring process per workload. The last
line of standard output is the JSON result; the exit code is 1 when a
simulated output differs from the committed references. See
perfbench/README.md for the workloads, metrics and trace.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("paper_pingpong", "fabric_collectives", "chaos_audited")
# Fresh processes timing set-up, half before and half after the
# measuring process (which adds one more), so the median spans the run:
# this host's speed drifts over seconds.
SETUP_SAMPLES = 8


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configures once, then builds incrementally (a no-op when current)."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs,
                    "--target", "perfbench"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)


def run_binary(args, timeout):
    """Runs the binary from the checkout root; returns (code, stdout)."""
    p = subprocess.run([BINARY] + args, cwd=ROOT, stdout=subprocess.PIPE,
                       stderr=sys.stderr, text=True, timeout=timeout)
    return p.returncode, p.stdout


def last_json(text):
    lines = [l for l in text.strip().splitlines() if l.startswith("{")]
    return json.loads(lines[-1]) if lines else None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="small inputs (self-tests)")
    args = ap.parse_args()

    try:
        build()
    except (subprocess.CalledProcessError, FileNotFoundError) as e:
        log("perfbench: build failed:", e)
        return 1

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        common.append("--smoke")

    def setup_samples(n):
        samples = []
        for _ in range(0 if args.trace else n):
            code, out = run_binary(common + ["--seconds", "1",
                                             "--setup-only"], 120)
            doc = last_json(out)
            if code != 0 or doc is None:
                raise RuntimeError("set-up sample failed")
            samples.append(doc["setup_s"])
        return samples

    try:
        setup = setup_samples(SETUP_SAMPLES // 2)
        code, out = run_binary(common + ["--seconds", str(args.seconds),
                                         "--trace", str(args.trace)],
                               max(150, 4 * args.seconds))
        setup += setup_samples(SETUP_SAMPLES - SETUP_SAMPLES // 2)
    except (RuntimeError, subprocess.TimeoutExpired) as e:
        log("perfbench:", e)
        return 1
    result = last_json(out)
    body = "\n".join(l for l in out.strip().splitlines()
                     if not l.startswith("{"))
    if body:
        print(body)
    if result is None:
        log("perfbench: the measuring process printed no result")
        return 1
    if setup:
        setup.append(result["metrics"]["setup_s"]["value"])
        result["metrics"]["setup_s"]["value"] = statistics.median(setup)
        print("# setup_s samples (s): " +
              " ".join("%.6f" % s for s in setup))
    print(json.dumps(result))
    return 0 if code == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
