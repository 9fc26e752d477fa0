#!/usr/bin/env python3
"""Self-tests for the host-cost benchmark (about a minute after the build).

Run from the root of a ProtoPipe checkout:

    python3 perfbench/tests/selftest.py

Checks, at the smoke size:
  * every workload runs through run.py and reports correct results;
  * message, event and allocation counts repeat exactly across runs;
  * the chaos_audited message count equals the injected count that
    BENCH_chaos.json records for the same runs;
  * the correctness gate trips on a perturbed reference, for each
    workload;
  * a directory holding only BENCHMARK.json and perfbench/ fails
    without printing a result.
"""
import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
BINARY = os.path.join(ROOT, ".bench_build", "perfbench", "perfbench")
SCRATCH = os.path.join(ROOT, ".bench_build", "selftest")
WORKLOADS = ("paper_pingpong", "fabric_collectives", "chaos_audited")
SMOKE_CHAOS_PLANS = 10  # chaos.cpp kPlansSmoke

failures = []


def check(cond, what):
    print(("ok   " if cond else "FAIL ") + what, flush=True)
    if not cond:
        failures.append(what)


def run(cmd, cwd=ROOT):
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


def binary(workload, *extra):
    return run([BINARY, "--workload", workload, "--seed", "3", "--seconds",
                "0.5", "--trace", "0", "--smoke"] + list(extra))


def counts(stdout):
    m = re.search(r"# counts per unit: msgs=(\d+) events=(\d+) allocs=(\d+)",
                  stdout)
    return tuple(int(x) for x in m.groups()) if m else None


def last_json(stdout):
    lines = [l for l in stdout.strip().splitlines() if l.startswith("{")]
    return json.loads(lines[-1]) if lines else None


def test_smoke_and_determinism():
    for w in WORKLOADS:
        p = run([sys.executable, os.path.join(BENCH, "run.py"), "--workload",
                 w, "--seed", "3", "--seconds", "1", "--smoke"])
        doc = last_json(p.stdout)
        check(p.returncode == 0 and doc is not None and doc["correct"],
              w + ": smoke run through run.py is correct")
        if doc:
            check(set(doc) == {"correct", "attempted", "failed", "metrics"}
                  and doc["failed"] == 0 and doc["attempted"] >= 1,
                  w + ": result has the four keys and no failures")
        a, b = binary(w), binary(w)
        check(counts(a.stdout) is not None and
              counts(a.stdout) == counts(b.stdout),
              w + ": msgs/events/allocs repeat across runs %s" %
              (counts(a.stdout),))


def test_chaos_msgs_equal_injected():
    text = open(os.path.join(ROOT, "BENCH_chaos.json")).read()
    sweep = next(s for s in json.loads(text)["sweeps"]
                 if s["name"] == "chaos shards=1 arena")
    want = 0
    for job in sweep["jobs"]:
        seed = int(job["label"].split("seed=")[1])
        if seed <= SMOKE_CHAOS_PLANS:
            want += job["audit"]["injected"]
    got = counts(binary("chaos_audited").stdout)
    check(got is not None and got[0] == want,
          "chaos_audited msgs %s == audit injected %d" %
          (got and got[0], want))


def perturbed_copy(rel, old, new):
    """Copies the repo's reference files to SCRATCH with one change."""
    repo = os.path.join(SCRATCH, "repo")
    shutil.rmtree(repo, ignore_errors=True)
    for d in ("data/golden", "perfbench/ref"):
        shutil.copytree(os.path.join(ROOT, d), os.path.join(repo, d))
    for f in ("BENCH_scaling.json", "BENCH_chaos.json"):
        shutil.copy(os.path.join(ROOT, f), os.path.join(repo, f))
    path = os.path.join(repo, rel)
    text = open(path).read()
    assert old in text, (rel, old)
    open(path, "w").write(text.replace(old, new, 1))
    return repo


def test_gate_trips():
    cases = [
        ("paper_pingpong", "data/golden/fig1_mpich.dat", "\n1 118.599 ",
         "\n1 118.699 "),
        ("paper_pingpong", "perfbench/ref/pingpong.ref",
         "fig4_raw_gm_blocking 1 ", "fig4_raw_gm_blocking 2 "),
        ("fabric_collectives", "data/golden/scaling_allreduce_ring.dat",
         "64 769.771", "64 769.871"),
        ("fabric_collectives", "perfbench/ref/fabric.ref",
         "64 dissemination_barrier 0 ", "64 dissemination_barrier 0 1"),
        ("chaos_audited", "BENCH_chaos.json",
         '"label":"tcp seed=1","ok":true,"status":"ok","retries":0,'
         '"verdict":"degraded"',
         '"label":"tcp seed=1","ok":true,"status":"ok","retries":0,'
         '"verdict":"clean"'),
    ]
    for w, rel, old, new in cases:
        repo = perturbed_copy(rel, old, new)
        p = binary(w, "--repo-dir", repo, "--ref-dir",
                   os.path.join(repo, "perfbench", "ref"))
        doc = last_json(p.stdout)
        check(p.returncode == 1 and doc is not None and not doc["correct"],
              "%s: gate trips on perturbed %s" % (w, rel))
        clean = binary(w, "--repo-dir", ROOT, "--ref-dir",
                       os.path.join(ROOT, "perfbench", "ref"))
        check(clean.returncode == 0, "%s: passes on the committed %s" %
              (w, rel))


def test_bare_directory_fails():
    bare = os.path.join(SCRATCH, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(BENCH, os.path.join(bare, "perfbench"))
    p = run([sys.executable, "perfbench/run.py", "--workload",
             "paper_pingpong", "--seed", "1", "--seconds", "1", "--trace",
             "0"], cwd=bare)
    check(p.returncode != 0 and last_json(p.stdout) is None,
          "bare directory: exits %d without a result" % p.returncode)


def main():
    test_smoke_and_determinism()
    test_chaos_msgs_equal_injected()
    test_gate_trips()
    test_bare_directory_fails()
    shutil.rmtree(SCRATCH, ignore_errors=True)
    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
