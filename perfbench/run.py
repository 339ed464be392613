#!/usr/bin/env python3
"""Build and run the lintime benchmark.

Run from the root of a lintime source tree:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
      One workload in a fresh process.  The last line of standard output is
      one JSON object {"correct", "attempted", "failed", "metrics"}: the
      end-to-end metrics with --trace 0, the per-layer metrics of the traced
      run with --trace 1.
  python3 perfbench/run.py --workload all [--seed N] [--seconds S] [--trace 0|1]
      Every workload, each in its own process; prints each workload's
      metrics by name and unit and exits non-zero if any gate failed.
  python3 perfbench/run.py --smoke
      The benchmark's self-test: all four workloads at small scale, traced,
      with the correctness gate and the traced-run equivalence check.

Each run first builds the benchmark program (perfbench/CMakeLists.txt, Release) against
the tree's src/ in .bench_build/perfbench; after the first build this is an
up-to-date check.  Build output goes to standard error.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ["serving-uniform", "serving-checked", "search-general", "monitor-scale"]
# Work on a change with the default seed; seed 2 is held out, to confirm a
# claimed gain only.  Both are pinned in pins.txt.
DEFAULT_SEED = 1


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("no lintime sources at %s; run from the root of a lintime tree" % (ROOT / "src"))
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # The compiler's temporary files stay inside the tree too.
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    if not (BUILD / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            fail("configure failed")
    if subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs], cwd=ROOT, env=env,
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return BUILD / "perfbench"


def revision():
    if not (ROOT / ".git").exists():
        return "unknown"
    r = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def command(binary, workload, seed, seconds, trace, scale):
    spans = BUILD / "spans" / ("%s.%s.seed%d.json" % (workload, scale, seed))
    spans.parent.mkdir(parents=True, exist_ok=True)
    return [str(binary), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace), "--scale", scale,
            "--scenario-dir", str(HERE / "scenarios"), "--pins", str(HERE / "pins.txt"),
            "--spans-out", str(spans), "--revision", revision()]


def run_all(binary, seed, seconds, trace, scale):
    """Every workload in a fresh process; returns the exit status."""
    statuses = []
    for workload in WORKLOADS:
        proc = subprocess.run(command(binary, workload, seed, seconds, trace, scale), cwd=ROOT,
                              capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        try:
            correct = json.loads(proc.stdout.strip().splitlines()[-1])["correct"]
        except (IndexError, ValueError, KeyError):
            correct = False
        statuses.append((workload, proc.returncode == 0 and correct, proc.returncode))
    print("\nsummary (%s scale, seed %d, trace %d):" % (scale, seed, trace))
    for workload, ok, code in statuses:
        print("  %-16s %s" % (workload, "pass" if ok else "FAIL (exit %d)" % code))
    return 0 if all(ok for _, ok, _ in statuses) else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=int, default=25)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true",
                   help="self-test: every workload at small scale, traced")
    args = p.parse_args()
    if args.smoke == (args.workload is not None):
        p.error("give exactly one of --workload and --smoke")
    if args.seed < 0:
        p.error("--seed must be non-negative")

    binary = build()
    if args.smoke:
        sys.exit(run_all(binary, args.seed, 1, 1, "smoke"))
    if args.workload == "all":
        sys.exit(run_all(binary, args.seed, args.seconds, args.trace, "full"))
    proc = subprocess.run(command(binary, args.workload, args.seed, args.seconds, args.trace,
                                  "full"), cwd=ROOT)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
