#!/usr/bin/env python3
"""Fail-soft same-host A/B of serving throughput for the CI bench smoke.

Runs BM_ServingThroughput_Ring/100000 from two micro_benchmarks binaries --
one built at the merge-base, one at HEAD -- interleaved on the same host,
and reports the median of the per-pair HEAD/base ops/s ratios.  Pairs
alternate which side runs first, so a steady drift of the host (thermal,
noisy neighbours) does not favour one side.  Prints a GitHub `::warning::`
annotation when the median ratio falls more than the threshold (default
10%) below 1.  ALWAYS exits 0: shared runners are noisy, so a slow run must
never block a merge -- the annotation puts the number in front of a human.

Stdlib-only on purpose: CI (and anyone locally) can run it with a bare
python3.

    python3 tools/ci/check_bench_regress.py \
        --base base-build/bench/micro_benchmarks \
        --head build/bench/micro_benchmarks \
        --out BENCH_serving_smoke.json
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

BENCH_NAME = "BM_ServingThroughput_Ring/100000"
RUNS = 3  # interleaved runs per side


def warn(message: str) -> None:
    # `::warning::` renders as an annotation on the workflow run.
    print(f"::warning::check_bench_regress: {message}")


def ops_per_sec(path: str) -> float | None:
    """ops_per_sec of the smoke benchmark from google-benchmark JSON output.

    Returns None (after printing a warning) on any shape surprise: a missing
    artifact must surface as an annotation, not a hard failure.
    """
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        warn(f"cannot read benchmark JSON {path}: {err}")
        return None
    for bench in doc.get("benchmarks", []):
        if bench.get("name") == BENCH_NAME and "ops_per_sec" in bench:
            return float(bench["ops_per_sec"])
    warn(f"{path} has no '{BENCH_NAME}' entry with an ops_per_sec counter")
    return None


def run_once(binary: str, out_path: str) -> float | None:
    """Runs the smoke benchmark once; returns its ops/s or None on failure."""
    if os.path.exists(out_path):
        os.remove(out_path)  # never read a previous run's numbers
    cmd = [
        binary,
        f"--benchmark_filter=^{BENCH_NAME}$",
        f"--benchmark_out={out_path}",
        "--benchmark_out_format=json",
    ]
    try:
        # The context banner on stderr repeats per run; show it only when
        # the run fails.
        proc = subprocess.run(
            cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, check=False
        )
    except OSError as err:
        warn(f"cannot run {binary}: {err}")
        return None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        warn(f"{binary} exited with {proc.returncode}")
        return None
    return ops_per_sec(out_path)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--base", required=True, help="micro_benchmarks built at the merge-base")
    parser.add_argument("--head", required=True, help="micro_benchmarks built at HEAD")
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.10,
        help="warn when the median HEAD/base ratio falls more than this fraction below 1",
    )
    parser.add_argument("--out", help="also keep the last HEAD run's benchmark JSON here")
    args = parser.parse_args()

    binaries = {"base": args.base, "head": args.head}
    runs = {"base": [], "head": []}
    ratios = []
    with tempfile.TemporaryDirectory() as tmp:
        outputs = {side: os.path.join(tmp, f"{side}.json") for side in binaries}
        for i in range(RUNS):
            order = ["base", "head"] if i % 2 == 0 else ["head", "base"]
            pair = {side: run_once(binaries[side], outputs[side]) for side in order}
            if pair["base"] is None or pair["head"] is None or pair["base"] <= 0:
                continue
            for side in binaries:
                runs[side].append(pair[side])
            ratios.append(pair["head"] / pair["base"])
            print(
                f"check_bench_regress: pair {i + 1} ({order[0]} first): "
                f"base {pair['base']:,.0f} ops/s, head {pair['head']:,.0f} ops/s, "
                f"ratio {ratios[-1]:.3f}"
            )
        if args.out and os.path.exists(outputs["head"]):
            shutil.copyfile(outputs["head"], args.out)

    if not ratios:
        warn("no complete base/head pair; nothing to compare")
        sys.exit(0)  # fail-soft: the warnings above are the whole report

    ratio = statistics.median(ratios)
    line = (
        f"{BENCH_NAME}: median HEAD/base ratio {ratio:.3f} over {len(ratios)} interleaved "
        f"pairs (median base {statistics.median(runs['base']):,.0f} ops/s, "
        f"head {statistics.median(runs['head']):,.0f} ops/s)"
    )
    if ratio < 1.0 - args.threshold:
        warn(f"serving throughput regressed >{args.threshold:.0%} against the merge-base: {line}")
    else:
        print(f"check_bench_regress: OK — {line}")
    sys.exit(0)


if __name__ == "__main__":
    main()
