#!/usr/bin/env python3
"""Fail-soft same-host A/B of serving and fast-checker throughput for the CI
bench smoke.

Runs each benchmark in BENCH_NAMES (the 10^5-op serving pass and the 10^5-op
priority-queue fast-checker pass) from two micro_benchmarks binaries -- one
built at the merge-base, one at HEAD -- interleaved on the same host, and
reports, per benchmark, the median of the per-pair HEAD/base ops/s ratios.
Pairs alternate which side runs first, so a steady drift of the host
(thermal, noisy neighbours) does not favour one side.  Prints a GitHub
`::warning::` annotation for each benchmark whose median ratio falls more
than the threshold (default 10%) below 1.  ALWAYS exits 0: shared runners
are noisy, so a slow run must never block a merge -- the annotation puts the
number in front of a human.

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

BENCH_NAMES = [
    "BM_ServingThroughput_Ring/100000",
    "BM_FastCheckerThroughput_PQueue/100000",
]
RUNS = 3  # interleaved runs per side


def warn(message: str) -> None:
    # `::warning::` renders as an annotation on the workflow run.
    print(f"::warning::check_bench_regress: {message}")


def ops_per_sec(path: str) -> dict[str, float]:
    """ops_per_sec of each smoke benchmark from google-benchmark JSON output.

    A benchmark missing from the output is missing from the result (after a
    warning): a missing artifact must surface as an annotation, not a hard
    failure.
    """
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        warn(f"cannot read benchmark JSON {path}: {err}")
        return {}
    found = {}
    for bench in doc.get("benchmarks", []):
        if bench.get("name") in BENCH_NAMES and "ops_per_sec" in bench:
            found[bench["name"]] = float(bench["ops_per_sec"])
    for name in BENCH_NAMES:
        if name not in found:
            warn(f"{path} has no '{name}' entry with an ops_per_sec counter")
    return found


def run_once(binary: str, out_path: str) -> dict[str, float]:
    """Runs the smoke benchmarks once; returns ops/s by benchmark name."""
    if os.path.exists(out_path):
        os.remove(out_path)  # never read a previous run's numbers
    cmd = [
        binary,
        f"--benchmark_filter=^({'|'.join(BENCH_NAMES)})$",
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
        return {}
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        warn(f"{binary} exited with {proc.returncode}")
        return {}
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
    runs = {name: {"base": [], "head": []} for name in BENCH_NAMES}
    ratios = {name: [] for name in BENCH_NAMES}
    with tempfile.TemporaryDirectory() as tmp:
        outputs = {side: os.path.join(tmp, f"{side}.json") for side in binaries}
        for i in range(RUNS):
            order = ["base", "head"] if i % 2 == 0 else ["head", "base"]
            pair = {side: run_once(binaries[side], outputs[side]) for side in order}
            for name in BENCH_NAMES:
                base, head = pair["base"].get(name), pair["head"].get(name)
                if base is None or head is None or base <= 0:
                    continue
                runs[name]["base"].append(base)
                runs[name]["head"].append(head)
                ratios[name].append(head / base)
                print(
                    f"check_bench_regress: {name} pair {i + 1} ({order[0]} first): "
                    f"base {base:,.0f} ops/s, head {head:,.0f} ops/s, "
                    f"ratio {ratios[name][-1]:.3f}"
                )
        if args.out and os.path.exists(outputs["head"]):
            shutil.copyfile(outputs["head"], args.out)

    for name in BENCH_NAMES:
        if not ratios[name]:
            warn(f"{name}: no complete base/head pair; nothing to compare")
            continue
        ratio = statistics.median(ratios[name])
        line = (
            f"{name}: median HEAD/base ratio {ratio:.3f} over {len(ratios[name])} "
            f"interleaved pairs (median base {statistics.median(runs[name]['base']):,.0f} "
            f"ops/s, head {statistics.median(runs[name]['head']):,.0f} ops/s)"
        )
        if ratio < 1.0 - args.threshold:
            warn(f"throughput regressed >{args.threshold:.0%} against the merge-base: {line}")
        else:
            print(f"check_bench_regress: OK — {line}")
    sys.exit(0)  # fail-soft: the warnings above are the whole report

if __name__ == "__main__":
    main()
