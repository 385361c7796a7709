"""Measure the benchmark's own noise: ``python3 bench/noise.py [--runs 10] [--out bench/NOISE.md]``.

Runs every workload as two sets (A, B) of ``--runs`` untraced runs of the
*same* code, alternating A and B run by run, each run with another seed.  Per
(workload, metric) it prints each set's median and quartiles, the spread
(interquartile range over median) and the gap between the set medians in the
metric's worse direction, and exits non-zero when a spread (``setup_s``
excepted) or a gap exceeds that metric's bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from bench.run import REPO_DIR, host_fingerprint, run_subprocess  # noqa: E402
from bench.workloads import WORKLOADS  # noqa: E402


def measure_sets(args, spec, keys) -> Dict[str, Dict[str, Dict[str, List[float]]]]:
    """``values[workload][metric]["A" | "B"]``: one value per run, A and B alternating."""
    values = {name: {key: {"A": [], "B": []} for key in keys} for name in args.workloads}
    seed = args.seed
    for index in range(args.runs):
        for which in ("A", "B"):
            for name in args.workloads:
                result = run_subprocess(name, seed, spec["run_seconds"], trace=False)
                if not result["correct"]:
                    raise SystemExit(f"{name} seed {seed}: outputs incorrect ({result['failed']} failed)")
                for key in keys:
                    values[name][key][which].append(result["metrics"][key]["value"])
            seed += 1
        print(f"round {index + 1}/{args.runs} done", file=sys.stderr)
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=10, help="runs per set and workload (>= 3)")
    parser.add_argument("--seed", type=int, default=1000, help="first seed; every run takes the next one")
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS), choices=list(WORKLOADS))
    parser.add_argument("--out", help="also write the table to this markdown file")
    args = parser.parse_args(argv)
    if args.runs < 3:
        parser.error("--runs must be at least 3")
    spec = json.loads((REPO_DIR / "BENCHMARK.json").read_text())
    metrics = {metric["name"]: metric for metric in spec["end_to_end"]}

    values = measure_sets(args, spec, list(metrics))
    seed = args.seed + 2 * args.runs

    lines = [
        f"Two sets of {args.runs} runs per workload, alternating, seeds {args.seed}..{seed - 1}, "
        f"{spec['run_seconds']} s runs.",
        "",
        "`spread` = (q3 - q1) / median of a set; `gap` = how much worse set B's median is than set A's.",
        "",
        "| workload | metric | A median [q1, q3] | A spread | B median [q1, q3] | B spread | gap | bound | |",
        "|---|---|---|---|---|---|---|---|---|",
    ]
    worst: Dict[str, List[float]] = {key: [0.0, 0.0] for key in metrics}
    failures = 0
    for name in args.workloads:
        for key, metric in metrics.items():
            a, b = (statistics.quantiles(values[name][key][which], n=4) for which in ("A", "B"))
            spreads = [(q3 - q1) / q2 for q1, q2, q3 in (a, b)]
            gap = (b[1] - a[1]) / a[1] * (1 if metric["better"] == "lower" else -1)
            bound = metric["bound"]
            bad = gap > bound or (key != "setup_s" and max(spreads) > bound)
            failures += bad
            worst[key] = [max(worst[key][0], *spreads), max(worst[key][1], abs(gap))]
            cells = [f"{q2:.5g} [{q1:.5g}, {q3:.5g}]" for q1, q2, q3 in (a, b)]
            lines.append(
                f"| {name} | {key} | {cells[0]} | {spreads[0]:.2%} | {cells[1]} | {spreads[1]:.2%} "
                f"| {gap:+.2%} | {bound:.0%} | {'OVER' if bad else 'ok'} |"
            )
    lines += ["", "| metric | worst spread | worst gap | bound |", "|---|---|---|---|"]
    lines += [f"| {key} | {s:.2%} | {g:.2%} | {metrics[key]['bound']:.0%} |" for key, (s, g) in worst.items()]
    text = "\n".join(lines) + "\n"
    print(text)
    if args.out:
        host = host_fingerprint(args.seed)
        header = (f"# Benchmark noise on this host\n\nHost: {host['nproc']} x {host['cpu']}, Python {host['python']}, "
                  f"numpy {host['numpy']}.  "
                  f"Produced by `python3 bench/noise.py --runs {args.runs} --seed {args.seed}`.\n\n")
        Path(args.out).write_text(header + text)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
