"""Compare two benchmark records: ``python3 bench/compare.py A.json B.json``.

Each file is what ``bench/run.py --out F`` writes (run it several times with
the same ``--out`` to append runs).  One row per (workload, metric): the
median of A (the base), the median of B, the ratio B/A, and for end-to-end
metrics a verdict against the bound in BENCHMARK.json:

* ``unresolved`` — A's own run-to-run spread (interquartile range over
  median, needs >= 2 runs) is wider than the bound, so nothing can be said;
* ``worse`` — B's median is worse than A's by more than the bound;
* ``ok`` — otherwise.

Per-layer rows carry no verdict.  Rows named ``<prefix>.<model>.<backend>``
get an extra ``<prefix>.geomean.<backend>`` row: the geometric mean of the
three models' ratios.  Exits non-zero when any row is ``worse``.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
from pathlib import Path
from typing import Dict, List

REPO_DIR = Path(__file__).resolve().parent.parent
MODELS = ("rgcn", "rgat", "hgt")


def load(path: str) -> Dict[str, Dict[str, List[float]]]:
    """``{workload: {metric: [value per run]}}`` over both trace modes."""
    out: Dict[str, Dict[str, List[float]]] = {}
    for run in json.loads(Path(path).read_text())["runs"]:
        for workload, modes in run.items():
            for result in modes.values():
                for key, metric in result["metrics"].items():
                    out.setdefault(workload, {}).setdefault(key, []).append(metric["value"])
    return out


def spread(values: List[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__)
        return 2
    spec = json.loads((REPO_DIR / "BENCHMARK.json").read_text())
    gated = {metric["name"]: metric for metric in spec["end_to_end"]}
    base, other = load(argv[0]), load(argv[1])
    worse = 0
    print(f"{'workload':18s} {'metric':36s} {'A (base)':>13s} {'B':>13s} {'B/A':>7s}  verdict")
    for workload in base:
        ratios: Dict[str, float] = {}
        for key, a_values in base[workload].items():
            if key not in other.get(workload, {}):
                continue
            a, b = statistics.median(a_values), statistics.median(other[workload][key])
            ratio = b / a if a else math.nan
            ratios[key] = ratio
            verdict = ""
            if key in gated:
                change = (ratio - 1.0) * (1 if gated[key]["better"] == "lower" else -1)
                if spread(a_values) > gated[key]["bound"]:
                    verdict = "unresolved"
                elif change > gated[key]["bound"]:
                    verdict = "worse"
                    worse += 1
                else:
                    verdict = "ok"
            print(f"{workload:18s} {key:36s} {a:13.6g} {b:13.6g} {ratio:7.3f}  {verdict}")
        groups: Dict[str, List[float]] = {}
        for key, ratio in ratios.items():
            parts = key.split(".")
            if len(parts) >= 3 and parts[-2] in MODELS and ratio > 0:
                groups.setdefault(".".join(parts[:-2] + ["geomean", parts[-1]]), []).append(ratio)
        for key, members in groups.items():
            geomean = math.exp(sum(map(math.log, members)) / len(members))
            print(f"{workload:18s} {key:36s} {'':13s} {'':13s} {geomean:7.3f}  (of {len(members)} ratios, base A)")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
