"""Effect of compact materialization and linear operator reordering (Table 5).

For RGAT and HGT, each dataset, and each mode, the harness compares the three
optimised configurations (C, R, C+R) against the unoptimised Hector code.
Cells where the unoptimised configuration runs out of memory are normalised
against the compacted configuration instead, as the paper does for RGAT on
mag and wikikg2 (the ``*`` footnote of Table 5).
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.baselines.hector_system import HectorSystem
from repro.evaluation.reporting import geometric_mean
from repro.evaluation.workload import WorkloadSpec
from repro.frontend.compiler import compile_model
from repro.frontend.config import CONFIGURATIONS, CompilerOptions
from repro.gpu.device import DeviceSpec, RTX_3090
from repro.graph.datasets import dataset_names
from repro.graph.hetero_graph import HeteroGraph

#: Table 5 studies the two attention models only.
OPTIMIZATION_MODELS = ("rgat", "hgt")
CONFIG_LABELS = ("U", "C", "R", "C+R")


def optimization_speedups(
    models: Sequence[str] = OPTIMIZATION_MODELS,
    datasets: Optional[Sequence[str]] = None,
    modes: Sequence[str] = ("training", "inference"),
    in_dim: int = 64,
    out_dim: int = 64,
    device: DeviceSpec = RTX_3090,
) -> List[Dict[str, object]]:
    """Speed-up of C / R / C+R over unoptimised Hector, per model × dataset × mode."""
    datasets = list(datasets) if datasets is not None else dataset_names()
    systems = {label: HectorSystem(CONFIGURATIONS[label]) for label in CONFIG_LABELS}
    rows: List[Dict[str, object]] = []
    for mode in modes:
        training = mode == "training"
        for model in models:
            per_config_speedups: Dict[str, List[float]] = {label: [] for label in CONFIG_LABELS[1:]}
            for dataset in datasets:
                workload = WorkloadSpec.from_dataset(dataset, in_dim=in_dim, out_dim=out_dim)
                estimates = {
                    label: systems[label].estimate(model, workload, training, device)
                    for label in CONFIG_LABELS
                }
                # Normalise against U, or against C when U itself is OOM (the
                # asterisked cells of Table 5).
                reference = estimates["U"].time_ms
                reference_label = "U"
                if reference is None and estimates["C"].time_ms is not None:
                    reference = estimates["C"].time_ms
                    reference_label = "C"
                row: Dict[str, object] = {
                    "model": model.upper(),
                    "mode": mode,
                    "dataset": dataset,
                    "reference": reference_label,
                }
                for label in CONFIG_LABELS[1:]:
                    time_ms = estimates[label].time_ms
                    if reference is None or time_ms is None:
                        row[label] = None
                        continue
                    ratio = reference / time_ms
                    row[label] = ratio
                    per_config_speedups[label].append(ratio)
                rows.append(row)
            average_row: Dict[str, object] = {
                "model": model.upper(),
                "mode": mode,
                "dataset": "AVERAGE",
                "reference": "U",
            }
            for label in CONFIG_LABELS[1:]:
                values = per_config_speedups[label]
                average_row[label] = geometric_mean(values) if values else None
            rows.append(average_row)
    return rows


def executed_optimization_speedups(
    graphs: Sequence[HeteroGraph],
    models: Sequence[str] = ("rgcn", "rgat", "hgt"),
    dim: int = 32,
    rounds: int = 3,
) -> List[Dict[str, object]]:
    """Measured beside modelled: U / C / R / C+R on the executed ``python-codegen`` backend.

    One row per graph × model × mode (``step`` = forward + backward): each
    configuration's measured speed-up over U (best ``time.thread_time`` pass of
    ``rounds`` interleaved two-pass batches: a slow stretch of a shared host
    lands on all four, a batch's second pass finds its data in cache), the
    roofline model's for the same workload, and :meth:`CompilerOptions.resolved`'s decision.
    """
    # Measure a long-lived process: once a large buffer (here 31 MiB, under glibc's
    # threshold cap) has been freed, E×d temporaries stay on the heap; before, each is
    # page-faulted afresh per call and allocation history picks which configuration pays.
    np.empty(31 << 17)
    systems = {label: HectorSystem(CONFIGURATIONS[label]) for label in CONFIG_LABELS}
    rows: List[Dict[str, object]] = []
    for graph in graphs:
        features = np.random.default_rng(0).standard_normal((graph.num_nodes, dim))
        workload = WorkloadSpec.from_graph(graph, in_dim=dim, out_dim=dim)
        shape = {
            "graph": graph.name, "ratio": round(graph.entity_compaction_ratio, 2),
            "edges/rel": graph.num_edges // graph.num_edge_types,
            "decision": CompilerOptions().resolved(graph).label(),
        }
        for model in models:
            modules = {
                label: compile_model(model, graph, dim, dim, CONFIGURATIONS[label].with_(backend="python-codegen"))
                for label in CONFIG_LABELS
            }
            for training in (False, True):
                best = dict.fromkeys(CONFIG_LABELS, float("inf"))
                for label, module in list(modules.items()) * rounds:
                    for _ in range(2):
                        start = time.thread_time()
                        out = module.forward(features)[module.output_name]
                        if training:
                            module.backward({module.output_name: np.ones_like(out)})
                            module.zero_grad()
                        best[label] = min(best[label], time.thread_time() - start)
                modelled = {label: systems[label].estimate(model, workload, training).time_ms for label in best}
                row: Dict[str, object] = {**shape, "model": model.upper(), "mode": "step" if training else "forward"}
                row["U_ms"] = round(best["U"] * 1e3, 2)
                for label in CONFIG_LABELS[1:]:
                    row[label] = best["U"] / best[label]
                    row[f"model_{label}"] = modelled["U"] / modelled[label]
                rows.append(row)
    return rows


def best_fixed_strategy(rows: Sequence[Dict[str, object]]) -> str:
    """The configuration with the highest average speed-up across all scenarios.

    The paper finds that enabling both compaction and reordering is the best
    fixed strategy on average in all four (model × mode) scenarios.
    """
    averages = [row for row in rows if row.get("dataset") == "AVERAGE"]
    totals: Dict[str, List[float]] = {label: [] for label in CONFIG_LABELS[1:]}
    for row in averages:
        for label in CONFIG_LABELS[1:]:
            value = row.get(label)
            if value is not None:
                totals[label].append(float(value))
    scores = {label: geometric_mean(values) if values else 0.0 for label, values in totals.items()}
    return max(scores, key=scores.get)
