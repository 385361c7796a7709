"""Memory footprint, compact materialization, and arena planning study (Figure 10)."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.baselines.hector_system import HectorSystem
from repro.evaluation.workload import WorkloadSpec
from repro.frontend.config import CONFIGURATIONS
from repro.graph.datasets import dataset_names, get_dataset_stats
from repro.runtime.planner import MemoryPlanner


def memory_footprint_study(
    model: str = "hgt",
    datasets: Optional[Sequence[str]] = None,
    in_dim: int = 64,
    out_dim: int = 64,
) -> List[Dict[str, object]]:
    """Figure 10: Hector memory use with and without compact materialization.

    For every dataset the row reports the unoptimised inference and training
    footprints (MiB), the fraction of that footprint remaining once compaction
    is enabled, the entity compaction ratio, and the dataset's size statistics
    that the paper overlays on the same plot.  Two additional columns report
    the buffer-arena memory planner: the inference footprint remaining once
    intermediate buffers with disjoint lifetimes share arena slots
    (``inference_planned_fraction``), and the arena size relative to naive
    whole-pass intermediate materialisation (``arena_sharing_fraction``).
    Slot sharing needs an inference-only plan — training pins every forward
    intermediate for the backward pass — so the planner columns are computed
    from the ``emit_backward=False`` compilation of the same configuration.
    """
    datasets = list(datasets) if datasets is not None else dataset_names()
    unopt = HectorSystem(CONFIGURATIONS["U"])
    compact = HectorSystem(CONFIGURATIONS["C"])
    inference_opts = CONFIGURATIONS["U"].with_(emit_backward=False)
    inference_system = HectorSystem(inference_opts, name="Hector (U, inference)")
    rows: List[Dict[str, object]] = []
    for dataset in datasets:
        stats = get_dataset_stats(dataset)
        workload = WorkloadSpec.from_dataset(dataset, in_dim=in_dim, out_dim=out_dim)
        inference_unopt = unopt.memory_bytes(model, workload, training=False)
        training_unopt = unopt.memory_bytes(model, workload, training=True)
        inference_compact = compact.memory_bytes(model, workload, training=False)
        training_compact = compact.memory_bytes(model, workload, training=True)
        inference_plan = inference_system.compiled(model, in_dim, out_dim).plan
        planner = MemoryPlanner(inference_plan)
        planned = planner.planned_footprint_bytes(workload, training=False)
        naive_inference = inference_plan.memory_bytes(workload, training=False)
        memory_plan = planner.plan_memory(workload, training=False)
        rows.append(
            {
                "dataset": dataset,
                "num_nodes": stats.num_nodes,
                "num_edges": stats.num_edges,
                "average_degree": stats.average_degree,
                "entity_compaction_ratio": workload.compaction_ratio,
                "inference_mem_mib": inference_unopt / 2**20,
                "training_mem_mib": training_unopt / 2**20,
                "inference_compact_fraction": inference_compact / inference_unopt,
                "training_compact_fraction": training_compact / training_unopt,
                "inference_planned_fraction": planned / naive_inference,
                "arena_sharing_fraction": memory_plan.sharing_fraction(),
            }
        )
    return rows
