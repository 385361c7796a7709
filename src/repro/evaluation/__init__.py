"""Evaluation harness: one module per table/figure of the paper's Section 4."""

from repro.evaluation.workload import WorkloadSpec
from repro.evaluation.end_to_end import EndToEndResult, run_end_to_end, run_full_comparison
from repro.evaluation.summary import speedup_summary
from repro.evaluation.optimizations import optimization_speedups
from repro.evaluation.breakdown import hector_kernel_breakdown, inference_time_breakdown
from repro.evaluation.memory_study import memory_footprint_study
from repro.evaluation.sweep import dimension_sweep
from repro.evaluation.arch_metrics import architectural_metrics
from repro.evaluation.loc_metric import programming_effort_metric
from repro.evaluation.autotune_study import AutotuneCell, autotune_rows, autotune_study
from repro.evaluation.multitenant_study import multitenant_rows, multitenant_study
from repro.evaluation.scaling_study import dispatch_bound_graph, scaling_rows, scaling_study
from repro.evaluation.training_study import perhop_work_study, training_rows, training_study
from repro.evaluation import reporting

__all__ = [
    "WorkloadSpec",
    "EndToEndResult",
    "run_end_to_end",
    "run_full_comparison",
    "speedup_summary",
    "optimization_speedups",
    "inference_time_breakdown",
    "hector_kernel_breakdown",
    "memory_footprint_study",
    "dimension_sweep",
    "architectural_metrics",
    "programming_effort_metric",
    "AutotuneCell",
    "autotune_rows",
    "autotune_study",
    "multitenant_rows",
    "multitenant_study",
    "dispatch_bound_graph",
    "scaling_rows",
    "scaling_study",
    "perhop_work_study",
    "training_rows",
    "training_study",
    "reporting",
]
