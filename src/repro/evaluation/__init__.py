"""Evaluation harness: one module per table/figure of the paper's Section 4.

The tables come from the analytic cost model, except the executed Table 5
(:func:`~repro.evaluation.optimizations.executed_optimization_speedups`).
The serving, training and scaling paths have no study here: ``bench/run.py``
records their absolute times (``serve_req_per_s``, ``epoch_s.*``, the
``query_p*_ms`` latencies), and tier-1 checks their behaviour on counters
and on the serving loop's virtual clock.
"""

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
    "reporting",
]
