"""Cost-model-guided autotuner over the compilation design space.

The paper decouples model semantics from data layout and schedule; this
package searches the resulting design space — compact vs. edge-space
materialization, linear operator reordering, elementwise fusion /
kernel merging, and per-template schedules — scoring every candidate with
the shared roofline cost model and persisting winners in an on-disk tuning
database keyed like the compilation cache (program fingerprint × graph
schema × dimensions × device × mode).

Entry points:

* ``compile_model(..., tune=True)`` or
  ``CompilerOptions(optimization_level="auto")`` — transparent frontend use.
* :func:`tune_model` / :func:`tune_program` — explicit tuning, returning the
  full :class:`TuningResult` leaderboard.
* :func:`search_design_space` — one raw search, no database involvement.
"""

from repro.tuner.autotuner import (
    SEARCH_STRATEGIES,
    TUNED_FIELDS,
    CandidateEvaluation,
    TuningResult,
    apply_tuned_fields,
    clear_search_compile_cache,
    evaluate_candidate,
    resolve_tuned_options,
    search_design_space,
    tune_model,
    tune_program,
)
from repro.tuner.database import (
    DB_PATH_ENV,
    TuningDatabase,
    TuningRecord,
    clear_tuning_database,
    default_db_path,
    default_tuning_database,
)
from repro.tuner.measure import measure_candidate_ms
from repro.tuner.space import TuningSpace

__all__ = [
    "SEARCH_STRATEGIES",
    "TUNED_FIELDS",
    "apply_tuned_fields",
    "CandidateEvaluation",
    "TuningResult",
    "TuningSpace",
    "TuningDatabase",
    "TuningRecord",
    "DB_PATH_ENV",
    "clear_search_compile_cache",
    "clear_tuning_database",
    "default_db_path",
    "default_tuning_database",
    "evaluate_candidate",
    "measure_candidate_ms",
    "resolve_tuned_options",
    "search_design_space",
    "tune_model",
    "tune_program",
]
