"""Cost-model-guided search over the compilation design space.

Every candidate is compiled through the regular ``compile_program`` entry
point (so the compilation cache dedupes identical points across searches and
the produced plans are exactly what a direct compilation would yield), priced
with the :mod:`repro.gpu.costmodel` roofline model under the target workload,
filtered against the device memory capacity, and — optionally — the top-k
candidates are validated by measured wall-clock of the python backend on a
concrete graph.  Winners are persisted in the :mod:`repro.tuner.database`.

Two search strategies:

* ``"staged"`` (default): score the pass-level axes (materialization ×
  reordering × fusion) under default schedules, then sweep the schedule axes
  around the winning pass configuration — ``P + S`` evaluations.
* ``"exhaustive"``: the full cross product — ``P × S`` evaluations.

Both evaluate the caller's base configuration first, so the tuned result is
never scored worse than the default.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.frontend.cache import CompilationCache, make_tuning_key
from repro.frontend.compiler import compile_program
from repro.frontend.config import CompilerOptions
from repro.gpu.costmodel import plan_execution_estimate
from repro.gpu.device import DeviceSpec, RTX_3090
from repro.graph.hetero_graph import HeteroGraph
from repro.ir.inter_op.program import InterOpProgram
from repro.tuner.database import TuningDatabase, default_tuning_database, record_from_search
from repro.tuner.measure import measure_candidate_ms
from repro.tuner.space import TuningSpace

#: Search strategies understood by :func:`search_design_space`.
SEARCH_STRATEGIES = ("staged", "exhaustive")

#: Compilation cache shared by every design-space search.  Kept separate from
#: the process-global serving cache so hundreds of losing candidates never
#: crowd it, while still deduping candidate compilations across searches
#: (the same design-space points recur for every workload of one program).
#: Bounded: once it exceeds :data:`_SEARCH_CACHE_LIMIT` entries the next
#: search starts it fresh, so long-lived processes tuning many programs or
#: dimensions cannot grow it monotonically.
_SEARCH_COMPILE_CACHE = CompilationCache()
_SEARCH_CACHE_LIMIT = 2048


def clear_search_compile_cache() -> None:
    """Drop every candidate compilation retained by past searches."""
    _SEARCH_COMPILE_CACHE.clear()

#: The option fields the tuner searches; a tuning-database replay applies
#: exactly these onto the caller's base options, so non-searched switches
#: (``emit_backward``, ``enable_memory_planning``, ``enable_compilation_cache``,
#: …) always follow the caller, not whoever ran the original search.
TUNED_FIELDS = (
    "compact_materialization",
    "linear_operator_reordering",
    "fuse_elementwise",
    "gemm_tile_size",
    "gemm_coarsening",
    "traversal_rows_per_block",
    "traversal_partial_aggregation",
    "backend",
)


def apply_tuned_fields(base: CompilerOptions, tuned: CompilerOptions) -> CompilerOptions:
    """Copy the searched axes of ``tuned`` onto ``base`` (see :data:`TUNED_FIELDS`)."""
    overrides = {name: getattr(tuned, name) for name in TUNED_FIELDS}
    return base.with_(optimization_level=None, **overrides)


@dataclass
class CandidateEvaluation:
    """Score of one design-space point under the tuning workload."""

    options: CompilerOptions
    estimated_ms: float
    memory_bytes: float
    oom: bool = False
    measured_ms: Optional[float] = None
    schedules: List[str] = field(default_factory=list)

    @property
    def label(self) -> str:
        return self.options.schedule_label()

    def as_row(self) -> dict:
        return {
            "configuration": self.label,
            "estimated_ms": None if self.oom else round(self.estimated_ms, 4),
            "measured_ms": None if self.measured_ms is None else round(self.measured_ms, 4),
            "memory_gib": round(self.memory_bytes / 2**30, 3),
            "status": "OOM" if self.oom else "ok",
            "schedules": "; ".join(self.schedules),
        }


@dataclass
class TuningResult:
    """Outcome of one tuning request (search or database replay)."""

    key: str
    workload_name: str
    mode: str
    device_name: str
    best: CandidateEvaluation
    candidates: List[CandidateEvaluation] = field(default_factory=list)
    search: str = "staged"
    db_hit: bool = False

    @property
    def options(self) -> CompilerOptions:
        """The winning configuration."""
        return self.best.options

    def leaderboard(self, limit: int = 10) -> List[dict]:
        """Top candidates by estimated time, as report rows."""
        ranked = sorted(self.candidates, key=lambda c: c.estimated_ms)
        return [candidate.as_row() for candidate in ranked[:limit]]


# ----------------------------------------------------------------------
def evaluate_candidate(
    program: InterOpProgram,
    options: CompilerOptions,
    workload,
    device: DeviceSpec = RTX_3090,
    mode: str = "inference",
    cache: Optional[CompilationCache] = None,
) -> CandidateEvaluation:
    """Compile one candidate and price it with the roofline cost model.

    Candidates whose footprint exceeds the device memory are marked OOM and
    scored infinitely slow, so they can never win the search.  Pass ``cache``
    to keep scoring compilations out of the process-global compilation cache
    (searches use a scratch cache so hundreds of losing candidates are not
    retained for the process lifetime).
    """
    training = mode == "training"
    result = compile_program(program, options, cache=cache)
    memory = result.plan.memory_bytes(workload, training=training)
    if memory > device.memory_bytes:
        return CandidateEvaluation(
            options=options, estimated_ms=float("inf"), memory_bytes=memory, oom=True
        )
    estimate = plan_execution_estimate(result.plan, workload, device, training=training)
    return CandidateEvaluation(
        options=options,
        estimated_ms=estimate.total_time_ms,
        memory_bytes=memory,
        schedules=result.plan.schedule_descriptions(),
    )


def _best_of(candidates: List[CandidateEvaluation]) -> CandidateEvaluation:
    """Strictly-better minimum: ties keep the earlier (more default) candidate."""
    best = candidates[0]
    for candidate in candidates[1:]:
        if candidate.estimated_ms < best.estimated_ms:
            best = candidate
    return best


def search_design_space(
    program: InterOpProgram,
    workload,
    base_options: Optional[CompilerOptions] = None,
    space: Optional[TuningSpace] = None,
    device: DeviceSpec = RTX_3090,
    mode: str = "inference",
    search: str = "staged",
    graph: Optional[HeteroGraph] = None,
    measure_top_k: int = 0,
    measure_repeats: int = 3,
) -> TuningResult:
    """Search the design space for one (program × workload × device × mode).

    Args:
        program: the inter-op program being tuned.
        workload: :class:`~repro.evaluation.workload.WorkloadSpec` sizes the
            cost model prices candidates against.
        base_options: configuration the candidates are derived from; its
            non-searched switches (``emit_backward``, memory planning, …) are
            preserved.  Defaults to ``CompilerOptions()``.
        space: axes to search; defaults to the full :class:`TuningSpace`.
        device / mode: scoring target; ``mode`` is ``"inference"`` or
            ``"training"``.
        search: ``"staged"`` or ``"exhaustive"``.
        graph: concrete graph enabling measured validation.
        measure_top_k: when > 0 (and ``graph`` is given), re-rank the best k
            candidates by measured wall-clock of the python backend.
        measure_repeats: timed repetitions per measured candidate.
    """
    if mode not in ("inference", "training"):
        raise ValueError(f"unknown tuning mode {mode!r}")
    if search not in SEARCH_STRATEGIES:
        raise ValueError(f"unknown search strategy {search!r}; expected one of {SEARCH_STRATEGIES}")
    base = (base_options or CompilerOptions()).with_(optimization_level=None).resolved(graph)
    if mode == "training" and not base.emit_backward:
        raise ValueError("training-mode tuning requires base options with emit_backward=True")
    space = space or TuningSpace()
    if len(_SEARCH_COMPILE_CACHE) > _SEARCH_CACHE_LIMIT:
        _SEARCH_COMPILE_CACHE.clear()
    scratch = _SEARCH_COMPILE_CACHE

    if search == "exhaustive":
        points = space.all_candidates(base)
        evaluated = [evaluate_candidate(program, p, workload, device, mode, scratch) for p in points]
    else:
        pass_points = space.pass_candidates(base)
        evaluated = [
            evaluate_candidate(program, p, workload, device, mode, scratch) for p in pass_points
        ]
        stage_one_best = _best_of(evaluated)
        seen = {candidate.options.cache_key() for candidate in evaluated}
        for point in space.schedule_candidates(stage_one_best.options):
            if point.cache_key() in seen:
                continue
            seen.add(point.cache_key())
            evaluated.append(evaluate_candidate(program, point, workload, device, mode, scratch))

    best = _best_of(evaluated)
    if best.oom:
        raise MemoryError(
            f"every candidate of the design space exceeds {device.name} memory for workload {workload.name}"
        )

    if measure_top_k > 0 and graph is not None:
        ranked = sorted(
            (candidate for candidate in evaluated if not candidate.oom),
            key=lambda candidate: candidate.estimated_ms,
        )[:measure_top_k]
        for candidate in ranked:
            result = compile_program(program, candidate.options, cache=scratch)
            candidate.measured_ms = measure_candidate_ms(
                result, graph, mode=mode, repeats=measure_repeats
            )
        best = min(ranked, key=lambda candidate: candidate.measured_ms)

    key = make_tuning_key(
        program, graph, workload.in_dim, workload.out_dim, device.name, mode, workload=workload
    )
    return TuningResult(
        key=key,
        workload_name=workload.name,
        mode=mode,
        device_name=device.name,
        best=best,
        candidates=evaluated,
        search=search,
    )


# ----------------------------------------------------------------------
def tune_program(
    program: InterOpProgram,
    graph: Optional[HeteroGraph] = None,
    workload=None,
    base_options: Optional[CompilerOptions] = None,
    space: Optional[TuningSpace] = None,
    device: DeviceSpec = RTX_3090,
    mode: str = "inference",
    search: str = "staged",
    db: Optional[TuningDatabase] = None,
    measure_top_k: int = 0,
    measure_repeats: int = 3,
) -> TuningResult:
    """Tune a program, consulting and updating the tuning database.

    A database hit replays the stored winner without re-searching (the
    replayed result carries ``db_hit=True`` and an empty candidate list):
    the stored *searched* axes (:data:`TUNED_FIELDS`) are applied onto the
    caller's ``base_options``, so non-searched switches always follow the
    caller; a custom ``space`` does not invalidate stored winners.  Replayed
    winners are re-checked against the current workload's footprint — graphs
    share entries per *schema*, so a winner tuned on a small instance that
    would OOM on the instance at hand triggers a fresh search instead of
    being replayed.  A miss runs :func:`search_design_space` and persists
    the winner.  Either ``graph`` or an explicit ``workload`` must be
    provided; with both, the workload prices candidates and the graph
    enables measured validation.
    """
    if mode not in ("inference", "training"):
        raise ValueError(f"unknown tuning mode {mode!r}")
    base = (base_options or CompilerOptions()).with_(optimization_level=None).resolved(graph)
    if mode == "training" and not base.emit_backward:
        raise ValueError("training-mode tuning requires base options with emit_backward=True")
    explicit_workload = workload is not None
    if workload is None:
        if graph is None:
            raise ValueError("tune_program needs a graph or an explicit workload")
        from repro.evaluation.workload import WorkloadSpec  # local: evaluation sits above tuner

        workload = WorkloadSpec.from_graph(graph, in_dim=program.in_dim, out_dim=program.out_dim)
    db = db if db is not None else default_tuning_database()
    # Graph-derived workloads share one entry per schema (the serving
    # pattern); an explicitly supplied workload also scopes the key, so
    # tuning the same schema against different pricing workloads cannot
    # collide on one record.
    key = make_tuning_key(
        program,
        graph,
        workload.in_dim,
        workload.out_dim,
        device.name,
        mode,
        workload=workload if explicit_workload else None,
    )
    record = db.lookup(key)
    if record is not None:
        replayed = evaluate_candidate(
            program, apply_tuned_fields(base, record.compiler_options()), workload, device, mode
        )
        # The stored measured_ms is wall-clock from whatever instance ran the
        # original search; it is not attached here because estimated_ms is
        # re-priced for the workload at hand and the pair must stay coherent.
        if not replayed.oom:
            return TuningResult(
                key=key,
                workload_name=workload.name,
                mode=mode,
                device_name=device.name,
                best=replayed,
                candidates=[],
                search=record.search,
                db_hit=True,
            )
    result = search_design_space(
        program,
        workload,
        base_options=base,
        space=space,
        device=device,
        mode=mode,
        search=search,
        graph=graph,
        measure_top_k=measure_top_k,
        measure_repeats=measure_repeats,
    )
    result.key = key
    db.store(key, record_from_search(result))
    return result


def tune_model(
    model: str,
    graph: Optional[HeteroGraph] = None,
    in_dim: int = 64,
    out_dim: int = 64,
    **kwargs,
) -> TuningResult:
    """Convenience wrapper: build a named model's program and tune it."""
    from repro.models import build_program  # local import to avoid a cycle

    program = build_program(model, in_dim=in_dim, out_dim=out_dim)
    return tune_program(program, graph=graph, **kwargs)


def resolve_tuned_options(
    program: InterOpProgram,
    graph: Optional[HeteroGraph] = None,
    base_options: Optional[CompilerOptions] = None,
    **kwargs,
) -> CompilerOptions:
    """Resolve ``optimization_level="auto"`` to concrete compiler options.

    Used by ``compile_model(..., tune=True)``: returns the winning
    configuration for the (program, schema, dims, device, mode) key — from
    the tuning database when previously searched, otherwise by searching now.
    The returned options always have ``optimization_level=None`` and inherit
    every non-searched switch from ``base_options``.
    """
    result = tune_program(program, graph=graph, base_options=base_options, **kwargs)
    return result.options
