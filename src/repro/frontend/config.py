"""Compiler configuration.

The optimization switches correspond to the configurations evaluated in the
paper: unoptimised (``U``), compact materialization (``C``), linear operator
reordering (``R``), and both (``C+R``) — Table 5 and Figure 9.

Both switches default to ``None`` — *the compiler decides*:
:meth:`CompilerOptions.resolved` fills an unset switch from two statistics of
the graph the plan runs on (``compile_model`` / ``hector_compile`` pass theirs);
``True`` / ``False`` pin a switch, ``CONFIGURATIONS["U"]`` pins both off.  Plans
compiled for sampled blocks (``MultiLayerModule.build``, ``Router.register(name,
"rgat", …)``) resolve with no graph and keep U — a fanout-bounded block has ≈ 80
edges per relation and compaction ratio ≈ 1 whatever its parent looks like —
but a hand-compiled ``compile_model(model, parent)`` module keeps ``parent``'s
decision wherever it is later bound.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Optional

from repro.ir.intra_op.schedule import GemmSchedule, TraversalSchedule


@dataclass
class CompilerOptions:
    """Options controlling the pass pipeline, schedules, lowering, and runtime.

    Attributes:
        compact_materialization: enable the compact materialization pass.
        linear_operator_reordering: enable the reordering pass.  Either
            switch left ``None`` is decided by :meth:`resolved`.
        enable_fusion: fuse adjacent traversal operators into one kernel.
        emit_backward: also generate backward (training) kernels.
        gemm_tile_size: shared-memory tile width of GEMM instances.
        gemm_coarsening: thread coarsening factor of GEMM instances (1, 2, 4).
        gemm_launch_bounds: optional ``__launch_bounds__`` register cap.
        traversal_rows_per_block: traversal work assignment.
        traversal_partial_aggregation: accumulate partial results before atomics.
        enable_compilation_cache: reuse :class:`CompilationResult` objects
            across ``compile_program`` / ``compile_model`` calls.  Results are
            keyed on the program's structural fingerprint plus every
            codegen-relevant option, so two models sharing a subprogram (or the
            same model compiled twice) skip the pass pipeline, lowering, and
            the ``exec`` of the generated kernels entirely.  The cache is
            transparent: a hit returns the identical plan and generated module
            that a fresh compilation would produce.
        enable_memory_planning: analyse the plan's buffer lifetimes and bind
            intermediate buffers from a preallocated
            :class:`repro.runtime.planner.BufferArena` instead of allocating
            fresh numpy arrays on every forward/backward invocation.
            Inference-only plans additionally share arena slots between
            intermediates with disjoint lifetimes.
        fuse_elementwise: run the
            :class:`repro.ir.inter_op.passes.ElementwiseFusionPass`
            (dependence-preserving clustering of traversal-eligible operators
            so the greedy lowering fuses larger groups) and merge adjacent
            compatible traversal kernels after lowering.  Disabled by default
            because it changes kernel counts relative to the paper's figures;
            the hot-path runtime configurations enable it.
        optimization_level: ``None`` (use the switches as given) or ``"auto"``
            — ask the :mod:`repro.tuner` autotuner to pick the best point of
            the compilation design space for the (program, graph schema,
            dimensions) at hand.  ``"auto"`` is resolved by ``compile_model``
            (or :func:`repro.tuner.resolve_tuned_options`) *before*
            compilation; ``compile_program`` rejects unresolved ``"auto"``
            options.
        backend: name of the registered execution backend
            (:mod:`repro.ir.codegen.registry`) that turns the lowered kernel
            plan into something runnable.  ``"python-interp"`` (default) emits
            one Python function per kernel plus a fused dispatch program;
            ``"python-codegen"`` emits a single specialised ``main_forward`` /
            ``main_backward`` source function per plan — kernels inlined,
            segment loops unrolled over the schema's relations, buffers and
            graph index arrays resolved to function locals.  The backend is
            part of :meth:`cache_key`, so interp and codegen artifacts never
            collide in the compilation cache, and a searchable tuner axis
            (:class:`repro.tuner.TuningSpace`).  ``"mixed"`` emits
            ``"python-codegen"``'s source and additionally re-specialises it,
            at bind time, to the occupied relations of each bound graph.
    """

    compact_materialization: Optional[bool] = None
    linear_operator_reordering: Optional[bool] = None
    enable_fusion: bool = True
    emit_backward: bool = True
    gemm_tile_size: int = 16
    gemm_coarsening: int = 1
    gemm_launch_bounds: Optional[int] = None
    traversal_rows_per_block: int = 128
    traversal_partial_aggregation: bool = True
    enable_compilation_cache: bool = True
    enable_memory_planning: bool = True
    fuse_elementwise: bool = False
    optimization_level: Optional[str] = None
    backend: str = "python-interp"

    def __post_init__(self):
        if self.optimization_level not in (None, "auto"):
            raise ValueError(
                f"unknown optimization_level {self.optimization_level!r}; expected None or 'auto'"
            )

    @property
    def is_auto(self) -> bool:
        """Whether these options request autotuning instead of fixed switches."""
        return self.optimization_level == "auto"

    def resolved(self, graph=None) -> "CompilerOptions":
        """These options with every unset switch decided from ``graph``'s statistics.

        The rule, as measured (:func:`repro.evaluation.optimizations.executed_optimization_speedups`):
        compact when at most half the edges carry a distinct (source, relation)
        pair, reorder when relations average 1 000 edges.  No graph, or no
        edges, decides U; a set switch is never touched.
        """
        compact, reorder = self.compact_materialization, self.linear_operator_reordering
        if compact is not None and reorder is not None:
            return self
        has_edges = graph is not None and graph.num_edges > 0
        if compact is None:
            compact = has_edges and graph.entity_compaction_ratio <= 0.5
        if reorder is None:
            reorder = has_edges and graph.num_edges >= 1000 * graph.num_edge_types
        return self.with_(compact_materialization=compact, linear_operator_reordering=reorder)

    def gemm_schedule(self) -> GemmSchedule:
        """Schedule applied to every GEMM-template instance."""
        return GemmSchedule(
            tile_size=self.gemm_tile_size,
            coarsening=self.gemm_coarsening,
            launch_bounds=self.gemm_launch_bounds,
        )

    def traversal_schedule(self) -> TraversalSchedule:
        """Schedule applied to every traversal-template instance."""
        return TraversalSchedule(
            rows_per_block=self.traversal_rows_per_block,
            partial_aggregation=self.traversal_partial_aggregation,
        )

    def label(self) -> str:
        """Short configuration label used in tables (U, C, R, C+R)."""
        if self.compact_materialization and self.linear_operator_reordering:
            return "C+R"
        if self.compact_materialization:
            return "C"
        if self.linear_operator_reordering:
            return "R"
        return "U"

    def with_(self, **overrides) -> "CompilerOptions":
        """Return a copy with selected fields replaced."""
        return replace(self, **overrides)

    def schedule_label(self) -> str:
        """Compact description of the non-default schedule/fusion choices."""
        default_gemm, default_traversal = GemmSchedule(), TraversalSchedule()
        parts = [self.label()]
        if self.fuse_elementwise:
            parts.append("fuse")
        if (self.gemm_tile_size, self.gemm_coarsening) != (
            default_gemm.tile_size,
            default_gemm.coarsening,
        ):
            parts.append(f"gemm{self.gemm_tile_size}x{self.gemm_coarsening}")
        if (self.traversal_rows_per_block, self.traversal_partial_aggregation) != (
            default_traversal.rows_per_block,
            default_traversal.partial_aggregation,
        ):
            suffix = "" if self.traversal_partial_aggregation else "-nopartial"
            parts.append(f"trav{self.traversal_rows_per_block}{suffix}")
        if self.backend != "python-interp":
            parts.append(self.backend)
        return "+".join(parts)

    def to_dict(self) -> dict:
        """JSON-serialisable mapping of every option field (tuning database)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "CompilerOptions":
        """Inverse of :meth:`to_dict`; unknown keys are rejected."""
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown CompilerOptions fields: {sorted(unknown)}")
        return cls(**data)

    def cache_key(self) -> tuple:
        """Hashable key of every option that changes the compiled artefact.

        ``enable_compilation_cache`` is deliberately excluded: it controls
        whether the cache is consulted, not what is produced.
        ``optimization_level`` is likewise excluded: ``"auto"`` is resolved to
        concrete switches before any compilation happens.  An unset pass
        switch has no key (``None`` must not hash beside ``False``).
        """
        if self.compact_materialization is None or self.linear_operator_reordering is None:
            raise ValueError("unresolved CompilerOptions have no cache key; call .resolved(graph) first")
        return (
            self.compact_materialization,
            self.linear_operator_reordering,
            self.enable_fusion,
            self.emit_backward,
            self.gemm_tile_size,
            self.gemm_coarsening,
            self.gemm_launch_bounds,
            self.traversal_rows_per_block,
            self.traversal_partial_aggregation,
            self.enable_memory_planning,
            self.fuse_elementwise,
            self.backend,
        )


#: The four optimization configurations studied in Table 5 / Figure 9.
CONFIGURATIONS = {
    "U": CompilerOptions(compact_materialization=False, linear_operator_reordering=False),
    "C": CompilerOptions(compact_materialization=True, linear_operator_reordering=False),
    "R": CompilerOptions(compact_materialization=False, linear_operator_reordering=True),
    "C+R": CompilerOptions(compact_materialization=True, linear_operator_reordering=True),
}
