"""The compilation design space the autotuner searches.

The paper's central claim is that decoupling model semantics from data layout
and schedule opens a *design space*: per-operator materialization
(:class:`~repro.ir.inter_op.space.Space.COMPACT` vs per-edge), linear operator
reordering, elementwise fusion / kernel merging, and the per-template
schedules of Section 3.4.1.  A :class:`TuningSpace` enumerates concrete
:class:`~repro.frontend.config.CompilerOptions` points of that space, derived
from a *base* option set so orthogonal switches the tuner does not search
(``emit_backward``, ``enable_memory_planning``, …) are preserved.

Candidates are emitted in a deterministic order with the base/default point
first, which the search exploits: ties are resolved toward the earlier (more
default) candidate, and the default configuration is always evaluated — the
tuned result can therefore never be scored worse than the default.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.frontend.config import CompilerOptions
from repro.ir.codegen.registry import available_backends, get_backend
from repro.ir.intra_op.schedule import (
    ALLOWED_COARSENING,
    GEMM_TILE_CANDIDATES,
    TRAVERSAL_ROWS_CANDIDATES,
)


@dataclass(frozen=True)
class TuningSpace:
    """Axes of the design space; every field is a tuple of candidate values.

    Attributes:
        compact_materialization / linear_operator_reordering: the inter-op
            pass switches (the paper's U / C / R / C+R configurations).
        fuse_elementwise: elementwise clustering + post-lowering kernel
            merging (the kernel-merge choice).
        gemm_tile_sizes / gemm_coarsening: GEMM-template schedule axes.
        traversal_rows_per_block / traversal_partial_aggregation:
            traversal-template schedule axes.
        backends: execution-backend axis
            (:mod:`repro.ir.codegen.registry` names).  Backends never change
            numerics or the cost model's estimate, so ties resolve toward the
            base options' backend, which is always emitted first.  Every name
            is validated against the registry at construction time — a typo
            fails here with the available names, not deep inside a search.
            ``"mixed"`` is not in the default axis: it shares
            ``"python-codegen"``'s source and estimate, so it could only ever
            win a search it is the base of (where it leads regardless).
    """

    compact_materialization: Tuple[bool, ...] = (False, True)
    linear_operator_reordering: Tuple[bool, ...] = (False, True)
    fuse_elementwise: Tuple[bool, ...] = (False, True)
    gemm_tile_sizes: Tuple[int, ...] = GEMM_TILE_CANDIDATES
    gemm_coarsening: Tuple[int, ...] = ALLOWED_COARSENING
    traversal_rows_per_block: Tuple[int, ...] = TRAVERSAL_ROWS_CANDIDATES
    traversal_partial_aggregation: Tuple[bool, ...] = (True, False)
    backends: Tuple[str, ...] = ("python-interp", "python-codegen")

    def __post_init__(self):
        registered = available_backends()
        unknown = [name for name in self.backends if name not in registered]
        if unknown:
            raise ValueError(
                f"unknown backend(s) {unknown} in TuningSpace.backends; "
                f"available: {', '.join(registered)}"
            )
        non_executing = [name for name in self.backends if not get_backend(name).executes]
        if non_executing:
            raise ValueError(
                f"backend(s) {non_executing} in TuningSpace.backends only emit "
                "source and cannot execute plans; list executing backends only"
            )

    # ------------------------------------------------------------------
    @classmethod
    def quick(cls) -> "TuningSpace":
        """A reduced space for tests and smoke runs (pass axes + one schedule alternative)."""
        return cls(
            gemm_tile_sizes=(16, 32),
            gemm_coarsening=(1,),
            traversal_rows_per_block=(32, 128),
            traversal_partial_aggregation=(True,),
        )

    @classmethod
    def passes_only(cls) -> "TuningSpace":
        """Only the pass-level axes (U/C/R/C+R × fusion), default schedules."""
        return cls(
            gemm_tile_sizes=(16,),
            gemm_coarsening=(1,),
            traversal_rows_per_block=(128,),
            traversal_partial_aggregation=(True,),
        )

    # ------------------------------------------------------------------
    def pass_candidates(self, base: Optional[CompilerOptions] = None) -> List[CompilerOptions]:
        """Pass-level candidates (base schedules), the (resolved) base point first."""
        base = (base or CompilerOptions()).resolved()
        # The base options' backend leads, so the base point stays first and
        # cost-model ties (backends share one estimate) resolve toward it.
        backends = (base.backend,) + tuple(b for b in self.backends if b != base.backend)
        base_first = lambda axis, value: sorted(axis, key=lambda v: v != value)  # stable: the rest keep axis order
        candidates: List[CompilerOptions] = []
        for backend in backends:
            for compact in base_first(self.compact_materialization, base.compact_materialization):
                for reorder in base_first(self.linear_operator_reordering, base.linear_operator_reordering):
                    for fuse in base_first(self.fuse_elementwise, base.fuse_elementwise):
                        candidates.append(
                            base.with_(
                                compact_materialization=compact,
                                linear_operator_reordering=reorder,
                                fuse_elementwise=fuse,
                                backend=backend,
                                optimization_level=None,
                            )
                        )
        return _dedupe(candidates)

    def schedule_candidates(self, base: Optional[CompilerOptions] = None) -> List[CompilerOptions]:
        """Schedule-level candidates around ``base``'s pass configuration.

        The incumbent (``base`` with its own schedules) is emitted first, so
        searches always re-evaluate the point they are refining and ties
        resolve toward it.
        """
        base = (base or CompilerOptions()).resolved()
        candidates: List[CompilerOptions] = [base.with_(optimization_level=None)]
        for tile in self.gemm_tile_sizes:
            for coarsening in self.gemm_coarsening:
                for rows in self.traversal_rows_per_block:
                    for partial in self.traversal_partial_aggregation:
                        candidates.append(
                            base.with_(
                                gemm_tile_size=tile,
                                gemm_coarsening=coarsening,
                                traversal_rows_per_block=rows,
                                traversal_partial_aggregation=partial,
                                optimization_level=None,
                            )
                        )
        return _dedupe(candidates)

    def all_candidates(self, base: Optional[CompilerOptions] = None) -> List[CompilerOptions]:
        """The full cross product (exhaustive search), base point first."""
        candidates: List[CompilerOptions] = []
        for pass_point in self.pass_candidates(base):
            candidates.extend(self.schedule_candidates(pass_point))
        return _dedupe(candidates)

    # ------------------------------------------------------------------
    @property
    def num_pass_points(self) -> int:
        return (
            len(self.compact_materialization)
            * len(self.linear_operator_reordering)
            * len(self.fuse_elementwise)
            * len(self.backends)
        )

    @property
    def num_schedule_points(self) -> int:
        return (
            len(self.gemm_tile_sizes)
            * len(self.gemm_coarsening)
            * len(self.traversal_rows_per_block)
            * len(self.traversal_partial_aggregation)
        )

    @property
    def size(self) -> int:
        """Number of points of the full cross product."""
        return self.num_pass_points * self.num_schedule_points


def _dedupe(candidates: List[CompilerOptions]) -> List[CompilerOptions]:
    """Drop repeated option points, keeping first-occurrence order."""
    seen = set()
    unique: List[CompilerOptions] = []
    for options in candidates:
        key = options.cache_key()
        if key not in seen:
            seen.add(key)
            unique.append(options)
    return unique
