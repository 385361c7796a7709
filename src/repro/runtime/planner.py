"""Buffer-lifetime analysis and arena memory planning for kernel plans.

The seed executor allocated every intermediate buffer afresh on each
forward/backward invocation — correct, but the allocator churn dominates the
compile-once-run-many serving pattern the paper targets.  This module closes
that gap in two steps:

1. :class:`MemoryPlanner` scans a :class:`~repro.ir.intra_op.plan.KernelPlan`
   in execution order and derives a *lifetime interval* (first write → last
   use) for every intermediate buffer, then packs the intervals into arena
   *slots* with a greedy linear-scan: two buffers share a slot exactly when
   their lifetimes are disjoint, so the slot's size is the maximum — not the
   sum — of its occupants.  Training plans keep every forward intermediate
   alive through the backward pass (the adjoint kernels re-read them), so
   slot sharing only kicks in for inference plans; the cross-invocation reuse
   below applies to both.

2. :class:`BufferArena` materialises the slots as preallocated numpy arrays
   for one concrete graph.  ``bind`` installs slot-backed views into the
   executor's buffer environment before each run, so generated kernels write
   into memory that persists across invocations instead of triggering fresh
   allocations every call.

3. :class:`SharedArenaBudget` is a bucketed LRU of arenas, one tenant per
   module or endpoint, that extends the reuse across *graph bindings*:
   serving and training execute one compiled plan against many sampled
   blocks whose node/edge counts differ per request.  Instead of allocating
   a fresh arena per block, the budget buckets the runtime dimensions into
   power-of-two size classes (:func:`dim_bucket`) and hands every binding of
   a tenant in a bucket the same slab-backed arena, re-viewed
   (:meth:`BufferArena.ensure_shapes`) to the binding's concrete shapes.
   Arenas are keyed per (tenant, bucket) — two tenants never share slabs,
   their plans differ — and a count bound or byte cap evicts the
   least-recently-*used* arena across all tenants, so a long tail of rare
   block sizes cannot accumulate slabs without bound.  Each compiled module
   leases from its own one-tenant budget; the multi-tenant serving router
   (:mod:`repro.serving.router`) puts every endpoint in one budget under one
   global byte cap, with per-tenant hit/miss/eviction counters and
   high-water byte stats so a noisy neighbour is visible in telemetry.

The planner also runs in a purely analytic mode against a
:class:`~repro.evaluation.workload.WorkloadSpec` (no arrays allocated), which
is how the Figure 10 memory study reports the footprint the arena schedule
achieves relative to naive whole-pass materialisation.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from repro.ir.inter_op.space import Space
from repro.ir.intra_op.kernels import GemmKernel, TraversalKernel
from repro.ir.intra_op.plan import KernelPlan
from repro.runtime.memory import MemoryModel


#: Retention bound of :attr:`SharedArenaBudget.eviction_log` entries.
EVICTION_LOG_LIMIT = 1024


def dim_bucket(count: int) -> int:
    """Power-of-two bucket of a runtime dimension (node/edge/pair count).

    Arena slabs sized for the bucket fit every graph binding whose dimension
    falls at or below it, so differently-sized sampled blocks share pooled
    arenas (and, upstream, replay the same compiled plan — exact counts never
    enter the compilation-cache key; see :mod:`repro.frontend.cache`).
    """
    count = int(count)
    if count <= 0:
        return 0
    return 1 << (count - 1).bit_length()


@dataclass
class BufferLifetime:
    """Lifetime of one intermediate buffer over the plan's kernel schedule.

    Attributes:
        name: buffer name (a key of ``plan.buffers``).
        start: index (into forward+backward kernel order) of the first write.
        end: index of the last read or write.
    """

    name: str
    start: int
    end: int

    def overlaps(self, other: "BufferLifetime") -> bool:
        """Whether two lifetimes are simultaneously live at some point."""
        return self.start <= other.end and other.start <= self.end


@dataclass
class MemoryPlan:
    """The arena allocation schedule the planner produced for one plan.

    Attributes:
        plan_name: name of the kernel plan this schedule belongs to.
        lifetimes: per-buffer lifetime intervals, in ``start`` order.
        slot_of: buffer name → arena slot index.
        slot_elements: per-slot capacity in scalar elements (max over occupants).
        element_counts: per-buffer element counts used for the packing.
    """

    plan_name: str
    lifetimes: List[BufferLifetime] = field(default_factory=list)
    slot_of: Dict[str, int] = field(default_factory=dict)
    slot_elements: List[int] = field(default_factory=list)
    element_counts: Dict[str, int] = field(default_factory=dict)

    @property
    def num_slots(self) -> int:
        return len(self.slot_elements)

    @property
    def num_buffers(self) -> int:
        return len(self.slot_of)

    def arena_elements(self) -> int:
        """Total arena capacity in scalar elements."""
        return int(sum(self.slot_elements))

    def naive_elements(self) -> int:
        """Elements a fresh-allocation-per-buffer strategy materialises."""
        return int(sum(self.element_counts.values()))

    def sharing_fraction(self) -> float:
        """Arena size as a fraction of naive materialisation (≤ 1)."""
        naive = self.naive_elements()
        return self.arena_elements() / naive if naive else 1.0


class MemoryPlanner:
    """Derives lifetimes and arena schedules from a kernel plan."""

    def __init__(self, plan: KernelPlan):
        self.plan = plan
        #: Whether a runtime arena buffer has one row per unique pair; only then
        #: do arena sizes (and bucket keys) read ``ctx.num_unique`` and build the compaction index.
        self.sizes_by_unique_pairs = any(
            plan.buffers[name].space is Space.COMPACT for name in self.inplace_written_names()
        )

    # ------------------------------------------------------------------
    # lifetime analysis
    # ------------------------------------------------------------------
    def intermediate_names(self) -> List[str]:
        """Buffers the executor owns: neither inputs, parameters, nor outputs."""
        excluded = set(self.plan.input_names) | set(self.plan.parameter_names) | set(self.plan.output_names)
        return [name for name in self.plan.buffers if name not in excluded]

    def inplace_written_names(self) -> Set[str]:
        """Intermediates the generated kernels write *in place* (via ``_ensure``).

        Only these benefit from preallocated arena buffers at runtime: GEMM
        outputs and scatter-add accumulators.  Elementwise micro-ops rebind
        their ``env`` entry to a fresh expression result, so binding arena
        views for them would be dead weight.  The analytic planning mode
        (:meth:`plan_memory` without a filter) still covers every
        intermediate — it models a backend that writes all outputs in place,
        as the CUDA backend does.
        """
        names: Set[str] = set()
        for kernel in self.plan.forward_kernels:
            if isinstance(kernel, GemmKernel):
                names.add(kernel.y.buffer)
            elif isinstance(kernel, TraversalKernel):
                for op in kernel.micro_ops:
                    if op.kind == "scatter_add":
                        names.add(op.output)
        return names & set(self.intermediate_names())

    def lifetimes(self, training: Optional[bool] = None) -> List[BufferLifetime]:
        """Lifetime intervals of every intermediate buffer, in start order.

        Args:
            training: whether the backward pass will run.  Defaults to "the
                plan has backward kernels".  Under training every forward
                intermediate is pinned until the last backward kernel — the
                adjoint kernels re-read forward values, so nothing may be
                overwritten early.
        """
        if training is None:
            training = bool(self.plan.backward_kernels)
        schedule = list(self.plan.forward_kernels)
        if training:
            schedule += list(self.plan.backward_kernels)
        first_write: Dict[str, int] = {}
        last_use: Dict[str, int] = {}
        for index, kernel in enumerate(schedule):
            for name in kernel.written_buffers():
                first_write.setdefault(name, index)
                last_use[name] = index
            for name in kernel.read_buffers():
                if name in first_write:
                    last_use[name] = index
        horizon = len(schedule) - 1
        intervals: List[BufferLifetime] = []
        for name in self.intermediate_names():
            if name not in first_write:
                continue  # never materialised by this schedule (e.g. fused away)
            end = horizon if training else last_use[name]
            intervals.append(BufferLifetime(name=name, start=first_write[name], end=end))
        intervals.sort(key=lambda interval: (interval.start, interval.name))
        return intervals

    # ------------------------------------------------------------------
    # slot packing
    # ------------------------------------------------------------------
    def _element_count(self, name: str, sizes) -> int:
        info = self.plan.buffers[name]
        return int(info.rows(sizes)) * info.elements_per_row()

    def plan_memory(
        self,
        sizes,
        training: Optional[bool] = None,
        only: Optional[Iterable[str]] = None,
    ) -> MemoryPlan:
        """Pack intermediate lifetimes into arena slots for given sizes.

        Args:
            sizes: any object exposing ``num_nodes`` / ``num_edges`` /
                ``num_unique_pairs`` / ``num_edge_types`` / ``num_node_types``
                (a :class:`~repro.evaluation.workload.WorkloadSpec`, or the
                adapter built from a :class:`~repro.runtime.context.GraphContext`).
            training: see :meth:`lifetimes`.
            only: restrict the packing to these buffer names (the runtime
                arena passes :meth:`inplace_written_names`); ``None`` packs
                every intermediate (analytic mode).
        """
        intervals = self.lifetimes(training)
        if only is not None:
            allowed = set(only)
            intervals = [interval for interval in intervals if interval.name in allowed]
        element_counts = {interval.name: self._element_count(interval.name, sizes) for interval in intervals}
        slot_elements: List[int] = []
        slot_free_after: List[int] = []
        slot_of: Dict[str, int] = {}
        # Greedy linear scan over intervals sorted by start: reuse the first
        # slot whose previous occupant died before this buffer is born.
        for interval in intervals:
            chosen = None
            for slot, free_after in enumerate(slot_free_after):
                if free_after < interval.start:
                    chosen = slot
                    break
            if chosen is None:
                chosen = len(slot_elements)
                slot_elements.append(0)
                slot_free_after.append(-1)
            slot_of[interval.name] = chosen
            slot_elements[chosen] = max(slot_elements[chosen], element_counts[interval.name])
            slot_free_after[chosen] = max(slot_free_after[chosen], interval.end)
        return MemoryPlan(
            plan_name=self.plan.name,
            lifetimes=intervals,
            slot_of=slot_of,
            slot_elements=slot_elements,
            element_counts=element_counts,
        )

    # ------------------------------------------------------------------
    # analytic footprint (memory study)
    # ------------------------------------------------------------------
    def planned_footprint_bytes(self, workload, training: bool = False) -> float:
        """Peak footprint under the arena schedule, comparable to
        :meth:`KernelPlan.memory_bytes`.

        Inputs, parameters, outputs, gradients, and graph index arrays are
        charged exactly as in the naive model; only the intermediate buffers
        are replaced by the packed arena slots.
        """
        plan = self.plan
        memory_plan = self.plan_memory(workload, training=training)
        arena_ids = set(memory_plan.slot_of)
        total = 0.0
        dtype_bytes = 4
        for name, info in plan.buffers.items():
            if name in plan.fused_values or name in arena_ids:
                continue
            total += info.num_bytes(workload)
        for slot_capacity in memory_plan.slot_elements:
            total += slot_capacity * dtype_bytes
        if training:
            # One gradient buffer per materialised value, as in the naive model.
            for info in plan.materialized_buffers():
                total += info.num_bytes(workload)
        total += 3 * workload.num_edges * 8
        if plan.metadata.get("compaction_enabled"):
            total += workload.num_edges * 8 + workload.num_unique_pairs * 16
        return total

    def naive_peak_bytes(self, workload, training: bool = False) -> float:
        """Peak of alloc-at-first-write / free-after-last-read execution.

        Simulated through :class:`~repro.runtime.memory.MemoryModel`, so the
        planner's savings are measured against the best a non-arena allocator
        could do, not just against whole-pass materialisation.
        """
        intervals = self.lifetimes(training=training)
        model = MemoryModel(capacity_bytes=float("inf"))
        persistent = 0.0
        arena_ids = {interval.name for interval in intervals}
        for name, info in self.plan.buffers.items():
            if name in self.plan.fused_values or name in arena_ids:
                continue
            persistent += info.num_bytes(workload)
        model.allocate("persistent", persistent)
        events: List[Tuple[int, int, BufferLifetime]] = []
        for interval in intervals:
            events.append((interval.start, 1, interval))
            events.append((interval.end + 1, 0, interval))
        for _, kind, interval in sorted(events, key=lambda e: (e[0], e[1])):
            if kind == 0:
                model.free(interval.name)
            else:
                model.allocate(interval.name, self.plan.buffers[interval.name].num_bytes(workload))
        return model.peak_allocated()

    # ------------------------------------------------------------------
    # runtime arena
    # ------------------------------------------------------------------
    def build_arena(
        self,
        ctx,
        dtype=np.float64,
        training: Optional[bool] = None,
        capacity_sizes=None,
    ) -> "BufferArena":
        """Materialise the arena for one concrete graph context.

        Only buffers the Python backend writes in place are bound (see
        :meth:`inplace_written_names`); binding views for elementwise results
        that get rebound anyway would claim savings that never materialise.

        Args:
            ctx: the graph context the arena's initial views are shaped for.
            dtype: element dtype of the slabs.
            training: see :meth:`lifetimes`.
            capacity_sizes: optional sizes object the slot *capacities* are
                computed from (a :class:`SharedArenaBudget` passes the
                power-of-two bucket of ``ctx``); defaults to ``ctx``'s exact sizes.  Must
                dominate the concrete sizes dimension for dimension.
        """
        sizes = _ContextSizes.from_context(ctx, self.sizes_by_unique_pairs)
        memory_plan = self.plan_memory(
            capacity_sizes if capacity_sizes is not None else sizes,
            training=training,
            only=self.inplace_written_names(),
        )
        shapes = self.shapes_for(sizes, memory_plan.slot_of)
        return BufferArena(memory_plan, shapes, dtype=dtype)

    def shapes_for(self, sizes, names: Iterable[str]) -> Dict[str, Tuple[int, ...]]:
        """Concrete per-buffer array shapes under ``sizes`` for ``names``."""
        shapes: Dict[str, Tuple[int, ...]] = {}
        for name in names:
            info = self.plan.buffers[name]
            shapes[name] = (int(info.rows(sizes)),) + tuple(int(d) for d in info.feature_shape)
        return shapes


@dataclass
class _ContextSizes:
    """Adapter presenting a :class:`GraphContext` through the workload-sizes API."""

    num_nodes: int
    num_edges: int
    num_unique_pairs: int
    num_edge_types: int
    num_node_types: int

    @classmethod
    def from_context(cls, ctx, unique_pairs: bool) -> "_ContextSizes":
        """``num_unique_pairs`` is 0 unless ``unique_pairs`` (the plan sizes a buffer by it)."""
        return cls(
            num_nodes=int(ctx.num_nodes),
            num_edges=int(ctx.num_edges),
            num_unique_pairs=int(ctx.num_unique) if unique_pairs else 0,
            num_edge_types=int(ctx.num_etypes),
            num_node_types=int(ctx.num_ntypes),
        )

    def bucketed(self) -> "_ContextSizes":
        """Round the runtime dimensions up to their power-of-two buckets.

        Type-vocabulary sizes stay exact — they are fixed by the schema the
        plan is specialised for, so bucketing them would only waste slabs.
        """
        return replace(
            self,
            num_nodes=dim_bucket(self.num_nodes),
            num_edges=dim_bucket(self.num_edges),
            num_unique_pairs=dim_bucket(self.num_unique_pairs),
        )

    def bucket_key(self) -> Tuple[int, int, int]:
        """Hashable pool key of the bucketed runtime dimensions."""
        bucketed = self.bucketed()
        return (bucketed.num_nodes, bucketed.num_edges, bucketed.num_unique_pairs)


class BufferArena:
    """Preallocated slot-backed buffers reused across executor invocations.

    Args:
        memory_plan: the slot schedule produced by :class:`MemoryPlanner`.
        shapes: concrete per-buffer shapes for the bound graph.
        dtype: element dtype of every arena buffer (the runtime default is
            float64, matching the generated numpy kernels).
    """

    def __init__(self, memory_plan: MemoryPlan, shapes: Dict[str, Tuple[int, ...]], dtype=np.float64):
        self.memory_plan = memory_plan
        self.dtype = np.dtype(dtype)
        self._slabs: List[np.ndarray] = [
            np.zeros(int(capacity), dtype=self.dtype) for capacity in memory_plan.slot_elements
        ]
        self._views: Dict[str, np.ndarray] = {}
        self._current_shapes: Dict[str, Tuple[int, ...]] = {}
        self.bind_count = 0
        self.ensure_shapes(shapes)

    # ------------------------------------------------------------------
    def lease(self) -> "ArenaLease":
        """A lease on this arena at its current shapes (private-arena case)."""
        return ArenaLease(self, self._current_shapes)

    def ensure_shapes(self, shapes: Dict[str, Tuple[int, ...]]) -> None:
        """Re-view the slabs for a (possibly different) concrete graph binding.

        Slabs are never reallocated — pooled arenas are sized for the bucket
        ceiling, and the budget keys leases by bucket, so every binding routed
        here fits by construction.  A shape exceeding a slab's capacity
        raises ``ValueError``: it means a caller bypassed the bucket-key
        invariant, not a recoverable condition.
        """
        if shapes == self._current_shapes:
            return
        views: Dict[str, np.ndarray] = {}
        for name, slot in self.memory_plan.slot_of.items():
            shape = shapes[name]
            elements = int(np.prod(shape, dtype=np.int64)) if shape else 1
            if elements > self._slabs[slot].size:
                raise ValueError(
                    f"buffer {name!r} needs {elements} elements but arena slot {slot} "
                    f"holds {self._slabs[slot].size}; this binding belongs to a larger bucket"
                )
            views[name] = self._slabs[slot][:elements].reshape(shape)
        self._views = views
        self._current_shapes = dict(shapes)

    # ------------------------------------------------------------------
    def bind(self, env: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        """Install the arena-backed views into an executor environment.

        Caller-provided entries (inputs, parameters, anything already present)
        are never overwritten.  The generated ``_ensure`` helper zero-fills
        reused buffers, so bound views behave exactly like fresh allocations.
        """
        for name, view in self._views.items():
            if name not in env:
                env[name] = view
        self.bind_count += 1
        return env

    @property
    def managed_names(self) -> List[str]:
        return list(self._views)

    def arena_bytes(self) -> int:
        """Bytes held by the arena slabs."""
        return int(sum(slab.nbytes for slab in self._slabs))

    def naive_bytes_per_invocation(self) -> int:
        """Bytes a fresh-allocation execution would allocate per invocation."""
        return int(self.memory_plan.naive_elements() * self.dtype.itemsize)

    def bytes_saved(self) -> int:
        """Cumulative allocation traffic avoided across all binds so far."""
        return max(0, self.bind_count - 1) * self.naive_bytes_per_invocation()


class ArenaLease:
    """One graph binding's handle on a (possibly shared, pooled) arena.

    Several bindings in the same size bucket share one :class:`BufferArena`'s
    slabs; each binding holds a lease carrying its *own* concrete shapes.  The
    lease re-views the slabs for those shapes immediately before installing
    them into an executor environment, so sequentially executed bindings can
    alternate over one arena safely.  (Interleaving a *different* binding's
    forward between one binding's forward and backward on a shared arena
    would corrupt the forward intermediates backward re-reads;
    ``GraphBinding.backward`` detects this via the arena's bind generation
    and raises.  The serving engine executes batches to completion, so this
    never arises there.)

    Leases handed out by a :class:`SharedArenaBudget` carry an ``on_bind``
    hook: every bind marks the arena as recently *used* in the budget's LRU
    order, so eviction tracks actual execution recency, not lease creation.
    """

    def __init__(self, arena: "BufferArena", shapes: Dict[str, Tuple[int, ...]], on_bind=None):
        self.arena = arena
        self.shapes = dict(shapes)
        self.on_bind = on_bind

    def bind(self, env: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        """Install this binding's arena views into an executor environment."""
        if self.on_bind is not None:
            self.on_bind()
        self.arena.ensure_shapes(self.shapes)
        return self.arena.bind(env)


@dataclass
class TenantArenaStats:
    """Per-tenant reuse and footprint counters of a :class:`SharedArenaBudget`.

    ``evictions`` counts *this tenant's* arenas dropped by the budget —
    whether the pressure came from the tenant itself or from a neighbour, so
    a tenant squeezed out by a noisy co-tenant shows it in its own row.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    live_bytes: int = 0
    high_water_bytes: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class TenantArenaSource:
    """One tenant's view of a :class:`SharedArenaBudget`.

    The ``lease(planner, ctx, ...)`` surface ``CompiledRGNNModule.bind``
    draws pooled arenas from — a module's own one-tenant budget, or the
    serving router's shared one — plus the tenant's reuse ``stats``.
    """

    def __init__(self, budget: "SharedArenaBudget", tenant: str):
        self.budget = budget
        self.tenant = tenant

    @property
    def stats(self) -> TenantArenaStats:
        return self.budget.tenant_stats(self.tenant)

    def lease(
        self,
        planner: MemoryPlanner,
        ctx,
        dtype=np.float64,
        training: Optional[bool] = None,
    ) -> ArenaLease:
        return self.budget.lease(self.tenant, planner, ctx, dtype=dtype, training=training)


class SharedArenaBudget:
    """A bucketed LRU of arenas for one or more tenants, under global bounds.

    Every :class:`~repro.runtime.module.CompiledRGNNModule` with memory
    planning owns a one-tenant budget (``max_arenas=4``) for its pooled
    bindings; the multi-tenant serving router owns one budget every endpoint
    leases from.  Tenants lease through :class:`TenantArenaSource` views.
    Keys include the tenant name — tenants never share slabs (their kernel
    plans differ, and sharing would let one tenant read another's
    intermediates) — but all arenas count against the budget's bounds.  When
    an insert pushes the total over ``capacity_bytes`` or the arena count
    over ``max_arenas``, the least-recently-used arena across *all* tenants
    is evicted (the arena just built is exempt, so a single oversized arena
    still gets to exist).

    Eviction drops the budget's reference; slabs stay alive while outstanding
    leases reference them and are reclaimed by the allocator afterwards.  The
    accounted ``live_bytes`` therefore tracks pool-held slabs, which is the
    quantity the cap governs.

    Args:
        capacity_bytes: global cap on pool-held slab bytes; ``None`` = unbounded.
        max_arenas: global cap on the *number* of live arenas, so a long tail
            of rare block-size buckets cannot accumulate slabs even under a
            generous byte cap; ``None`` = unbounded.
    """

    def __init__(self, capacity_bytes: Optional[int] = None, max_arenas: Optional[int] = None):
        if capacity_bytes is not None and capacity_bytes <= 0:
            raise ValueError("capacity_bytes must be positive (or None for unbounded)")
        if max_arenas is not None and max_arenas < 1:
            raise ValueError("max_arenas must be >= 1 (or None for unbounded)")
        self.capacity_bytes = capacity_bytes
        self.max_arenas = max_arenas
        self._arenas: "OrderedDict[tuple, BufferArena]" = OrderedDict()
        self._tenants: Dict[str, TenantArenaStats] = {}
        #: Serialises lease/evict/report against concurrent executor workers:
        #: the router's thread-pool stage leases arenas for different tenants
        #: concurrently, and LRU reordering + cap enforcement + the per-tenant
        #: byte accounting must stay consistent under that interleaving.
        #: Reentrant because ``lease`` calls ``_enforce_caps``/``_evict`` and
        #: ``report`` reads ``live_bytes`` while holding it.
        self._lock = threading.RLock()
        self.high_water_bytes = 0
        #: Eviction order, oldest first: ``(tenant, bucket_key)`` tuples — the
        #: tests and the router report read this to explain *what* was dropped.
        #: Bounded to the most recent :data:`EVICTION_LOG_LIMIT` entries so a
        #: long-lived budget under churn cannot grow it without limit (the
        #: per-tenant eviction *counters* are the unbounded-horizon record).
        self.eviction_log: List[Tuple[str, tuple]] = []

    # ------------------------------------------------------------------
    # tenants
    # ------------------------------------------------------------------
    def tenant(self, name: str) -> TenantArenaSource:
        """Register (or fetch) a tenant and return its lease source.

        Args:
            name: tenant (module or endpoint) name; stats are keyed by it.
        """
        with self._lock:
            self._tenants.setdefault(name, TenantArenaStats())
        return TenantArenaSource(self, name)

    def tenant_stats(self, name: str) -> TenantArenaStats:
        if name not in self._tenants:
            raise KeyError(f"unknown tenant {name!r}; register it via budget.tenant(name)")
        return self._tenants[name]

    def has_tenant(self, name: str) -> bool:
        return name in self._tenants

    def drop_tenant(self, name: str) -> None:
        """Remove a tenant entirely: its arenas and stats.

        Used by the router to roll back a half-finished registration, and by
        callers decommissioning an endpoint.  Unknown names are a no-op.
        """
        with self._lock:
            for key in [k for k in self._arenas if k[0] == name]:
                del self._arenas[key]
            self._tenants.pop(name, None)

    # ------------------------------------------------------------------
    # leasing
    # ------------------------------------------------------------------
    def lease(
        self,
        tenant: str,
        planner: MemoryPlanner,
        ctx,
        dtype=np.float64,
        training: Optional[bool] = None,
    ) -> ArenaLease:
        """Lease the tenant's pooled arena for ``ctx``'s size bucket.

        A miss builds the arena (sized for the bucket ceiling) and then
        enforces the budget's bounds.
        """
        sizes = _ContextSizes.from_context(ctx, planner.sizes_by_unique_pairs)
        if training is None:
            training = bool(planner.plan.backward_kernels)
        key = (tenant, sizes.bucket_key(), np.dtype(dtype).str, bool(training))
        with self._lock:
            stats = self.tenant_stats(tenant)
            arena = self._arenas.get(key)
            if arena is not None:
                stats.hits += 1
                self._arenas.move_to_end(key)
            else:
                stats.misses += 1
                arena = planner.build_arena(
                    ctx, dtype=dtype, training=training, capacity_sizes=sizes.bucketed()
                )
                self._arenas[key] = arena
                stats.live_bytes += arena.arena_bytes()
                stats.high_water_bytes = max(stats.high_water_bytes, stats.live_bytes)
                self.high_water_bytes = max(self.high_water_bytes, self.live_bytes)
                self._enforce_caps(protect=key)
            shapes = planner.shapes_for(sizes, arena.memory_plan.slot_of)
        return ArenaLease(arena, shapes, on_bind=lambda: self._touch(key, arena))

    def _touch(self, key: tuple, arena: BufferArena) -> None:
        """Refresh ``arena``'s LRU recency at *use* time (a lease binds an env).

        Only while ``key`` still holds that very arena: a lease that outlived
        its arena's eviction must not refresh the arena rebuilt under the
        same key, which nobody has used.
        """
        with self._lock:
            if self._arenas.get(key) is arena:
                self._arenas.move_to_end(key)

    def _evict(self, key: tuple) -> None:
        arena = self._arenas.pop(key)
        owner = key[0]
        stats = self._tenants[owner]
        stats.evictions += 1
        stats.live_bytes -= arena.arena_bytes()
        self.eviction_log.append((owner, key[1]))
        if len(self.eviction_log) > EVICTION_LOG_LIMIT:
            del self.eviction_log[:-EVICTION_LOG_LIMIT]

    def _enforce_caps(self, protect: tuple) -> None:
        """Evict LRU arenas until both bounds hold; ``protect`` is never evicted."""
        while (self.capacity_bytes is not None and self.live_bytes > self.capacity_bytes) or (
            self.max_arenas is not None and len(self._arenas) > self.max_arenas
        ):
            victim = next((k for k in self._arenas if k != protect), None)
            if victim is None:  # only ``protect`` is left: it may exceed the byte cap alone
                break
            self._evict(victim)

    # ------------------------------------------------------------------
    # telemetry
    # ------------------------------------------------------------------
    @property
    def live_arenas(self) -> int:
        return len(self._arenas)

    @property
    def live_bytes(self) -> int:
        """Bytes held by every pool-held arena's slabs."""
        return int(sum(arena.arena_bytes() for arena in self._arenas.values()))

    @property
    def hits(self) -> int:
        return sum(stats.hits for stats in self._tenants.values())

    @property
    def misses(self) -> int:
        return sum(stats.misses for stats in self._tenants.values())

    @property
    def evictions(self) -> int:
        return sum(stats.evictions for stats in self._tenants.values())

    @property
    def hit_rate(self) -> float:
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def report(self) -> Dict[str, object]:
        """Budget-wide and per-tenant footprint/reuse summary."""
        with self._lock:
            return {
                "capacity_bytes": self.capacity_bytes,
                "live_arenas": self.live_arenas,
                "live_bytes": self.live_bytes,
                "high_water_bytes": self.high_water_bytes,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "hit_rate": round(self.hit_rate, 3),
                "tenants": {
                    name: {
                        "hits": stats.hits,
                        "misses": stats.misses,
                        "evictions": stats.evictions,
                        "live_bytes": stats.live_bytes,
                        "high_water_bytes": stats.high_water_bytes,
                    }
                    for name, stats in self._tenants.items()
                },
            }
