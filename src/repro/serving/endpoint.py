"""Named serving endpoints: one compiled module + parent graph + sampler config.

An :class:`Endpoint` is the unit of multi-tenancy in the serving router: it
owns a schema-specialised compiled module (a single
:class:`~repro.runtime.module.CompiledRGNNModule` or a multi-layer
:class:`~repro.runtime.multilayer.MultiLayerModule` stack served per-hop),
the parent graph requests sample their blocks from, the per-endpoint feature
store, sampler (fanouts + seed), micro-batching policy, a **per-seed block
cache** (each seed's drawn neighborhood — a sorted array of parent edge ids —
is cached independently; a batch draws all its uncached seeds in one sampler
call and assembles its block from the per-seed draws with one position union,
so overlapping-but-not-identical batches still reuse hot draws, and a feature
update invalidates only the seeds whose neighborhoods it touches), and
per-endpoint telemetry.  Memory is *not* owned here — endpoints lease arenas
from the router's :class:`~repro.runtime.planner.SharedArenaBudget` through a
per-tenant source, so all tenants stay under one byte cap.

Endpoints are created by :meth:`repro.serving.router.Router.register`.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.frontend.compiler import compile_program
from repro.frontend.config import CompilerOptions
from repro.graph.generators import random_features
from repro.graph.hetero_graph import HeteroGraph
from repro.graph.sampler import Fanout, NeighborSampler, Positions, sorted_unique
from repro.runtime.module import CompiledRGNNModule
from repro.runtime.multilayer import MultiLayerModule
from repro.serving.admission import AdmissionController, AdmissionPolicy
from repro.serving.stats import BatchRecord, EngineStats


@dataclass
class ServingRequest:
    """One in-flight query: seed nodes in, per-seed output rows out.

    ``status`` walks ``"pending"`` → ``"queued"`` (admitted) → ``"done"``,
    or ends in ``"failed"`` (the batch raised; ``error`` names the cause) or
    one of the shed statuses (``"shed-rate"`` / ``"shed-queue"`` /
    ``"shed-deadline"``) when admission control turned the request away.
    ``deadline_s`` is the *absolute* SLO deadline stamped at admission
    (arrival + policy deadline); a request not dispatched by then is shed,
    never executed.
    """

    seeds: np.ndarray
    arrival_s: float = 0.0
    result: Optional[np.ndarray] = None
    latency_s: Optional[float] = None
    endpoint: Optional[str] = None
    status: str = "pending"
    error: Optional[str] = None
    deadline_s: Optional[float] = None

    @property
    def done(self) -> bool:
        return self.result is not None

    @property
    def shed(self) -> bool:
        return self.status.startswith("shed-")


def resolve_module(
    model: Union[str, CompiledRGNNModule],
    graph: HeteroGraph,
    *,
    in_dim: int,
    out_dim: int,
    options: Optional[CompilerOptions],
    seed: int,
) -> Tuple[CompiledRGNNModule, Optional[object], Optional[CompilerOptions]]:
    """Compile (or adopt) a module for one endpoint.

    Returns ``(module, program, options)``; ``program``/``options`` are kept
    only when the endpoint compiled the model itself with the compilation
    cache enabled — they drive the plan-replay accounting.  Adopted
    modules carry no program handle, so replay accounting is off for them
    (plan reuse still holds trivially: the endpoint binds the one module it
    was given).
    """
    if isinstance(model, CompiledRGNNModule):
        model.schema.validate_graph(graph)
        return model, None, None
    from repro.models import build_program  # local import to avoid a cycle

    options = options or CompilerOptions(emit_backward=False)
    program = build_program(model, in_dim=in_dim, out_dim=out_dim)
    # Unset pass switches resolve to U: the plan runs on sampled blocks (frontend/config.py).
    result = compile_program(program, options, graph=graph)
    module = CompiledRGNNModule(result.plan, result.generated, graph, seed=seed)
    module.decision = {"decided_by": result.decided_by}
    if options.enable_compilation_cache:
        # Per-batch replay checks only make sense when lookups are cache
        # hits; with the cache disabled each check would be a full,
        # discarded recompilation per batch.
        return module, program, result.options
    return module, None, None


def validate_endpoint_config(
    name: str,
    priority: int,
    max_batch_size: int,
    batch_timeout_s: float,
    block_cache_size: int,
) -> None:
    """Shared config checks, raised with the endpoint's name.

    Called by :meth:`Router.register` *before* the (expensive) model compile
    and again by :class:`Endpoint` itself for direct constructions — one
    implementation, so the two call sites cannot drift.
    """
    if not isinstance(priority, int) or priority < 1:
        raise ValueError(f"endpoint {name!r}: priority must be an integer >= 1")
    if max_batch_size < 1:
        raise ValueError(f"endpoint {name!r}: max_batch_size must be >= 1")
    if batch_timeout_s < 0:
        raise ValueError(f"endpoint {name!r}: batch_timeout_s must be >= 0")
    if block_cache_size < 0:
        raise ValueError(f"endpoint {name!r}: block_cache_size must be >= 0")


@dataclass
class _SeedEntry:
    """One seed's cached draw: its kept edge ids and the node set they touch
    (the per-seed invalidation footprint).

    ``positions`` is one sorted array of parent edge ids for single-layer
    endpoints (:meth:`NeighborSampler.merged_positions`) or a per-hop list of
    them for per-hop stacks (:meth:`NeighborSampler.hop_positions`).
    """

    positions: Positions
    nodes: np.ndarray


def _union(positions: List[np.ndarray]) -> np.ndarray:
    """Union of sorted, deduplicated edge-id arrays."""
    return positions[0] if len(positions) == 1 else sorted_unique(np.concatenate(positions))


class Endpoint:
    """One tenant of the serving router.

    Args:
        name: the endpoint's registered name (appears in errors and reports).
        module: the schema-specialised compiled module serving this endpoint —
            a single :class:`CompiledRGNNModule`, or a
            :class:`MultiLayerModule` stack (served layer-by-hop through
            ``forward_blocks``; requires ``len(fanouts) == num_layers``).
        graph: the parent graph requests sample their blocks from.
        features: ``(graph.num_nodes, in_dim)`` node-feature store; defaults
            to a deterministic random matrix keyed on ``seed``.
        fanouts: per-hop neighbor-sampling fanouts.
        priority: weighted-round-robin weight (≥ 1); an endpoint with weight
            3 gets ~3× the batch slots of a weight-1 endpoint under
            contention.
        max_batch_size / batch_timeout_s: micro-batching policy.
        arena_source: per-tenant view of the router's shared arena budget
            (``None`` when memory planning is off for the plan, and for
            stacks — each stack layer is its own tenant, attached on the
            module itself).
        block_cache_size: capacity of the per-seed draw cache, in seeds
            (0 disables caching: under finite fanouts every batch then
            draws a fresh sample).
        program / options: compilation handles for plan-replay accounting
            (see :func:`resolve_module`).
        sampler_seed: base seed of the endpoint's private sampler.
    """

    def __init__(
        self,
        name: str,
        module: Union[CompiledRGNNModule, MultiLayerModule],
        graph: HeteroGraph,
        *,
        features: Optional[np.ndarray] = None,
        fanouts: Sequence[Fanout] = (None,),
        priority: int = 1,
        max_batch_size: int = 8,
        batch_timeout_s: float = 0.002,
        arena_source=None,
        block_cache_size: int = 32,
        program=None,
        options: Optional[CompilerOptions] = None,
        sampler_seed: int = 0,
        seed: int = 0,
        admission: Optional[AdmissionPolicy] = None,
    ):
        validate_endpoint_config(name, priority, max_batch_size, batch_timeout_s, block_cache_size)
        self.name = name
        self.module = module
        self.graph = graph
        self.priority = priority
        self.max_batch_size = max_batch_size
        self.batch_timeout_s = batch_timeout_s
        self.arena_source = arena_source
        self.block_cache_size = block_cache_size
        #: Whether a compile-per-request deployment would replay this module's
        #: plan from the compilation cache for any graph of the parent's schema
        #: (``None``: adopted module or stack, replay accounting off).  The
        #: program and options never change after registration, so per batch
        #: only the block's schema is left to compare.
        self._plan_cached: Optional[bool] = None
        #: Shared by the submit path and the serving loop, so rate/queue/
        #: deadline budgets apply to the endpoint's whole request stream.
        self.admission = AdmissionController(admission) if admission is not None else None
        self._per_hop = isinstance(module, MultiLayerModule)
        if self._per_hop and len(tuple(fanouts)) != module.num_layers:
            raise ValueError(
                f"endpoint {name!r}: a {module.num_layers}-layer stack is served "
                f"per-hop and needs one fanout per layer, got {len(tuple(fanouts))}"
            )
        if program is not None and not self._per_hop:
            self._plan_cached = compile_program(program, options, graph=graph).plan is module.plan

        dim = module.input_feature_dim
        if features is None:
            if dim is None:
                raise ValueError(
                    f"endpoint {name!r}: the plan's input feature dimension is "
                    "ambiguous; pass features="
                )
            features = random_features(graph, dim, seed=seed)
        features = np.asarray(features, dtype=np.float64)
        if features.shape[0] != graph.num_nodes:
            raise ValueError(
                f"endpoint {name!r}: feature store must have {graph.num_nodes} rows "
                f"(graph {graph.name!r}), got {features.shape[0]}"
            )
        if dim is not None and features.shape[1] != dim:
            raise ValueError(
                f"endpoint {name!r}: feature store must have dimension {dim} (the "
                f"compiled plan's node-feature input), got {features.shape[1]}"
            )
        self.features = features
        self.sampler = NeighborSampler(graph, fanouts=fanouts, seed=sampler_seed)
        self.fanouts = self.sampler.fanouts
        self.output_name = module.output_name

        self.stats = EngineStats(arena=arena_source)
        self.plan_replays = 0
        self.plan_recompiles = 0
        self.pending: List[ServingRequest] = []
        self._pending_lock = threading.Lock()
        # One cache level: per-seed draws, the unit of reuse, of LRU eviction
        # and of invalidation.  A batch "hits" when none of its seeds needed
        # a fresh draw.
        self._seed_cache: "OrderedDict[int, _SeedEntry]" = OrderedDict()
        self.block_cache_hits = 0
        self.block_cache_misses = 0
        self.seed_cache_hits = 0
        self.seed_cache_misses = 0
        self.seed_cache_evictions = 0
        self.seed_cache_invalidations = 0

    # ------------------------------------------------------------------
    # request admission
    # ------------------------------------------------------------------
    def validate_seeds(self, seeds) -> np.ndarray:
        """Normalise and range-check seed ids *at admission time*.

        Out-of-range ids used to surface as a deep gather failure inside the
        sampler, long after ``submit()`` returned; here they fail fast with
        the endpoint name and the offending ids spelled out.
        """
        seeds = np.asarray(seeds, dtype=np.int64).reshape(-1)
        if seeds.size == 0:
            raise ValueError(
                f"endpoint {self.name!r}: a request needs at least one seed node"
            )
        bad = seeds[(seeds < 0) | (seeds >= self.graph.num_nodes)]
        if bad.size:
            shown = bad[:8].tolist()
            suffix = ", ..." if bad.size > 8 else ""
            raise ValueError(
                f"endpoint {self.name!r}: seed ids {shown}{suffix} out of range "
                f"[0, {self.graph.num_nodes}) for parent graph {self.graph.name!r}"
            )
        return seeds

    def make_request(self, seeds, arrival_s: float = 0.0) -> ServingRequest:
        return ServingRequest(
            seeds=self.validate_seeds(seeds),
            arrival_s=float(arrival_s),
            endpoint=self.name,
        )

    def submit(self, seeds, arrival_s: float = 0.0) -> ServingRequest:
        """Enqueue a request; it completes when the router schedules a batch.

        Thread-safe: concurrent submitters only contend on the list append.
        When the endpoint has an admission policy, the decision is made here
        (rate bucket at ``arrival_s``, queue bound against the pending
        depth): a shed request is returned immediately with its shed status
        and is never enqueued.
        """
        request = self.make_request(seeds, arrival_s)
        with self._pending_lock:
            if self.admission is not None:
                verdict = self.admission.admit(request, request.arrival_s, len(self.pending))
                if verdict is not None:
                    self.stats.record_outcome(request.status)
                    return request
            self.pending.append(request)
            self.stats.queue_depth_high_water = max(
                self.stats.queue_depth_high_water, len(self.pending)
            )
        return request

    def drain_pending(self) -> List[ServingRequest]:
        """Atomically take (and clear) the pending queue."""
        with self._pending_lock:
            drained, self.pending = self.pending, []
        return drained

    # ------------------------------------------------------------------
    # block cache
    # ------------------------------------------------------------------
    def _assemble(self, union_seeds: np.ndarray, entries: List[_SeedEntry]):
        """Assemble the batch block(s) from per-seed position draws.

        Pure compaction, so the result is a deterministic function of the
        cached entries.  Under ``fanout=None`` the union of per-seed
        positions equals a fresh draw of the seed union (full neighborhoods
        compose); under finite fanouts a shared frontier node may keep the
        draws of several epochs, so per-node in-degree can exceed a single
        draw's cap — a denser but still valid sample.
        """
        if self._per_hop:
            hops = [
                _union([entry.positions[hop] for entry in entries])
                for hop in range(len(self.fanouts))
            ]
            return self.sampler.assemble_hop_blocks(union_seeds, hops)
        return self.sampler.assemble(union_seeds, _union([entry.positions for entry in entries]))

    def _sample_block(self, union_seeds: np.ndarray) -> Tuple[object, Optional[bool]]:
        """The batch's block(s): per-seed cache + union assembly.

        Returns ``(block_or_blocks, cache_hit)``; ``cache_hit`` is ``None``
        when caching is disabled, else True iff no seed needed a fresh draw
        (the batch skipped sampling entirely).

        Serving has no training epochs, so every batch with at least one
        uncached seed advances the sampler's epoch and draws all its missing
        seeds in one call: misses see *fresh* neighborhoods under finite
        fanouts.  Reuse of drawn neighborhoods is the per-seed cache's job.
        """
        sampler = self.sampler
        if self.block_cache_size == 0:
            sampler.resample()
            if self._per_hop:
                return sampler.sample_blocks(union_seeds), None
            return sampler.sample(union_seeds), None
        cache = self._seed_cache
        key = union_seeds.tolist()
        missing = [seed_id for seed_id in key if seed_id not in cache]
        if missing:
            sampler.resample()
            draw = sampler.hop_positions if self._per_hop else sampler.merged_positions
            for seed_id, (positions, nodes) in zip(missing, draw(missing, per_seed=True)):
                cache[seed_id] = _SeedEntry(positions, nodes)
            self.seed_cache_misses += len(missing)
            self.block_cache_misses += 1
        else:
            self.block_cache_hits += 1
        self.seed_cache_hits += len(key) - len(missing)
        for seed_id in key:
            cache.move_to_end(seed_id)
        entries = [cache[seed_id] for seed_id in key]
        while len(cache) > self.block_cache_size:
            cache.popitem(last=False)
            self.seed_cache_evictions += 1
        return self._assemble(union_seeds, entries), not missing

    def invalidate_block_cache(self) -> int:
        """Drop every cached draw (e.g. after the parent graph's structure
        changes); returns the number of seed entries dropped."""
        dropped = len(self._seed_cache)
        self._seed_cache.clear()
        return dropped

    def update_features(self, node_ids, rows) -> int:
        """Update feature-store rows and invalidate only the affected seeds.

        A seed's cache entry dies iff its sampled neighborhood contains an
        updated node — hot seeds whose neighborhoods are disjoint from the
        update keep their draws.  Returns the number of seed entries
        invalidated.
        """
        node_ids = np.asarray(node_ids, dtype=np.int64).reshape(-1)
        if node_ids.size == 0:
            return 0
        bad = node_ids[(node_ids < 0) | (node_ids >= self.graph.num_nodes)]
        if bad.size:
            raise ValueError(
                f"endpoint {self.name!r}: feature-update node ids {bad[:8].tolist()} "
                f"out of range [0, {self.graph.num_nodes})"
            )
        rows = np.asarray(rows, dtype=np.float64).reshape(len(node_ids), -1)
        if rows.shape[1] != self.features.shape[1]:
            raise ValueError(
                f"endpoint {self.name!r}: feature-update rows have dimension "
                f"{rows.shape[1]}, the store holds {self.features.shape[1]}"
            )
        self.features[node_ids] = rows
        updated = np.zeros(self.graph.num_nodes, dtype=bool)
        updated[node_ids] = True
        touched = [
            seed_id for seed_id, entry in self._seed_cache.items() if updated[entry.nodes].any()
        ]
        for seed_id in touched:
            del self._seed_cache[seed_id]
        self.seed_cache_invalidations += len(touched)
        return len(touched)

    @property
    def block_cache_len(self) -> int:
        """Cached seed draws (the cache's capacity unit)."""
        return len(self._seed_cache)

    @property
    def block_cache_hit_rate(self) -> float:
        lookups = self.block_cache_hits + self.block_cache_misses
        return self.block_cache_hits / lookups if lookups else 0.0

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def execute_batch(self, requests: List[ServingRequest]) -> float:
        """Sample (or assemble from cache), bind, execute, and scatter one
        micro-batch.

        Returns the measured wall-clock service seconds (sampling +
        execution).
        """
        sample_start = time.perf_counter()
        all_seeds = np.concatenate([request.seeds for request in requests])
        union_seeds, inverse = np.unique(all_seeds, return_inverse=True)
        block, cache_hit = self._sample_block(union_seeds)
        execute_start = time.perf_counter()

        plan_replayed: Optional[bool] = None
        if self._plan_cached is not None:
            # A compile-per-request deployment would look the block up in the
            # compilation cache, and it must *hit*: blocks share the parent's
            # schema, and sizes never enter the key.
            plan_replayed = self._plan_cached and self.module.schema.matches(block.graph)
            if plan_replayed:
                self.plan_replays += 1
            else:  # pragma: no cover - would indicate a cache-key regression
                self.plan_recompiles += 1

        if self._per_hop:
            run = self.module.forward_blocks(block, self.features)
            seed_rows = run.seed_outputs()
            block_nodes = block[0].num_nodes
            block_edges = sum(hop.num_edges for hop in block)
        else:
            binding = self.module.bind(
                block.graph,
                arena_source=self.arena_source,
                label=f"endpoint {self.name!r}",
            )
            outputs = binding.forward(block.gather_features(self.features))
            seed_rows = block.seed_outputs(outputs[self.output_name])
            block_nodes = block.num_nodes
            block_edges = block.num_edges
        offset = 0
        for request in requests:
            span = len(request.seeds)
            request.result = seed_rows[inverse[offset:offset + span]]
            request.status = "done"
            offset += span
        done = time.perf_counter()

        self.stats.record_batch(BatchRecord(
            num_requests=len(requests),
            num_seeds=int(len(all_seeds)),
            block_nodes=block_nodes,
            block_edges=block_edges,
            sample_seconds=execute_start - sample_start,
            execute_seconds=done - execute_start,
            plan_replayed=plan_replayed,
            block_cache_hit=cache_hit,
        ))
        return done - sample_start

    # ------------------------------------------------------------------
    # telemetry
    # ------------------------------------------------------------------
    def reset_stats(self) -> None:
        """Drop accumulated telemetry (e.g. after a warmup batch).

        Arena-budget and block-cache contents stay — warm state is precisely
        what warmup is for — but batch records, latencies, plan-replay and
        block-cache *counters* restart.
        """
        self.stats = EngineStats(arena=self.arena_source)
        self.plan_replays = 0
        self.plan_recompiles = 0
        self.block_cache_hits = 0
        self.block_cache_misses = 0
        self.seed_cache_hits = 0
        self.seed_cache_misses = 0
        self.seed_cache_evictions = 0
        self.seed_cache_invalidations = 0

    def report(self) -> Dict[str, object]:
        """Endpoint-scoped summary: throughput, latency, reuse, cache, memory."""
        out = self.stats.report()
        out["endpoint"] = self.name
        out["priority"] = self.priority
        out["max_batch_size"] = self.max_batch_size
        out["plan_replays"] = self.plan_replays
        out["plan_recompiles"] = self.plan_recompiles
        if self.block_cache_size:
            out["block_cache_hit_rate"] = round(self.block_cache_hit_rate, 3)
            out["block_cache_len"] = self.block_cache_len
            seed_lookups = self.seed_cache_hits + self.seed_cache_misses
            out["seed_cache_hit_rate"] = round(
                self.seed_cache_hits / seed_lookups if seed_lookups else 0.0, 3
            )
            out["seed_cache_evictions"] = self.seed_cache_evictions
            out["seed_cache_invalidations"] = self.seed_cache_invalidations
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        plan = "stack" if self._per_hop else repr(self.module.plan.name)
        return (
            f"Endpoint({self.name!r}, plan={plan}, "
            f"graph={self.graph.name!r}, priority={self.priority})"
        )
