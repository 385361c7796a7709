"""The multi-tenant serving router: named endpoints over a shared executor pool.

One :class:`Router` hosts any number of named endpoints — each a compiled
module (or a multi-layer stack served per-hop) + parent graph + sampler +
micro-batching policy (:mod:`repro.serving.endpoint`) — and multiplexes their
request streams onto a pool of ``num_workers`` executor workers under a
single :class:`~repro.runtime.planner.SharedArenaBudget` byte cap.
Scheduling is one event loop (:func:`~repro.serving.scheduler.run_serving_loop`):
requests are admitted concurrently across endpoints (optionally through
per-tenant :class:`~repro.serving.admission.AdmissionPolicy`
rate/queue/deadline limits), each endpoint micro-batches its own queue, and
ready batches compete for executor slots under smooth weighted round-robin —
at most one in-flight batch per endpoint, so per-endpoint state needs no
locks and per-request results are identical for every worker count.
:meth:`Router.serve` runs a timed stream through it; :meth:`Router.flush`
(and :meth:`Router.query`) run the already-submitted queues through the same
loop on one worker with zero batch timeouts.

Quickstart::

    from repro.serving import AdmissionPolicy, Router

    router = Router(arena_capacity_bytes=64 << 20, num_workers=4)
    router.register("rgcn-small", "rgcn", small_graph, in_dim=64, out_dim=64)
    router.register("hgt-large", "hgt", large_graph, in_dim=64, out_dim=64,
                    priority=2, fanouts=(8,),
                    admission=AdmissionPolicy(rate_limit=500.0, deadline_s=0.05))

    rows = router.query("rgcn-small", [3, 17, 42])   # synchronous
    router.submit("hgt-large", [5, 9], arrival_s=0.0)  # async admission
    report = router.serve([("rgcn-small", [1, 2]), ("hgt-large", [7])])
    print(report["aggregate"], report["serve"], report["arena_budget"])
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.frontend.config import CompilerOptions
from repro.graph.hetero_graph import HeteroGraph
from repro.graph.sampler import Fanout
from repro.runtime.module import CompiledRGNNModule
from repro.runtime.multilayer import MultiLayerModule
from repro.runtime.planner import SharedArenaBudget
from repro.serving.admission import AdmissionPolicy
from repro.serving.endpoint import (
    Endpoint,
    ServingRequest,
    resolve_module,
    validate_endpoint_config,
)
from repro.serving.scheduler import (
    LaneSpec,
    MonotonicClock,
    VirtualClock,
    WeightedRoundRobin,
    run_serving_loop,
)
from repro.serving.stats import aggregate_summary

#: One entry of a ``Router.serve`` stream: ``(endpoint, seeds)`` or
#: ``(endpoint, seeds, arrival_s)``.
StreamItem = Union[Tuple[str, object], Tuple[str, object, float]]

#: Retention bound of :attr:`Router.execution_log` (most recent batches).
EXECUTION_LOG_LIMIT = 4096


class Router:
    """Admission, scheduling, and memory arbitration across named endpoints.

    Args:
        arena_capacity_bytes: global byte cap of the shared arena budget
            every endpoint leases from (``None`` = unbounded).
        num_workers: executor workers for :meth:`serve` (≥ 1).  Workers run
            batches from *different* endpoints concurrently; per-endpoint
            execution stays serialised, so results are bit-identical to
            ``num_workers=1``.
    """

    def __init__(
        self,
        *,
        arena_capacity_bytes: Optional[int] = None,
        num_workers: int = 1,
    ):
        if num_workers < 1:
            raise ValueError("Router needs num_workers >= 1")
        self.num_workers = int(num_workers)
        self.budget = SharedArenaBudget(capacity_bytes=arena_capacity_bytes)
        self._endpoints: Dict[str, Endpoint] = {}
        self._wrr = WeightedRoundRobin()
        #: Endpoint name per executed batch, in execution order — the
        #: fairness tests read this to see the interleaving.
        #: Bounded to the most recent :data:`EXECUTION_LOG_LIMIT` batches so
        #: a long-lived router's telemetry cannot grow without limit.
        self.execution_log: List[str] = []
        #: Requests admitted by the most recent :meth:`serve` call, in stream
        #: order — callers that need per-request results (e.g. a
        #: bit-identity cross-check against isolated serving) read them here.
        #: Replaced wholesale on every ``serve``, so it only ever pins one
        #: stream's requests.  Shed requests appear here too, result-less,
        #: with their shed status.
        self.last_served: List[ServingRequest] = []
        #: Loop-level metrics of the most recent :meth:`serve` call (worker
        #: count, virtual makespan, busy seconds, modelled speedup).
        self.last_serve_metrics: Optional[Dict[str, object]] = None

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def register(
        self,
        name: str,
        model: Union[str, CompiledRGNNModule, MultiLayerModule],
        parent_graph: HeteroGraph,
        *,
        in_dim: int = 64,
        out_dim: int = 64,
        options: Optional[CompilerOptions] = None,
        features: Optional[np.ndarray] = None,
        fanouts: Sequence[Fanout] = (None,),
        priority: int = 1,
        max_batch_size: int = 8,
        batch_timeout_s: float = 0.002,
        block_cache_size: int = 32,
        sampler_seed: int = 0,
        seed: int = 0,
        admission: Optional[AdmissionPolicy] = None,
    ) -> Endpoint:
        """Create a named endpoint: compiled module + graph + sampler + stats.

        Args:
            name: unique endpoint name; the address of ``submit``/``query``.
            model: a model name (``"rgcn"`` / ``"rgat"`` / ``"hgt"``)
                compiled here, an already-compiled module to adopt, or a
                :class:`MultiLayerModule` stack — stacks are served per-hop
                through ``forward_blocks`` and need one fanout per layer.
            parent_graph: the graph this endpoint's requests sample from.
            priority: weighted-round-robin weight (≥ 1).
            block_cache_size: per-seed draw-cache capacity (seeds; 0
                disables).
            admission: optional rate/queue/deadline limits enforced on this
                endpoint's stream (see :class:`AdmissionPolicy`).
            in_dim / out_dim / options / seed: compilation of a named
                model (see :func:`~repro.serving.endpoint.resolve_module`).
            features / fanouts / sampler_seed: the endpoint's feature store
                and neighbor sampler (see :class:`Endpoint`).
            max_batch_size / batch_timeout_s: micro-batching policy.
        """
        if name in self._endpoints:
            raise ValueError(f"endpoint {name!r} is already registered")
        # Cheap config checks fail before the (expensive) model compile.
        validate_endpoint_config(name, priority, max_batch_size, batch_timeout_s, block_cache_size)
        arena_source = None
        layer_tenants: List[str] = []
        if isinstance(model, MultiLayerModule):
            # A stack leases one tenant per planned layer (layers never share
            # slabs); the endpoint itself carries no arena source.
            model.schema.validate_graph(parent_graph)
            module, program, kept_options = model, None, None
            layer_tenants = model.attach_arena_sources(self.budget, name)
        else:
            module, program, kept_options = resolve_module(
                model, parent_graph, in_dim=in_dim, out_dim=out_dim, options=options, seed=seed
            )
            if module.memory_planner is not None:
                arena_source = self.budget.tenant(name)
        try:
            endpoint = Endpoint(
                name,
                module,
                parent_graph,
                features=features,
                fanouts=fanouts,
                priority=priority,
                max_batch_size=max_batch_size,
                batch_timeout_s=batch_timeout_s,
                arena_source=arena_source,
                block_cache_size=block_cache_size,
                program=program,
                options=kept_options,
                sampler_seed=sampler_seed,
                seed=seed,
                admission=admission,
            )
        except Exception:
            # Roll the tenants back: a failed registration must not leave
            # phantom entries in the budget.
            if arena_source is not None:
                self.budget.drop_tenant(name)
            for tenant in layer_tenants:
                self.budget.drop_tenant(tenant)
            raise
        self._endpoints[name] = endpoint
        self._wrr.register(name, priority)
        return endpoint

    def endpoint(self, name: str) -> Endpoint:
        """The endpoint registered under ``name`` (clear error otherwise)."""
        try:
            return self._endpoints[name]
        except KeyError:
            known = ", ".join(repr(n) for n in self._endpoints) or "none"
            raise ValueError(
                f"unknown endpoint {name!r}; registered endpoints: {known}"
            ) from None

    @property
    def endpoint_names(self) -> List[str]:
        return list(self._endpoints)

    def __contains__(self, name: str) -> bool:
        return name in self._endpoints

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------
    def submit(self, endpoint_name: str, seeds, arrival_s: float = 0.0) -> ServingRequest:
        """Admit one request asynchronously; seeds are validated *now*.

        The request completes on the next :meth:`flush` / :meth:`serve` — or
        comes back immediately with a ``"shed-rate"`` / ``"shed-queue"``
        status (no result, never enqueued) when the endpoint's admission
        policy turns it away.
        """
        return self.endpoint(endpoint_name).submit(seeds, arrival_s)

    def query(self, endpoint_name: str, seeds) -> np.ndarray:
        """Synchronous single query: ``(len(seeds), out_dim)`` output rows.

        Flushes the router, so any previously submitted requests (on any
        endpoint) complete too.  Raises ``RuntimeError`` naming the endpoint
        and the status when the query comes back without a result: shed at
        submit (rate / queue bound), shed at dispatch (its deadline expired
        behind earlier batches), or failed (synchronous callers cannot retry
        transparently).
        """
        request = self.submit(endpoint_name, seeds)
        if not request.shed:
            self.flush()
        if request.result is None:
            raise RuntimeError(
                f"endpoint {endpoint_name!r} did not serve the query ({request.status}); "
                "back off and retry, or loosen its AdmissionPolicy"
            )
        return request.result

    # ------------------------------------------------------------------
    # execution (shared by flush and serve)
    # ------------------------------------------------------------------
    def _execute(
        self,
        name: str,
        requests: List[ServingRequest],
    ) -> float:
        """Execute one batch with per-request fault isolation.

        A raising batch is split and retried request-by-request, so only the
        request whose seeds actually trigger the fault fails (status
        ``"failed"``, ``error`` naming the endpoint and cause) while its
        batch-mates are served.  Returns the batch's total service seconds.
        """
        endpoint = self._endpoints[name]
        try:
            return endpoint.execute_batch(requests)
        except Exception as exc:
            if len(requests) == 1:
                request = requests[0]
                request.status = "failed"
                request.error = f"endpoint {name!r}: {exc!r}"
                return 0.0
            return sum(self._execute(name, [request]) for request in requests)

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def flush(self) -> List[ServingRequest]:
        """Drain every endpoint's queue now, fairly; returns executed requests.

        The pending requests run through :func:`run_serving_loop` on one
        worker and a fresh virtual clock, with a zero batch timeout and no
        admission (they were admitted at :meth:`submit`).  Requests with equal
        arrival times — :meth:`submit`'s default — form batches of at most
        ``max_batch_size`` in submission order; a request submitted with a
        *later* ``arrival_s`` starts a new batch, as in :meth:`serve`.
        Batches drain under weighted round-robin, and a request whose
        admission deadline expired before its batch was dispatched is shed
        (``"shed-deadline"``, not returned).  Request latency is the batch's
        service time — queueing delay is a :meth:`serve` concept.
        """
        arrivals: List[Tuple[str, ServingRequest]] = []
        lanes: Dict[str, LaneSpec] = {}
        for name, endpoint in self._endpoints.items():  # registration order: WRR ties
            pending = endpoint.drain_pending()
            if pending:
                lanes[name] = LaneSpec(max_batch_size=endpoint.max_batch_size, batch_timeout_s=0.0)
                arrivals.extend((name, request) for request in pending)
        if not lanes:
            return []
        service_s = 0.0

        def execute(name: str, requests: List[ServingRequest]) -> float:
            nonlocal service_s
            service_s = self._execute(name, requests)
            return service_s

        def on_complete(name: str, requests: List[ServingRequest], finish_s: float) -> None:
            stats = self._endpoints[name].stats
            for request in requests:  # one worker: runs right after its execute
                request.latency_s = service_s
                if request.done:
                    stats.record_latency(service_s)

        result = run_serving_loop(
            arrivals, lanes, self._wrr, execute, clock=VirtualClock(), on_complete=on_complete
        )
        self._log_executions(result.execution_order)
        for request in result.completed + result.shed:
            self._endpoints[request.endpoint].stats.record_outcome(request.status)
        return result.completed

    def _log_executions(self, order: List[str]) -> None:
        self.execution_log.extend(order)
        if len(self.execution_log) > EXECUTION_LOG_LIMIT:
            del self.execution_log[:-EXECUTION_LOG_LIMIT]

    def serve(
        self,
        stream: Optional[Sequence[StreamItem]] = None,
        *,
        realtime: bool = False,
        workers: Optional[int] = None,
    ) -> Dict[str, object]:
        """Serve a timed request stream through the event-loop scheduler.

        Args:
            stream: ``(endpoint, seeds)`` or ``(endpoint, seeds, arrival_s)``
                tuples; omitted arrivals default to 0 (a closed-loop burst).
                ``None`` serves only what :meth:`submit` already queued.
            realtime: drive the loop with a monotonic wall clock (admission
                waits for real arrivals) instead of virtual time.
            workers: executor workers for this call (defaults to the
                router's ``num_workers``).

        Per endpoint, arrivals are micro-batched under its size/timeout
        policy and admission-checked at arrival time (rate bucket, queue
        bound; deadline-expired requests are shed at dispatch, never
        executed); across endpoints, ready batches compete for executor
        workers under weighted round-robin.  Per-request latency = queueing
        + service.

        Returns :meth:`report`; the stream's requests (with per-request
        results, latencies, and statuses — including shed ones) are kept in
        :attr:`last_served`, stream order.
        """
        # Requests admitted before this call complete first, so none are
        # left behind.
        self.flush()
        self.last_served = []
        arrivals: List[Tuple[str, ServingRequest]] = []
        for item in stream or []:
            if len(item) == 2:
                endpoint_name, seeds = item
                arrival_s = 0.0
            else:
                endpoint_name, seeds, arrival_s = item
            request = self.endpoint(endpoint_name).make_request(seeds, arrival_s)
            self.last_served.append(request)
            arrivals.append((endpoint_name, request))

        lanes = {  # registration order fixes WRR tie-breaks
            name: LaneSpec(
                max_batch_size=endpoint.max_batch_size,
                batch_timeout_s=endpoint.batch_timeout_s,
                admission=endpoint.admission,
            )
            for name, endpoint in self._endpoints.items()
        }
        workers = self.num_workers if workers is None else int(workers)

        def on_complete(name: str, requests: List[ServingRequest], finish_s: float) -> None:
            stats = self._endpoints[name].stats
            for request in requests:
                if request.done:
                    stats.record_latency(request.latency_s)

        clock = MonotonicClock() if realtime else VirtualClock()
        result = run_serving_loop(
            arrivals,
            lanes,
            self._wrr,
            self._execute,
            clock=clock,
            workers=workers,
            on_complete=on_complete,
        )
        self._log_executions(result.execution_order)
        for request in result.completed + result.shed:
            self._endpoints[request.endpoint].stats.record_outcome(request.status)
        for name, high_water in result.queue_depth_high_water.items():
            stats = self._endpoints[name].stats
            stats.queue_depth_high_water = max(stats.queue_depth_high_water, high_water)
        self.last_serve_metrics = {
            "workers": result.workers,
            "completed": len(result.completed),
            "shed": len(result.shed),
            "makespan_s": round(result.makespan_s, 6),
            "busy_s": round(result.busy_s, 6),
            # Serial work over schedule length: the executor pool's modelled
            # speedup (1.0 with one worker; capped by lane parallelism).
            "modelled_speedup": (
                round(result.busy_s / result.makespan_s, 3) if result.makespan_s > 0 else 1.0
            ),
        }
        return self.report()

    # ------------------------------------------------------------------
    # telemetry
    # ------------------------------------------------------------------
    def reset_stats(self) -> None:
        """Restart telemetry on every endpoint (warm arenas and caches stay)."""
        for endpoint in self._endpoints.values():
            endpoint.reset_stats()
        self.execution_log = []
        self.last_serve_metrics = None

    def report(self) -> Dict[str, object]:
        """Router-level view: per-endpoint reports, aggregate, memory budget."""
        out = {
            "endpoints": {name: endpoint.report() for name, endpoint in self._endpoints.items()},
            "aggregate": aggregate_summary(
                endpoint.stats for endpoint in self._endpoints.values()
            ),
            "arena_budget": self.budget.report(),
        }
        if self.last_serve_metrics is not None:
            out["serve"] = dict(self.last_serve_metrics)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"Router(endpoints={self.endpoint_names}, budget={self.budget.capacity_bytes}, "
            f"workers={self.num_workers})"
        )
