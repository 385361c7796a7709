"""Multi-tenant serving over sampled minibatch blocks.

The subsystem the compile→bind→execute split enables: schema-specialised
compiled modules serve per-request seed-node queries by micro-batching
requests, sampling (or block-cache-fetching) blocks, binding against arenas
leased from a shared budget, executing the generated kernels once per batch,
and scattering per-request outputs back — with throughput / latency /
occupancy / reuse telemetry throughout.

The primary API is the :class:`Router`: named endpoints (compiled module +
parent graph + sampler + batching policy + priority), async admission, one
event loop (:func:`run_serving_loop`) with weighted-round-robin fairness
across endpoints — :meth:`Router.serve` runs timed streams through it,
:meth:`Router.flush` / :meth:`Router.query` the already-submitted queues —
and one :class:`~repro.runtime.planner.SharedArenaBudget` byte cap over all
tenants' arenas.

Quickstart::

    from repro.serving import Router

    router = Router(arena_capacity_bytes=64 << 20)
    router.register("rgat-main", "rgat", graph, in_dim=64, out_dim=64)
    outputs = router.query("rgat-main", [3, 17, 42])  # (3, 64) rows
    print(router.report()["aggregate"])
"""

from repro.serving.admission import AdmissionController, AdmissionPolicy, TokenBucket
from repro.serving.endpoint import Endpoint, ServingRequest
from repro.serving.router import Router
from repro.serving.scheduler import (
    LaneSpec,
    MonotonicClock,
    ScheduledBatch,
    ServingLoopResult,
    VirtualClock,
    WeightedRoundRobin,
    run_serving_loop,
)
from repro.serving.stats import BatchRecord, EngineStats, aggregate_summary, percentile

__all__ = [
    "Router",
    "Endpoint",
    "ServingRequest",
    "AdmissionPolicy",
    "AdmissionController",
    "TokenBucket",
    "BatchRecord",
    "EngineStats",
    "aggregate_summary",
    "percentile",
    "VirtualClock",
    "MonotonicClock",
    "WeightedRoundRobin",
    "ScheduledBatch",
    "LaneSpec",
    "ServingLoopResult",
    "run_serving_loop",
]
