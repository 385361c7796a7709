"""Serving benchmarks: the acceptance gates of the compile→bind→execute split
and of the multi-tenant router redesign.

Three claims are gated here:

1. **Zero recompiles across sampled blocks** — one ``compile_model`` artefact
   serves ≥ 3 differently-sized minibatch blocks, and after warmup every
   per-block cache lookup is a *hit* returning the identical plan object
   (asserted via the compilation-cache hit/miss counters).
2. **Micro-batching pays** — on one request stream, a micro-batched router
   endpoint sustains ≥ 2× the throughput of a batch-size-1 endpoint, with
   ~100% plan-replay rate on both.
3. **Consolidation pays** — one router hosting 3 heterogeneous endpoints
   (RGCN/RGAT/HGT, different graphs and schemas) under a single shared arena
   budget serves a mixed 480-request stream at ≥ 1.5× the throughput of the
   *worst* isolated single-tenant configuration, with per-request results
   bit-identical to isolation (zero cross-tenant corruption) and a non-zero
   block-cache hit rate on the hot-seed portion of the workload.
"""

import numpy as np
import pytest

from repro.evaluation.reporting import format_table
from repro.frontend import (
    CompilerOptions,
    clear_compilation_cache,
    compile_model,
    compile_program,
    global_compilation_cache,
)
from repro.graph import NeighborSampler, random_hetero_graph
from repro.graph.generators import random_features
from repro.models import build_program
from repro.serving import Router

DIM = 16

#: Inference serving configuration: cache + planner on, compact blocks.
SERVING_OPTIONS = CompilerOptions(emit_backward=False, compact_materialization=True)


def default_serving_graph(seed: int = 17):
    """The serving gates' parent graph: big enough that per-request work dominates."""
    return random_hetero_graph(
        num_nodes=400, num_edges=2400, num_node_types=3, num_edge_types=6,
        seed=seed, name="serving", source_locality=0.4,
    )


def request_stream(graph, num_requests, seeds_per_request, seed=0):
    """A reproducible stream of per-request seed-node queries."""
    rng = np.random.default_rng(seed)
    return [
        rng.choice(graph.num_nodes, size=seeds_per_request, replace=False)
        for _ in range(num_requests)
    ]


@pytest.mark.smoke
@pytest.mark.parametrize("model", ["rgat"])
def test_microbatched_throughput_beats_batch_size_1(model):
    """Acceptance gate: micro-batched throughput ≥ 2× batch-size-1.

    Two endpoints on one router share the model, options, feature store,
    fanout and stream; only ``max_batch_size`` differs.  The block cache is
    off, so every batch samples its own block.
    """
    graph = default_serving_graph()
    features = random_features(graph, DIM, seed=0)
    stream = request_stream(graph, num_requests=48, seeds_per_request=4)
    router = Router()
    modes = {"batch-1": 1, "micro-batch(16)": 16}
    for name, batch_size in modes.items():
        router.register(
            name, model, graph, in_dim=DIM, out_dim=DIM, options=SERVING_OPTIONS,
            features=features, fanouts=(8,), max_batch_size=batch_size,
            block_cache_size=0,
        )
        # Warm the arena and lazy numpy dispatch with one throwaway batch.
        router.query(name, stream[0])
    router.reset_stats()
    rows = []
    for name in modes:  # one endpoint per stream: each owns the executor
        report = router.serve([(name, seeds) for seeds in stream])
        rows.append({"mode": name, **report["endpoints"][name]})
    speedup = rows[1]["throughput_rps"] / rows[0]["throughput_rps"]
    print()
    print(format_table(rows, title=f"Serving — {model} on {graph.name} (speedup {speedup:.2f}x)"))
    for name in modes:
        assert router.endpoint(name).plan_recompiles == 0, (
            "serving recompiled a plan it should have replayed"
        )
    for row in rows:
        assert row["plan_replay_rate"] == 1.0, row
    assert speedup >= 2.0, (
        f"micro-batching regressed: {speedup:.2f}x < 2x over batch-size-1"
    )


@pytest.mark.smoke
def test_one_artifact_serves_many_block_sizes_with_zero_recompiles():
    """Acceptance gate: ≥ 3 differently-sized blocks, zero recompiles after warmup."""
    clear_compilation_cache()
    graph = default_serving_graph()
    program = build_program("rgat", in_dim=DIM, out_dim=DIM)
    module = compile_model("rgat", graph, in_dim=DIM, out_dim=DIM, options=SERVING_OPTIONS)
    features = np.random.default_rng(0).standard_normal((graph.num_nodes, DIM))

    sampler = NeighborSampler(graph, fanouts=(6,), seed=3)
    rng = np.random.default_rng(1)
    blocks = [
        sampler.sample(rng.choice(graph.num_nodes, size=size, replace=False))
        for size in (2, 8, 32, 64)
    ]
    sizes = {(block.num_nodes, block.num_edges) for block in blocks}
    assert len(sizes) >= 3, f"need ≥ 3 differently-sized blocks, got {sizes}"

    # Warmup: the one compilation above plus one replayed lookup.
    compile_program(program, SERVING_OPTIONS, graph=blocks[0].graph)
    stats = global_compilation_cache().stats
    misses_before, hits_before = stats.misses, stats.hits

    rows = []
    for block in blocks:
        result = compile_program(program, SERVING_OPTIONS, graph=block.graph)
        assert result.plan is module.plan, "block compiled to a different plan object"
        binding = module.bind(block.graph)
        out = binding.forward(block.gather_features(features))["out"]
        assert block.seed_outputs(out).shape == (len(block.seeds), DIM)
        rows.append({
            "block_nodes": block.num_nodes,
            "block_edges": block.num_edges,
            "seeds": len(block.seeds),
            "plan": result.plan.name,
            "recompiled": result.plan is not module.plan,
        })

    assert stats.misses == misses_before, "a block lookup missed the compilation cache"
    assert stats.hits == hits_before + len(blocks)
    print()
    print(format_table(rows, title="One compiled artefact, many block sizes — zero recompiles"))

    pool = module.arena_source
    # One pooled lease per block (the default binding keeps a private,
    # exact-size arena and never touches the pool).
    assert pool is not None and pool.stats.lookups == len(blocks)


@pytest.mark.smoke
def test_plan_cache_hit_rate_is_one_after_warmup_across_request_stream():
    """~100% plan-cache hit rate across a longer request stream."""
    clear_compilation_cache()
    graph = default_serving_graph()
    router = Router()
    endpoint = router.register(
        "hgt", "hgt", graph, in_dim=DIM, out_dim=DIM, options=SERVING_OPTIONS,
        fanouts=(6,), max_batch_size=8, block_cache_size=0,
    )
    stats = global_compilation_cache().stats
    misses_after_compile = stats.misses

    stream = request_stream(graph, num_requests=40, seeds_per_request=3, seed=5)
    report = router.serve([("hgt", seeds) for seeds in stream])["endpoints"]["hgt"]
    assert report["plan_replay_rate"] == 1.0
    assert endpoint.plan_recompiles == 0
    assert stats.misses == misses_after_compile, "serving caused compilation-cache misses"
    print()
    print(format_table([report], title="HGT serving stream — plan replays only"))


@pytest.mark.smoke
def test_three_tenant_consolidation_beats_worst_isolated_engine():
    """Acceptance gate: the multi-tenant router consolidation claim (3.)."""
    from repro.evaluation.multitenant_study import multitenant_rows, multitenant_study

    # 160 requests per tenant: 20 are three batches each, a few ms in all, and
    # one slow batch moves the speedup between 1.35x and 1.9x from run to run.
    study = multitenant_study(num_requests=480)
    print()
    print(format_table(
        multitenant_rows(study),
        title=f"Multi-tenant serving — consolidated "
              f"{study['speedup_vs_worst_isolated']}x worst isolated "
              f"({study['worst_isolated']})",
    ))
    assert study["bit_identical"], (
        "cross-tenant corruption: consolidated per-request rows differ from "
        "each endpoint served in isolation"
    )
    for row in multitenant_rows(study):
        assert row["block_cache_hit_rate"] > 0, (
            f"endpoint {row['endpoint']} never hit its block cache on a hot-seed stream"
        )
    # Every tenant appears in the shared budget's books.
    tenants = study["arena_budget"]["tenants"]
    assert set(tenants) == {row["endpoint"] for row in multitenant_rows(study)}
    assert all(stats["misses"] >= 1 for stats in tenants.values())
    # The headline compares the mixed aggregate against the worst tenant, so
    # tenant heterogeneity alone lifts it; this floor catches the failure
    # mode that comparison cannot — a scheduler/memory regression uniformly
    # slowing every tenant's own service rate under consolidation.
    for row in multitenant_rows(study):
        assert row["consolidation_ratio"] >= 0.6, (
            f"endpoint {row['endpoint']} serves at {row['consolidation_ratio']}x "
            "its isolated rate under consolidation"
        )
    assert study["speedup_vs_worst_isolated"] >= 1.5, (
        f"consolidation regressed: {study['speedup_vs_worst_isolated']}x < 1.5x "
        f"over the worst isolated engine ({study['worst_isolated']})"
    )


@pytest.mark.smoke
def test_four_workers_double_throughput_with_bit_identical_results():
    """Acceptance gate: 4 executor workers sustain ≥ 2× the throughput of one
    worker on a mixed 4-endpoint stream, with per-request results
    bit-identical to single-threaded serving.

    Throughput is the virtual-time makespan of the parallel schedule with
    CPU-exclusive per-batch service times (``time.thread_time``) — the same
    modelled-aggregate convention as the scaling study, so the gate holds on
    single-CPU CI hosts where wall-clock thread overlap is impossible.
    """
    import time

    from repro.evaluation.saturation_study import (
        build_router,
        compile_tenants,
        mixed_stream,
        tenant_graphs,
    )

    graphs = tenant_graphs()
    modules = compile_tenants(graphs)
    stream = mixed_stream(graphs, 96, seed=17)  # burst: every lane contended
    # The whole stream is ~9 ms of service on one worker and ~3 ms on four,
    # so one preempted batch moves a single reading by a third (2.0x-3.6x over
    # repeated runs); the gate reads the median of three pairs.
    speedups = []
    for _ in range(3):
        served = {}
        metrics = {}
        for workers in (1, 4):
            router = build_router(modules, graphs, num_workers=workers)
            router.serve(stream, timer=time.thread_time)
            served[workers] = router.last_served
            metrics[workers] = router.last_serve_metrics

        assert len(served[1]) == len(served[4]) == len(stream)
        for single, pooled in zip(served[1], served[4]):
            assert single.result is not None and pooled.result is not None
            np.testing.assert_array_equal(single.result, pooled.result)
        speedups.append(metrics[1]["makespan_s"] / max(metrics[4]["makespan_s"], 1e-12))

    speedup = sorted(speedups)[1]
    print()
    print(format_table(
        [{"workers": w, **metrics[w]} for w in (1, 4)],
        title=f"Executor pool scaling — modelled speedup {speedup:.2f}x",
    ))
    assert speedup >= 2.0, (
        f"4 workers sustain only {speedup:.2f}x the single-worker throughput "
        "on a 4-endpoint mixed stream (expected >= 2x)"
    )


@pytest.mark.smoke
def test_overload_sheds_instead_of_queueing_and_stays_fair():
    """Acceptance gate: past the capacity knee, p99 latency of *admitted*
    requests stays bounded (the shed rate rises instead), queues never exceed
    their bound, and WRR fairness ratios hold within 20%."""
    from repro.evaluation.saturation_study import saturation_rows, saturation_study

    # 12 deadlines of arrivals per row, not the study's 4: with ~0.7 ms batches
    # the deadline is ~9 ms, and 4 of them give each weight-1 lane ~12 batches
    # in the contended window — one batch either way is 8 % of a 20 % band.
    study = saturation_study(window_deadlines=12.0)
    rows = saturation_rows(study)
    print()
    print(format_table(
        rows,
        title=f"Saturation sweep — capacity {study['capacity_rps']} rps, "
              f"deadline {study['deadline_ms']} ms, queue depth {study['max_queue_depth']}",
    ))
    below_knee = rows[0]
    past_knee = [row for row in rows if row["multiplier"] >= 2.0]
    assert below_knee["shed_fraction"] <= 0.05, (
        f"router sheds {below_knee['shed_fraction']} of requests at half capacity"
    )
    assert past_knee, "the sweep never crossed the capacity knee"
    # One batch may still be in service when the deadline expires, so the
    # bound on an admitted request is deadline + a generous service allowance.
    latency_bound_ms = study["deadline_ms"] + 10 * study["mean_service_ms"]
    for row in past_knee:
        assert row["shed_fraction"] > below_knee["shed_fraction"], (
            f"at {row['multiplier']}x capacity the shed rate did not rise: {row}"
        )
        assert row["p99_ms"] <= latency_bound_ms, (
            f"p99 of admitted requests unbounded past the knee: "
            f"{row['p99_ms']} ms > {latency_bound_ms:.1f} ms at {row['multiplier']}x"
        )
        assert row["queue_high_water"] <= study["max_queue_depth"], (
            f"queue depth exceeded its bound: {row}"
        )
        assert row["fairness_worst"] <= 0.2, (
            f"WRR fairness drifted past 20% under overload: {row}"
        )
