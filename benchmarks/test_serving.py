"""Serving benchmarks: the acceptance gates of the compile→bind→execute split.

Two claims are gated here, on counters:

1. **Zero recompiles across sampled blocks** — one ``compile_model`` artefact
   serves ≥ 3 differently-sized minibatch blocks, and after warmup every
   per-block cache lookup is a *hit* returning the identical plan object
   (asserted via the compilation-cache hit/miss counters).
2. **Micro-batching amortises execution** — on one request stream, a
   micro-batched router endpoint runs one forward per batch of 16 requests
   where a batch-size-1 endpoint runs one per request, with a plan-replay
   rate of 1.0 on both.

Throughput and latency are measured by ``bench/run.py`` (``serve_req_per_s``,
``query_p50_ms``, ``query_p95_ms``); the scheduler's worker-scaling and
overload behaviour is checked on the virtual clock in
``tests/test_admission.py``, and multi-tenant isolation in
``tests/test_router.py``.
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
def test_microbatching_executes_one_forward_per_batch(model, monkeypatch):
    """Micro-batching amortises execution: one forward per batch of 16.

    Two endpoints on one router share the model, options, feature store,
    fanout and stream; only ``max_batch_size`` differs.  The block cache is
    off, so every batch samples its own block.  Counted, not timed: the
    served throughput is ``serve_req_per_s`` in ``bench/``.
    """
    from repro.runtime.binding import GraphBinding

    forwards = []
    forward = GraphBinding.forward

    def counting_forward(self, *args, **kwargs):
        forwards.append(self)
        return forward(self, *args, **kwargs)

    monkeypatch.setattr(GraphBinding, "forward", counting_forward)
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
    rows = []
    for name, batch_size in modes.items():  # one endpoint per stream
        del forwards[:]
        report = router.serve([(name, seeds) for seeds in stream])["endpoints"][name]
        endpoint = router.endpoint(name)
        rows.append({
            "mode": name, "requests": report["requests"], "batches": report["batches"],
            "forwards_per_request": len(forwards) / len(stream),
            "plan_replay_rate": report["plan_replay_rate"], "plan_recompiles": endpoint.plan_recompiles,
        })
        assert report["batches"] == endpoint.stats.num_batches == -(-len(stream) // batch_size)
        assert len(forwards) == report["batches"]
        assert report["plan_replay_rate"] == 1.0 and endpoint.plan_recompiles == 0
    print()
    print(format_table(rows, title=f"Serving — {model} on {graph.name}, forwards per request"))
    assert [row["forwards_per_request"] for row in rows] == [1.0, 1 / 16]


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
