"""Multi-layer stacks served through router endpoints.

The per-seed/per-hop block cache unblocked :class:`MultiLayerModule` serving:
an endpoint that adopts a stack samples per-hop blocks, assembles them from
per-seed cached draws, and executes layer-by-hop through ``forward_blocks``.
These tests pin the correctness contract — endpoint rows match
``forward_full`` at the seeds for every model family — plus the budget and
cache plumbing specific to stacks (one tenant per planned layer, per-hop
entries in the per-seed cache).
"""

import numpy as np
import pytest

from repro.frontend import CompilerOptions
from repro.graph import random_hetero_graph
from repro.models import MODEL_NAMES
from repro.runtime import MultiLayerModule
from repro.serving import Router

DIM = 8
OPTIONS = CompilerOptions(emit_backward=False)
SEEDS = np.array([1, 7, 19, 33, 50])


@pytest.fixture(scope="module")
def graph():
    return random_hetero_graph(
        num_nodes=60, num_edges=300, num_node_types=3, num_edge_types=6,
        seed=3, name="stack-graph",
    )


@pytest.fixture(scope="module")
def features(graph):
    return np.random.default_rng(0).standard_normal((graph.num_nodes, DIM))


@pytest.fixture(scope="module")
def stacks(graph):
    return {
        model: MultiLayerModule.build(model, graph, dims=(DIM, DIM, DIM),
                                      options=OPTIONS, seed=5)
        for model in MODEL_NAMES
    }


class TestStackEndpoints:
    @pytest.mark.parametrize("model", MODEL_NAMES)
    def test_endpoint_rows_match_forward_full_at_seeds(self, model, graph, features, stacks):
        stack = stacks[model]
        full = stack.forward_full(features).output
        router = Router(arena_capacity_bytes=64 << 20)
        router.register(f"{model}-stack", stack, graph,
                        fanouts=(None, None), features=features)
        rows = router.query(f"{model}-stack", SEEDS)
        np.testing.assert_allclose(rows, full[SEEDS], atol=1e-8)

    def test_served_stream_matches_forward_full_per_request(self, graph, features, stacks):
        """A timed multi-request stream through ``serve`` (micro-batched,
        per-hop cached) returns the full-graph rows for every request."""
        stack = stacks["rgcn"]
        full = stack.forward_full(features).output
        router = Router(arena_capacity_bytes=64 << 20)
        router.register("stack", stack, graph, fanouts=(None, None),
                        features=features, max_batch_size=4)
        rng = np.random.default_rng(3)
        stream = [
            ("stack", rng.choice(graph.num_nodes, size=3, replace=False), index * 0.001)
            for index in range(12)
        ]
        report = router.serve(stream)
        assert report["serve"]["completed"] == len(stream)
        for request in router.last_served:
            assert request.status == "done"
            np.testing.assert_allclose(request.result, full[request.seeds], atol=1e-8)

    def test_layer_tenants_appear_in_the_shared_budget(self, graph, features, stacks):
        router = Router(arena_capacity_bytes=64 << 20)
        router.register("stack", stacks["rgat"], graph,
                        fanouts=(None, None), features=features)
        router.query("stack", SEEDS)
        tenants = router.report()["arena_budget"]["tenants"]
        layer_tenants = {name for name in tenants if name.startswith("stack/layer")}
        assert layer_tenants == {"stack/layer0", "stack/layer1"}
        for name in layer_tenants:
            assert tenants[name]["misses"] >= 1, f"{name} never built an arena"

    def test_per_seed_cache_serves_repeated_stack_batches(self, graph, features, stacks):
        router = Router(arena_capacity_bytes=64 << 20)
        router.register("stack", stacks["hgt"], graph,
                        fanouts=(None, None), features=features)
        endpoint = router.endpoint("stack")
        first = router.query("stack", SEEDS)
        hits_before = endpoint.block_cache_hits
        second = router.query("stack", SEEDS)
        assert endpoint.block_cache_hits == hits_before + 1
        np.testing.assert_array_equal(first, second)
        # Per-hop entries: one edge-id array per layer in each seed's draw.
        entry = endpoint._seed_cache[int(SEEDS[0])]
        assert isinstance(entry.positions, list) and len(entry.positions) == 2
        assert all(isinstance(hop, np.ndarray) and hop.dtype == np.int64 for hop in entry.positions)

    def test_stack_needs_one_fanout_per_layer(self, graph, features, stacks):
        router = Router()
        with pytest.raises(ValueError, match="one fanout per layer"):
            router.register("stack", stacks["rgcn"], graph,
                            fanouts=(None,), features=features)
        # The failed registration left no phantom tenants behind.
        assert router.report()["arena_budget"]["tenants"] == {}
        assert "stack" not in router
