"""Bind builds only what the plan reads: a context's compaction index is lazy.

Every sampled and served plan is U, so none of them reads the unique
``(source node, edge type)`` arrays; a C plan builds them once per context,
on first read.  Arenas are keyed by the unique-pair count only for plans that
size a buffer by it.
"""

import numpy as np
import pytest

import repro.graph.hetero_graph as hetero_graph
import repro.runtime.context as context
from repro.frontend import CompilerOptions, compile_model
from repro.frontend.config import CONFIGURATIONS
from repro.graph import HeteroGraph, random_hetero_graph, sample_block
from repro.graph.generators import random_labels
from repro.runtime import MultiLayerModule
from repro.runtime.context import GraphContext
from repro.serving import Router
from repro.train import MinibatchTrainer

DIM = 8


def _count_compaction_builds(monkeypatch) -> list:
    """Record the edge count of every compaction-index build, by graph or context."""
    builds = []
    build = hetero_graph.build_compaction_index

    def counted(src, etype, num_etypes):
        builds.append(len(src))
        return build(src, etype, num_etypes)

    monkeypatch.setattr(context, "build_compaction_index", counted, raising=False)
    monkeypatch.setattr(hetero_graph, "build_compaction_index", counted)
    return builds


@pytest.fixture(scope="module")
def parent_graph():
    return random_hetero_graph(
        num_nodes=150, num_edges=800, num_node_types=3, num_edge_types=6, seed=21, name="lazyparent",
    )


@pytest.fixture(scope="module")
def parent_features(parent_graph):
    return np.random.default_rng(4).standard_normal((parent_graph.num_nodes, DIM))


class TestUBindsBuildNothing:
    def test_router_serving_u_plans_builds_no_index(self, parent_graph, parent_features, monkeypatch):
        builds = _count_compaction_builds(monkeypatch)
        router = Router()
        stack = MultiLayerModule.build("rgat", parent_graph, dims=(DIM, DIM, DIM), seed=2)
        router.register("rgcn", "rgcn", parent_graph, in_dim=DIM, out_dim=DIM, fanouts=(4,),
                        features=parent_features, options=CompilerOptions(emit_backward=False))
        router.register("rgat", "rgat", parent_graph, in_dim=DIM, out_dim=DIM, fanouts=(4,),
                        features=parent_features, options=CompilerOptions(emit_backward=False))
        router.register("stack", stack, parent_graph, fanouts=(4, 2), features=parent_features)
        seeds = np.random.default_rng(1).integers(0, parent_graph.num_nodes, (6, 3))
        stream = [(name, row) for row in seeds for name in ("rgcn", "rgat", "stack")]
        router.serve(stream)
        for name in ("rgcn", "rgat", "stack"):
            assert np.isfinite(router.query(name, seeds[0])).all()
            assert router.endpoint(name).stats.num_requests == len(seeds) + 1
        assert builds == []

    @pytest.mark.parametrize("per_hop", [True, False])
    def test_minibatch_epoch_of_a_u_stack_builds_no_index(self, parent_graph, parent_features,
                                                          per_hop, monkeypatch):
        builds = _count_compaction_builds(monkeypatch)
        stack = MultiLayerModule.build("rgat", parent_graph, dims=(DIM, DIM, DIM), seed=5)
        labels = random_labels(parent_graph, DIM, seed=1)
        trainer = MinibatchTrainer(stack, parent_graph, parent_features, labels, optimizer="adam",
                                   lr=0.02, batch_size=32, fanouts=(4, 2), per_hop=per_hop)
        record = trainer.epoch()
        assert record.num_minibatches > 1 and np.isfinite(record.loss)
        assert builds == []

    @pytest.mark.parametrize("model", ["rgcn", "rgat", "hgt"])
    def test_a_c_plus_r_binding_builds_one_index_and_matches_a_forced_one(
        self, parent_graph, parent_features, model, monkeypatch
    ):
        options = CONFIGURATIONS["C+R"].with_(enable_compilation_cache=False)
        module = compile_model(model, parent_graph, in_dim=DIM, out_dim=DIM, options=options, seed=3)
        seeds = np.array([3, 40, 77, 120])
        lazy, forced = (sample_block(parent_graph, seeds, fanouts=(4,), seed=6) for _ in range(2))
        forced.graph.compaction  # built by the graph before binding: the context shares it
        builds = _count_compaction_builds(monkeypatch)
        results = []
        for block in (lazy, forced):
            module.zero_grad()
            binding = module.bind(block.graph)
            out = binding.forward(block.gather_features(parent_features))[module.output_name]
            grads = binding.backward({module.output_name: np.ones_like(out)})
            results.append([out.tobytes()] + [grads[name].tobytes() for name in sorted(grads)])
        assert builds == [lazy.num_edges]
        assert binding.ctx.compaction is forced.graph.compaction
        assert results[0] == results[1]


def _two_relation_graph(sources: np.ndarray, name: str) -> HeteroGraph:
    """20 + 20 nodes, 16 edges per relation; ``sources`` sets the unique-pair count."""
    dst = np.arange(16)
    return HeteroGraph({"a": 20, "b": 20}, {("a", "ab", "b"): (sources, dst), ("b", "ba", "a"): (sources, dst)},
                       name=name)


class TestArenaKeysAndAccounting:
    @pytest.fixture(scope="class")
    def graphs(self):
        shared = _two_relation_graph(np.zeros(16, dtype=np.int64), "shared-src")
        distinct = _two_relation_graph(np.arange(16), "distinct-src")
        assert (shared.num_nodes, shared.num_edges) == (distinct.num_nodes, distinct.num_edges)
        assert (shared.compaction.num_unique, distinct.compaction.num_unique) == (2, 32)
        return shared, distinct

    @pytest.mark.parametrize("config, arenas", [("U", 1), ("C", 2)])
    def test_unique_pairs_enter_the_bucket_key_only_for_c_plans(self, graphs, config, arenas):
        shared, distinct = graphs
        options = CONFIGURATIONS[config].with_(emit_backward=False)
        module = compile_model("rgat", shared, in_dim=DIM, out_dim=DIM, options=options)
        first, second = (module.bind(graph) for graph in graphs)
        stats = module.arena_source.stats
        assert (stats.misses, stats.hits) == (arenas, 2 - arenas)
        assert (first.arena is second.arena) == (arenas == 1)
        assert module.memory_planner.sizes_by_unique_pairs == (config == "C")

    def test_full_graph_context_decided_c_shares_the_graphs_index(self):
        graph = random_hetero_graph(num_nodes=150, num_edges=800, num_node_types=3, num_edge_types=6, seed=21)
        module = compile_model("rgat", graph, in_dim=DIM, out_dim=DIM, options=CompilerOptions(emit_backward=False))
        assert module.summary()["configuration"] == "C"  # the decision read graph.compaction before binding
        index = graph.compaction
        for attr in ("unique_src", "unique_etype", "unique_etype_ptr", "edge_to_unique"):
            assert getattr(module.ctx, attr) is getattr(index, attr)
        assert module.ctx.num_unique == index.num_unique

    def test_context_cached_before_the_c_decision_still_shares_the_index(self):
        graph = random_hetero_graph(num_nodes=150, num_edges=800, num_node_types=3, num_edge_types=6, seed=21)
        served = compile_model("rgat", graph, in_dim=DIM, out_dim=DIM, options=CONFIGURATIONS["U"])
        assert "compaction" not in graph.__dict__ and "compaction" not in served.ctx.__dict__
        module = compile_model("rgat", graph, in_dim=DIM, out_dim=DIM, options=CompilerOptions(emit_backward=False))
        assert module.ctx is served.ctx and module.summary()["configuration"] == "C"
        assert module.ctx.compaction is graph.compaction

    def test_index_array_bytes_counts_only_built_arrays(self, parent_graph):
        block = sample_block(parent_graph, [0, 10, 20], fanouts=(4,), seed=1)
        ctx = GraphContext.from_graph(block.graph)
        unread = ctx.index_array_bytes()
        assert "compaction" not in ctx.__dict__  # measuring did not build it
        index = ctx.compaction
        built = sum(a.nbytes for a in (index.unique_src, index.unique_etype, index.unique_etype_ptr,
                                       index.edge_to_unique))
        assert ctx.index_array_bytes() == unread + built
