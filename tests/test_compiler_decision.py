"""Unset pass switches: the compiler decides C and R from graph statistics.

``CompilerOptions.resolved(graph)`` is the one place the decision is made;
everything downstream (cache keys, emitted source, numerics) must be unable to
tell a compiler-decided compile from the same configuration spelt out.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.frontend import CompilerOptions, compile_model, compile_program, hector_compile
from repro.frontend.cache import make_cache_key
from repro.frontend.config import CONFIGURATIONS
from repro.graph import HeteroGraph, random_hetero_graph
from repro.ir.codegen.helpers import _scatter_add
from repro.models import build_program
from repro.runtime import MultiLayerModule
from repro.serving import Router

BACKENDS = ("python-interp", "python-codegen", "mixed")


def _stats(ratio, edges, relations):
    """A stand-in exposing exactly what the rule may read."""
    return SimpleNamespace(entity_compaction_ratio=ratio, num_edges=edges, num_edge_types=relations)


@pytest.fixture(scope="module")
def low_ratio_graph() -> HeteroGraph:
    """Few sources, long relation segments: the rule decides C+R."""
    graph = random_hetero_graph(num_nodes=60, num_edges=3600, num_node_types=2, num_edge_types=3, seed=2)
    assert graph.entity_compaction_ratio <= 0.5 and graph.num_edges >= 1000 * graph.num_edge_types
    return graph


@pytest.fixture(scope="module")
def sparse_graph() -> HeteroGraph:
    """Almost every edge has its own source, 50 edges per relation: the rule decides U."""
    return random_hetero_graph(num_nodes=900, num_edges=300, num_node_types=3, num_edge_types=6, seed=2)


class TestRule:
    @pytest.mark.parametrize(
        "ratio, edges, relations, label",
        [
            (0.50, 3000, 3, "C+R"),    # both thresholds, inclusive side
            (0.51, 3000, 3, "R"),      # ratio just over: no compaction
            (0.50, 2999, 3, "C"),      # segment just under: no reordering
            (0.51, 2999, 3, "U"),
            (0.19, 19200, 3, "C+R"),   # the five bench graphs
            (0.24, 28000, 12, "C+R"),
            (0.43, 18000, 12, "C+R"),
            (0.79, 12000, 48, "U"),
            (0.97, 960, 12, "U"),      # a fanout-bounded sampled block
            (1.00, 0, 3, "U"),         # no edges at all
            (0.10, 0, 0, "U"),         # no relations either: 0 >= 1000 * 0 must not read as "long segments"
        ],
    )
    def test_thresholds(self, ratio, edges, relations, label):
        assert CompilerOptions().resolved(_stats(ratio, edges, relations)).label() == label

    def test_no_graph_decides_u(self):
        resolved = CompilerOptions(backend="python-codegen", emit_backward=False).resolved()
        assert (resolved.compact_materialization, resolved.linear_operator_reordering) == (False, False)
        assert (resolved.backend, resolved.emit_backward) == ("python-codegen", False)

    def test_real_graphs(self, low_ratio_graph, sparse_graph):
        assert CompilerOptions().resolved(low_ratio_graph).label() == "C+R"
        assert CompilerOptions().resolved(sparse_graph).label() == "U"
        none = np.zeros(0, dtype=np.int64)
        empty = HeteroGraph({"a": 3}, {("a", "r", "a"): (none, none)})
        assert CompilerOptions().resolved(empty).label() == "U"
        # A zero-edge relation only lengthens the divisor of the mean segment.
        src = np.arange(2000) % 4
        lopsided = HeteroGraph({"a": 4}, {("a", "full", "a"): (src, src), ("a", "empty", "a"): (none, none)})
        assert CompilerOptions().resolved(lopsided).label() == "C+R"
        tail = {("a", f"empty{i}", "a"): (none, none) for i in range(2)}
        diluted = HeteroGraph({"a": 4}, {("a", "full", "a"): (src, src), **tail})
        assert CompilerOptions().resolved(diluted).label() == "C"

    @pytest.mark.parametrize("switch", ["compact_materialization", "linear_operator_reordering"])
    @pytest.mark.parametrize("value", [True, False])
    def test_an_explicit_switch_beats_the_rule(self, switch, value):
        other = ({"compact_materialization", "linear_operator_reordering"} - {switch}).pop()
        for stats, decided in ((_stats(0.1, 9000, 3), True), (_stats(0.9, 90, 3), False)):
            resolved = CompilerOptions(**{switch: value}).resolved(stats)
            assert getattr(resolved, switch) is value
            assert getattr(resolved, other) is decided

    def test_fully_set_options_resolve_to_themselves(self):
        for label, options in CONFIGURATIONS.items():
            assert options.compact_materialization is not None and options.linear_operator_reordering is not None
            assert options.resolved(_stats(0.1, 9000, 3)) is options and options.label() == label

    def test_unresolved_options_have_no_key(self, small_graph):
        program = build_program("rgcn", in_dim=4, out_dim=4)
        for options in (CompilerOptions(), CompilerOptions(compact_materialization=False),
                        CompilerOptions(linear_operator_reordering=True)):
            with pytest.raises(ValueError, match="unresolved"):
                options.cache_key()
            with pytest.raises(ValueError, match="unresolved"):
                make_cache_key(program, options, small_graph)
        assert CompilerOptions().resolved().cache_key() == CONFIGURATIONS["U"].cache_key()

    def test_dict_round_trip_keeps_unset(self):
        options = CompilerOptions(linear_operator_reordering=True)
        again = CompilerOptions.from_dict(options.to_dict())
        assert again == options and again.compact_materialization is None


class TestCompilerDecidedEqualsExplicit:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("model", ["rgcn", "rgat", "hgt"])
    def test_same_plan_source_and_bytes(self, model, backend, low_ratio_graph):
        dim = 8
        decided = compile_model(model, low_ratio_graph, dim, dim, CompilerOptions(backend=backend), seed=1)
        pinned = CONFIGURATIONS["C+R"].with_(backend=backend)
        explicit = compile_model(model, low_ratio_graph, dim, dim, pinned, seed=1)
        assert decided.plan is explicit.plan, "one compilation-cache entry"
        assert decided.plan.name.endswith("_C+R")
        uncached = compile_model(model, low_ratio_graph, dim, dim,
                                 CompilerOptions(backend=backend, enable_compilation_cache=False), seed=1)
        assert uncached.plan is not explicit.plan
        assert uncached.generated.source == explicit.generated.source
        features = np.random.default_rng(0).standard_normal((low_ratio_graph.num_nodes, dim))
        results = []
        for module in (uncached, explicit):
            out = module.forward(features)[module.output_name]
            grads = module.backward({module.output_name: np.ones_like(out)})
            results.append((out.tobytes(), {name: grad.tobytes() for name, grad in grads.items()}))
        assert results[0] == results[1]

    def test_summary_says_who_decided_and_why(self, low_ratio_graph, sparse_graph):
        decided = compile_model("rgat", low_ratio_graph, 8, 8).summary()
        assert (decided["configuration"], decided["decided_by"]) == ("C+R", "compiler")
        assert decided["entity_compaction_ratio"] == low_ratio_graph.entity_compaction_ratio
        assert decided["edges_per_relation"] == 1200.0
        pinned = compile_model("rgat", low_ratio_graph, 8, 8, CONFIGURATIONS["U"]).summary()
        assert (pinned["configuration"], pinned["decided_by"]) == ("U", "options")
        assert "entity_compaction_ratio" not in pinned
        assert compile_model("rgat", sparse_graph, 8, 8).summary()["configuration"] == "U"

    def test_compile_program_alone_decides_u(self, low_ratio_graph):
        program = build_program("rgat", in_dim=8, out_dim=8)
        unset = compile_program(program, CompilerOptions(), graph=low_ratio_graph)
        assert (unset.configuration, unset.decided_by) == ("U", "compiler")
        explicit = compile_program(program, CONFIGURATIONS["U"], graph=low_ratio_graph)
        assert (explicit.configuration, explicit.decided_by) == ("U", "options")
        assert explicit.plan is unset.plan and explicit.generated is unset.generated

    def test_decorator_path_agrees_with_compile_model(self, low_ratio_graph):
        dim = 8

        @hector_compile(in_dim=dim, out_dim=dim, options=CompilerOptions(backend="python-codegen"))
        def rgcn(g):  # build_rgcn_program, spelt through the decorator
            from repro.ir.inter_op.space import LoopContext, NodeBinding

            h, norm = g.input_node_feature("h"), g.input_edge_scalar("norm")
            W = g.weight("W", (dim, dim), per_type="edge_type")
            W0 = g.weight("W0", (dim, dim), per_type=None)
            wmsg = g.scale(g.typed_linear(h, W, "msg", binding=NodeBinding.SRC), norm, "wmsg")
            agg = g.aggregate(wmsg, "agg")
            self_msg = g.linear(h, W0, "self_msg", context=LoopContext.NODEWISE)
            h_pre = g.binary("add", agg, self_msg, "h_pre", context=LoopContext.NODEWISE)
            g.mark_output(g.unary("relu", h_pre, "h_out", context=LoopContext.NODEWISE))

        decorated = rgcn(low_ratio_graph)
        named = compile_model("rgcn", low_ratio_graph, dim, dim, backend="python-codegen")
        assert decorated.summary()["configuration"] == named.summary()["configuration"] == "C+R"
        assert decorated.summary()["decided_by"] == "compiler"
        # The factory compiles with its graph: same schema-qualified entry, segment loops unrolled.
        assert decorated.plan is named.plan and decorated.generated.source == named.generated.source
        features = np.random.default_rng(0).standard_normal((low_ratio_graph.num_nodes, dim))
        assert decorated.forward(features)["h_out"].tobytes() == named.forward(features)["h_out"].tobytes()


class TestSampledBlockPlansKeepU:
    def test_multilayer_build(self, low_ratio_graph):
        options = CompilerOptions(backend="python-codegen")
        stack = MultiLayerModule.build("hgt", low_ratio_graph, [8, 8, 8], options=options)
        pinned = MultiLayerModule.build("hgt", low_ratio_graph, [8, 8, 8],
                                        options=CONFIGURATIONS["U"].with_(backend="python-codegen"))
        for layer, reference in zip(stack.modules, pinned.modules):
            assert layer.plan is reference.plan and layer.generated.source == reference.generated.source
            assert layer.summary()["configuration"] == "U" and layer.summary()["decided_by"] == "compiler"
            assert reference.summary()["decided_by"] == "options"

    def test_router_register(self, low_ratio_graph):
        router = Router()
        options = CompilerOptions(backend="python-codegen", emit_backward=False)
        served = router.register("decided", "hgt", low_ratio_graph, in_dim=8, out_dim=8, options=options).module
        explicit_u = CONFIGURATIONS["U"].with_(backend="python-codegen", emit_backward=False)
        pinned = router.register("pinned", "hgt", low_ratio_graph, in_dim=8, out_dim=8, options=explicit_u).module
        assert served.plan is pinned.plan and served.generated.source == pinned.generated.source
        assert served.summary()["configuration"] == "U" and served.summary()["decided_by"] == "compiler"
        router.query("decided", [0, 1, 2])
        assert router.endpoint("decided").stats.plan_replay_rate == 1.0
        # A module the caller compiled against the parent keeps the parent's decision.
        adopted = compile_model("hgt", low_ratio_graph, 8, 8, options)
        assert router.register("adopted", adopted, low_ratio_graph).module.summary()["configuration"] == "C+R"


class TestScatterOfMatrixContributions:
    """``[T, d, d]`` adjoints scattered through ``etype_to_src_ntype`` (HGT under R)."""

    @pytest.mark.parametrize("fresh", [False, True])
    def test_matches_add_at_and_is_deterministic(self, fresh):
        rng = np.random.default_rng(5)
        idx = rng.integers(1, 5, 48)  # rows 0 and 5 receive nothing
        contrib = rng.standard_normal((48, 6, 7))
        start = rng.standard_normal((6, 6, 7))
        expected = np.zeros_like(start) if fresh else start.copy()
        np.add.at(expected, idx, contrib)
        runs = []
        for _ in range(2):
            target = start.copy()
            _scatter_add(target, idx, contrib, fresh=fresh)
            np.testing.assert_allclose(target, expected, rtol=0, atol=1e-12)
            runs.append(target.tobytes())
        assert runs[0] == runs[1]

    def test_non_contiguous_target_keeps_the_unbuffered_path(self):
        rng = np.random.default_rng(6)
        idx = rng.integers(0, 4, 20)
        contrib = rng.standard_normal((20, 3, 5))
        backing = np.zeros((4, 5, 3))
        target = backing.transpose(0, 2, 1)  # a [4, 3, 5] view that reshape would have to copy
        _scatter_add(target, idx, contrib)
        expected = np.zeros((4, 3, 5))
        np.add.at(expected, idx, contrib)
        np.testing.assert_allclose(target, expected, rtol=0, atol=1e-12)
        assert np.shares_memory(target, backing) and backing.any()
