"""Tests of the frontend entry points, the graph context, and the executor."""

import numpy as np
import pytest

from repro.frontend import CompilerOptions, compile_model, compile_program, hector_compile
from repro.frontend.config import CONFIGURATIONS
from repro.models import build_program
from repro.runtime import GraphContext, PlanExecutor
from repro.ir.codegen import get_backend


class TestGraphContext:
    def test_context_arrays_consistent(self, small_graph):
        ctx = GraphContext.from_graph(small_graph)
        assert ctx.num_edges == small_graph.num_edges
        assert ctx.etype_ptr[-1] == ctx.num_edges
        assert ctx.unique_etype_ptr[-1] == ctx.num_unique
        assert len(ctx.edge_to_unique) == ctx.num_edges
        assert len(ctx.etype_to_src_ntype) == ctx.num_etypes
        # Every edge's source node type matches the canonical relation's source type.
        np.testing.assert_array_equal(
            ctx.node_type_ids[ctx.edge_src], ctx.etype_to_src_ntype[ctx.edge_type]
        )
        np.testing.assert_array_equal(
            ctx.node_type_ids[ctx.edge_dst], ctx.etype_to_dst_ntype[ctx.edge_type]
        )

    def test_degree_normalization_and_index_bytes(self, small_graph):
        ctx = GraphContext.from_graph(small_graph)
        norm = ctx.degree_normalization()
        assert norm.shape == (ctx.num_edges,)
        assert np.all((0 < norm) & (norm <= 1.0))
        assert ctx.index_array_bytes() > 0


class TestExecutor:
    def test_missing_inputs_detected(self, small_graph):
        result = compile_program(build_program("rgcn", in_dim=4, out_dim=4))
        executor = PlanExecutor(result.plan, result.generated)
        ctx = GraphContext.from_graph(small_graph)
        with pytest.raises(KeyError):
            executor.run_forward({}, ctx)

    def test_backward_requires_known_output(self, small_graph):
        result = compile_program(build_program("rgcn", in_dim=4, out_dim=4))
        executor = PlanExecutor(result.plan, result.generated)
        ctx = GraphContext.from_graph(small_graph)
        env = {
            "h": np.zeros((small_graph.num_nodes, 4)),
            "norm": np.ones(small_graph.num_edges),
            "W": np.zeros((small_graph.num_edge_types, 4, 4)),
            "W0": np.zeros((4, 4)),
        }
        executor.run_forward(env, ctx)
        with pytest.raises(KeyError):
            executor.run_backward(env, ctx, {"not_an_output": np.zeros(1)})


class TestFrontend:
    def test_compile_model_rejects_unknown_model(self, small_graph):
        with pytest.raises(KeyError):
            compile_model("gcn", small_graph)

    def test_options_with_override(self):
        options = CompilerOptions()
        modified = options.with_(compact_materialization=True)
        assert modified.compact_materialization and not options.compact_materialization
        assert set(CONFIGURATIONS) == {"U", "C", "R", "C+R"}

    def test_hector_compile_decorator_end_to_end(self, small_graph):
        dim = 4

        @hector_compile(in_dim=dim, out_dim=dim)
        def simple_layer(g):
            h = g.input_node_feature("h", dim)
            W = g.weight("W", (dim, dim))
            msg = g.typed_linear(h, W, "msg")
            g.mark_output(g.aggregate(msg, "out"))

        module = simple_layer(small_graph)
        features = np.random.default_rng(0).standard_normal((small_graph.num_nodes, dim))
        out = module.forward(features)["out"]
        assert out.shape == (small_graph.num_nodes, dim)
        # Manual check: sum of transformed source features per destination.
        W = module.parameters_by_name["W"].data
        expected = np.zeros_like(out)
        msg = np.einsum("ed,edf->ef", features[small_graph.edge_src],
                        W[small_graph.edge_type])
        np.add.at(expected, small_graph.edge_dst, msg)
        np.testing.assert_allclose(out, expected, atol=1e-8)

    def test_inference_only_compilation(self):
        result = compile_program(build_program("rgat"), CompilerOptions(emit_backward=False))
        assert result.plan.backward_kernels == []
        module = get_backend("python-interp").generate(result.plan)
        assert module.backward_functions == {}

    def test_backward_on_a_forward_only_plan_is_an_error(self, small_graph):
        module = compile_model("rgcn", small_graph, in_dim=4, out_dim=4,
                               options=CompilerOptions(emit_backward=False))
        features = np.random.default_rng(0).standard_normal((small_graph.num_nodes, 4))
        out = module.forward(features)[module.output_name]
        with pytest.raises(RuntimeError, match="emit_backward=False"):
            module.backward({module.output_name: np.ones_like(out)})


class TestReferenceModels:
    def test_reference_load_parameters_validation(self, small_graph):
        from repro.models import REFERENCE_CLASSES
        reference = REFERENCE_CLASSES["rgcn"](small_graph, 4, 4)
        with pytest.raises(KeyError):
            reference.load_parameters({"bogus": np.zeros((1,))})
        with pytest.raises(ValueError):
            reference.load_parameters({"W0": np.zeros((3, 3))})

    def test_reference_output_shapes(self, small_graph, small_features):
        from repro.models import REFERENCE_CLASSES
        for model, key in (("rgcn", "h_out"), ("rgat", "out"), ("hgt", "h_out")):
            reference = REFERENCE_CLASSES[model](small_graph, 8, 8)
            out = reference.forward(small_features)
            assert out[key].shape == (small_graph.num_nodes, 8)

    def test_hgt_without_residual_when_dims_differ(self, small_graph, small_features):
        from repro.models import REFERENCE_CLASSES
        reference = REFERENCE_CLASSES["hgt"](small_graph, 8, 16)
        out = reference.forward(small_features)
        assert out["h_out"].shape == (small_graph.num_nodes, 16)
        program = build_program("hgt", in_dim=8, out_dim=16)
        program.validate()
