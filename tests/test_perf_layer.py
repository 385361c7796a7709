"""Tests of the compilation cache, the fusion passes, and executor seeding."""

import numpy as np
import pytest

from repro.frontend import (
    CompilationCache,
    CompilerOptions,
    clear_compilation_cache,
    compile_program,
    global_compilation_cache,
)
from repro.frontend.cache import fingerprint_graph_schema, fingerprint_program, make_cache_key
from repro.ir.inter_op.passes import ElementwiseFusionPass
from repro.ir.inter_op.lowering import LoweringOptions, fuse_adjacent_traversal_kernels, lower_program
from repro.ir.intra_op.kernels import TraversalKernel
from repro.ir.intra_op.schedule import TraversalSchedule, merge_traversal_schedules, traversal_schedules_compatible
from repro.models import build_program
from repro.runtime import GraphContext, PlanExecutor


class TestProgramFingerprint:
    def test_independent_builds_fingerprint_identically(self):
        a = build_program("rgat", in_dim=16, out_dim=16)
        b = build_program("rgat", in_dim=16, out_dim=16)
        assert a is not b
        assert fingerprint_program(a) == fingerprint_program(b)

    def test_fingerprint_distinguishes_models_and_dims(self):
        base = fingerprint_program(build_program("rgat", in_dim=16, out_dim=16))
        assert fingerprint_program(build_program("hgt", in_dim=16, out_dim=16)) != base
        assert fingerprint_program(build_program("rgat", in_dim=32, out_dim=16)) != base

    def test_graph_schema_fingerprint(self, small_graph, tiny_graph):
        assert fingerprint_graph_schema(small_graph) == fingerprint_graph_schema(small_graph)
        assert fingerprint_graph_schema(small_graph) != fingerprint_graph_schema(tiny_graph)


class TestCompilationCache:
    def test_cache_hit_returns_same_result(self):
        cache = CompilationCache()
        options = CompilerOptions()
        first = compile_program(build_program("rgcn", in_dim=8, out_dim=8), options, cache=cache)
        second = compile_program(build_program("rgcn", in_dim=8, out_dim=8), options, cache=cache)
        assert first is second
        assert cache.stats.hits == 1 and cache.stats.misses == 1
        assert len(cache) == 1

    def test_option_changes_miss(self):
        cache = CompilationCache()
        program = build_program("rgcn", in_dim=8, out_dim=8)
        compile_program(program, CompilerOptions(), cache=cache)
        compile_program(program, CompilerOptions(compact_materialization=True), cache=cache)
        assert len(cache) == 2
        assert cache.stats.hits == 0

    def test_disabled_cache_rebuilds(self):
        options = CompilerOptions(enable_compilation_cache=False)
        program = build_program("rgcn", in_dim=8, out_dim=8)
        first = compile_program(program, options)
        second = compile_program(program, options)
        assert first is not second

    def test_global_cache_clear(self):
        clear_compilation_cache()
        compile_program(build_program("rgcn", in_dim=8, out_dim=8), CompilerOptions())
        assert len(global_compilation_cache()) >= 1
        clear_compilation_cache()
        assert len(global_compilation_cache()) == 0
        assert global_compilation_cache().stats.lookups == 0

    def test_schema_qualifies_key(self, small_graph, tiny_graph):
        program = build_program("rgcn", in_dim=8, out_dim=8)
        options = CompilerOptions().resolved()  # unresolved options have no key
        key_a = make_cache_key(program, options, small_graph)
        key_b = make_cache_key(program, options, tiny_graph)
        key_none = make_cache_key(program, options)
        assert key_a != key_b and key_a != key_none


class TestElementwiseFusion:
    def test_pass_preserves_validity_and_operator_set(self):
        program = build_program("hgt", in_dim=8, out_dim=8)
        before = {op.name for op in program.operators}
        fused = ElementwiseFusionPass().run(program.clone())
        fused.validate()
        assert {op.name for op in fused.operators} == before
        assert fused.metadata["fusion_groups"] >= 1

    def test_fusion_reduces_hgt_traversal_kernels(self):
        unfused = compile_program(
            build_program("hgt", in_dim=8, out_dim=8),
            CompilerOptions(enable_compilation_cache=False),
        )
        fused = compile_program(
            build_program("hgt", in_dim=8, out_dim=8),
            CompilerOptions(enable_compilation_cache=False, fuse_elementwise=True),
        )
        assert (fused.plan.summary()["num_traversal_kernels"]
                < unfused.plan.summary()["num_traversal_kernels"])

    def test_plan_level_merge_recovers_fusion_from_unfused_lowering(self):
        """fuse_adjacent_traversal_kernels alone rebuilds what greedy fusion does."""
        program = build_program("hgt", in_dim=8, out_dim=8)
        plan = lower_program(program, LoweringOptions(enable_fusion=False, emit_backward=False))
        unfused_count = len([k for k in plan.forward_kernels if isinstance(k, TraversalKernel)])
        merges = fuse_adjacent_traversal_kernels(plan, program)
        merged_count = len([k for k in plan.forward_kernels if isinstance(k, TraversalKernel)])
        assert merges >= 1
        assert merged_count == unfused_count - merges
        assert plan.metadata["merged_traversal_kernels"] == merges
        plan.validate()
        # Values consumed only inside a merged kernel become fused locals.
        merged_kernels = [k for k in plan.forward_kernels
                          if isinstance(k, TraversalKernel) and len(k.source_ops) > 1]
        assert any(k.local_values for k in merged_kernels)

    def test_fused_plan_numerically_identical(self, small_graph):
        from repro.runtime import CompiledRGNNModule
        features = np.random.default_rng(1).standard_normal((small_graph.num_nodes, 8))
        for model in ("rgcn", "rgat", "hgt"):
            plain = compile_program(build_program(model, in_dim=8, out_dim=8),
                                    CompilerOptions(enable_compilation_cache=False))
            fused = compile_program(build_program(model, in_dim=8, out_dim=8),
                                    CompilerOptions(enable_compilation_cache=False, fuse_elementwise=True))
            m0 = CompiledRGNNModule(plain.plan, plain.generated, small_graph, seed=4)
            m1 = CompiledRGNNModule(fused.plan, fused.generated, small_graph, seed=4)
            out0, out1 = m0.forward(features), m1.forward(features)
            for name in out0:
                np.testing.assert_allclose(out0[name], out1[name], atol=1e-10)
            g0 = m0.backward({k: np.ones_like(v) for k, v in out0.items()})
            g1 = m1.backward({k: np.ones_like(v) for k, v in out1.items()})
            for name in g0:
                np.testing.assert_allclose(g0[name], g1[name], atol=1e-10)

    def test_merge_requires_compatible_schedules(self):
        a = TraversalSchedule(rows_per_block=128)
        b = TraversalSchedule(rows_per_block=64)
        assert traversal_schedules_compatible(a, a)
        assert not traversal_schedules_compatible(a, b)
        with pytest.raises(ValueError):
            merge_traversal_schedules(a, b)

    def test_adjacent_merge_respects_aggregation_barrier(self):
        program = ElementwiseFusionPass().run(build_program("hgt", in_dim=8, out_dim=8).clone())
        plan = lower_program(program, LoweringOptions(emit_backward=False))
        fuse_adjacent_traversal_kernels(plan, program)
        traversals = [k for k in plan.forward_kernels if isinstance(k, TraversalKernel)]
        for previous, current in zip(traversals, traversals[1:]):
            # Any still-unmerged adjacent pair must be separated by a barrier
            # or a domain change — never left unmerged gratuitously.
            if plan.forward_kernels.index(current) - plan.forward_kernels.index(previous) == 1:
                assert (previous.domain is not current.domain
                        or any(op.kind == "scatter_add" for op in previous.micro_ops))


class TestGeneratedPrograms:
    def test_fused_program_functions_generated(self):
        result = compile_program(build_program("rgat", in_dim=8, out_dim=8),
                                 CompilerOptions(enable_compilation_cache=False))
        assert result.generated.forward_program is not None
        assert result.generated.backward_program is not None
        assert "def hector_forward(env, ctx):" in result.generated.source

    def test_cuda_source_contains_fused_launch_sequence(self):
        result = compile_program(build_program("hgt", in_dim=8, out_dim=8),
                                 CompilerOptions(enable_compilation_cache=False, fuse_elementwise=True))
        source = result.cuda_source()
        assert "fused forward program" in source
        assert "fused from operators:" in source


class TestBackwardSeeding:
    def _executor_env(self, small_graph, dtype=np.float64):
        result = compile_program(build_program("rgcn", in_dim=4, out_dim=4),
                                 CompilerOptions(enable_compilation_cache=False,
                                                 enable_memory_planning=False))
        executor = PlanExecutor(result.plan, result.generated)
        ctx = GraphContext.from_graph(small_graph)
        rng = np.random.default_rng(0)
        env = {
            "h": rng.standard_normal((small_graph.num_nodes, 4)).astype(dtype),
            "norm": np.ones(small_graph.num_edges, dtype=dtype),
            "W": rng.standard_normal((small_graph.num_edge_types, 4, 4)).astype(dtype),
            "W0": rng.standard_normal((4, 4)).astype(dtype),
        }
        return result, executor, ctx, env

    def test_missing_output_name_raises(self, small_graph):
        _, executor, ctx, env = self._executor_env(small_graph)
        executor.run_forward(env, ctx)
        with pytest.raises(KeyError, match="not_an_output"):
            executor.run_backward(env, ctx, {"not_an_output": np.zeros(1)})

    def test_unseeded_intermediates_zero_seeded(self, small_graph):
        result, executor, ctx, env = self._executor_env(small_graph)
        executor.run_forward(env, ctx)
        output = result.plan.output_names[0]
        # Seed only the declared output; every other forward-written buffer
        # must receive a zero-initialised gradient automatically.
        executor.run_backward(env, ctx, {output: np.zeros_like(env[output])})
        for kernel in result.plan.forward_kernels:
            for name in kernel.written_buffers():
                assert f"grad_{name}" in env
        # With a zero output gradient nothing can accumulate anywhere.
        for name in result.plan.parameter_names:
            np.testing.assert_array_equal(env[f"grad_{name}"], 0.0)

    def test_backward_seeds_respect_environment_dtype(self, small_graph):
        result, executor, ctx, env = self._executor_env(small_graph, dtype=np.float32)
        executor.run_forward(env, ctx)
        output = result.plan.output_names[0]
        env[output] = env[output].astype(np.float32)
        grad = np.ones_like(env[output], dtype=np.float32)
        executor.run_backward(env, ctx, {output: grad})
        assert env[f"grad_{output}"].dtype == np.float32
        # The seed must be a copy, not an alias of the caller's array.
        env[f"grad_{output}"][...] = 0.0
        assert grad[0, 0] == 1.0
