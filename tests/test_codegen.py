"""Tests of the Python, CUDA-text, and host-code backends."""

import numpy as np

from repro.frontend.compiler import compile_program
from repro.frontend.config import CONFIGURATIONS, CompilerOptions
from repro.ir.codegen import generate_host_source, get_backend

#: Registry entry points used throughout (the deprecated module-level
#: aliases are covered by tests/test_backend_registry.py).
_interp = get_backend("python-interp")
_cuda = get_backend("cuda-emit")
from repro.ir.inter_op import lower_program
from repro.ir.inter_op.passes import default_pipeline
from repro.models import build_program


class TestPythonBackend:
    def test_generated_module_has_one_function_per_kernel(self):
        plan = lower_program(build_program("rgat"))
        module = _interp.generate(plan)
        assert set(module.forward_functions) == {k.name for k in plan.forward_kernels}
        assert set(module.backward_functions) == {k.name for k in plan.backward_kernels}
        assert module.line_count() > 100

    def test_generated_source_mentions_access_schemes(self):
        plan = lower_program(default_pipeline(True, False).run(build_program("rgat")))
        module = _interp.generate(plan)
        assert "ctx.unique_src" in module.source
        assert "ctx.unique_etype_ptr" in module.source
        # Atomic-style accumulation in backward: some adjoint kernel calls the accumulating scatter.
        functions = {chunk.split("(")[0]: chunk for chunk in module.source.split("\ndef ")[1:]}
        bodies = [functions[f"kernel_{kernel.name}"] for kernel in plan.backward_kernels]
        assert any("    _scatter_add(" in body and "fresh=True" not in body for body in bodies)

    def test_generated_source_is_deterministic(self):
        plan = lower_program(build_program("rgcn"))
        a = _interp.generate(plan).source
        b = _interp.generate(plan).source
        assert a == b

    def test_generated_functions_are_callable(self, small_graph):
        from repro.runtime.context import GraphContext
        plan = lower_program(build_program("rgcn", in_dim=4, out_dim=4))
        module = _interp.generate(plan)
        ctx = GraphContext.from_graph(small_graph)
        env = {
            "h": np.random.randn(small_graph.num_nodes, 4),
            "norm": np.ones(small_graph.num_edges),
            "W": np.random.randn(small_graph.num_edge_types, 4, 4),
            "W0": np.random.randn(4, 4),
        }
        for kernel in plan.forward_kernels:
            module.forward_functions[kernel.name](env, ctx)
        assert env["h_out"].shape == (small_graph.num_nodes, 4)


class TestCudaBackend:
    def test_cuda_source_contains_template_specialisations(self):
        plan = lower_program(build_program("rgat"))
        source = _cuda.generate(plan).source
        assert "__global__" in source
        assert "__shared__" in source
        assert "GEMM template instance" in source
        assert "traversal template instance" in source
        assert "atomicAdd" in source  # backward / aggregation kernels

    def test_cuda_source_reflects_compact_materialization(self):
        plan_u = lower_program(build_program("rgat"))
        plan_c = lower_program(default_pipeline(True, False).run(build_program("rgat")))
        assert "unique_row_idx[idxRow]" not in _cuda.generate(plan_u).source
        assert "unique_row_idx[idxRow]" in _cuda.generate(plan_c).source

    def test_cuda_source_grows_with_models(self):
        small = len(_cuda.generate(lower_program(build_program("rgcn"))).source.splitlines())
        large = len(_cuda.generate(lower_program(build_program("hgt"))).source.splitlines())
        assert large > small > 50


class TestHostBackend:
    def test_host_source_registers_every_kernel(self):
        plan = lower_program(build_program("hgt"))
        source = generate_host_source(plan)
        for kernel in plan.forward_kernels + plan.backward_kernels:
            assert f'"{kernel.name}"' in source
        assert "TORCH_LIBRARY_FRAGMENT" in source
        assert "backward" in source

    def test_host_source_collects_preprocessing(self):
        plan_c = lower_program(default_pipeline(True, False).run(build_program("rgat")))
        source = generate_host_source(plan_c)
        assert "presort edges by edge type" in source
        assert "unique (source node, edge type) mapping" in source

    def test_node_presorting_required_for_hgt(self):
        source = generate_host_source(lower_program(build_program("hgt")))
        assert "presort nodes by node type" in source


class TestCompilationResult:
    def test_line_counts_nonzero_for_all_artifacts(self):
        result = compile_program(build_program("rgat"), CONFIGURATIONS["C+R"])
        counts = result.generated_line_counts()
        assert counts["python_kernels"] > 100
        assert counts["cuda_kernels"] > 100
        assert counts["host_code"] > 50
        assert counts["input_program"] < 40

    def test_plan_name_includes_configuration_label(self):
        result = compile_program(build_program("rgcn"), CompilerOptions(compact_materialization=True))
        assert result.plan.name.endswith("_C")
