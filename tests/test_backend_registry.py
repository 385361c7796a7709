"""Backend registry API: registration, capabilities, selection."""

import numpy as np
import pytest

import repro
from repro.frontend import CompilerOptions, compile_model, compile_program
from repro.graph import random_hetero_graph
from repro.ir.codegen import (
    Backend,
    BackendOptions,
    SourceModule,
    available_backends,
    build_python_module,
    get_backend,
    register_backend,
)
from repro.models import build_program

DIM = 4


@pytest.fixture(scope="module")
def graph():
    return random_hetero_graph(20, 70, 2, 4, seed=9)


@pytest.fixture(scope="module")
def plan():
    return compile_program(build_program("rgcn", in_dim=DIM, out_dim=DIM)).plan


class TestRegistrySurface:
    def test_builtin_backends_are_registered(self):
        names = available_backends()
        assert "python-interp" in names
        assert "python-codegen" in names
        assert "cuda-emit" in names

    def test_capability_flags(self):
        interp = get_backend("python-interp")
        codegen = get_backend("python-codegen")
        cuda = get_backend("cuda-emit")
        assert interp.executes and interp.supports_training
        assert codegen.executes and codegen.supports_training and codegen.emits_source
        assert cuda.emits_source and not cuda.executes

    def test_unknown_backend_lists_available(self):
        with pytest.raises(KeyError, match="python-interp"):
            get_backend("no-such-backend")

    def test_reregistering_taken_name_requires_replace(self):
        interp = get_backend("python-interp")
        with pytest.raises(ValueError, match="already registered"):
            register_backend(interp)
        assert register_backend(interp, replace=True) is interp
        assert get_backend("python-interp") is interp

    def test_registry_entry_points_are_reexported_from_repro(self):
        assert repro.get_backend is get_backend
        assert repro.register_backend is register_backend
        assert repro.available_backends is available_backends
        assert repro.Backend is Backend


class TestCustomBackend:
    def test_custom_registrant_is_selectable_end_to_end(self, graph):
        """A drop-in backend (here wrapping interp) flows through compile_model."""
        calls = []

        class RecordingBackend(Backend):
            name = "test-recording"
            executes = True
            emits_source = True
            supports_training = True

            def generate(self, plan, options=None):
                calls.append((plan.name, options))
                return build_python_module(plan)

        register_backend(RecordingBackend(), replace=True)
        try:
            module = compile_model(
                "rgcn", graph, in_dim=DIM, out_dim=DIM,
                options=CompilerOptions(enable_compilation_cache=False),
                backend="test-recording",
            )
            assert module.backend == "test-recording"
            assert module.summary()["backend"] == "test-recording"
            assert len(calls) == 1
            assert isinstance(calls[0][1], BackendOptions)
            assert calls[0][1].num_edge_types == graph.num_edge_types
            features = np.random.default_rng(0).standard_normal((graph.num_nodes, DIM))
            out = module.forward(features)
            assert next(iter(out.values())).shape == (graph.num_nodes, DIM)
        finally:
            import repro.ir.codegen.registry as registry

            registry._REGISTRY.pop("test-recording", None)


class TestCapabilityErrors:
    def test_emit_only_backend_rejected_for_execution(self):
        program = build_program("rgcn", in_dim=DIM, out_dim=DIM)
        with pytest.raises(ValueError, match="only emits source"):
            compile_program(program, CompilerOptions(backend="cuda-emit"))

    def test_non_training_backend_rejected_for_training(self):
        class InferenceOnly(Backend):
            name = "test-inference-only"
            executes = True
            supports_training = False

            def generate(self, plan, options=None):  # pragma: no cover - never reached
                return build_python_module(plan)

        register_backend(InferenceOnly(), replace=True)
        try:
            program = build_program("rgcn", in_dim=DIM, out_dim=DIM)
            with pytest.raises(ValueError, match="backward"):
                compile_program(
                    program,
                    CompilerOptions(backend="test-inference-only", emit_backward=True),
                )
        finally:
            import repro.ir.codegen.registry as registry

            registry._REGISTRY.pop("test-inference-only", None)

    def test_nameless_backend_rejected(self):
        class Nameless(Backend):
            executes = True

            def generate(self, plan, options=None):  # pragma: no cover
                return build_python_module(plan)

        with pytest.raises(ValueError, match="non-empty name"):
            register_backend(Nameless())


class TestCodegenBackendEquivalence:
    def test_codegen_matches_interp_bitwise(self, graph):
        features = np.random.default_rng(1).standard_normal((graph.num_nodes, DIM))
        results = {}
        for backend in ("python-interp", "python-codegen"):
            module = compile_model(
                "rgat", graph, in_dim=DIM, out_dim=DIM, seed=2,
                options=CompilerOptions(fuse_elementwise=True, backend=backend),
            )
            out = module.forward(features)
            module.backward({k: np.ones_like(v) for k, v in out.items()})
            results[backend] = (
                out,
                {k: p.grad.copy() for k, p in module.parameters_by_name.items()},
            )
        interp_out, interp_grads = results["python-interp"]
        codegen_out, codegen_grads = results["python-codegen"]
        for key in interp_out:
            assert interp_out[key].tobytes() == codegen_out[key].tobytes()
        assert set(interp_grads) == set(codegen_grads)
        for key in interp_grads:
            assert interp_grads[key].tobytes() == codegen_grads[key].tobytes()

    def test_codegen_emits_whole_plan_functions(self, graph):
        module = compile_model(
            "rgcn", graph, in_dim=DIM, out_dim=DIM,
            options=CompilerOptions(backend="python-codegen"),
        )
        source = module.generated_source()
        assert "def main_forward(env, ctx):" in source
        assert "def main_backward(env, ctx):" in source
        # Schema-specialised: the per-relation launch loop is unrolled.
        assert module.generated.forward_program is not None
        assert module.generated.seeds_gradients is True

    def test_cache_keeps_backend_artifacts_apart(self, graph):
        interp = compile_model("rgcn", graph, in_dim=DIM, out_dim=DIM,
                               options=CompilerOptions(backend="python-interp"))
        codegen = compile_model("rgcn", graph, in_dim=DIM, out_dim=DIM,
                                options=CompilerOptions(backend="python-codegen"))
        assert interp.generated is not codegen.generated
        assert interp.backend == "python-interp"
        assert codegen.backend == "python-codegen"


class TestSourceModule:
    def test_source_module_line_count(self, plan):
        artifact = get_backend("cuda-emit").generate(plan)
        assert isinstance(artifact, SourceModule)
        assert artifact.line_count() == len(artifact.source.splitlines())
