"""Property-based tests: generated kernels agree with the reference on random graphs.

The ``TestDifferentialDesignSpaceSweep`` class at the bottom is the tuner's
lock-down harness: every configuration the autotuner can reach — the four
paper configurations × elementwise fusion × memory planner, plus schedule
variants — must produce forward outputs and parameter gradients that match
the eager reference within dtype tolerance.  Run it alone with
``pytest -m differential``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frontend import compile_model
from repro.frontend.config import CONFIGURATIONS
from repro.graph import random_hetero_graph
from repro.models import MODEL_NAMES, REFERENCE_CLASSES

graph_params = st.tuples(
    st.integers(min_value=8, max_value=40),    # nodes
    st.integers(min_value=8, max_value=120),   # edges
    st.integers(min_value=1, max_value=3),     # node types
    st.integers(min_value=1, max_value=5),     # edge types
    st.integers(min_value=0, max_value=10_000),  # seed
)


def _check_model(model, config_label, nodes, edges, ntypes, etypes, seed, dim=4):
    edges = max(edges, etypes)
    nodes = max(nodes, ntypes)
    graph = random_hetero_graph(nodes, edges, ntypes, etypes, seed=seed)
    features = np.random.default_rng(seed + 1).standard_normal((graph.num_nodes, dim))
    module = compile_model(model, graph, in_dim=dim, out_dim=dim,
                           options=CONFIGURATIONS[config_label], seed=seed % 100)
    reference = REFERENCE_CLASSES[model](graph, dim, dim, seed=seed % 100)
    reference.load_parameters({k: p.data for k, p in module.parameters_by_name.items()})
    out = module.forward(features)
    ref = reference.forward(features)
    key = next(iter(out))
    np.testing.assert_allclose(out[key], ref[key].data, atol=1e-8)


class TestCompiledMatchesReferenceOnRandomGraphs:
    @given(graph_params)
    @settings(max_examples=10, deadline=None)
    def test_rgcn_compact_reorder(self, params):
        _check_model("rgcn", "C+R", *params)

    @given(graph_params)
    @settings(max_examples=10, deadline=None)
    def test_rgat_compact(self, params):
        _check_model("rgat", "C", *params)

    @given(graph_params)
    @settings(max_examples=10, deadline=None)
    def test_rgat_reorder(self, params):
        _check_model("rgat", "R", *params)

    @given(graph_params)
    @settings(max_examples=8, deadline=None)
    def test_hgt_compact_reorder(self, params):
        _check_model("hgt", "C+R", *params)


class TestStructuralProperties:
    @given(graph_params)
    @settings(max_examples=15, deadline=None)
    def test_attention_sums_to_one_per_destination(self, params):
        nodes, edges, ntypes, etypes, seed = params
        edges = max(edges, etypes)
        nodes = max(nodes, ntypes)
        graph = random_hetero_graph(nodes, edges, ntypes, etypes, seed=seed)
        features = np.random.default_rng(seed).standard_normal((graph.num_nodes, 4))
        module = compile_model("rgat", graph, in_dim=4, out_dim=4, options=CONFIGURATIONS["U"])
        module.forward(features)
        att = module._last_env["att"]
        sums = np.zeros(graph.num_nodes)
        np.add.at(sums, graph.edge_dst, att)
        has_incoming = np.bincount(graph.edge_dst, minlength=graph.num_nodes) > 0
        np.testing.assert_allclose(sums[has_incoming], 1.0, atol=1e-9)

    @given(graph_params)
    @settings(max_examples=15, deadline=None)
    def test_compact_buffer_has_one_row_per_unique_pair(self, params):
        nodes, edges, ntypes, etypes, seed = params
        edges = max(edges, etypes)
        nodes = max(nodes, ntypes)
        graph = random_hetero_graph(nodes, edges, ntypes, etypes, seed=seed)
        features = np.random.default_rng(seed).standard_normal((graph.num_nodes, 4))
        module = compile_model("rgat", graph, in_dim=4, out_dim=4, options=CONFIGURATIONS["C"])
        module.forward(features)
        hs = module._last_env["hs"]
        assert hs.shape[0] == graph.compaction.num_unique


# ----------------------------------------------------------------------
# Differential harness over the tuner-reachable design space
# ----------------------------------------------------------------------
#: Schedule points exercised on top of the pass-level sweep; schedules must
#: never change numerics, only the cost model and the emitted CUDA text.
_SCHEDULE_VARIANTS = {
    "gemm8x4": dict(gemm_tile_size=8, gemm_coarsening=4),
    "gemm32x2": dict(gemm_tile_size=32, gemm_coarsening=2),
    "trav32-nopartial": dict(traversal_rows_per_block=32, traversal_partial_aggregation=False),
    "trav512": dict(traversal_rows_per_block=512),
}


def _tuner_reachable_configurations():
    """Every design-space point class the autotuner can emit, as test params."""
    for label, base in CONFIGURATIONS.items():
        for fuse in (False, True):
            for planner in (False, True):
                options = base.with_(fuse_elementwise=fuse, enable_memory_planning=planner)
                yield pytest.param(options, id=f"{label}-fuse{int(fuse)}-plan{int(planner)}")
    for schedule_id, overrides in _SCHEDULE_VARIANTS.items():
        options = CONFIGURATIONS["C+R"].with_(fuse_elementwise=True, **overrides)
        yield pytest.param(options, id=f"C+R-fuse-{schedule_id}")


#: Small random graphs (nodes, edges, node types, edge types, seed) — sized so
#: the full sweep stays fast while still exercising multi-type segmentation.
_DIFFERENTIAL_GRAPH = (24, 90, 2, 4, 13)


@pytest.mark.differential
class TestDifferentialDesignSpaceSweep:
    @pytest.mark.parametrize("options", list(_tuner_reachable_configurations()))
    @pytest.mark.parametrize("model", MODEL_NAMES)
    def test_forward_and_backward_match_reference(self, model, options, dim=4):
        nodes, edges, ntypes, etypes, seed = _DIFFERENTIAL_GRAPH
        graph = random_hetero_graph(nodes, edges, ntypes, etypes, seed=seed)
        rng = np.random.default_rng(seed + 1)
        features = rng.standard_normal((graph.num_nodes, dim))

        module = compile_model(model, graph, in_dim=dim, out_dim=dim, options=options, seed=seed % 50)
        reference = REFERENCE_CLASSES[model](graph, dim, dim, seed=seed % 50)
        reference.load_parameters({k: p.data for k, p in module.parameters_by_name.items()})

        out = module.forward(features)
        ref_out = reference.forward(features)
        key = next(iter(out))
        np.testing.assert_allclose(out[key], ref_out[key].data, atol=1e-8)

        upstream = rng.standard_normal(out[key].shape)
        grads = module.backward({key: upstream})
        ref_out[key].backward(upstream)
        ref_params = reference.named_parameter_dict()
        assert set(grads) == set(module.parameters_by_name)
        for name, grad in grads.items():
            assert ref_params[name].grad is not None, name
            np.testing.assert_allclose(grad, ref_params[name].grad, atol=1e-7, err_msg=name)

    def test_sweep_covers_every_pass_point_of_the_tuning_space(self):
        """The sweep's pass-level coverage matches what the tuner can reach."""
        from repro.tuner import TuningSpace

        sweep_keys = set()
        for param in _tuner_reachable_configurations():
            options = param.values[0]
            sweep_keys.add(
                (
                    options.compact_materialization,
                    options.linear_operator_reordering,
                    options.fuse_elementwise,
                )
            )
        space_keys = {
            (o.compact_materialization, o.linear_operator_reordering, o.fuse_elementwise)
            for o in TuningSpace().pass_candidates()
        }
        assert space_keys <= sweep_keys


# ----------------------------------------------------------------------
# Backend differential: python-codegen / mixed ≡ python-interp, bit for bit
# ----------------------------------------------------------------------
@pytest.mark.differential
class TestBackendDifferentialSweep:
    """The whole-plan codegen and mixed backends against the interp backend.

    Stronger than the reference sweep above: all three backends run the *same*
    numpy operations in the same order on the same values, so outputs,
    parameter gradients, and input gradients must match bit for bit
    (``tobytes`` equality, not allclose) on every tuner-reachable
    configuration of every model.  The mixed backend runs the same source as
    python-codegen behind its bind-time occupancy hook.
    """

    @pytest.mark.parametrize("options", list(_tuner_reachable_configurations()))
    @pytest.mark.parametrize("model", MODEL_NAMES)
    def test_codegen_bit_identical_to_interp(self, model, options, dim=4):
        nodes, edges, ntypes, etypes, seed = _DIFFERENTIAL_GRAPH
        graph = random_hetero_graph(nodes, edges, ntypes, etypes, seed=seed)
        rng = np.random.default_rng(seed + 2)
        features = rng.standard_normal((graph.num_nodes, dim))
        upstream = None

        outs, grads, input_grads = {}, {}, {}
        for backend in ("python-interp", "python-codegen", "mixed"):
            module = compile_model(
                model, graph, in_dim=dim, out_dim=dim,
                options=options.with_(backend=backend), seed=seed % 50,
            )
            assert module.backend == backend
            out = module.forward(features)
            if upstream is None:
                key = next(iter(out))
                upstream = np.random.default_rng(seed + 3).standard_normal(out[key].shape)
            module.backward({key: upstream})
            outs[backend] = out
            grads[backend] = {
                name: p.grad.copy() for name, p in module.parameters_by_name.items()
            }
            input_grads[backend] = {
                name: grad.copy()
                for name, grad in module.default_binding.input_gradients().items()
                if grad is not None
            }

        for backend in ("python-codegen", "mixed"):
            for name in outs["python-interp"]:
                assert (
                    outs["python-interp"][name].tobytes()
                    == outs[backend][name].tobytes()
                ), f"forward output {name} diverged on {backend}"
            assert set(grads["python-interp"]) == set(grads[backend])
            for name in grads["python-interp"]:
                assert (
                    grads["python-interp"][name].tobytes()
                    == grads[backend][name].tobytes()
                ), f"parameter gradient {name} diverged on {backend}"
            assert set(input_grads["python-interp"]) == set(input_grads[backend])
            for name in input_grads["python-interp"]:
                assert (
                    input_grads["python-interp"][name].tobytes()
                    == input_grads[backend][name].tobytes()
                ), f"input gradient {name} diverged on {backend}"
