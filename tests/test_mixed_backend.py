"""Unit tests for the mixed backend, the artifact cache, and their wiring.

Tier-1 (unmarked): the differential sweep in ``test_property_compiled.py``
locks bit-identity across the full configuration matrix; these tests cover
the machinery itself — source identity with ``python-codegen``, occupancy
memoisation, artifact-cache corruption handling and registry / tuning-space
validation — on small deterministic inputs.
"""

import json
import warnings

import numpy as np
import pytest

from repro.frontend.compiler import compile_model, compile_program
from repro.frontend.config import CompilerOptions
from repro.graph.generators import random_hetero_graph
from repro.graph.hetero_graph import HeteroGraph
from repro.ir.codegen import artifact_cache
from repro.ir.codegen.artifact_cache import (
    ARTIFACT_FORMAT_VERSION,
    CACHE_ENV,
    ArtifactCache,
    artifact_key_for,
    default_artifact_cache,
)
from repro.ir.codegen.python_backend import MAX_OCCUPANCY_VARIANTS, OccupancySpecialisedModule
from repro.ir.codegen.registry import available_backends
from repro.models import build_program
from repro.tuner import TuningSpace


@pytest.fixture
def isolated_cache(tmp_path, monkeypatch):
    """Repoint the artifact cache at a private directory for this test."""
    monkeypatch.setenv(CACHE_ENV, str(tmp_path / "codegen"))
    return default_artifact_cache()


def _graph(seed=13):
    return random_hetero_graph(24, 90, 2, 4, seed=seed)


def _sparse_graph(empty=(1, 4), relations=6):
    """Deterministic graph with empty relations (occupancy specialisation)."""
    rng = np.random.default_rng(5)
    edges = {}
    for r in range(relations):
        key = (f"nt{r % 2}", f"rel{r}", f"nt{(r + 1) % 2}")
        if r in empty:
            edges[key] = (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
        else:
            edges[key] = (rng.integers(0, 20, 30), rng.integers(0, 20, 30))
    return HeteroGraph({"nt0": 20, "nt1": 20}, edges)


def _mixed_options(**overrides):
    return CompilerOptions(backend="mixed", emit_backward=True, **overrides)


# ----------------------------------------------------------------------
# Artifact cache
# ----------------------------------------------------------------------
class TestArtifactCache:
    def test_round_trip_hit_skips_generation(self, isolated_cache):
        cache = isolated_cache
        calls = []

        def generate():
            calls.append(1)
            return "x = 41 + 1\n"

        source1, code1 = cache.load_or_generate("k1", "<t>", generate)
        source2, code2 = cache.load_or_generate("k1", "<t>", generate)
        assert calls == [1]
        assert source1 == source2
        namespace = {}
        exec(code2, namespace)
        assert namespace["x"] == 42
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1 and stats["stores"] == 1

    def test_corrupt_record_is_a_miss_not_a_crash(self, isolated_cache):
        cache = isolated_cache
        cache.load_or_generate("k1", "<t>", lambda: "x = 1\n")
        path = cache.directory / "k1.json"
        path.write_text("{definitely not json")
        source, code = cache.load_or_generate("k1", "<t>", lambda: "x = 2\n")
        assert source == "x = 2\n"
        assert cache.stats()["misses"] >= 2

    def test_corrupt_file_is_counted_and_warned_once(self, isolated_cache, monkeypatch):
        cache = isolated_cache
        monkeypatch.setattr(artifact_cache, "_CORRUPT_WARNED", False)
        cache.directory.mkdir(parents=True, exist_ok=True)
        (cache.directory / "k1.json").write_text("garbage")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cache.load("k1") is None
            assert cache.load("k1") is None
        stats = cache.stats()
        assert stats["misses"] == 2 and stats["corrupt"] == 2
        runtime_warnings = [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert len(runtime_warnings) == 1
        assert "corrupt codegen artifact" in str(runtime_warnings[0].message)
        # A missing file stays a plain miss.
        assert cache.load("absent") is None
        assert cache.stats()["misses"] == 3 and cache.stats()["corrupt"] == 2

    def test_stale_source_hash_regenerates(self, isolated_cache):
        cache = isolated_cache
        cache.load_or_generate("k1", "<t>", lambda: "x = 1\n")
        path = cache.directory / "k1.json"
        record = json.loads(path.read_text())
        record["source"] = "x = 999\n"  # tampered without updating source_sha
        path.write_text(json.dumps(record))
        source, _ = cache.load_or_generate("k1", "<t>", lambda: "x = 3\n")
        assert source == "x = 3\n"

    def test_format_version_mismatch_regenerates(self, isolated_cache):
        cache = isolated_cache
        cache.load_or_generate("k1", "<t>", lambda: "x = 1\n")
        path = cache.directory / "k1.json"
        record = json.loads(path.read_text())
        record["version"] = ARTIFACT_FORMAT_VERSION + 1
        path.write_text(json.dumps(record))
        assert cache.load("k1") is None

    def test_none_key_disables_persistence(self, isolated_cache):
        cache = isolated_cache
        cache.load_or_generate(None, "<t>", lambda: "x = 1\n")
        assert not list(cache.directory.glob("*.json")) if cache.directory.exists() else True
        assert cache.stats()["stores"] == 0

    def test_env_override_is_re_resolved(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_ENV, str(tmp_path / "a"))
        cache_a = default_artifact_cache()
        assert cache_a.directory == tmp_path / "a"
        monkeypatch.setenv(CACHE_ENV, str(tmp_path / "b"))
        cache_b = default_artifact_cache()
        assert cache_b.directory == tmp_path / "b"
        assert cache_b is not cache_a
        assert cache_b.stats() == {"hits": 0, "misses": 0, "corrupt": 0, "stores": 0, "errors": 0}

    def test_artifact_key_discriminates_extras(self):
        base = ("some", "cache", "key")
        k1 = artifact_key_for(base)
        k2 = artifact_key_for(base, ("occupancy", ((True, False), (True,))))
        k3 = artifact_key_for(base)
        assert k1 == k3
        assert k1 != k2

    def test_store_tolerates_unwritable_directory(self, tmp_path):
        cache = ArtifactCache(tmp_path / "file-not-dir")
        (tmp_path / "file-not-dir").write_text("occupied")
        cache.store("k", "x = 1\n", compile("x = 1\n", "<t>", "exec"))
        assert cache.stats()["errors"] == 1


# ----------------------------------------------------------------------
# Registry / option / space validation
# ----------------------------------------------------------------------
class TestValidation:
    def test_available_backends_sorted_and_contains_mixed(self):
        names = available_backends()
        assert isinstance(names, tuple)
        assert list(names) == sorted(names)
        assert "mixed" in names

    def test_tuning_space_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="no-such-backend"):
            TuningSpace(backends=("python-interp", "no-such-backend"))

    def test_tuning_space_error_names_available_backends(self):
        with pytest.raises(ValueError, match="mixed"):
            TuningSpace(backends=("typo",))

    def test_tuning_space_rejects_non_executing_backend(self):
        with pytest.raises(ValueError, match="cuda-emit"):
            TuningSpace(backends=("cuda-emit",))

    def test_mixed_is_searched_only_as_the_base_backend(self):
        """It shares python-codegen's source and estimate, so it can never win a search it does not lead."""
        backends = {options.backend for options in TuningSpace().pass_candidates()}
        assert backends == {"python-interp", "python-codegen"}
        led = TuningSpace().pass_candidates(_mixed_options())
        assert led[0].backend == "mixed"


# ----------------------------------------------------------------------
# Mixed generation
# ----------------------------------------------------------------------
class TestMixedGeneration:
    @pytest.mark.parametrize("model", ["rgcn", "rgat", "hgt"])
    @pytest.mark.parametrize("with_graph", [False, True])
    def test_emits_the_python_codegen_source(self, isolated_cache, model, with_graph):
        program = build_program(model, in_dim=4, out_dim=4)
        graph = _graph() if with_graph else None
        generated = {
            backend: compile_program(
                program, CompilerOptions(backend=backend, enable_compilation_cache=False), graph=graph
            ).generated
            for backend in ("python-codegen", "mixed")
        }
        assert isinstance(generated["mixed"], OccupancySpecialisedModule)
        assert generated["mixed"].source == generated["python-codegen"].source
        assert generated["mixed"].seeds_gradients and generated["python-codegen"].seeds_gradients

    def test_summary_surfaces_mixed_telemetry(self, isolated_cache):
        graph = _graph()
        module = compile_model("rgcn", graph, in_dim=4, out_dim=4, options=_mixed_options())
        info = module.summary()
        assert set(info["artifact_cache"]) == {"hits", "misses", "corrupt", "stores", "errors"}
        assert "mixed_assignment" not in info
        assert set(info["occupancy"]) == {"hits", "misses", "variants"}


# ----------------------------------------------------------------------
# Occupancy specialisation
# ----------------------------------------------------------------------
class TestOccupancySpecialisation:
    def test_rebind_hits_the_occupancy_memo(self, isolated_cache):
        graph = _sparse_graph()
        module = compile_model("rgat", graph, in_dim=4, out_dim=4, options=_mixed_options())
        generated = module.generated
        first = generated.specialise_for_occupancy(module.default_binding.ctx)
        stats_before = generated.occupancy_stats()
        second = generated.specialise_for_occupancy(module.default_binding.ctx)
        stats_after = generated.occupancy_stats()
        assert second is first
        assert stats_after["hits"] == stats_before["hits"] + 1
        assert stats_after["variants"] == stats_before["variants"]

    def test_variant_skips_empty_relations(self, isolated_cache):
        graph = _sparse_graph()
        module = compile_model("rgat", graph, in_dim=4, out_dim=4, options=_mixed_options())
        binding = module.bind(graph)
        variant = module.generated_for(binding.ctx)
        assert variant is not module.generated
        # The specialised source unrolls strictly fewer per-relation blocks
        # than the unspecialised module (2 of the 6 relations are empty).
        assert variant.source.count("if end > start:") < module.generated.source.count(
            "if end > start:"
        )

    def test_fully_occupied_small_schema_returns_self(self, isolated_cache):
        graph = _graph()
        module = compile_model("rgat", graph, in_dim=4, out_dim=4, options=_mixed_options())
        binding = module.bind(graph)
        assert module.generated_for(binding.ctx) is module.generated

    @pytest.mark.parametrize("empty", [(), tuple(range(0, 48, 6))], ids=["48-of-48", "40-of-48"])
    def test_no_variant_when_nothing_would_unroll_differently(self, isolated_cache, empty):
        """More than ``MAX_UNROLL_SEGMENTS`` occupied relations keep the runtime
        loops, so a "variant" would be the base source again: it must cost no
        emit and no memo slot."""
        graph = _sparse_graph(empty, relations=48)
        module = compile_model("rgat", graph, in_dim=4, out_dim=4, options=_mixed_options())
        assert module.generated_for(module.bind(graph).ctx) is module.generated
        stats = module.generated.occupancy_stats()
        assert stats["variants"] == 0 and stats["misses"] == 0

    def test_specialised_results_bit_identical(self, isolated_cache):
        graph = _sparse_graph()
        rng = np.random.default_rng(7)
        features = rng.standard_normal((graph.num_nodes, 4))
        results = {}
        for backend in ("python-interp", "mixed"):
            module = compile_model(
                "rgat", graph, in_dim=4, out_dim=4,
                options=CompilerOptions(backend=backend, emit_backward=True), seed=3,
            )
            binding = module.bind(graph)
            out = binding.forward(features)
            binding.backward({k: np.ones_like(v) for k, v in out.items()})
            results[backend] = (
                {k: v.tobytes() for k, v in out.items()},
                {k: v.tobytes() for k, v in binding.input_gradients().items()},
                {n: p.grad.tobytes() for n, p in module.parameters_by_name.items()},
            )
        assert results["python-interp"] == results["mixed"]

    def test_variants_are_capped_and_the_overflow_runs_the_module_itself(self, isolated_cache):
        """A stream of bound graphs with ever-new signatures (sampled blocks)
        must not re-emit per graph: past the cap the unspecialised module runs,
        bit-identically, and the memo stops growing."""
        empties = [(a, b) for a in range(6) for b in range(a + 1, 6)][: MAX_OCCUPANCY_VARIANTS + 4]
        graphs = [_sparse_graph(empty) for empty in empties]
        rng = np.random.default_rng(7)
        features = rng.standard_normal((graphs[0].num_nodes, 4))
        modules = {
            backend: compile_model(
                "rgat", graphs[0], in_dim=4, out_dim=4,
                options=CompilerOptions(backend=backend, emit_backward=True), seed=3,
            )
            for backend in ("python-interp", "mixed")
        }
        generated = modules["mixed"].generated
        picked = []
        for graph in graphs:
            outs = {}
            for backend, module in modules.items():
                binding = module.bind(graph)
                outs[backend] = binding.forward(features)[module.output_name].tobytes()
                if backend == "mixed":
                    picked.append(module.generated_for(binding.ctx))
            assert outs["mixed"] == outs["python-interp"]
        assert all(variant is not generated for variant in picked[:MAX_OCCUPANCY_VARIANTS])
        assert all(variant is generated for variant in picked[MAX_OCCUPANCY_VARIANTS:])
        stats = generated.occupancy_stats()
        assert stats["variants"] == stats["misses"] == MAX_OCCUPANCY_VARIANTS
        # A memoised signature still hits after the cap is reached.
        assert modules["mixed"].generated_for(modules["mixed"].bind(graphs[0]).ctx) is picked[0]


# ----------------------------------------------------------------------
# Runtime-segment-loop backward (regression for the fresh-scatter fix)
# ----------------------------------------------------------------------
class TestRuntimeLoopBackward:
    def test_input_gradients_bit_identical_beyond_unroll_limit(self, isolated_cache):
        """>32 edge types force the runtime segment loop: whatever a kernel
        scatters — per segment, or once after the loop — must accumulate over
        all segments (``_scatter_add``), never assign one segment's sum over
        another's (``fresh=True`` under a runtime loop, PR 8's bug)."""
        graph = random_hetero_graph(40, 300, 2, 40, seed=3)
        rng = np.random.default_rng(1)
        features = rng.standard_normal((graph.num_nodes, 4))
        grads = {}
        for backend in ("python-interp", "python-codegen", "mixed"):
            module = compile_model(
                "rgat", graph, in_dim=4, out_dim=4,
                options=CompilerOptions(backend=backend, emit_backward=True), seed=3,
            )
            binding = module.bind(graph)
            out = binding.forward(features)
            binding.backward({k: np.ones_like(v) for k, v in out.items()})
            grads[backend] = {k: v.tobytes() for k, v in binding.input_gradients().items()}
        assert grads["python-codegen"] == grads["python-interp"]
        assert grads["mixed"] == grads["python-interp"]
