"""Unit tests of the autotuner: space, database, search, and frontend wiring."""

import numpy as np
import pytest

from repro.evaluation.workload import WorkloadSpec
from repro.frontend import compile_model, compile_program
from repro.frontend.cache import make_tuning_key
from repro.frontend.config import CONFIGURATIONS, CompilerOptions
from repro.models import REFERENCE_CLASSES, build_program
from repro.tuner import (
    TuningDatabase,
    TuningRecord,
    TuningSpace,
    evaluate_candidate,
    search_design_space,
    tune_model,
    tune_program,
)
from repro.tuner.database import DB_FORMAT_VERSION

DIM = 8


@pytest.fixture()
def db(tmp_path):
    return TuningDatabase(tmp_path / "tuning_db.json")


@pytest.fixture(scope="module")
def rgat_program():
    return build_program("rgat", in_dim=DIM, out_dim=DIM)


@pytest.fixture(scope="module")
def workload(small_graph):
    return WorkloadSpec.from_graph(small_graph, in_dim=DIM, out_dim=DIM)


class TestTuningSpace:
    def test_pass_candidates_cover_all_fixed_configurations(self):
        labels = {options.label() for options in TuningSpace().pass_candidates()}
        assert labels == set(CONFIGURATIONS)

    def test_default_point_comes_first(self):
        # The default point is the *resolved* base: unset switches decide U without a graph ...
        candidates = TuningSpace().pass_candidates()
        assert candidates[0] == CompilerOptions().resolved() == CONFIGURATIONS["U"]
        full = TuningSpace().all_candidates()
        assert full[0] == CONFIGURATIONS["U"]
        # ... and a base that pins (or was resolved to) another configuration leads its own search.
        for label, base in CONFIGURATIONS.items():
            assert TuningSpace().pass_candidates(base)[0] == base, label
            assert TuningSpace().all_candidates(base.with_(fuse_elementwise=True))[0].fuse_elementwise

    def test_candidates_are_unique_and_sized(self):
        space = TuningSpace()
        full = space.all_candidates()
        assert len(full) == space.size == len({c.cache_key() for c in full})

    def test_base_switches_are_preserved(self):
        base = CompilerOptions(emit_backward=False, enable_memory_planning=False)
        for candidate in TuningSpace.quick().all_candidates(base):
            assert candidate.emit_backward is False
            assert candidate.enable_memory_planning is False

    def test_auto_level_is_stripped_from_candidates(self):
        base = CompilerOptions(optimization_level="auto")
        assert all(c.optimization_level is None for c in TuningSpace.quick().pass_candidates(base))


class TestSearch:
    def test_winner_never_slower_than_default(self, rgat_program, workload):
        result = search_design_space(rgat_program, workload, space=TuningSpace.quick())
        default = evaluate_candidate(rgat_program, CompilerOptions(), workload)
        assert result.best.estimated_ms <= default.estimated_ms

    def test_staged_and_exhaustive_agree_on_quick_space(self, rgat_program, workload):
        staged = search_design_space(rgat_program, workload, space=TuningSpace.quick(), search="staged")
        exhaustive = search_design_space(
            rgat_program, workload, space=TuningSpace.quick(), search="exhaustive"
        )
        assert exhaustive.best.estimated_ms <= staged.best.estimated_ms
        assert len(exhaustive.candidates) >= len(staged.candidates)

    def test_leaderboard_is_sorted(self, rgat_program, workload):
        result = search_design_space(rgat_program, workload, space=TuningSpace.quick())
        times = [row["estimated_ms"] for row in result.leaderboard(5)]
        assert times == sorted(times)

    def test_oom_candidates_are_marked_and_cannot_win(self, rgat_program, workload):
        from repro.gpu.device import RTX_3090
        from dataclasses import replace

        tiny_device = replace(RTX_3090, memory_bytes=16.0)
        evaluation = evaluate_candidate(rgat_program, CompilerOptions(), workload, tiny_device)
        assert evaluation.oom and evaluation.estimated_ms == float("inf")
        with pytest.raises(MemoryError):
            search_design_space(
                rgat_program, workload, space=TuningSpace.passes_only(), device=tiny_device
            )

    def test_training_mode_requires_backward(self, rgat_program, workload):
        with pytest.raises(ValueError, match="emit_backward"):
            search_design_space(
                rgat_program,
                workload,
                base_options=CompilerOptions(emit_backward=False),
                mode="training",
            )

    def test_rejects_unknown_mode_and_strategy(self, rgat_program, workload):
        with pytest.raises(ValueError):
            search_design_space(rgat_program, workload, mode="profiling")
        with pytest.raises(ValueError):
            search_design_space(rgat_program, workload, search="genetic")

    def test_measured_validation_fills_wall_clock(self, rgat_program, small_graph, workload):
        result = search_design_space(
            rgat_program,
            workload,
            space=TuningSpace.passes_only(),
            graph=small_graph,
            measure_top_k=2,
        )
        measured = [c for c in result.candidates if c.measured_ms is not None]
        assert len(measured) == 2
        assert all(c.measured_ms > 0 for c in measured)
        assert result.best.measured_ms == min(c.measured_ms for c in measured)

    def test_measured_validation_in_training_mode(self, rgat_program, small_graph, workload):
        result = search_design_space(
            rgat_program,
            workload,
            space=TuningSpace.passes_only(),
            mode="training",
            graph=small_graph,
            measure_top_k=1,
            measure_repeats=1,
        )
        assert result.best.measured_ms is not None and result.best.measured_ms > 0

    def test_measure_rejects_bad_mode_and_missing_backward(self, rgat_program, small_graph):
        from repro.tuner import measure_candidate_ms

        inference_only = compile_program(rgat_program, CompilerOptions(emit_backward=False))
        with pytest.raises(ValueError, match="emit_backward"):
            measure_candidate_ms(inference_only, small_graph, mode="training")
        with pytest.raises(ValueError, match="mode"):
            measure_candidate_ms(inference_only, small_graph, mode="profiling")

    def test_tune_program_needs_graph_or_workload(self, rgat_program):
        with pytest.raises(ValueError, match="graph or an explicit workload"):
            tune_program(rgat_program, db=TuningDatabase(None))


class TestTuningDatabase:
    def test_search_once_then_hit(self, db, small_graph):
        first = tune_model("rgat", small_graph, in_dim=DIM, out_dim=DIM, db=db)
        assert not first.db_hit
        assert db.stats.misses == 1 and db.stats.stores == 1
        second = tune_model("rgat", small_graph, in_dim=DIM, out_dim=DIM, db=db)
        assert second.db_hit
        assert db.stats.hits == 1 and db.stats.stores == 1
        assert second.options == first.options

    def test_replay_preserves_caller_base_switches(self, db, small_graph, rgat_program):
        tune_program(rgat_program, graph=small_graph, db=db)  # stored with default switches
        replay = tune_program(
            rgat_program,
            graph=small_graph,
            db=db,
            base_options=CompilerOptions(enable_memory_planning=False),
        )
        assert replay.db_hit
        assert replay.options.enable_memory_planning is False, (
            "a DB hit must not override the caller's non-searched switches"
        )

    def test_replay_that_would_oom_triggers_a_fresh_search(self, db, small_graph, rgat_program):
        """Schema-shared entries are re-validated against the workload at hand.

        A stored winner tuned on a small same-schema instance must not be
        replayed once its footprint no longer fits the device — the guard
        falls through to a fresh search instead.
        """
        from dataclasses import replace

        from repro.gpu.device import RTX_3090

        workload = WorkloadSpec.from_graph(small_graph, DIM, DIM)
        evaluated = [
            evaluate_candidate(rgat_program, options, workload)
            for options in TuningSpace().pass_candidates()
        ]
        biggest = max(evaluated, key=lambda c: c.memory_bytes)
        smallest = min(evaluated, key=lambda c: c.memory_bytes)
        assert smallest.memory_bytes < biggest.memory_bytes
        key = make_tuning_key(rgat_program, small_graph, DIM, DIM, RTX_3090.name, "inference")
        db.store(key, TuningRecord(options=biggest.options.to_dict(), estimated_ms=1.0))
        squeezed = replace(
            RTX_3090, memory_bytes=(smallest.memory_bytes + biggest.memory_bytes) / 2.0
        )
        result = tune_program(rgat_program, graph=small_graph, db=db, device=squeezed)
        assert not result.db_hit and not result.best.oom
        assert result.best.memory_bytes <= squeezed.memory_bytes

    def test_explicit_workloads_get_their_own_schema_entries(self, db, small_graph, rgat_program):
        tune_program(rgat_program, graph=small_graph, db=db)  # schema-scoped entry
        other = WorkloadSpec.from_graph(small_graph, DIM, DIM)
        other = WorkloadSpec(
            name="scaled",
            num_nodes=other.num_nodes * 100,
            num_edges=other.num_edges * 100,
            num_node_types=other.num_node_types,
            num_edge_types=other.num_edge_types,
            num_unique_pairs=other.num_unique_pairs * 100,
            in_dim=DIM,
            out_dim=DIM,
        )
        second = tune_program(rgat_program, graph=small_graph, workload=other, db=db)
        assert not second.db_hit, "an explicit pricing workload must not collide with the schema entry"
        assert len(db) == 2

    def test_mode_validation_also_applies_on_db_hit(self, db, small_graph, rgat_program):
        tune_program(rgat_program, graph=small_graph, db=db, mode="training")
        with pytest.raises(ValueError, match="emit_backward"):
            tune_program(
                rgat_program,
                graph=small_graph,
                db=db,
                mode="training",
                base_options=CompilerOptions(emit_backward=False),
            )
        with pytest.raises(ValueError, match="mode"):
            tune_program(rgat_program, graph=small_graph, db=db, mode="profiling")

    def test_search_does_not_pollute_the_global_compilation_cache(self, small_graph, rgat_program):
        from repro.frontend.cache import global_compilation_cache

        workload = WorkloadSpec.from_graph(small_graph, DIM, DIM)
        before = len(global_compilation_cache())
        search_design_space(rgat_program, workload, search="exhaustive")
        assert len(global_compilation_cache()) == before

    def test_persists_across_instances(self, db, small_graph, rgat_program):
        tune_program(rgat_program, graph=small_graph, db=db)
        reloaded = TuningDatabase(db.path)
        assert len(reloaded) == 1
        replay = tune_program(rgat_program, graph=small_graph, db=reloaded)
        assert replay.db_hit and reloaded.stats.hits == 1

    def test_distinct_keys_per_mode_dims_and_workload(self, rgat_program, small_graph, medium_graph):
        workload = WorkloadSpec.from_graph(small_graph, DIM, DIM)
        keys = {
            make_tuning_key(rgat_program, small_graph, DIM, DIM, "gpu", "inference"),
            make_tuning_key(rgat_program, small_graph, DIM, DIM, "gpu", "training"),
            make_tuning_key(rgat_program, small_graph, DIM, 2 * DIM, "gpu", "inference"),
            make_tuning_key(rgat_program, medium_graph, DIM, DIM, "gpu", "inference"),
            make_tuning_key(rgat_program, None, DIM, DIM, "gpu", "inference", workload=workload),
            make_tuning_key(rgat_program, None, DIM, DIM, "gpu", "inference"),
        }
        assert len(keys) == 6

    def test_clear_removes_file(self, db, small_graph):
        tune_model("rgcn", small_graph, in_dim=DIM, out_dim=DIM, db=db)
        assert db.path.exists()
        db.clear()
        assert len(db) == 0 and not db.path.exists()

    def test_corrupt_file_is_ignored(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert len(TuningDatabase(path)) == 0

    def test_version_mismatch_and_bad_records_are_ignored(self, tmp_path):
        import json

        path = tmp_path / "db.json"
        path.write_text(json.dumps({"version": 99, "records": {}}))
        assert len(TuningDatabase(path)) == 0
        good = TuningRecord(options=CompilerOptions().to_dict(), estimated_ms=1.0)
        from dataclasses import asdict

        payload = {
            "version": DB_FORMAT_VERSION,
            "records": {
                "good": asdict(good),
                "bad": {"options": {"warp_speed": True}, "estimated_ms": 1.0},
            },
        }
        path.write_text(json.dumps(payload))
        reloaded = TuningDatabase(path)
        assert len(reloaded) == 1 and reloaded.keys() == ["good"]

    def test_previous_format_database_reads_as_empty(self, db, small_graph, rgat_program):
        """A version-1 file's records carry ``mixed_assignment``, which
        ``CompilerOptions.from_dict`` now rejects: the file reads as empty and
        the next search overwrites it, instead of a replay raising."""
        import json

        options = {**CompilerOptions(backend="mixed").to_dict(), "mixed_assignment": [["gemm_1", "codegen"]]}
        with pytest.raises(ValueError, match="mixed_assignment"):
            CompilerOptions.from_dict(options)
        tune_program(rgat_program, graph=small_graph, db=db)  # for the key a replay looks up
        (key,) = db.keys()
        record = {"options": options, "estimated_ms": 1.0}
        db.path.write_text(json.dumps({"version": 1, "records": {key: record}}))
        stale = TuningDatabase(db.path)
        assert len(stale) == 0
        assert not tune_program(rgat_program, graph=small_graph, db=stale).db_hit
        assert json.loads(db.path.read_text())["version"] == DB_FORMAT_VERSION
        assert TuningDatabase(db.path).keys() == [key]

    def test_default_database_honours_env_var_and_clears(self, tmp_path, monkeypatch):
        import repro.tuner.database as dbmod

        monkeypatch.setenv(dbmod.DB_PATH_ENV, str(tmp_path / "env_db.json"))
        monkeypatch.setattr(dbmod, "_GLOBAL_DB", None)
        db = dbmod.default_tuning_database()
        assert db.path == tmp_path / "env_db.json"
        assert dbmod.default_tuning_database() is db
        db.store("key", TuningRecord(options=CompilerOptions().to_dict(), estimated_ms=1.0))
        assert db.path.exists()
        dbmod.clear_tuning_database()
        assert len(db) == 0 and not db.path.exists()

    def test_record_roundtrip(self):
        options = CompilerOptions(compact_materialization=True, gemm_tile_size=32)
        record = TuningRecord(options=options.to_dict(), estimated_ms=1.5)
        assert record.compiler_options() == options

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown"):
            CompilerOptions.from_dict({"warp_speed": True})


class TestFrontendWiring:
    def test_compile_model_tune_true_searches_then_hits(self, db, small_graph):
        module = compile_model("rgcn", small_graph, in_dim=DIM, out_dim=DIM, tune=True, tuning_db=db)
        assert db.stats.misses == 1 and db.stats.stores == 1
        compile_model("rgcn", small_graph, in_dim=DIM, out_dim=DIM, tune=True, tuning_db=db)
        assert db.stats.hits == 1 and db.stats.stores == 1, "second call must not re-search"
        features = np.zeros((small_graph.num_nodes, DIM))
        out = module.forward(features)
        assert next(iter(out.values())).shape == (small_graph.num_nodes, DIM)

    def test_optimization_level_auto_implies_tuning(self, db, small_graph):
        options = CompilerOptions(optimization_level="auto")
        compile_model("rgat", small_graph, in_dim=DIM, out_dim=DIM, options=options, tuning_db=db)
        assert db.stats.stores == 1

    def test_tuned_module_matches_reference(self, db, small_graph):
        module = compile_model("rgat", small_graph, in_dim=DIM, out_dim=DIM, tune=True, tuning_db=db)
        reference = REFERENCE_CLASSES["rgat"](small_graph, DIM, DIM, seed=0)
        reference.load_parameters({k: p.data for k, p in module.parameters_by_name.items()})
        features = np.random.default_rng(0).standard_normal((small_graph.num_nodes, DIM))
        out = module.forward(features)
        ref = reference.forward(features)
        key = next(iter(out))
        np.testing.assert_allclose(out[key], ref[key].data, atol=1e-8)

    def test_compile_program_rejects_unresolved_auto(self, rgat_program):
        with pytest.raises(ValueError, match="auto"):
            compile_program(rgat_program, CompilerOptions(optimization_level="auto"))

    def test_invalid_level_rejected_at_construction(self):
        with pytest.raises(ValueError, match="optimization_level"):
            CompilerOptions(optimization_level="O3")
