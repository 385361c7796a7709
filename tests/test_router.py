"""Router behaviour: registration, submit-time seed validation, cross-endpoint
fairness (weighted round-robin), shared-arena-budget eviction ordering,
block-cache hit/invalidation semantics, and multi-tenant result isolation.
"""

import numpy as np
import pytest

from repro.frontend import CompilerOptions, compile_model
from repro.graph import random_hetero_graph
from repro.models import REFERENCE_CLASSES
from repro.runtime import GraphContext, SharedArenaBudget
from repro.serving import (
    AdmissionPolicy,
    LaneSpec,
    Router,
    VirtualClock,
    WeightedRoundRobin,
    run_serving_loop,
)
from repro.serving.endpoint import ServingRequest

DIM = 8

#: Inference options shared by every endpoint in these tests.
OPTIONS = CompilerOptions(emit_backward=False)


@pytest.fixture(scope="module")
def graph_a():
    return random_hetero_graph(num_nodes=120, num_edges=500, num_node_types=2,
                               num_edge_types=4, seed=7, name="tenant-a")


@pytest.fixture(scope="module")
def graph_b():
    return random_hetero_graph(num_nodes=200, num_edges=900, num_node_types=3,
                               num_edge_types=6, seed=8, name="tenant-b")


def _router(**kwargs) -> Router:
    return Router(**kwargs)


def _stub_executor(log, service_s=0.0, clock=None):
    """A ``run_serving_loop`` executor that logs ``(lane, batch size, clock)``."""
    def execute(name, requests):
        log.append((name, len(requests), clock.now() if clock is not None else None))
        for request in requests:
            request.result = request.seeds
        return service_s
    return execute


def _register(router, name, graph, model="rgcn", **overrides):
    params = dict(in_dim=DIM, out_dim=DIM, options=OPTIONS, fanouts=(None,),
                  max_batch_size=4, sampler_seed=1, seed=3)
    params.update(overrides)
    return router.register(name, model, graph, **params)


class TestRegistration:
    def test_duplicate_names_rejected(self, graph_a):
        router = _router()
        _register(router, "a", graph_a)
        with pytest.raises(ValueError, match="already registered"):
            _register(router, "a", graph_a)

    def test_unknown_endpoint_errors_list_known(self, graph_a):
        router = _router()
        _register(router, "a", graph_a)
        with pytest.raises(ValueError, match="unknown endpoint 'nope'.*'a'"):
            router.submit("nope", [0])

    def test_invalid_config_rejected(self, graph_a):
        router = _router()
        with pytest.raises(ValueError, match="priority"):
            _register(router, "p", graph_a, priority=0)
        with pytest.raises(ValueError, match="max_batch_size"):
            _register(router, "m", graph_a, max_batch_size=0)
        with pytest.raises(ValueError, match="batch_timeout_s"):
            _register(router, "t", graph_a, batch_timeout_s=-1.0)
        with pytest.raises(ValueError, match="feature store"):
            _register(router, "f", graph_a, features=np.zeros((graph_a.num_nodes, DIM + 2)))
        with pytest.raises(ValueError, match="block_cache_size"):
            _register(router, "c", graph_a, block_cache_size=-1)
        with pytest.raises(ValueError):
            Router(arena_capacity_bytes=0)

    def test_failed_registration_rolls_back_the_budget_tenant(self, graph_a):
        router = _router()
        bad_features = np.zeros((graph_a.num_nodes - 1, DIM))
        with pytest.raises(ValueError, match="feature store"):
            _register(router, "ghost", graph_a, features=bad_features)
        # No phantom tenant from the failed attempt.
        assert not router.budget.has_tenant("ghost")
        assert "ghost" not in router.budget.report()["tenants"]
        endpoint = _register(router, "ghost", graph_a)
        router.query("ghost", [1, 2])
        assert router.budget.report()["tenants"]["ghost"]["misses"] == 1
        assert endpoint.stats.num_batches == 1

    def test_adopted_module_endpoint(self, graph_a):
        module = compile_model("rgat", graph_a, in_dim=DIM, out_dim=DIM,
                               options=OPTIONS, seed=2)
        router = _router()
        router.register("adopted", module, graph_a, max_batch_size=4)
        out = router.query("adopted", [5, 9])
        np.testing.assert_allclose(
            out, module.forward(router.endpoint("adopted").features)["out"][[5, 9]], atol=1e-8
        )
        assert router.endpoint("adopted").stats.plan_replay_rate is None

    def test_default_feature_store_makes_quickstart_run(self, graph_a):
        router = _router()
        endpoint = router.register("quick", "rgcn", graph_a, in_dim=DIM, out_dim=DIM)
        assert endpoint.features.shape == (graph_a.num_nodes, DIM)
        assert router.query("quick", [0, 1]).shape == (2, DIM)

    def test_endpoint_names_and_lookup(self, graph_a, graph_b):
        router = _router()
        first = _register(router, "first", graph_a)
        second = _register(router, "second", graph_b, model="rgat")
        assert router.endpoint_names == ["first", "second"]
        assert "first" in router and "third" not in router
        assert router.endpoint("first") is first
        assert router.endpoint("second").module is second.module

    def test_num_workers_must_be_positive(self):
        with pytest.raises(ValueError, match="num_workers"):
            Router(num_workers=0)


class TestSeedValidation:
    def test_out_of_range_seeds_fail_at_submit_naming_endpoint_and_ids(self, graph_a):
        router = _router()
        _register(router, "tenant-x", graph_a)
        with pytest.raises(ValueError, match=r"endpoint 'tenant-x'.*\[999\].*tenant-a"):
            router.submit("tenant-x", [3, 999])
        with pytest.raises(ValueError, match=r"endpoint 'tenant-x'.*\[-1\]"):
            router.submit("tenant-x", [-1])
        with pytest.raises(ValueError, match="endpoint 'tenant-x'.*at least one seed"):
            router.submit("tenant-x", [])
        # Nothing was admitted: the queue is clean after the failures.
        assert router.endpoint("tenant-x").pending == []

    def test_long_offender_lists_are_elided(self, graph_a):
        router = _router()
        _register(router, "x", graph_a)
        bad = list(range(1000, 1012))
        with pytest.raises(ValueError, match=r"\.\.\."):
            router.submit("x", bad)


class TestFairness:
    def test_weighted_round_robin_interleaves_by_priority(self):
        wrr = WeightedRoundRobin()
        wrr.register("heavy", 3)
        wrr.register("light", 1)
        order = [wrr.pick(["heavy", "light"]) for _ in range(8)]
        assert order.count("heavy") == 6 and order.count("light") == 2
        # Smooth WRR interleaves instead of bursting: light is served within
        # every window of 4, never starved to the end.
        assert "light" in order[:4] and "light" in order[4:]

    def test_wrr_rejects_unknown_and_invalid(self):
        wrr = WeightedRoundRobin()
        with pytest.raises(ValueError):
            wrr.register("x", 0)
        wrr.register("x", 1)
        with pytest.raises(KeyError):
            wrr.pick(["y"])
        with pytest.raises(ValueError):
            wrr.pick([])

    def test_router_execution_log_respects_priorities_under_skewed_load(self, graph_a, graph_b):
        router = _router()
        _register(router, "heavy", graph_a, priority=3, max_batch_size=2)
        _register(router, "light", graph_b, priority=1, max_batch_size=2)
        # Skewed load: both flooded at t=0, every batch ready immediately.
        for index in range(8):
            router.submit("heavy", [index, index + 10])
            router.submit("light", [index, index + 20])
        router.flush()
        order = router.execution_log
        assert order.count("heavy") == 4 and order.count("light") == 4
        window = order[:4]
        assert window.count("heavy") == 3 and window.count("light") == 1

    def test_flush_execution_order_is_smooth_wrr(self, graph_a, graph_b):
        router = _router()
        _register(router, "heavy", graph_a, priority=3, max_batch_size=2)
        _register(router, "light", graph_b, priority=1, max_batch_size=2)
        for index in range(8):
            router.submit("heavy", [index, index + 10])
            router.submit("light", [index, index + 20])
        router.flush()
        assert router.execution_log == [
            "heavy", "heavy", "light", "heavy", "heavy", "light", "light", "light",
        ]

    def test_flush_alternates_equal_priority_endpoints(self, graph_a, graph_b):
        router = _router()
        _register(router, "a", graph_a, max_batch_size=1)
        _register(router, "b", graph_b, max_batch_size=1)
        for index in range(3):
            router.submit("a", [index])
            router.submit("b", [index])
        router.flush()
        assert router.execution_log == ["a", "b", "a", "b", "a", "b"]

    def test_serving_loop_advances_virtual_clock_to_arrivals(self):
        wrr = WeightedRoundRobin()
        wrr.register("a", 1)
        request = ServingRequest(seeds=np.array([0]), arrival_s=0.5)
        clock = VirtualClock()
        executed = []
        result = run_serving_loop(
            [("a", request)], {"a": LaneSpec(max_batch_size=8, batch_timeout_s=0.0)}, wrr,
            _stub_executor(executed, service_s=0.001, clock=clock), clock=clock,
        )
        assert executed == [("a", 1, 0.5)]
        # Clock jumped to the arrival, then accounted the measured service.
        assert result.final_clock_s == pytest.approx(0.501)
        assert result.completed[0].latency_s == pytest.approx(0.001)

    def test_realtime_serve_waits_for_monotonic_arrivals(self, graph_a):
        router = _router()
        _register(router, "rt", graph_a, max_batch_size=2, batch_timeout_s=0.0)
        report = router.serve(
            [("rt", [1], 0.0), ("rt", [2], 0.02)], realtime=True
        )
        assert report["endpoints"]["rt"]["requests"] == 2
        # The second request could not start before its real arrival, so its
        # wall-clock latency is bounded by service time, not by the gap.
        latencies = router.endpoint("rt").stats.request_latencies
        assert len(latencies) == 2 and all(lat > 0 for lat in latencies)

    def test_serving_loop_batches_by_size_and_timeout(self):
        wrr = WeightedRoundRobin()
        wrr.register("e", 1)
        arrivals = [
            ("e", ServingRequest(seeds=np.array([i]), arrival_s=t))
            for i, t in enumerate([0.0, 0.0005, 0.001, 0.5, 1.0])
        ]
        clock = VirtualClock()
        executed = []
        run_serving_loop(
            arrivals, {"e": LaneSpec(max_batch_size=8, batch_timeout_s=0.002)}, wrr,
            _stub_executor(executed, clock=clock), clock=clock,
        )
        assert [size for _, size, _ in executed] == [3, 1, 1]
        # Non-full batches become ready when the oldest member's window expires.
        assert [ready for _, _, ready in executed] == pytest.approx([0.002, 0.502, 1.002])


class TestFlush:
    def test_flush_with_nothing_pending_returns_nothing(self, graph_a):
        router = _router()
        endpoint = _register(router, "idle", graph_a)
        assert router.flush() == []
        assert router.execution_log == [] and endpoint.stats.num_batches == 0

    def test_flush_respects_max_batch_size(self, graph_a):
        router = _router()
        endpoint = _register(router, "f", graph_a, max_batch_size=3)
        for index in range(7):
            router.submit("f", [index, index + 20])
        completed = router.flush()
        assert len(completed) == 7 and all(request.done for request in completed)
        assert [record.num_requests for record in endpoint.stats.batches] == [3, 3, 1]

    def test_later_arrival_starts_a_new_batch(self, graph_a):
        router = _router()
        endpoint = _register(router, "f", graph_a, max_batch_size=8)
        for arrival_s in (0.0, 0.0, 1.0, 1.0):
            router.submit("f", [1, 2], arrival_s=arrival_s)
        router.flush()
        assert [record.num_requests for record in endpoint.stats.batches] == [2, 2]

    def test_flush_latency_is_batch_service_time(self, graph_a):
        router = _router()
        endpoint = _register(router, "f", graph_a)
        request = router.submit("f", [3, 4], arrival_s=0.5)
        router.flush()
        record = endpoint.stats.batches[-1]
        assert request.latency_s == record.sample_seconds + record.execute_seconds > 0
        assert router.report()["endpoints"]["f"]["latency_p50_ms"] > 0

    def test_batched_requests_scatter_back_per_request(self, graph_a):
        seed_sets = [(1, 2), (50, 61, 72), (2, 100)]
        singles = []
        for seeds in seed_sets:
            single = _router()
            _register(single, "one", graph_a)
            singles.append(single.query("one", list(seeds)))
        router = _router()
        _register(router, "batched", graph_a, max_batch_size=8)
        requests = [router.submit("batched", list(seeds)) for seeds in seed_sets]
        router.flush()
        assert router.endpoint("batched").stats.num_batches == 1
        for request, expected in zip(requests, singles):
            assert request.done
            np.testing.assert_allclose(request.result, expected, atol=1e-10)

    def test_duplicate_seeds_within_and_across_requests(self, graph_a):
        router = _router()
        endpoint = _register(router, "dup", graph_a, max_batch_size=8)
        request_a = router.submit("dup", [7, 7, 23])
        request_b = router.submit("dup", [23, 7])
        router.flush()
        np.testing.assert_allclose(request_a.result[0], request_a.result[1])
        np.testing.assert_allclose(request_a.result[0], request_b.result[1])
        np.testing.assert_allclose(request_a.result[2], request_b.result[0])
        # One batch, deduplicated union of seeds.
        assert endpoint.stats.batches[-1].num_requests == 2
        assert endpoint.stats.batches[-1].num_seeds == 5

    def test_query_matches_full_graph_reference_at_seeds(self, graph_a):
        router = _router()
        endpoint = _register(router, "ref", graph_a, seed=6)
        reference = REFERENCE_CLASSES["rgcn"](graph_a, DIM, DIM, seed=6)
        reference.load_parameters(
            {k: p.data for k, p in endpoint.module.parameters_by_name.items()}
        )
        full = reference.forward(endpoint.features)
        seeds = np.array([3, 44, 91, 110])
        rows = router.query("ref", seeds)
        assert rows.shape == (len(seeds), DIM)
        np.testing.assert_allclose(rows, full[next(iter(full))].data[seeds], atol=1e-8)

    def test_query_shed_at_dispatch_raises(self, graph_a):
        router = _router()
        endpoint = _register(router, "slo", graph_a, max_batch_size=1,
                             admission=AdmissionPolicy(deadline_s=1e-9))
        # The first batch dispatches at t=0 and takes real service time, so
        # the query's batch is dispatched past its deadline.
        ahead = router.submit("slo", [1, 2])
        with pytest.raises(RuntimeError, match="endpoint 'slo'.*shed-deadline"):
            router.query("slo", [3, 4])
        assert ahead.done
        assert endpoint.stats.summary()["shed_deadline"] == 1

    def test_cache_disabled_endpoint_skips_per_batch_replay_checks(self, graph_a):
        router = _router()
        endpoint = _register(
            router, "nocache", graph_a,
            options=CompilerOptions(emit_backward=False, enable_compilation_cache=False),
        )
        router.query("nocache", [1, 2])
        router.query("nocache", [3, 4])
        # No per-batch recompiles, and replay tracking is off rather than
        # reporting misleading misses.
        assert endpoint.plan_recompiles == 0 and endpoint.plan_replays == 0
        assert endpoint.stats.plan_replay_rate is None


class TestServe:
    def test_serve_burst_fills_batches(self, graph_a):
        router = _router()
        endpoint = _register(router, "s", graph_a, max_batch_size=4)
        report = router.serve([("s", [i, i + 30]) for i in range(8)])["endpoints"]["s"]
        assert report["batches"] == 2
        assert report["mean_occupancy"] == 4.0
        assert report["plan_replay_rate"] == 1.0
        assert len(endpoint.stats.request_latencies) == 8

    def test_serve_timeout_splits_sparse_arrivals(self, graph_a):
        router = _router()
        _register(router, "s", graph_a, max_batch_size=8, batch_timeout_s=0.001)
        # Far apart vs the 1 ms timeout.
        stream = [("s", [i], arrival) for i, arrival in enumerate([0.0, 0.5, 1.0, 1.5])]
        report = router.serve(stream)["endpoints"]["s"]
        assert report["batches"] == 4
        assert report["mean_occupancy"] == 1.0

    def test_serve_flushes_previously_submitted_requests_first(self, graph_a):
        router = _router()
        _register(router, "s", graph_a)
        early = router.submit("s", [5, 6])
        router.serve([("s", [i]) for i in range(3)])
        assert early.done and early.result.shape == (2, DIM)

    def test_last_served_keeps_stream_order_and_results(self, graph_a):
        router = _router()
        _register(router, "s", graph_a, max_batch_size=2)
        seed_sets = [[4, 9], [1], [30, 2, 30]]
        router.serve([("s", seeds) for seeds in seed_sets])
        assert [list(request.seeds) for request in router.last_served] == seed_sets
        for request, seeds in zip(router.last_served, seed_sets):
            assert request.done
            np.testing.assert_array_equal(request.result, router.query("s", seeds))

    def test_serve_rejects_unknown_endpoint_in_stream(self, graph_a):
        router = _router()
        _register(router, "s", graph_a)
        with pytest.raises(ValueError, match="unknown endpoint 'ghost'"):
            router.serve([("s", [1]), ("ghost", [2])])
        assert router.endpoint("s").stats.num_batches == 0

    def test_serve_validates_stream_seeds_naming_the_endpoint(self, graph_a):
        router = _router()
        _register(router, "s", graph_a)
        with pytest.raises(ValueError, match=r"endpoint 's'.*\[999\]"):
            router.serve([("s", [1]), ("s", [999], 0.5)])


class TestSharedBudget:
    def _module_and_ctxs(self, graph_small, graph_big):
        module = compile_model("rgcn", graph_small, in_dim=DIM, out_dim=DIM,
                               options=OPTIONS, seed=0)
        return module, GraphContext.cached(graph_small), GraphContext.cached(graph_big)

    def test_eviction_is_lru_across_tenants(self, graph_a, graph_b):
        module, ctx_small, ctx_big = self._module_and_ctxs(graph_a, graph_b)
        planner = module.memory_planner
        budget = SharedArenaBudget()
        source_a = budget.tenant("a")
        source_b = budget.tenant("b")
        lease_a = source_a.lease(planner, ctx_small)
        size_small = lease_a.arena.arena_bytes()
        lease_b = source_b.lease(planner, ctx_big)
        size_big = lease_b.arena.arena_bytes()
        assert budget.live_arenas == 2
        assert source_a.stats.misses == 1 and source_b.stats.misses == 1

        # Cap to exactly the current footprint: leasing a new bucket evicts
        # the least-recently-used arena, which belongs to tenant "a".
        budget.capacity_bytes = size_small + size_big
        source_b.lease(planner, ctx_small)  # b's small-bucket arena (new key)
        assert budget.eviction_log[0][0] == "a"
        assert source_a.stats.evictions == 1 and source_b.stats.evictions == 0
        assert budget.live_bytes <= budget.capacity_bytes

        # Re-leasing a's bucket is a miss now (rebuilt), evicting b's LRU.
        source_a.lease(planner, ctx_small)
        assert source_a.stats.misses == 2
        assert budget.eviction_log[1][0] == "b"

    def test_use_time_touch_protects_recently_executed_arenas(self, graph_a, graph_b):
        module, ctx_small, ctx_big = self._module_and_ctxs(graph_a, graph_b)
        planner = module.memory_planner
        budget = SharedArenaBudget()
        source = budget.tenant("t")
        lease_small = source.lease(planner, ctx_small)
        lease_big = source.lease(planner, ctx_big)
        # Binding an env through the *older* lease refreshes its recency:
        # LRU order is by use, not by lease creation.
        lease_small.bind({})
        budget.capacity_bytes = lease_small.arena.arena_bytes() + lease_big.arena.arena_bytes()
        tiny_ctx = GraphContext.cached(
            random_hetero_graph(num_nodes=60, num_edges=200, num_node_types=2,
                                num_edge_types=4, seed=99, name="tiny-bucket")
        )
        source.lease(planner, tiny_ctx)
        # Exactly one eviction — the big arena (stale); small (touched) stayed.
        assert source.stats.evictions == 1
        hits_before = source.stats.hits
        source.lease(planner, ctx_small)
        assert source.stats.hits == hits_before + 1  # small survived
        source.lease(planner, ctx_big)
        assert source.stats.misses == 4  # big was the eviction victim

    def test_stale_lease_does_not_refresh_the_rebuilt_arena(self, graph_a):
        """Binding through a lease whose arena was evicted must not mark the
        arena rebuilt under the same bucket as used."""
        module = compile_model("rgcn", graph_a, in_dim=DIM, out_dim=DIM,
                               options=OPTIONS, seed=0)
        planner = module.memory_planner
        ctxs = [GraphContext.cached(graph_a.subgraph_by_edge_fraction(fraction, seed=1))
                for fraction in (0.1, 0.25, 0.5, 1.0)]
        budget = SharedArenaBudget(max_arenas=2)
        source = budget.tenant("t")
        stale = source.lease(planner, ctxs[0])
        source.lease(planner, ctxs[1])
        newer = source.lease(planner, ctxs[2])  # evicts bucket 0
        source.lease(planner, ctxs[0])  # rebuilds bucket 0, evicts bucket 1
        assert source.stats.misses == 4 and source.stats.evictions == 2
        newer.bind({})  # LRU order: rebuilt bucket 0, then bucket 2
        stale.bind({})  # the evicted arena: no recency change
        source.lease(planner, ctxs[3])
        assert budget.eviction_log[-1] == budget.eviction_log[0]  # bucket 0 again
        assert source.lease(planner, ctxs[2]).arena is newer.arena

    def test_high_water_and_report(self, graph_a, graph_b):
        module, ctx_small, ctx_big = self._module_and_ctxs(graph_a, graph_b)
        budget = SharedArenaBudget()
        source = budget.tenant("t")
        source.lease(module.memory_planner, ctx_small)
        source.lease(module.memory_planner, ctx_big)
        report = budget.report()
        assert report["live_arenas"] == 2
        assert report["high_water_bytes"] == report["live_bytes"] > 0
        assert report["tenants"]["t"]["misses"] == 2
        assert report["tenants"]["t"]["high_water_bytes"] == report["live_bytes"]

    def test_max_arenas_count_bound_evicts_like_the_old_pool(self, graph_a, graph_b):
        module, ctx_small, ctx_big = self._module_and_ctxs(graph_a, graph_b)
        budget = SharedArenaBudget(max_arenas=1)
        source = budget.tenant("t")
        source.lease(module.memory_planner, ctx_small)
        source.lease(module.memory_planner, ctx_big)
        assert budget.live_arenas == 1
        assert source.stats.evictions == 1
        with pytest.raises(ValueError):
            SharedArenaBudget(max_arenas=0)

    def test_unknown_tenant_lease_is_an_error(self, graph_a):
        module = compile_model("rgcn", graph_a, in_dim=DIM, out_dim=DIM,
                               options=OPTIONS, seed=0)
        budget = SharedArenaBudget()
        with pytest.raises(KeyError, match="unknown tenant"):
            budget.lease("ghost", module.memory_planner, GraphContext.cached(graph_a))


class TestBlockCache:
    def test_hot_seed_sets_hit_and_results_match_fresh_sampling(self, graph_a):
        router = _router()
        _register(router, "hot", graph_a, block_cache_size=4)
        first = router.query("hot", [3, 7, 11])  # default feature store
        assert first.shape == (3, DIM)
        again = router.query("hot", [3, 7, 11])
        endpoint = router.endpoint("hot")
        assert endpoint.block_cache_hits == 1 and endpoint.block_cache_misses == 1
        np.testing.assert_array_equal(first, again)
        # Seed order and duplicates never fragment the cache: the key is the
        # frozen (sorted, deduplicated) union.
        router.query("hot", [11, 3, 7, 3])
        assert endpoint.block_cache_hits == 2

    def test_lru_eviction_and_invalidation(self, graph_a):
        router = _router()
        _register(router, "small-cache", graph_a, block_cache_size=2)
        endpoint = router.endpoint("small-cache")
        router.query("small-cache", [1])
        router.query("small-cache", [2])
        router.query("small-cache", [3])  # evicts seed 1's draw
        assert endpoint.seed_cache_evictions == 1
        router.query("small-cache", [1])  # miss: was evicted
        assert endpoint.block_cache_misses == 4 and endpoint.block_cache_hits == 0
        router.query("small-cache", [1])  # hit now
        assert endpoint.block_cache_hits == 1
        dropped = endpoint.invalidate_block_cache()
        assert dropped == 2 and endpoint.block_cache_len == 0
        router.query("small-cache", [1])
        assert endpoint.block_cache_misses == 5

    def test_disabled_cache_records_nothing(self, graph_a):
        router = _router()
        _register(router, "nocache", graph_a, block_cache_size=0)
        router.query("nocache", [1, 2])
        router.query("nocache", [1, 2])
        endpoint = router.endpoint("nocache")
        assert endpoint.block_cache_hits == 0 and endpoint.block_cache_misses == 0
        assert all(record.block_cache_hit is None for record in endpoint.stats.batches)
        assert "block_cache_hit_rate" not in endpoint.report()

    def test_every_sampled_batch_draws_fresh_neighborhoods(self, graph_a):
        """Serving has no training epochs: each sampled batch advances the
        sampler epoch, so under finite fanouts a repeated seed set is *not*
        frozen to its first draw (block reuse is the cache's job — with the
        cache on, hits return the cached block and skip sampling)."""
        router = _router()
        _register(router, "fresh", graph_a, block_cache_size=0, fanouts=(2,))
        endpoint = router.endpoint("fresh")
        router.query("fresh", [1, 2, 3])
        epoch_after_first = endpoint.sampler.epoch
        router.query("fresh", [1, 2, 3])
        assert endpoint.sampler.epoch == epoch_after_first + 1

        router = _router()
        _register(router, "cached", graph_a, block_cache_size=4, fanouts=(2,))
        endpoint = router.endpoint("cached")
        router.query("cached", [1, 2, 3])
        epoch_after_first = endpoint.sampler.epoch
        router.query("cached", [1, 2, 3])  # cache hit: no sampling, no epoch
        assert endpoint.sampler.epoch == epoch_after_first


    def test_a_batch_draws_its_missing_seeds_in_one_call_and_writes_invalidate_by_footprint(
        self, graph_a, monkeypatch
    ):
        router = _router()
        endpoint = _register(router, "batch", graph_a, block_cache_size=64, fanouts=(3, 2),
                             max_batch_size=8)
        calls = []
        draw = endpoint.sampler.merged_positions
        monkeypatch.setattr(
            endpoint.sampler, "merged_positions",
            lambda seeds, per_seed=False: calls.append(list(seeds)) or draw(seeds, per_seed=per_seed),
        )
        for index in range(6):
            router.submit("batch", [index, index + 1, 40 + index])
        router.submit("batch", [0, 1, 2])  # nothing new
        router.flush()
        # One draw per batch, for exactly the seeds the cache lacked.
        assert calls == [[0, 1, 2, 3, 4, 5, 6, 40, 41, 42, 43, 44, 45]]
        assert endpoint.seed_cache_misses == 13 and endpoint.seed_cache_hits == 0
        router.query("batch", [5, 6, 7])
        assert calls[1:] == [[7]] and endpoint.seed_cache_hits == 2

        # A write kills exactly the entries whose footprint holds a written node.
        written = np.array([3, 17, 58, 90])
        doomed = {
            seed for seed, entry in endpoint._seed_cache.items()
            if np.isin(written, entry.nodes).any()
        }
        survivors = set(endpoint._seed_cache) - doomed
        assert doomed and survivors
        assert endpoint.update_features(written, np.zeros((4, DIM))) == len(doomed)
        assert set(endpoint._seed_cache) == survivors


class TestMultiTenantIsolation:
    def test_mixed_stream_rows_match_isolated_serving(self, graph_a, graph_b):
        def build(only=None):
            router = _router()
            if only in (None, "rgcn-a"):
                _register(router, "rgcn-a", graph_a, model="rgcn", seed=4)
            if only in (None, "hgt-b"):
                _register(router, "hgt-b", graph_b, model="hgt", seed=5)
            return router

        stream = [("rgcn-a", [i, i + 13]) if i % 2 == 0 else ("hgt-b", [i, i + 31])
                  for i in range(12)]
        consolidated = build()
        consolidated_requests = [consolidated.submit(n, s) for n, s in stream]
        consolidated.serve()

        for name in ("rgcn-a", "hgt-b"):
            isolated = build(only=name)
            expected = [isolated.submit(n, s) for n, s in stream if n == name]
            isolated.serve()
            got = [r for r in consolidated_requests if r.endpoint == name]
            assert len(got) == len(expected)
            for consolidated_request, isolated_request in zip(got, expected):
                np.testing.assert_array_equal(
                    consolidated_request.result, isolated_request.result
                )

    def test_aggregate_report_pools_endpoints(self, graph_a, graph_b):
        router = _router()
        _register(router, "a", graph_a)
        _register(router, "b", graph_b, model="rgat")
        router.serve([("a", [1, 2]), ("b", [3]), ("a", [4])])
        report = router.report()
        assert set(report["endpoints"]) == {"a", "b"}
        assert report["aggregate"]["requests"] == 3
        assert report["aggregate"]["endpoints"] == 2
        assert report["arena_budget"]["live_arenas"] >= 1
        for row in report["endpoints"].values():
            for field in [
                "requests", "batches", "mean_occupancy", "throughput_rps",
                "seeds_per_s", "latency_p50_ms", "latency_p95_ms",
                "plan_replay_rate", "max_batch_size", "plan_replays",
                "plan_recompiles", "arena_hits", "arena_misses",
                "arena_evictions", "arena_pool_hit_rate",
            ]:
                assert field in row, field
            assert row["arena_misses"] >= 1
            assert row["latency_p95_ms"] >= row["latency_p50_ms"]
            assert row["plan_replays"] == row["batches"] and row["plan_recompiles"] == 0

    def test_report_includes_attached_arena_counters(self, graph_a):
        router = _router()
        endpoint = _register(router, "a", graph_a)
        router.query("a", [1, 2, 3])
        report = endpoint.stats.report()
        for key in ("arena_hits", "arena_misses", "arena_evictions", "arena_pool_hit_rate"):
            assert key in report, key
        assert report["arena_misses"] == router.budget.tenant_stats("a").misses >= 1

    def test_results_match_after_reset_and_reuse(self, graph_a):
        router = _router()
        endpoint = _register(router, "a", graph_a, block_cache_size=0)
        before = router.query("a", np.array([5, 80]))
        router.reset_stats()
        after = router.query("a", np.array([5, 80]))
        np.testing.assert_array_equal(before, after)
        assert endpoint.stats.num_batches == 1 and endpoint.block_cache_misses == 0

    def test_reset_stats_keeps_warm_state(self, graph_a):
        router = _router()
        _register(router, "a", graph_a, block_cache_size=4)
        before = router.query("a", [1, 2])
        endpoint = router.endpoint("a")
        assert endpoint.stats.num_batches == 1 and endpoint.plan_replays == 1
        cached = endpoint.block_cache_len
        misses = router.budget.tenant_stats("a").misses
        assert misses >= 1 and router.budget.live_arenas >= 1
        router.reset_stats()
        assert endpoint.stats.num_batches == 0
        assert endpoint.plan_replays == 0 and endpoint.plan_recompiles == 0
        assert endpoint.block_cache_len == cached  # warm cache survives
        assert router.execution_log == []
        np.testing.assert_array_equal(router.query("a", [1, 2]), before)
        assert endpoint.stats.num_batches == 1  # reset really restarted
        # Same-bucket re-query leases the warm arena: no new build.
        assert router.budget.tenant_stats("a").misses == misses
