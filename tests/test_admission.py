"""Property-based lockdown of SLO-aware admission control.

Four properties, each driven by hypothesis-generated request streams through
the real serving event loop (:func:`run_serving_loop` with stub executors and
synthetic service times — exactly what :class:`LaneSpec` was decoupled for):

1. A :class:`TokenBucket` never admits more than ``burst + rate * w`` requests
   over *any* window ``w`` of its admission timeline.
2. A lane bounded at ``max_queue_depth`` never holds more admitted-but-
   uncompleted requests than that, for any stream and any worker count —
   and every request ends in exactly one terminal state (completed xor shed).
3. Shed decisions replay deterministically under a virtual clock: the same
   stream through the same policy sheds the same requests, in the same
   execution order, with the same latencies.
4. A request whose deadline expired before dispatch is *never* handed to the
   executor, for any worker count.

:class:`TestFixedServiceSchedule` drives the same loop with a service time
that is a fixed function of batch size, and checks worker scaling and the
overload knee on exact, repeatable numbers.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving import (
    AdmissionController,
    AdmissionPolicy,
    LaneSpec,
    ServingRequest,
    TokenBucket,
    VirtualClock,
    WeightedRoundRobin,
    run_serving_loop,
)
from repro.serving.stats import percentile

LANES = ("alpha", "beta")

#: A stream spec: per-request ``(inter-arrival gap seconds, lane index)``.
stream_specs = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=0.05, allow_nan=False, allow_infinity=False),
        st.integers(min_value=0, max_value=len(LANES) - 1),
    ),
    min_size=1,
    max_size=40,
)


def build_arrivals(spec):
    """Materialise a stream spec into ``(lane, ServingRequest)`` arrivals.

    The request's single seed id is its stream index, so outcomes can be
    compared across independently-built replicas of the same spec.
    """
    now = 0.0
    arrivals = []
    for index, (gap, which) in enumerate(spec):
        now += gap
        name = LANES[which]
        arrivals.append(
            (name, ServingRequest(seeds=np.array([index]), arrival_s=now, endpoint=name))
        )
    return arrivals


def run_loop(
    arrivals,
    policy,
    *,
    workers=1,
    service_s=0.003,
    max_batch_size=3,
    batch_timeout_s=0.002,
):
    """Drive the serving loop with a stub executor; returns (result, executed).

    ``executed`` collects every request actually handed to the executor —
    the ground truth for "shed work never runs".  Each lane gets its own
    controller (admission budgets are per-endpoint).
    """
    executed = []

    def execute(name, requests):
        for request in requests:
            executed.append(request)
            request.result = np.array([request.arrival_s])
        return service_s

    lanes = {
        name: LaneSpec(
            max_batch_size=max_batch_size,
            batch_timeout_s=batch_timeout_s,
            admission=AdmissionController(policy) if policy is not None else None,
        )
        for name in LANES
    }
    wrr = WeightedRoundRobin()
    for name in LANES:
        wrr.register(name, 1)
    result = run_serving_loop(
        arrivals, lanes, wrr, execute, clock=VirtualClock(), workers=workers
    )
    return result, executed


def test_batches_completing_together_fold_one_at_a_time(inline_pool):
    """Both lanes' first batches are complete by the time the loop looks (the
    pool runs every batch inline at submission); the short lane's second batch
    must start at its own first finish, not at the longer lane's."""
    service = {"alpha": 1.0, "beta": 3.0}
    finishes = []

    def execute(name, requests):
        for request in requests:
            request.result = np.zeros(1)
        return service[name]

    arrivals = [
        (name, ServingRequest(seeds=np.array([index]), arrival_s=0.0, endpoint=name))
        for index, name in enumerate(("alpha", "beta", "alpha", "beta"))
    ]
    lanes = {name: LaneSpec(max_batch_size=1, batch_timeout_s=0.0) for name in LANES}
    wrr = WeightedRoundRobin()
    for name in LANES:
        wrr.register(name, 1)
    result = run_serving_loop(
        arrivals, lanes, wrr, execute, clock=VirtualClock(), workers=2,
        on_complete=lambda name, requests, finish_s: finishes.append((name, finish_s)),
    )
    assert finishes == [("alpha", 1.0), ("alpha", 2.0), ("beta", 3.0), ("beta", 6.0)]
    assert (result.makespan_s, result.busy_s) == (6.0, 8.0)


class TestFixedServiceSchedule:
    """Worker scaling and overload shape on the virtual clock.

    Four weighted lanes (one of weight 2), batches of up to 8, and an executor
    whose service time is a fixed function of batch size, in binary fractions
    of a second so that sums of them are exact.  Every number below therefore
    repeats bit for bit; the measured wall-clock counterparts are
    ``serve_req_per_s`` and ``query_p*_ms`` in ``bench/``.
    """

    WEIGHTS = {"a": 1, "b": 1, "c": 2, "d": 1}
    BATCH = 8

    @staticmethod
    def service(batch_size):
        """A fixed cost of two units plus one unit per request (1 unit = 2**-13 s)."""
        return (2 + batch_size) * 2.0 ** -13

    def serve(self, arrivals, *, workers=1, policy=None):
        def execute(name, requests):
            for request in requests:
                request.result = request.seeds
            return self.service(len(requests))

        lanes = {
            name: LaneSpec(
                max_batch_size=self.BATCH,
                batch_timeout_s=0.004,
                admission=AdmissionController(policy) if policy is not None else None,
            )
            for name in self.WEIGHTS
        }
        wrr = WeightedRoundRobin()
        for name, weight in self.WEIGHTS.items():
            wrr.register(name, weight)
        return run_serving_loop(arrivals, lanes, wrr, execute, clock=VirtualClock(), workers=workers)

    def stream(self, num_requests, rate_rps=None):
        """Round-robin over the lanes; a burst at t=0, or evenly spaced at ``rate_rps``."""
        names = list(self.WEIGHTS)
        arrivals = []
        for index in range(num_requests):
            name = names[index % len(names)]
            arrival_s = 0.0 if rate_rps is None else index / rate_rps
            arrivals.append((name, ServingRequest(seeds=np.array([index]), arrival_s=arrival_s, endpoint=name)))
        return arrivals

    def test_four_workers_serve_a_burst_in_a_quarter_of_the_makespan(self, inline_pool):
        """96 burst requests fill 12 batches of 8, three per lane.  One worker
        runs them back to back; four run the four lanes side by side."""
        one = self.serve(self.stream(96), workers=1)
        four = self.serve(self.stream(96), workers=4)
        batch_s = self.service(self.BATCH)
        assert one.busy_s == four.busy_s == 12 * batch_s
        assert (one.makespan_s, four.makespan_s) == (12 * batch_s, 3 * batch_s)
        assert one.makespan_s / four.makespan_s == 4.0
        for result in (one, four):
            assert len(result.completed) == 96 and not result.shed
            assert sorted(result.execution_order) == sorted(list(self.WEIGHTS) * 3)

    def test_overload_sheds_instead_of_queueing_and_stays_fair(self):
        """Offered load at 0.25 / 1 / 2 / 4 x capacity under a queue bound and a
        deadline: below the knee nothing sheds; past it the shed fraction
        rises, the p99 of admitted requests stays within the deadline plus
        ten batches, no queue passes its bound, and completions split by
        WRR weight within 20 %.

        Capacity is the full-batch rate ``8 / service(8)``.  At 0.25x it the
        lanes' batches close by timeout well short of 8, and still fit.
        """
        capacity = self.BATCH / self.service(self.BATCH)
        max_queue_depth = 12
        total_weight = sum(self.WEIGHTS.values())
        min_share = min(self.WEIGHTS.values()) / total_weight
        # Time for a full queue on the lightest lane to drain, with slack.
        deadline_s = 1.5 * max_queue_depth / (capacity * min_share) + 2.0 * self.service(self.BATCH)
        policy = AdmissionPolicy(max_queue_depth=max_queue_depth, deadline_s=deadline_s)
        latency_bound_s = deadline_s + 10 * self.service(self.BATCH)

        rows = {}
        for multiplier in (0.25, 1.0, 2.0, 4.0):
            rate = multiplier * capacity
            arrivals = self.stream(int(rate * 12 * deadline_s), rate_rps=rate)
            result = self.serve(arrivals, policy=policy)
            requests = [request for _, request in arrivals]
            assert len(result.completed) + len(result.shed) == len(requests)
            # Once arrivals stop, the final drain completes every lane's
            # backlog regardless of weight: count completions under load only.
            last_arrival = requests[-1].arrival_s
            steady = Counter(
                request.endpoint for request in result.completed
                if request.arrival_s + request.latency_s <= last_arrival
            )
            rows[multiplier] = {
                "shed_fraction": len(result.shed) / len(requests),
                "p99_s": percentile([request.latency_s for request in result.completed], 99),
                "queue_high_water": max(result.queue_depth_high_water.values()),
                "fairness_worst": max(
                    abs(steady[name] / sum(steady.values()) / (weight / total_weight) - 1.0)
                    for name, weight in self.WEIGHTS.items()
                ),
            }

        assert rows[0.25]["shed_fraction"] == 0.0, rows
        for multiplier in (2.0, 4.0):
            row = rows[multiplier]
            assert row["shed_fraction"] > rows[0.25]["shed_fraction"], (multiplier, row)
            assert row["p99_s"] <= latency_bound_s, (multiplier, row)
            assert row["queue_high_water"] <= max_queue_depth, (multiplier, row)
            assert row["fairness_worst"] <= 0.2, (multiplier, row)
        assert rows[4.0]["shed_fraction"] > rows[2.0]["shed_fraction"] > rows[1.0]["shed_fraction"]


class TestTokenBucketProperties:
    @given(
        st.tuples(
            st.floats(min_value=0.5, max_value=50.0, allow_nan=False, allow_infinity=False),
            st.integers(min_value=1, max_value=8),
            st.lists(
                st.floats(min_value=0.0, max_value=2.0, allow_nan=False, allow_infinity=False),
                min_size=1,
                max_size=60,
            ),
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_never_admits_above_rate_over_any_window(self, params):
        """Over any window ``[a, b]`` of admission timestamps, admitted count
        <= burst (tokens banked at ``a``) + rate * (b - a) (refill)."""
        rate, burst, gaps = params
        bucket = TokenBucket(rate, burst)
        admitted = []
        now = 0.0
        for gap in gaps:
            now += gap
            if bucket.try_admit(now):
                admitted.append(now)
        for i, start in enumerate(admitted):
            for j in range(i, len(admitted)):
                count = j - i + 1
                window = admitted[j] - start
                assert count <= burst + rate * window + 1e-6, (
                    f"{count} admissions in a {window:.4f}s window "
                    f"(rate={rate}, burst={burst})"
                )

    def test_starts_full_then_rejects_until_refill(self):
        bucket = TokenBucket(rate=2.0, burst=2)
        assert bucket.try_admit(0.0) and bucket.try_admit(0.0)
        assert not bucket.try_admit(0.0)  # burst exhausted
        assert bucket.try_admit(0.5)  # 0.5s * 2/s = one token back
        assert not bucket.try_admit(0.5)
        assert bucket.admitted == 3 and bucket.rejected == 2

    def test_backwards_timestamps_never_mint_tokens(self):
        bucket = TokenBucket(rate=1.0, burst=1)
        assert bucket.try_admit(10.0)
        assert not bucket.try_admit(5.0)  # out-of-order fold: no refill
        assert not bucket.try_admit(10.0)
        assert bucket.try_admit(11.0)


class TestBoundedQueues:
    @given(
        st.tuples(
            stream_specs,
            st.integers(min_value=1, max_value=6),  # max_queue_depth
            st.integers(min_value=1, max_value=4),  # max_batch_size
            st.integers(min_value=1, max_value=3),  # workers
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_depth_never_exceeds_bound_and_requests_conserve(self, params):
        spec, depth, max_batch_size, workers = params
        arrivals = build_arrivals(spec)
        result, executed = run_loop(
            arrivals,
            AdmissionPolicy(max_queue_depth=depth),
            workers=workers,
            max_batch_size=max_batch_size,
        )
        for name, high_water in result.queue_depth_high_water.items():
            assert high_water <= depth, f"lane {name} queued {high_water} > {depth}"
        # Conservation: every request ends completed xor shed, exactly once.
        assert len(result.completed) + len(result.shed) == len(arrivals)
        done_ids = {id(request) for request in result.completed}
        shed_ids = {id(request) for request in result.shed}
        assert not done_ids & shed_ids
        assert all(request.status == "done" for request in result.completed)
        assert all(request.status == "shed-queue" for request in result.shed)
        assert len(executed) == len(result.completed)


class TestDeterministicReplay:
    @given(
        st.tuples(
            stream_specs,
            st.floats(min_value=20.0, max_value=400.0, allow_nan=False, allow_infinity=False),
            st.integers(min_value=1, max_value=4),   # burst
            st.integers(min_value=1, max_value=6),   # max_queue_depth
            st.floats(min_value=0.001, max_value=0.05, allow_nan=False, allow_infinity=False),
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_same_stream_sheds_the_same_requests(self, params):
        """The full outcome — statuses, shed set, execution order, latencies —
        is a pure function of the stream under a virtual clock."""
        spec, rate, burst, depth, deadline = params

        def one_run():
            policy = AdmissionPolicy(
                rate_limit=rate, burst=burst, max_queue_depth=depth, deadline_s=deadline
            )
            arrivals = build_arrivals(spec)
            result, _ = run_loop(arrivals, policy, workers=1, service_s=0.004)
            statuses = [request.status for _, request in arrivals]
            shed = sorted(int(request.seeds[0]) for request in result.shed)
            latencies = sorted(
                (int(request.seeds[0]), request.latency_s) for request in result.completed
            )
            return statuses, shed, result.execution_order, latencies

        assert one_run() == one_run()


class TestDeadlineShedding:
    @given(
        st.tuples(
            stream_specs,
            st.floats(min_value=0.001, max_value=0.02, allow_nan=False, allow_infinity=False),
            st.integers(min_value=1, max_value=3),  # workers
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_expired_requests_are_never_executed(self, params):
        spec, deadline, workers = params
        arrivals = build_arrivals(spec)
        # Service deliberately comparable to the deadline so queues miss SLOs.
        result, executed = run_loop(
            arrivals,
            AdmissionPolicy(deadline_s=deadline),
            workers=workers,
            service_s=0.01,
            max_batch_size=2,
        )
        executed_ids = {id(request) for request in executed}
        for request in result.shed:
            assert request.status == "shed-deadline"
            assert id(request) not in executed_ids, "a shed request reached the executor"
            assert request.result is None
        for request in result.completed:
            assert id(request) in executed_ids
            assert request.status == "done"

    def test_deadline_is_absolute_from_arrival(self):
        controller = AdmissionController(AdmissionPolicy(deadline_s=0.5))
        request = ServingRequest(seeds=np.array([0]), arrival_s=2.0)
        assert controller.admit(request, 2.0, queue_depth=0) is None
        assert request.deadline_s == 2.5
        assert not AdmissionController.deadline_expired(request, 2.5)  # boundary holds
        assert AdmissionController.deadline_expired(request, 2.5 + 1e-9)


class TestControllerAndPolicy:
    def test_queue_check_precedes_rate_bucket(self):
        """A backpressured request must not also burn a rate token."""
        controller = AdmissionController(
            AdmissionPolicy(rate_limit=1.0, burst=1, max_queue_depth=1)
        )
        first = ServingRequest(seeds=np.array([0]), arrival_s=0.0)
        assert controller.admit(first, 0.0, queue_depth=0) is None  # burns the token
        backpressured = ServingRequest(seeds=np.array([1]), arrival_s=0.0)
        assert controller.admit(backpressured, 0.0, queue_depth=1) == "shed-queue"
        assert controller.bucket.rejected == 0, "shed-queue burned a rate token"
        rated = ServingRequest(seeds=np.array([2]), arrival_s=0.0)
        assert controller.admit(rated, 0.0, queue_depth=0) == "shed-rate"
        assert backpressured.shed and rated.shed

    def test_policy_validation(self):
        with pytest.raises(ValueError, match="rate_limit"):
            AdmissionPolicy(rate_limit=0.0)
        with pytest.raises(ValueError, match="burst needs a rate_limit"):
            AdmissionPolicy(burst=4)
        with pytest.raises(ValueError, match="burst"):
            AdmissionPolicy(rate_limit=10.0, burst=0)
        with pytest.raises(ValueError, match="max_queue_depth"):
            AdmissionPolicy(max_queue_depth=0)
        with pytest.raises(ValueError, match="deadline_s"):
            AdmissionPolicy(deadline_s=0.0)
        # Default burst: one second's worth of traffic, at least one token.
        assert AdmissionPolicy(rate_limit=2.5).effective_burst == 3
        assert AdmissionPolicy(rate_limit=0.5).effective_burst == 1
        assert AdmissionPolicy().effective_burst is None

    def test_unlimited_policy_admits_everything(self):
        controller = AdmissionController(AdmissionPolicy())
        for index in range(50):
            request = ServingRequest(seeds=np.array([index]), arrival_s=0.0)
            assert controller.admit(request, 0.0, queue_depth=index) is None
            assert request.status == "queued" and request.deadline_s is None
