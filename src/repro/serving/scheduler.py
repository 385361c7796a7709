"""The serving event loop: clocks, fairness, and cross-endpoint scheduling.

One loop, :func:`run_serving_loop`, schedules every request the router
executes — :meth:`~repro.serving.router.Router.serve`'s timed streams and
:meth:`~repro.serving.router.Router.flush`'s already-admitted queues alike.
It separates three concerns:

* **Clocks** — :class:`VirtualClock` replays a timestamped request stream in
  virtual time (arrivals are simulated offsets; service time is whatever the
  executor returns — the router's measured wall clock of sampling +
  execution, or a fixed figure from a test's stub executor, which makes the
  whole schedule deterministic).  :class:`MonotonicClock` runs the same
  loop against ``time.monotonic()``, sleeping until the next admission —
  the "real" deployment mode.  Both expose ``now`` / ``advance_to`` / ``advance_by`` so
  the loop is clock-agnostic.

* **Batching** — each endpoint (a *lane*, :class:`LaneSpec`) micro-batches
  its own arrivals: a batch closes when it reaches ``max_batch_size`` (ready
  at its last member's arrival) or when admitting the next request would
  make the batch's oldest member wait longer than ``batch_timeout_s`` (ready
  when that window expires).  Membership depends only on admitted arrival
  times, so every endpoint batches independently of its neighbours.

* **Fairness** — :class:`WeightedRoundRobin` implements smooth WRR (the
  nginx algorithm): each ready endpoint accumulates its weight, the largest
  accumulator wins the executor slot, and the winner is debited by the total
  active weight.  A weight-3 endpoint gets ~3 of every 4 contended slots,
  interleaved (A A B A, not A A A B), and a weight-1 endpoint is never
  starved.
"""

from __future__ import annotations

import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.serving.admission import AdmissionController
from repro.serving.endpoint import ServingRequest


class VirtualClock:
    """Simulated time: starts at 0, advances only when told to."""

    def __init__(self, start_s: float = 0.0):
        self._now = float(start_s)

    def now(self) -> float:
        return self._now

    def advance_to(self, when_s: float) -> None:
        """Jump forward to ``when_s`` (never backwards)."""
        self._now = max(self._now, float(when_s))

    def advance_by(self, seconds: float) -> None:
        """Account measured service time against the virtual clock."""
        self._now += max(0.0, float(seconds))


class MonotonicClock:
    """Real time relative to construction, backed by ``time.monotonic()``.

    ``advance_to`` sleeps until the target; ``advance_by`` is a no-op because
    real service time has already elapsed by the time it is called.
    """

    def __init__(self):
        self._origin = time.monotonic()

    def now(self) -> float:
        return time.monotonic() - self._origin

    def advance_to(self, when_s: float) -> None:
        delay = when_s - self.now()
        if delay > 0:
            time.sleep(delay)

    def advance_by(self, seconds: float) -> None:
        pass


class WeightedRoundRobin:
    """Smooth weighted round-robin over named participants.

    Deterministic: ties break by registration order, and the accumulated
    credit of an idle participant carries over, so a low-weight endpoint that
    waited through a burst is served promptly once ready.
    """

    def __init__(self):
        self._weights: Dict[str, int] = {}
        self._credit: Dict[str, float] = {}

    def register(self, name: str, weight: int) -> None:
        if not isinstance(weight, int) or weight < 1:
            raise ValueError(f"scheduler weight for {name!r} must be an integer >= 1")
        self._weights[name] = weight
        self._credit.setdefault(name, 0.0)

    def weight(self, name: str) -> int:
        return self._weights[name]

    def pick(self, ready: Sequence[str]) -> str:
        """The next participant to run, among those currently ready."""
        if not ready:
            raise ValueError("pick() needs at least one ready participant")
        for name in ready:
            if name not in self._weights:
                raise KeyError(f"unregistered scheduler participant {name!r}")
        for name in ready:
            self._credit[name] += self._weights[name]
        # max() keeps the first maximum; `ready` arrives in registration
        # order from the router, so ties resolve deterministically.
        chosen = max(ready, key=lambda name: self._credit[name])
        self._credit[chosen] -= sum(self._weights[name] for name in ready)
        return chosen


@dataclass
class ScheduledBatch:
    """One endpoint's micro-batch plus the time it becomes schedulable."""

    endpoint: str
    requests: List[ServingRequest]
    ready_s: float = 0.0


# ----------------------------------------------------------------------
# the online serving loop: arrival-driven batching, admission, N workers
# ----------------------------------------------------------------------

@dataclass
class LaneSpec:
    """One endpoint's scheduling configuration, as the serving loop sees it.

    Decoupled from :class:`~repro.serving.endpoint.Endpoint` so the admission
    property tests can drive the loop with stub executors and synthetic
    service times.
    """

    max_batch_size: int
    batch_timeout_s: float
    admission: Optional[AdmissionController] = None


@dataclass
class ServingLoopResult:
    """What one :func:`run_serving_loop` call did."""

    execution_order: List[str] = field(default_factory=list)
    completed: List[ServingRequest] = field(default_factory=list)
    shed: List[ServingRequest] = field(default_factory=list)
    final_clock_s: float = 0.0
    #: Virtual time of the last batch completion (the parallel schedule
    #: length; aggregate throughput = completed requests / makespan).
    makespan_s: float = 0.0
    #: Sum of every executed batch's service seconds — the serial schedule
    #: length; ``busy_s / makespan_s`` is the modelled executor speedup.
    busy_s: float = 0.0
    workers: int = 1
    queue_depth_high_water: Dict[str, int] = field(default_factory=dict)


class _Lane:
    """Mutable per-endpoint loop state (open batch, ready queue, depth)."""

    __slots__ = ("spec", "open", "window_end_s", "ready", "depth", "high_water", "busy")

    def __init__(self, spec: LaneSpec):
        self.spec = spec
        self.open: List[ServingRequest] = []
        self.window_end_s = 0.0
        self.ready: Deque[ScheduledBatch] = deque()
        self.depth = 0          # admitted but not yet completed/shed
        self.high_water = 0
        self.busy = False       # one in-flight batch max: lane serialization


def run_serving_loop(
    arrivals: Sequence[Tuple[str, ServingRequest]],
    lanes: Mapping[str, LaneSpec],
    wrr: WeightedRoundRobin,
    execute: Callable[[str, List[ServingRequest]], float],
    clock=None,
    workers: int = 1,
    on_complete: Optional[Callable[[str, List[ServingRequest], float], None]] = None,
) -> ServingLoopResult:
    """The online event loop: admission → batching → WRR dispatch → N workers.

    The loop processes *arrival events*: each request is admitted at its
    arrival time (token bucket / queue bound, when its lane has an
    :class:`~repro.serving.admission.AdmissionController`), joins its lane's
    open micro-batch under the size/timeout rule (see the module docstring) —
    batch membership is a pure function of the admitted arrival sequence, so
    replays are deterministic regardless of execution timing — and closed
    batches compete for executor workers under WRR, at most one in-flight
    batch per lane (lane serialization is what makes per-endpoint state —
    sampler, caches, stats — safe without locks and keeps per-lane execution
    order, and therefore per-request results, identical across worker
    counts).

    With ``workers == 1`` batches execute inline, one at a time, in WRR
    order; the router's ``flush`` drives this mode with zero timeouts, so
    equal-arrival requests form ``max_batch_size`` chunks in submission
    order.  With ``workers > 1`` batches run on a
    thread pool while the virtual clock tracks the *parallel* schedule: a
    batch dispatched at virtual time ``t`` with measured service ``s``
    finishes at ``t + s``; completions fold back on the loop thread one at
    a time in virtual-finish order, each first admitting any arrivals that
    virtually precede it and letting the freed lane dispatch at its finish
    time.  Requests whose deadline expired before dispatch are shed,
    never executed.  A batch whose ``execute`` raises marks its requests
    ``"failed"`` (the router's executor narrows this to the poisonous
    request) and the loop keeps serving.

    Real wall-clock overlap additionally requires multiple CPUs; the virtual
    makespan accounts the schedule either way.
    """
    if workers < 1:
        raise ValueError("run_serving_loop needs workers >= 1")
    clock = clock if clock is not None else VirtualClock()
    result = ServingLoopResult(workers=workers)
    state = {name: _Lane(spec) for name, spec in lanes.items()}
    lane_index = {name: position for position, name in enumerate(state)}
    events: Deque[Tuple[str, ServingRequest]] = deque(
        sorted(arrivals, key=lambda item: item[1].arrival_s)
    )
    for name, _ in events:
        if name not in state:
            raise KeyError(f"arrival for unknown lane {name!r}")
    in_flight: Dict[str, Tuple[object, List[ServingRequest], float]] = {}
    free_slots = workers
    max_finish = 0.0
    pool = ThreadPoolExecutor(max_workers=workers) if workers > 1 else None

    def close_open(lane: _Lane, name: str, ready_s: float) -> None:
        lane.ready.append(ScheduledBatch(endpoint=name, requests=lane.open, ready_s=ready_s))
        lane.open = []

    def admit(name: str, request: ServingRequest) -> None:
        lane = state[name]
        if lane.spec.admission is not None:
            verdict = lane.spec.admission.admit(request, request.arrival_s, lane.depth)
            if verdict is not None:
                result.shed.append(request)
                return
        else:
            request.status = "queued"
        lane.depth += 1
        lane.high_water = max(lane.high_water, lane.depth)
        # The batching rule (module docstring): a batch closes when
        # an arrival falls past its oldest member's timeout window (ready at
        # the window's end) or when it reaches max size (ready at the filling
        # arrival).  Membership depends only on admitted arrival times.
        if lane.open and request.arrival_s > lane.window_end_s:
            close_open(lane, name, lane.window_end_s)
        if not lane.open:
            lane.open = [request]
            lane.window_end_s = request.arrival_s + lane.spec.batch_timeout_s
        else:
            lane.open.append(request)
        if len(lane.open) >= lane.spec.max_batch_size:
            close_open(lane, name, request.arrival_s)

    def process_due(limit_s: float) -> None:
        """Admit arrivals and close timed-out batches up to virtual ``limit_s``."""
        while events and events[0][1].arrival_s <= limit_s:
            admit(*events.popleft())
        for name, lane in state.items():
            # A timer close is only safe once no pending arrival can still
            # join the open batch (arrivals are processed in order).
            if (
                lane.open
                and lane.window_end_s <= limit_s
                and (not events or events[0][1].arrival_s > lane.window_end_s)
            ):
                close_open(lane, name, lane.window_end_s)

    def fold(name: str, requests: List[ServingRequest], service_s: float, finish_s: float) -> None:
        nonlocal max_finish
        lane = state[name]
        lane.depth -= len(requests)
        for request in requests:
            request.latency_s = finish_s - request.arrival_s
            if request.result is not None:
                request.status = "done"
            elif request.status != "failed":  # pragma: no cover - defensive
                request.status = "failed"
        result.completed.extend(requests)
        result.busy_s += service_s
        max_finish = max(max_finish, finish_s)
        if on_complete is not None:
            on_complete(name, requests, finish_s)

    def fold_finished(block: bool) -> bool:
        """Fold the completed batch with the earliest virtual finish
        (optionally blocking for the first completion); returns whether one
        folded.

        One at a time: the loop gets to dispatch the freed lane's next batch
        at *its* finish time before a later completion advances the clock, so
        batches that complete together in real time (workers sharing a CPU)
        do not start their successors at the latest finish of the clump.
        """
        nonlocal free_slots
        futures = [entry[0] for entry in in_flight.values()]
        if not futures:
            return False
        if block:
            wait(futures, return_when=FIRST_COMPLETED)
        finished = []
        for name, (future, requests, start_s) in in_flight.items():
            if not future.done():
                continue
            try:
                service_s = float(future.result())
            except Exception as exc:  # last-resort guard; the router narrows
                service_s = 0.0
                for request in requests:
                    request.status = "failed"
                    if request.error is None:
                        request.error = f"endpoint {name!r}: batch execution raised {exc!r}"
            finished.append((start_s + service_s, name, requests, service_s))
        if not finished:
            return False
        finish_s, name, requests, service_s = min(
            finished, key=lambda entry: (entry[0], lane_index[entry[1]])
        )
        # Admit the arrivals that virtually precede the completion first, so
        # queue depths evolve in (almost) virtual-time order even though real
        # completions arrive unordered.
        process_due(finish_s)
        clock.advance_to(finish_s)
        del in_flight[name]
        state[name].busy = False
        free_slots += 1
        fold(name, requests, service_s, finish_s)
        return True

    def dispatchable(now_s: float) -> List[str]:
        return [
            name
            for name, lane in state.items()
            if not lane.busy and lane.ready and lane.ready[0].ready_s <= now_s
        ]

    def dispatch_one(now_s: float) -> bool:
        nonlocal free_slots
        ready_names = dispatchable(now_s)
        if not ready_names or free_slots == 0:
            return False
        name = wrr.pick(ready_names)
        lane = state[name]
        batch = lane.ready.popleft()
        kept: List[ServingRequest] = []
        for request in batch.requests:
            if AdmissionController.deadline_expired(request, now_s):
                request.status = "shed-deadline"
                lane.depth -= 1
                result.shed.append(request)
            else:
                kept.append(request)
        if not kept:
            return True  # the batch was consumed; that is progress
        result.execution_order.append(name)
        if pool is None:
            try:
                service_s = float(execute(name, kept))
            except Exception as exc:  # last-resort guard; the router narrows
                service_s = 0.0
                for request in kept:
                    request.status = "failed"
                    if request.error is None:
                        request.error = f"endpoint {name!r}: batch execution raised {exc!r}"
            clock.advance_by(service_s)
            fold(name, kept, service_s, clock.now())
        else:
            lane.busy = True
            free_slots -= 1
            in_flight[name] = (pool.submit(execute, name, kept), kept, now_s)
        return True

    try:
        while True:
            now = clock.now()
            process_due(now)
            if dispatch_one(now):
                continue
            if in_flight and fold_finished(block=False):
                continue
            # Nothing due: find the next known virtual event.
            candidates = []
            if events:
                candidates.append(events[0][1].arrival_s)
            for lane in state.values():
                if lane.open and (not events or events[0][1].arrival_s > lane.window_end_s):
                    candidates.append(lane.window_end_s)
                if not lane.busy and lane.ready:
                    candidates.append(lane.ready[0].ready_s)
            next_event = min(candidates) if candidates else None
            if next_event is not None and next_event > now and (free_slots > 0 or not in_flight):
                clock.advance_to(next_event)
                continue
            if in_flight:
                fold_finished(block=True)
                continue
            if next_event is None:
                break
            clock.advance_to(next_event)  # pragma: no cover - free_slots > 0 always holds here
    finally:
        if pool is not None:
            pool.shutdown(wait=True)
    result.final_clock_s = clock.now()
    result.makespan_s = max_finish
    result.queue_depth_high_water = {name: lane.high_water for name, lane in state.items()}
    return result
