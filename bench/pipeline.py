"""Set-up, timed rounds, correctness checks and layer metrics of one workload.

Every workload runs the same phases on its own graph (see ``workloads.py``):

* an 18-cell compile sweep (3 models x 3 executing backends x {inference,
  training}) against an empty and then a populated artifact cache;
* 9 full-graph forward cells and 9 forward+backward cells;
* one epoch of two minibatch trainers (per-hop RGAT stack, merged HGT stack);
* a closed burst and a closed-loop query stream against a three-tenant router.

**Timing primitive.**  Every quantity is measured in *blocks*; one round runs
one block of every quantity (so host disturbances spread over all of them),
``gc.collect()`` runs between blocks with GC left on inside them, and the
reported value is the **best block** — the minimum per-iteration time, the
minimum block percentile, the maximum block throughput.  A block holds at
least two iterations, so the program's own periodic costs fall inside it; the
minimum strips only what other tenants of the host add.
"""

from __future__ import annotations

import gc
import math
import os
import resource
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.frontend import CompilerOptions, clear_compilation_cache, compile_model, compile_program
from repro.graph.hetero_graph import HeteroGraph
from repro.ir.codegen.artifact_cache import CACHE_ENV
from repro.models import REFERENCE_CLASSES, build_program
from repro.runtime import MultiLayerModule
from repro.serving import Router
from repro.train import MinibatchTrainer

from bench.trace import Tracer
from bench.workloads import SEEDS_PER_REQUEST, TENANTS, WRITE_ROWS, Inputs, Workload, generate, request_stream

MODELS = ("rgcn", "rgat", "hgt")
BACKENDS = {"interp": "python-interp", "codegen": "python-codegen", "mixed": "mixed"}
#: (model, backend tag, emit_backward) of every compiled full-graph module.
CELLS = [(m, b, t) for t in (False, True) for m in MODELS for b in BACKENDS]
#: name -> (model, backend, per_hop) of the two minibatch trainers.
TRAINERS = {"perhop": ("rgat", "python-codegen", True), "merged": ("hgt", "mixed", False)}
FANOUTS = (8, 4)

#: ``run_seconds`` of BENCHMARK.json: about what the timed rounds take on the
#: host the block sizes in ``workloads.py`` were chosen on.
DECLARED_SECONDS = 20
#: Rounds (= blocks per quantity) of an untraced run.
ROUNDS = 6


@dataclass
class Ops:
    """Operations attempted and failed; a failure is counted, never dropped."""

    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)


@dataclass
class State:
    """What set-up leaves behind for the timed rounds."""

    workload: Workload
    inputs: Inputs
    graph: HeteroGraph
    modules: Dict[tuple, object]
    outputs: Dict[tuple, np.ndarray]
    grads: Dict[tuple, Dict[str, np.ndarray]]
    trainers: Dict[str, MinibatchTrainer]
    router: Router
    rng: np.random.Generator
    scratch: Path
    ops: Ops = field(default_factory=Ops)


def _options(backend: str, train: bool, cache: bool = True) -> CompilerOptions:
    return CompilerOptions(emit_backward=train, backend=backend, enable_compilation_cache=cache)


def _fresh_cache_dir(scratch: Path) -> None:
    """Point the artifact cache at a new, empty directory under ``scratch``."""
    path = scratch / f"codegen{len(list(scratch.iterdir()))}"
    path.mkdir()
    os.environ[CACHE_ENV] = str(path)


def _register_tenants(router: Router, graph: HeteroGraph, features: np.ndarray, dim: int, full: bool) -> None:
    """The three tenants; ``full`` swaps the fanouts for unbounded ones (verify pass)."""
    for name, model, layers, fanouts, backend in TENANTS:
        options = _options(backend, train=False)
        if layers > 1:
            model = MultiLayerModule.build(model, graph, [dim] * (layers + 1), options=options)
        router.register(
            name, model, graph, in_dim=dim, out_dim=dim, options=options,
            features=features.copy(),  # each tenant owns the store its writes mutate
            fanouts=(None,) * len(fanouts) if full else fanouts,
            max_batch_size=8, block_cache_size=256,
        )


def _make_trainer(graph: HeteroGraph, inputs: Inputs, dim: int, model: str, backend: str, per_hop: bool):
    stack = MultiLayerModule.build(model, graph, [dim] * (len(FANOUTS) + 1), options=_options(backend, True))
    return MinibatchTrainer(
        stack, graph, inputs.features, inputs.labels, optimizer="adam", lr=0.01,
        train_ids=inputs.train_ids, batch_size=32, accumulation_steps=2, fanouts=FANOUTS, per_hop=per_hop,
    )


def write_features(state: State) -> None:
    """One ``update_features`` write of ``WRITE_ROWS`` random rows per tenant."""
    for tenant in TENANTS:
        ids = state.rng.integers(0, state.workload.nodes, WRITE_ROWS)
        rows = state.rng.standard_normal((WRITE_ROWS, state.workload.dim))
        state.router.endpoint(tenant[0]).update_features(ids, rows)


def setup(workload: Workload, seed: int, scratch: Path) -> State:
    """Generate inputs, compile and bind everything, warm every path once.

    Runs against an empty artifact cache and an empty in-process compilation
    cache, through the default (caching) options a user would compile with.
    """
    _fresh_cache_dir(scratch)
    clear_compilation_cache()
    inputs = generate(workload, seed)
    graph = HeteroGraph(inputs.nodes_per_type, inputs.edges, name=workload.name)
    dim, features = workload.dim, inputs.features

    modules, outputs, grads = {}, {}, {}
    for model, tag, train in CELLS:
        module = compile_model(model, graph, in_dim=dim, out_dim=dim, options=_options(BACKENDS[tag], train))
        out = module.forward(features)[module.output_name]
        modules[model, tag, train] = module
        outputs[model, tag, train] = out.copy()
        if train:
            backward = module.backward({module.output_name: np.ones_like(out)})
            grads[model, tag] = {name: grad.copy() for name, grad in backward.items()}
            module.zero_grad()

    trainers = {}
    for name, spec in TRAINERS.items():
        trainers[name] = _make_trainer(graph, inputs, dim, *spec)
        trainers[name].epoch()

    router = Router(num_workers=1)
    _register_tenants(router, graph, features, dim, full=False)
    rng = np.random.default_rng([int(seed), 1])
    state = State(workload, inputs, graph, modules, outputs, grads, trainers, router, rng, scratch)
    # Warm the write path on every workload (the seed caches are still empty, so
    # nothing is invalidated), then the read paths: enough requests to draw
    # (almost) every hot seed once.
    write_features(state)
    warm = 3 * len(TENANTS) * math.ceil(len(inputs.pools[TENANTS[0][0]]) / SEEDS_PER_REQUEST)
    router.serve(request_stream(inputs, rng, min(warm, workload.burst_requests)))
    for name, seeds in request_stream(inputs, rng, 2 * len(TENANTS)):
        router.query(name, seeds)
    router.reset_stats()
    return state


# ----------------------------------------------------------------------
# timed blocks
# ----------------------------------------------------------------------
def _timed_loop(step: Callable[[], None], target_s: float) -> Tuple[float, int]:
    """Run ``step`` at least twice and until ``target_s`` elapsed; per-iteration seconds and count."""
    count = 0
    start = perf_counter()
    while True:
        step()
        count += 1
        elapsed = perf_counter() - start
        if count >= 2 and elapsed >= target_s:
            return elapsed / count, count


def _compile_sweep(state: State, kind: str, span) -> Dict[str, float]:
    """One 18-cell ``compile_model`` sweep with the in-process cache off; ms of every call.

    A compile is a one-shot operation, so here a block is one call.  The sweep
    as one block (18 calls that must all go undisturbed) repeated worse between
    processes: up to 12 % against under 3 % for the warm sweep (bench/README.md).
    """
    workload, graph = state.workload, state.graph
    if kind == "cold":
        _fresh_cache_dir(state.scratch)
    out = {}
    with span(f"bench.compile_{kind}"):
        for model, tag, train in CELLS:
            start = perf_counter()
            try:
                compile_model(model, graph, in_dim=workload.dim, out_dim=workload.dim,
                              options=_options(BACKENDS[tag], train, cache=False))
                error = None
            except Exception as exc:  # counted as a failed operation, sweep goes on
                error = exc
            out[f"compile_{kind}.{model}.{tag}.{int(train)}"] = (perf_counter() - start) * 1e3
            state.ops.record(error is None, f"compile {model}/{tag}/train={train}: {error!r}")
    return out


def _cell_block(state: State, key: tuple, target_s: float, span) -> Dict[str, float]:
    model, tag, train = key
    module, features = state.modules[key], state.inputs.features
    name = f"{model}.{tag}"
    if not train:
        per_call, count = _timed_loop(lambda: module.forward(features), target_s)
        state.ops.attempted += count
        return {f"forward.{name}": per_call * 1e3}
    ones = {module.output_name: np.ones_like(state.outputs[key])}

    def step():
        with span(f"runtime.forward.{name}"):
            module.forward(features)
        with span(f"runtime.backward.{name}"):
            module.backward(ones)
        module.zero_grad()

    per_call, count = _timed_loop(step, target_s)
    state.ops.attempted += count
    return {f"step.{name}": per_call * 1e3}


def _epoch_block(state: State, name: str) -> Dict[str, float]:
    start = perf_counter()
    stats = state.trainers[name].epoch()
    elapsed = perf_counter() - start
    state.ops.record(math.isfinite(stats.loss), f"epoch {name}: loss {stats.loss}")
    return {f"epoch_s.{name}": elapsed}


def _burst_block(state: State, count: int) -> Dict[str, float]:
    """Closed burst: ``count`` requests, all due at virtual t = 0, one ``serve`` call."""
    if state.workload.writes:
        write_features(state)
    stream = request_stream(state.inputs, state.rng, count)
    start = perf_counter()
    state.router.serve(stream)
    elapsed = perf_counter() - start
    shape = (SEEDS_PER_REQUEST, state.workload.dim)
    for request in state.router.last_served:
        ok = request.status == "done" and request.result.shape == shape and bool(np.isfinite(request.result).all())
        state.ops.record(ok, f"request on {request.endpoint}: status {request.status}")
    return {"serve_req_per_s": count / elapsed}


def _query_block(state: State, count: int) -> Dict[str, float]:
    """Closed loop, one caller: the wall time of each ``router.query``."""
    if state.workload.writes:
        write_features(state)
    latencies = []
    for name, seeds in request_stream(state.inputs, state.rng, count):
        start = perf_counter()
        try:
            rows = state.router.query(name, seeds)
            ok = rows.shape[0] == SEEDS_PER_REQUEST
        except Exception:
            ok = False
        latencies.append(perf_counter() - start)
        state.ops.record(ok, f"query on {name}")
    p50, p95 = np.percentile(latencies, [50, 95]) * 1e3
    return {"query_p50_ms": float(p50), "query_p95_ms": float(p95)}


def _cache_hit_block(state: State) -> Dict[str, float]:
    """An in-process ``compile_program`` hit: the router's per-batch plan replay."""
    program = build_program("rgcn", in_dim=state.workload.dim, out_dim=state.workload.dim)
    options = _options("python-interp", train=False)
    per_call, _ = _timed_loop(lambda: compile_program(program, options, graph=state.graph), 0.02)
    return {"frontend.cache_hit_us": per_call * 1e6}


def _calibration_block() -> Dict[str, float]:
    """Fixed numpy + interpreter work: moves only when the host is disturbed."""
    matrix = np.ones((96, 96))
    start = perf_counter()
    total = 0
    for i in range(200):
        matrix @ matrix
        total += i * i
    return {"host.calib_ms": (perf_counter() - start) * 1e3}


def measure(state: State, seconds: float, rounds: int, tracer: Optional[Tracer] = None) -> Dict[str, List[float]]:
    """Run ``rounds`` rounds of one block per quantity; every block's samples by key."""
    span = tracer.span if tracer is not None else (lambda name: nullcontext())
    workload, scale = state.workload, seconds / DECLARED_SECONDS
    burst = max(4 * len(TENANTS), int(workload.burst_requests * scale))
    queries = max(4 * len(TENANTS), int(workload.queries * scale))
    blocks: List[Callable[[], Dict[str, float]]] = [
        lambda: _compile_sweep(state, "cold", span),
        lambda: _compile_sweep(state, "warm", span),
    ]
    blocks += [lambda key=key: _cell_block(state, key, workload.cell_block_s * scale, span) for key in CELLS]
    blocks += [lambda name=name: _epoch_block(state, name) for name in TRAINERS]
    blocks += [lambda: _burst_block(state, burst), lambda: _query_block(state, queries)]
    if tracer is not None:
        blocks += [lambda: _cache_hit_block(state), _calibration_block]

    samples: Dict[str, List[float]] = {}
    # Safety valve for a slower or disturbed host (the driver caps the total time):
    # never below 3 rounds, never a new round past 1.5x the budget.  The result
    # file records how many blocks each quantity got.
    deadline = perf_counter() + 1.5 * seconds * rounds / ROUNDS
    for done in range(rounds):
        if done >= 3 and perf_counter() > deadline:
            break
        for block in blocks:
            if rounds > 1:  # a one-round smoke run takes no best block, so there is nothing to protect
                gc.collect()
            for key, value in block().items():
                samples.setdefault(key, []).append(value)
    return samples


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def _best(key: str, values: List[float]) -> float:
    """The best block: the highest throughput, the lowest of everything else."""
    return max(values) if key == "serve_req_per_s" else min(values)


def _geomean(values) -> float:
    return float(np.exp(np.mean(np.log(list(values)))))


def end_to_end(samples: Dict[str, List[float]], setup_s: float) -> Dict[str, Tuple[float, str]]:
    """The end-to-end metrics: best block of each quantity, mean / geomean over cells."""
    best = {key: _best(key, values) for key, values in samples.items()}
    out = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    for kind in ("cold", "warm"):
        calls = [value for key, value in best.items() if key.startswith(f"compile_{kind}.")]
        out[f"compile_{kind}_ms"] = (float(np.mean(calls)), "ms")
    for tag in BACKENDS:
        out[f"infer_ms.{tag}"] = (_geomean(best[f"forward.{m}.{tag}"] for m in MODELS), "ms")
    for tag in BACKENDS:
        out[f"train_step_ms.{tag}"] = (_geomean(best[f"step.{m}.{tag}"] for m in MODELS), "ms")
    for name in TRAINERS:
        out[f"epoch_s.{name}"] = (best[f"epoch_s.{name}"], "s")
    out["serve_req_per_s"] = (best["serve_req_per_s"], "1/s")
    out["query_p50_ms"] = (best["query_p50_ms"], "ms")
    out["query_p95_ms"] = (best["query_p95_ms"], "ms")
    return out


def block_statistics(samples: Dict[str, List[float]]) -> Dict[str, Dict[str, float]]:
    """Best, median and p90 of every quantity's blocks (written beside the metrics, ungated)."""
    return {
        key: {
            "best": _best(key, values),
            "median": float(np.median(values)),
            "p90": float(np.percentile(values, 90)),
            "blocks": len(values),
        }
        for key, values in samples.items()
    }


# ----------------------------------------------------------------------
# tracing
# ----------------------------------------------------------------------
def install_wrappers(tracer: Tracer, trainers=()) -> None:
    """Wrap the public callables at each layer boundary until ``tracer.unwrap()``.

    ``trainers``: trainer instances whose objective (an instance attribute) is wrapped too.
    """
    import repro.frontend.compiler as compiler
    import repro.models as models
    from repro.graph.sampler import MinibatchBlock, NeighborSampler
    from repro.ir.codegen.artifact_cache import ArtifactCache
    from repro.ir.codegen.registry import get_backend
    from repro.ir.inter_op.passes import PassManager
    from repro.runtime import CompiledRGNNModule, GraphBinding
    from repro.serving import Endpoint
    from repro.tensor.optim import Adam

    wrap = tracer.wrap
    wrap(models, "build_program", "models.build_program")
    wrap(PassManager, "run", "inter_op.passes")
    wrap(compiler, "lower_program", "inter_op.lowering")
    for tag, backend in BACKENDS.items():
        wrap(type(get_backend(backend)), "generate", f"codegen.generate.{tag}")
    wrap(ArtifactCache, "load", "codegen.artifact_load")
    wrap(CompiledRGNNModule, "bind", "runtime.bind")
    wrap(GraphBinding, "forward", "runtime.forward")
    wrap(NeighborSampler, "sample", "graph.sample")
    wrap(NeighborSampler, "sample_blocks", "graph.sample_blocks")
    for attr in ("merged_positions", "hop_positions", "positions_nodes"):
        wrap(NeighborSampler, attr, "graph.draw")
    for attr in ("assemble", "assemble_hop_blocks"):
        wrap(NeighborSampler, attr, "graph.assemble")
    wrap(MinibatchBlock, "gather_features", "graph.gather_features")
    wrap(MinibatchTrainer, "minibatch_gradient", "train.minibatch_gradient")
    wrap(MinibatchTrainer, "apply_window_gradient", "train.apply_window")
    for trainer in trainers:
        wrap(trainer, "objective", "train.objective")
    wrap(Adam, "step", "tensor.optim_step")
    wrap(Router, "submit", "serving.submit")
    wrap(Router, "serve", "serving.serve", count=lambda args, result: len(args[1]))
    wrap(Endpoint, "execute_batch", "serving.execute_batch", count=lambda args, result: len(args[1]))
    wrap(Endpoint, "update_features", "serving.update_features", count=lambda args, result: int(result))


def _rate(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def layer_metrics(
    state: State,
    tracer: Tracer,
    samples: Dict[str, List[float]],
    plain: Dict[str, List[float]],
) -> Dict[str, Tuple[float, str]]:
    """The per-layer metrics of a traced run (``plain`` = the untraced comparison blocks)."""
    median, out = tracer.median_ms, {}
    out["models.build_program_ms"] = (median("models.build_program"), "ms")
    out["inter_op.passes_ms"] = (median("inter_op.passes"), "ms")
    out["inter_op.lowering_ms"] = (median("inter_op.lowering"), "ms")
    for tag in BACKENDS:
        out[f"codegen.generate_ms.{tag}"] = (median(f"codegen.generate.{tag}", under="bench.compile_cold"), "ms")
    for tag in ("codegen", "mixed"):
        lines = sum(state.modules[m, tag, t].generated.line_count() for m in MODELS for t in (False, True))
        out[f"codegen.source_lines.{tag}"] = (lines, "count")
    kernels = sum(len(state.modules[m, "interp", t].plan.kernels("all")) for m in MODELS for t in (False, True))
    out["intra_op.kernels"] = (kernels, "count")
    out["codegen.artifact_load_ms"] = (median("codegen.artifact_load", under="bench.compile_warm"), "ms")
    out["frontend.cache_hit_us"] = (min(samples["frontend.cache_hit_us"]), "us")
    out["runtime.bind_ms"] = (median("runtime.bind"), "ms")
    for direction in ("forward", "backward"):
        for model in MODELS:
            for tag in BACKENDS:
                out[f"runtime.{direction}_ms.{model}.{tag}"] = (median(f"runtime.{direction}.{model}.{tag}"), "ms")
    arenas = [module.arena for module in state.modules.values() if module.arena is not None]
    out["runtime.arena_bytes"] = (sum(arena.arena_bytes() for arena in arenas), "B")
    out["runtime.block_forward_ms"] = (median("runtime.forward", under="serving.execute_batch"), "ms")

    out["graph.sample_ms"] = (median("graph.sample"), "ms")
    out["graph.sample_blocks_ms"] = (median("graph.sample_blocks"), "ms")
    samplers = [trainer.sampler for trainer in state.trainers.values()]
    out["graph.draw_memo_hit_rate"] = (
        _rate(sum(s.draw_hits for s in samplers), sum(s.draw_misses for s in samplers)), "ratio")
    epochs = [epoch for trainer in state.trainers.values() for epoch in trainer.stats.epochs]
    out["graph.block_edges_mean"] = (
        sum(e.block_edges for e in epochs) / sum(e.num_minibatches for e in epochs), "count")
    for stage in ("draw", "assemble", "gather_features"):
        out[f"graph.{stage}_ms"] = (median(f"graph.{stage}", under="serving.execute_batch"), "ms")

    out["train.minibatch_gradient_ms"] = (median("train.minibatch_gradient"), "ms")
    out["train.objective_ms"] = (median("train.objective"), "ms")
    out["train.apply_window_ms"] = (median("train.apply_window"), "ms")
    out["tensor.optim_step_ms"] = (median("tensor.optim_step"), "ms")
    out["train.arena_hit_rate"] = (
        float(np.mean([trainer.summary()["arena_hit_rate"] for trainer in state.trainers.values()])), "ratio")
    for name in TRAINERS:
        out[f"train.seeds_per_s.{name}"] = (len(state.inputs.train_ids) / min(samples[f"epoch_s.{name}"]), "1/s")

    out["serving.submit_us"] = (median("serving.submit") * 1e3, "us")
    out["serving.execute_batch_ms"] = (median("serving.execute_batch", under="serving.serve"), "ms")
    serves = tracer.select("serving.serve")
    serve_s = sum(row[3] - row[2] for row in serves)
    batch_s = tracer.seconds("serving.execute_batch", under="serving.serve").sum()
    out["serving.loop_self_ms_per_req"] = ((serve_s - batch_s) / sum(row[5] for row in serves) * 1e3, "ms")
    burst_batches = tracer.select("serving.execute_batch", under="serving.serve")
    out["serving.batch_size_mean"] = (sum(row[5] for row in burst_batches) / max(1, len(burst_batches)), "count")
    out["serving.arena_hit_rate"] = (float(state.router.budget.hit_rate), "ratio")
    endpoints = [state.router.endpoint(tenant[0]) for tenant in TENANTS]
    out["serving.seed_cache_hit_rate"] = (
        _rate(sum(e.seed_cache_hits for e in endpoints), sum(e.seed_cache_misses for e in endpoints)), "ratio")
    # Every batch that misses the union memo assembles its block exactly once.
    assembled = len(tracer.select("graph.assemble", under="serving.execute_batch"))
    out["serving.union_memo_hit_rate"] = (1.0 - assembled / len(tracer.select("serving.execute_batch")), "ratio")
    out["serving.update_features_ms"] = (median("serving.update_features"), "ms")
    out["serving.invalidated_seeds"] = (sum(row[5] for row in tracer.select("serving.update_features")), "count")

    out["host.calib_ms"] = (min(samples["host.calib_ms"]), "ms")
    # Traced over untraced best block, geometric mean over every timed quantity.
    def slowdown(key: str) -> float:
        ratio = _best(key, samples[key]) / _best(key, plain[key])
        return 1.0 / ratio if key == "serve_req_per_s" else ratio

    overhead = _geomean(slowdown(key) for key in plain if key != "query_p95_ms")
    out["bench.trace_overhead_pct"] = ((overhead - 1.0) * 100.0, "%")
    return out


def span_coverage(tracer: Tracer) -> float:
    """Share of ``router.serve`` wall time covered by named child spans."""
    serve_s = tracer.seconds("serving.serve").sum()
    return float(tracer.seconds("serving.execute_batch", under="serving.serve").sum() / serve_s) if serve_s else 0.0


# ----------------------------------------------------------------------
# correctness (un-timed)
# ----------------------------------------------------------------------
def _close(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and bool(np.allclose(a, b, rtol=1e-9, atol=1e-9))


def _reference_rows(model: str, modules, graph: HeteroGraph, features: np.ndarray, dim: int) -> np.ndarray:
    """Eager reference output of a (stack of) layer(s) carrying ``modules``' parameters."""
    rows = features
    for module in modules:
        reference = REFERENCE_CLASSES[model](graph, dim, dim)
        reference.load_parameters({name: p.data for name, p in module.parameters_by_name.items()})
        rows = reference.forward(rows)[module.output_name].data
    return rows


def check(state: State) -> None:
    """Compare the program's outputs with the eager reference; failures go to ``state.ops``."""
    workload, graph, features, record = state.workload, state.graph, state.inputs.features, state.ops.record
    dim = workload.dim

    # Full graph: every backend equals the eager reference, codegen/mixed equal interp bit for bit.
    for model in MODELS:
        interp = state.modules[model, "interp", True]
        reference = REFERENCE_CLASSES[model](graph, dim, dim)
        reference.load_parameters({name: p.data for name, p in interp.parameters_by_name.items()})
        expected = reference.forward(features)[interp.output_name]
        expected.backward(np.ones_like(expected.data))
        expected_grads = {name: p.grad for name, p in reference.named_parameter_dict().items()}
        for tag in BACKENDS:
            for train in (False, True):
                out = state.outputs[model, tag, train]
                record(_close(out, expected.data), f"{model}/{tag}/train={train}: forward differs from reference")
                record(out.tobytes() == state.outputs[model, "interp", train].tobytes(),
                       f"{model}/{tag}/train={train}: forward not bit-identical to interp")
            grads = state.grads[model, tag]
            record(set(grads) == set(expected_grads) and all(_close(grads[n], expected_grads[n]) for n in grads),
                   f"{model}/{tag}: parameter gradients differ from reference")

    # Training: both losses fall; the per-hop trainer's first epoch replays bit for bit on interp.
    for name, trainer in state.trainers.items():
        curve = trainer.stats.loss_curve()
        record(curve[-1] < curve[0], f"trainer {name}: loss did not fall ({curve[0]} -> {curve[-1]})")
    model, _, per_hop = TRAINERS["perhop"]
    rerun = _make_trainer(graph, state.inputs, dim, model, "python-interp", per_hop)
    record(rerun.epoch().loss == state.trainers["perhop"].stats.loss_curve()[0],
           "trainer perhop: first-epoch loss differs from the python-interp rerun")

    # Serving: a repeated seed set returns identical rows; unbounded fanouts match the reference.
    for tenant in TENANTS:
        seeds = state.inputs.pools[tenant[0]][:SEEDS_PER_REQUEST]
        first = state.router.query(tenant[0], seeds).copy()
        record(first.tobytes() == state.router.query(tenant[0], seeds).tobytes(),
               f"tenant {tenant[0]}: repeated query returned different rows")
    verify = Router(num_workers=1)
    _register_tenants(verify, graph, features, dim, full=True)
    expected_rows = {}
    for name, model, _, _, _ in TENANTS:
        module = verify.endpoint(name).module
        layers = module.modules if isinstance(module, MultiLayerModule) else [module]
        expected_rows[name] = _reference_rows(model, layers, graph, features, dim)
    for name, seeds in request_stream(state.inputs, np.random.default_rng(0), 32):
        record(_close(verify.query(name, seeds), expected_rows[name][seeds]),
               f"tenant {name}: full-fanout query differs from reference")
