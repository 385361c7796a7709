"""Run the benchmark: ``python3 bench/run.py --seed S [--workload W --trace 0|1] [--out F]``.

With ``--workload`` the workload runs in this process and the last line of
standard output is one JSON object ``{correct, attempted, failed, metrics}``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1`` (BENCHMARK.json lists both).  Without ``--workload`` every
workload runs in its own fresh subprocess, untraced and then traced, and all
metrics are printed by name with their units.
"""

from __future__ import annotations

from time import perf_counter

#: Process start as far as this file can see it: ``setup_s`` counts from here, imports included.
STARTED = perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

if __name__ == "__main__":
    # Before numpy is imported anywhere: one BLAS thread, so the load is one thread.
    # (Not on import: the smoke test must not pin BLAS for the rest of a pytest session.)
    for _variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_variable] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, Optional  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
REPO_DIR = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
# Run as a script, sys.path[0] is bench/ itself, where trace.py would shadow the stdlib module.
sys.path[:] = [p for p in sys.path if Path(p or ".").resolve() != BENCH_DIR]
for _path in (REPO_DIR / "src", REPO_DIR):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from bench.workloads import WORKLOADS  # noqa: E402

#: Environment variables the run repoints at its private scratch directory.
PRIVATE_ENV = ("REPRO_CODEGEN_CACHE", "REPRO_TUNING_DB")


def host_fingerprint(seed: int) -> Dict[str, object]:
    import numpy

    cpu = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO_DIR, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
        "numpy": numpy.__version__, "git_sha": sha, "seed": seed,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, quick: bool = False,
                 started: Optional[float] = None) -> Dict[str, object]:
    """One workload in this process; the result object plus ungated details.

    ``started``: the ``perf_counter`` reading ``setup_s`` counts from (default: now).
    """
    started = perf_counter() if started is None else started
    from bench import pipeline
    from bench.trace import Tracer

    workload = WORKLOADS[name].scaled(0.03) if quick else WORKLOADS[name]
    rounds = 1 if quick else pipeline.ROUNDS
    OUT_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="tmp-", dir=OUT_DIR))
    saved = {variable: os.environ.get(variable) for variable in PRIVATE_ENV}
    os.environ["REPRO_TUNING_DB"] = str(scratch / "tuning_db.json")
    details: Dict[str, object] = {"workload": name}
    try:
        if trace:
            # Set-up is traced too: on a hot workload it holds the only draws and writes there are.
            tracer = Tracer()
            pipeline.install_wrappers(tracer)
            try:
                state = pipeline.setup(workload, seed, scratch)
            finally:
                tracer.unwrap()
            plain = pipeline.measure(state, seconds, min(2, rounds))
            pipeline.install_wrappers(tracer, state.trainers.values())
            try:
                samples = pipeline.measure(state, seconds, min(3, rounds), tracer=tracer)
            finally:
                tracer.unwrap()
            metrics = pipeline.layer_metrics(state, tracer, samples, plain)
            details["serve_span_coverage"] = pipeline.span_coverage(tracer)
        else:
            state = pipeline.setup(workload, seed, scratch)
            setup_s = perf_counter() - started
            samples = pipeline.measure(state, seconds, rounds)
            details["measure_seconds"] = perf_counter() - started - setup_s
            metrics = pipeline.end_to_end(samples, setup_s)
        start = perf_counter()
        pipeline.check(state)
        details["check_seconds"] = perf_counter() - start
        details["host"] = host_fingerprint(seed)  # after the timed phases: it starts a git process
        details["blocks"] = pipeline.block_statistics(samples)
        details["errors"] = state.ops.errors[:50]
        if trace and not quick:
            tracer.dump(OUT_DIR / f"trace_{name}.json", {key: details[key] for key in ("workload", "host")})
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        for variable, value in saved.items():
            if value is None:
                os.environ.pop(variable, None)
            else:
                os.environ[variable] = value
    result = {
        "correct": state.ops.failed == 0,
        "attempted": state.ops.attempted,
        "failed": state.ops.failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }
    if not quick:
        (OUT_DIR / f"result_{name}_trace{int(trace)}.json").write_text(json.dumps({**details, **result}, indent=1))
    return result


def run_subprocess(name: str, seed: int, seconds: float, trace: bool) -> Dict[str, object]:
    """One workload in a fresh interpreter; its result object."""
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(int(trace))]
    done = subprocess.run(command, capture_output=True, text=True, timeout=180)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} exited {done.returncode}:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def print_metrics(name: str, result: Dict[str, object]) -> None:
    for key, metric in result["metrics"].items():
        print(f"{name:18s} {key:36s} {metric['value']:14.6g} {metric['unit']}")
    print(f"{name:18s} {'ops_attempted':36s} {result['attempted']:14d} count")
    print(f"{name:18s} {'ops_failed':36s} {result['failed']:14d} count")


def main(argv: Optional[list] = None) -> int:
    from bench.pipeline import DECLARED_SECONDS

    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DECLARED_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics, 1: per-layer metrics (default: both, without --workload)")
    parser.add_argument("--quick", action="store_true", help="tiny inputs, one block: a smoke run, not a measurement")
    parser.add_argument("--out", help="append every result of this invocation to this JSON file (for compare.py)")
    args = parser.parse_args(argv)

    if args.workload is not None:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.quick, STARTED)
        print_metrics(args.workload, result)
        results = {args.workload: {f"trace{int(bool(args.trace))}": result}}
        last_line = json.dumps(result)
    else:
        results, last_line = {}, None
        for name in WORKLOADS:
            for trace in (0, 1) if args.trace is None else (args.trace,):
                result = run_subprocess(name, args.seed, args.seconds, bool(trace))
                print_metrics(name, result)
                results.setdefault(name, {})[f"trace{trace}"] = result
    if args.out:
        out = Path(args.out)
        record = json.loads(out.read_text()) if out.exists() else {"host": host_fingerprint(args.seed), "runs": []}
        record["runs"].append(results)
        out.write_text(json.dumps(record, indent=1))
    if last_line is not None:
        print(last_line)
        return 0  # the driver reads `correct` from the result line
    return 0 if all(result["correct"] for runs in results.values() for result in runs.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
