"""Golden snapshots of the CUDA backend's emitted kernel text.

Two RGAT programs are locked down: the default configuration and the one the
autotuner deterministically picks for the bgs workload.  Any change to the
pass pipeline, the lowering, the schedules, the CUDA emitter, or the tuner's
ranking shows up as a diff against ``tests/golden/*.cu`` — refresh
intentionally with ``pytest tests/test_codegen_golden.py --update-golden``.
"""

from pathlib import Path

import pytest

from repro.evaluation.workload import WorkloadSpec
from repro.frontend.compiler import compile_program
from repro.frontend.config import CompilerOptions
from repro.models import build_program
from repro.tuner import search_design_space

GOLDEN_DIR = Path(__file__).parent / "golden"

#: The workload the "tuned" snapshot is tuned for (mid-sized, Table 3).
TUNED_DATASET = "bgs"


def _check_golden(name: str, text: str, update: bool) -> None:
    path = GOLDEN_DIR / name
    if update:
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(text)
        return
    assert path.exists(), f"missing golden snapshot {path}; run pytest --update-golden"
    golden = path.read_text()
    assert text == golden, (
        f"generated CUDA text diverged from {path}; inspect the diff and, if the change is "
        "intentional, refresh with pytest tests/test_codegen_golden.py --update-golden"
    )


@pytest.fixture(scope="module")
def rgat_program():
    return build_program("rgat", in_dim=64, out_dim=64)


def test_default_rgat_cuda_snapshot(rgat_program, update_golden):
    result = compile_program(rgat_program, CompilerOptions())
    text = f"// configuration: {result.options.schedule_label()}\n" + result.cuda_source()
    _check_golden("rgat_default.cu", text, update_golden)


def test_tuned_rgat_cuda_snapshot(rgat_program, update_golden):
    workload = WorkloadSpec.from_dataset(TUNED_DATASET)
    tuned = search_design_space(rgat_program, workload, mode="inference")
    result = compile_program(rgat_program, tuned.best.options)
    text = (
        f"// tuned for {TUNED_DATASET} (inference): {tuned.best.label}\n" + result.cuda_source()
    )
    _check_golden("rgat_tuned_bgs.cu", text, update_golden)


def test_default_rgat_codegen_python_snapshot(rgat_program, update_golden):
    """Golden whole-plan Python source of the ``python-codegen`` backend.

    Compiled without a graph, so the snapshot is the schema-independent
    (runtime-looped) form: any change to the kernel templates, the inlining
    rewrites, the fresh-scatter specialisation, or the merged segment loops
    shows up as a diff against ``tests/golden/rgat_default_codegen.py``.
    """
    result = compile_program(rgat_program, CompilerOptions(backend="python-codegen"))
    text = f"# backend: {result.plan.metadata['backend']}\n" + result.generated.source
    _check_golden("rgat_default_codegen.py", text, update_golden)


def test_occupancy_specialised_mixed_snapshot(rgat_program, update_golden):
    """Golden mixed-backend source specialised to a sparse occupancy.

    A deterministic six-relation schema with two empty relations, compiled
    with ``backend="mixed"`` and respecialised at bind time: the snapshot
    locks the whole-plan functions with their occupancy-masked unrolls (empty
    relations emit no block at all).
    """
    import numpy as np

    from repro.graph.hetero_graph import HeteroGraph

    rng = np.random.default_rng(5)
    edges = {}
    for r in range(6):
        key = (f"nt{r % 2}", f"rel{r}", f"nt{(r + 1) % 2}")
        if r in (1, 4):
            edges[key] = (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
        else:
            edges[key] = (rng.integers(0, 20, 30), rng.integers(0, 20, 30))
    graph = HeteroGraph({"nt0": 20, "nt1": 20}, edges)

    result = compile_program(
        rgat_program,
        CompilerOptions(backend="mixed", emit_backward=True),
        graph=graph,
    )
    from repro.runtime.context import GraphContext

    ctx = GraphContext.from_graph(graph)
    variant = result.generated.specialise_for_occupancy(ctx)
    assert variant is not result.generated, "sparse occupancy must specialise"
    text = f"# backend: {result.plan.metadata['backend']} (occupancy-specialised)\n" + variant.source
    _check_golden("rgat_mixed_occupancy_codegen.py", text, update_golden)


def test_tuned_snapshot_differs_from_default(rgat_program):
    """The tuner must pick a non-default point for bgs (passes and schedules)."""
    workload = WorkloadSpec.from_dataset(TUNED_DATASET)
    tuned = search_design_space(rgat_program, workload, mode="inference")
    default = compile_program(rgat_program, CompilerOptions())
    chosen = compile_program(rgat_program, tuned.best.options)
    assert chosen.cuda_source() != default.cuda_source()
