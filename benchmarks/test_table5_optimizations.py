"""Table 5: speed-up from compact materialization (C) and linear operator reordering (R)."""

import numpy as np
import pytest

from repro.evaluation import optimization_speedups
from repro.evaluation.optimizations import CONFIG_LABELS, best_fixed_strategy, executed_optimization_speedups
from repro.evaluation.reporting import format_table
from repro.graph import random_hetero_graph, sample_block


@pytest.mark.smoke
def test_table5_optimization_speedups(benchmark):
    rows = benchmark(optimization_speedups)
    print()
    print(format_table(
        rows,
        columns=["model", "mode", "dataset", "reference", "C", "R", "C+R"],
        title="Table 5 — Speed-up over unoptimised Hector from compaction (C) and reordering (R)",
    ))
    averages = [r for r in rows if r["dataset"] == "AVERAGE"]
    assert len(averages) == 4  # {RGAT, HGT} × {training, inference}
    for row in averages:
        assert row["C+R"] > 1.0
    # Enabling both optimizations is the best fixed strategy on average.
    assert best_fixed_strategy(rows) == "C+R"
    # Compaction helps most where the entity compaction ratio is smallest (biokg).
    rgat_inference = [r for r in rows if r["model"] == "RGAT" and r["mode"] == "inference"
                      and r["dataset"] not in ("AVERAGE",)]
    biokg = next(r for r in rgat_inference if r["dataset"] == "biokg")
    assert biokg["C"] == max(r["C"] for r in rgat_inference if r["C"] is not None)


def _executed_graphs():
    """Graphs on both sides of ``CompilerOptions.resolved``'s two thresholds.

    3 / 12 / 48 relations at entity compaction ratio ≈ 0.2 / 0.4 / 0.8 (6 400 /
    1 500 / 250 edges per relation), plus one fanout-bounded block of ≈ 960
    edges sampled from the middle one — what a trainer or router binds.
    """
    shapes = {"3rel": (4800, 19200, 3, 3), "12rel": (4500, 18000, 4, 12), "48rel": (16000, 12000, 6, 48)}
    graphs = [random_hetero_graph(*shape, seed=0, name=name) for name, shape in shapes.items()]
    block = sample_block(graphs[1], np.arange(60) * 60, fanouts=(8, 4)).graph
    block.name = "block"
    return graphs + [block]


@pytest.mark.smoke
def test_table5_executed_beside_modelled():
    """U / C / R / C+R as executed, beside the roofline model, and what the compiler decides.

    No ratio between configurations is gated beyond the two properties below;
    absolute times are in ``BENCH_<pr>.json``.  "Slower" leaves a 5 % band for
    the shared host: the same cell read 1.05–1.2 apart across sessions.
    """
    rows = executed_optimization_speedups(_executed_graphs())
    print()
    print(format_table(
        rows,
        title="Table 5, executed — python-codegen speed-up over U (thread_time) beside the roofline model's",
    ))
    # (a) The compiler never decides a configuration measured more than 5 % slower than U.
    picked_slower = [
        (row["graph"], row["model"], row["mode"], row["decision"], round(row[row["decision"]], 3))
        for row in rows if row["decision"] != "U" and row[row["decision"]] < 0.95
    ]
    assert not picked_slower, f"decided configuration measured > 5 % slower than U: {picked_slower}"
    # (b) Where the model calls a >= 10 % win, the measurement agrees in sign.  Every
    # sign disagreement is printed, gated or not: they are the cost model's calibration set.
    disagreements = [
        (row["graph"], row["model"], row["mode"], label, round(row[f"model_{label}"], 2), round(row[label], 2))
        for row in rows for label in CONFIG_LABELS[1:]
        if (row[f"model_{label}"] - 1.0) * (row[label] - 1.0) < 0 and abs(row[label] - 1.0) > 0.05
    ]
    print("model and measurement disagree in sign (graph, model, mode, config, modelled, measured):")
    for cell in disagreements:
        print("  ", cell)
    gated = [cell for cell in disagreements if cell[4] >= 1.10]
    assert not gated, f"the model calls a >= 10 % win that measures as a loss: {gated}"
