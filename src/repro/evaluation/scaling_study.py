"""Data-parallel scaling study: sharded training across worker counts.

For each worker count the study trains the *same* workload through
:class:`~repro.train.distributed.ShardedTrainer` and reports, per row:

* per-worker seed throughput (each shard's seeds over its own busy time,
  reported as the mean across shards);
* collective traffic (all-reduce operations, megabytes moved, reduce time);
* the modelled aggregate throughput — total seeds over the critical path
  (slowest shard's busy time plus the collective's reduce time), which is
  what data-parallel wall-clock converges to once workers stop contending
  for one interpreter lock;
* efficiency — aggregate speedup over the 1-worker row divided by the
  worker count.

Busy time is per-worker **CPU time** (``time.thread_time``), so in-process
thread workers are charged for their own compute, not for waiting out the
GIL — the study measures the sharding, not CPython's scheduler.  The
workload is the dispatch-bound cell of the backend study (many small typed
edge groups, tiny features), where per-minibatch Python dispatch dominates
and sharding pays off fastest.

``benchmarks/test_scaling.py`` gates the 4-worker aggregate at >= 1.8x the
1-worker row; CI publishes the 1/2/4/8-worker table in the job summary
(``python -m repro.evaluation.scaling_study --markdown``).
"""

from __future__ import annotations

import argparse
from typing import Dict, List, Optional, Sequence

from repro.frontend.compiler import compile_model
from repro.frontend.config import CONFIGURATIONS
from repro.graph.generators import random_features, random_labels
from repro.graph.datasets import random_hetero_graph
from repro.graph.hetero_graph import HeteroGraph
from repro.train import ShardedTrainer
from repro.evaluation.reporting import format_markdown_table

DIM = 8
WORKER_COUNTS = (1, 2, 4, 8)


def dispatch_bound_graph(seed: int = 23) -> HeteroGraph:
    """The backend study's dispatch-bound cell: many tiny typed edge groups."""
    return random_hetero_graph(
        num_nodes=120, num_edges=500, num_node_types=3, num_edge_types=6, seed=seed,
        name="dispatch-bound",
    )


def scaling_study(
    model: str = "rgcn",
    graph: Optional[HeteroGraph] = None,
    worker_counts: Sequence[int] = WORKER_COUNTS,
    epochs: int = 2,
    batch_size: int = 10,
    collective: str = "local",
    lr: float = 0.1,
    seed: int = 0,
) -> Dict[str, object]:
    """Train the workload at every worker count; returns rows + speedups.

    Every row trains from identical initial parameters (same compile seed)
    over identical global minibatch streams — the runs differ only in how
    the minibatches are spread across workers.  Returns ``{"rows": [...],
    "aggregate_speedups": {workers: x}, "efficiencies": {workers: x}}``.
    """
    graph = graph if graph is not None else dispatch_bound_graph()
    features = random_features(graph, DIM, seed=seed)
    labels = random_labels(graph, DIM, seed=seed + 1)

    rows: List[Dict[str, object]] = []
    baseline_aggregate: Optional[float] = None
    for workers in worker_counts:
        trainer = ShardedTrainer(
            # Trained on sampled blocks: U pinned, not decided from the parent graph.
            lambda: compile_model(model, graph, in_dim=DIM, out_dim=DIM, options=CONFIGURATIONS["U"], seed=seed),
            graph, features, labels,
            num_shards=workers, collective=collective,
            optimizer="adam", lr=lr, batch_size=batch_size,
            accumulation_steps=1, fanouts=(None,),
            sampler_seed=seed, shuffle_seed=seed,
        )
        trainer.train(epochs)
        summary = trainer.summary()
        shard_rows = trainer.stats.per_shard_summary()
        per_worker = [row["seeds_per_s"] for row in shard_rows if row["busy_s"] > 0]
        aggregate = float(summary["aggregate_seeds_per_s"])
        if baseline_aggregate is None:
            baseline_aggregate = aggregate
        speedup = aggregate / baseline_aggregate if baseline_aggregate else 0.0
        rows.append({
            "workers": workers,
            "final_loss": summary["final_loss"],
            "worker_seeds_per_s": round(sum(per_worker) / len(per_worker), 1) if per_worker else 0.0,
            "aggregate_seeds_per_s": round(aggregate, 1),
            "speedup": round(speedup, 2),
            "efficiency": round(speedup / workers, 2),
            "all_reduce_ops": summary["all_reduce_ops"],
            "all_reduce_mb": summary["all_reduce_mb"],
            "all_reduce_s": summary["all_reduce_s"],
            "max_shard_busy_s": summary["max_shard_busy_s"],
        })
    losses = {row["final_loss"] for row in rows}
    return {
        "model": model,
        "graph": graph.name,
        "epochs": epochs,
        "collective": collective,
        "rows": rows,
        "aggregate_speedups": {row["workers"]: row["speedup"] for row in rows},
        "efficiencies": {row["workers"]: row["efficiency"] for row in rows},
        # Exact sampling + identical seeds: every worker count must land on
        # the same loss (the bit-identity lockdown, visible in the table).
        "losses_identical": len(losses) == 1,
    }


def scaling_rows(study: Dict[str, object]) -> List[Dict[str, object]]:
    """The study's table rows (for ``format_table`` / markdown rendering)."""
    return list(study["rows"])


def main(argv: Optional[List[str]] = None) -> None:
    """CLI entry point; ``--markdown`` targets the CI job summary."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--model", default="rgcn", choices=["rgcn", "rgat", "hgt"])
    parser.add_argument("--epochs", type=int, default=2)
    parser.add_argument("--batch-size", type=int, default=10)
    parser.add_argument("--workers", type=int, nargs="+", default=list(WORKER_COUNTS))
    parser.add_argument("--collective", default="local", choices=["local", "shm", "multiprocessing"])
    parser.add_argument("--markdown", action="store_true",
                        help="emit GitHub-flavoured markdown tables (for $GITHUB_STEP_SUMMARY)")
    args = parser.parse_args(argv)
    study = scaling_study(model=args.model, epochs=args.epochs, batch_size=args.batch_size,
                          worker_counts=args.workers, collective=args.collective)
    if args.markdown:
        print(f"### Data-parallel scaling — {study['model']} on {study['graph']} "
              f"({study['epochs']} epochs, {study['collective']} collective)")
        print()
        print(format_markdown_table(scaling_rows(study)))
        print()
        print(f"**Losses identical across worker counts: {study['losses_identical']}** "
              f"(the bit-identity guarantee, visible end to end)")
    else:
        from repro.evaluation.reporting import format_table

        print(format_table(scaling_rows(study),
                           title=f"Scaling study — {study['model']} on {study['graph']}"))
        print(f"losses identical across worker counts: {study['losses_identical']}")


if __name__ == "__main__":  # pragma: no cover - CLI
    main()
