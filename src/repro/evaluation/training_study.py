"""Training study: sampled-minibatch vs full-graph training on the citation workload.

Two comparisons back the ``benchmarks/test_training.py`` gates:

* **loss parity** — the same model, initial parameters, optimizer, and epoch
  budget trained (a) full-graph and (b) over fanout-capped sampled
  minibatches must land at comparable training loss; sampling trades exact
  gradients for per-epoch block work, not for convergence;
* **per-hop work** — executing an L-layer stack layer-by-hop over
  :meth:`~repro.graph.sampler.NeighborSampler.sample_blocks` must do no more
  per-layer aggregation work (edges processed) than running every layer over
  the merged block, with strict savings on the inner layers.

CI publishes the tables in the job summary
(``python -m repro.evaluation.training_study --markdown``).
"""

from __future__ import annotations

import argparse
from typing import Dict, List, Optional

import numpy as np

from repro.frontend.compiler import compile_model
from repro.frontend.config import CONFIGURATIONS
from repro.graph import load_dataset
from repro.graph.generators import random_features, random_labels
from repro.graph.hetero_graph import HeteroGraph
from repro.graph.sampler import NeighborSampler
from repro.train import MinibatchTrainer
from repro.evaluation.reporting import format_markdown_table

DIM = 16
NUM_CLASSES = DIM  # layer outputs double as class logits


def citation_graph(max_edges: int = 4000) -> HeteroGraph:
    """The study's workload: a scaled instantiation of the aifb citation KG."""
    return load_dataset("aifb", max_edges=max_edges)


def _run_trainer(trainer: MinibatchTrainer, epochs: int, mode: str) -> Dict[str, object]:
    stats = trainer.train(epochs)
    row = {"mode": mode}
    row.update(trainer.summary())
    row["first_loss"] = round(stats.loss_curve()[0], 4)
    row["final_loss"] = round(stats.final_loss, 4)
    return row


def training_study(
    model: str = "rgat",
    graph: Optional[HeteroGraph] = None,
    epochs: int = 6,
    batch_size: int = 32,
    fanout: int = 8,
    lr: float = 0.02,
    seed: int = 0,
) -> Dict[str, object]:
    """Full-graph vs sampled-minibatch training, identical everything else.

    Both trainers share the model, initial parameters (same compile seed),
    features, labels, optimizer (Adam), and epoch budget; only the sampling
    policy differs.  Returns ``{"rows": [...], "loss_gap": float, ...}``.
    """
    graph = graph if graph is not None else citation_graph()
    features = random_features(graph, DIM, seed=seed)
    labels = random_labels(graph, NUM_CLASSES, seed=seed + 1)

    def build_trainer(**kwargs) -> MinibatchTrainer:
        # One module for both trainers, and one of them runs sampled blocks: U pinned.
        module = compile_model(model, graph, in_dim=DIM, out_dim=DIM, options=CONFIGURATIONS["U"], seed=seed)
        return MinibatchTrainer(
            module, graph, features, labels,
            objective="cross_entropy", optimizer="adam", lr=lr,
            sampler_seed=seed, shuffle_seed=seed, **kwargs,
        )

    full = build_trainer(batch_size=None, accumulation_steps=None, fanouts=(None,))
    sampled = build_trainer(batch_size=batch_size, accumulation_steps=1, fanouts=(fanout,))

    rows = [
        _run_trainer(full, epochs, "full-graph"),
        _run_trainer(sampled, epochs, f"minibatch(b={batch_size}, fanout={fanout})"),
    ]
    full_loss = rows[0]["final_loss"]
    sampled_loss = rows[1]["final_loss"]
    return {
        "model": model,
        "graph": graph.name,
        "epochs": epochs,
        "rows": rows,
        "full_final_loss": full_loss,
        "sampled_final_loss": sampled_loss,
        "loss_gap": round(sampled_loss - full_loss, 4),
        "both_losses_improved": (
            rows[0]["final_loss"] < rows[0]["first_loss"]
            and rows[1]["final_loss"] < rows[1]["first_loss"]
        ),
    }


def perhop_work_study(
    model: str = "rgcn",
    graph: Optional[HeteroGraph] = None,
    num_layers: int = 2,
    fanout: int = 8,
    num_requests: int = 16,
    seeds_per_request: int = 8,
    seed: int = 0,
) -> Dict[str, object]:
    """Per-layer aggregation work: per-hop blocks vs one merged block.

    Samples a stream of seed sets; for each, builds both the per-hop block
    sequence and the merged block *within one sampler epoch* (same per-edge
    keys, uniform fanout), so the outermost per-hop block contains exactly
    the merged edge set and the comparison is edge-for-edge fair.  Layer
    ``l`` of a per-hop execution aggregates over ``blocks[l-1].num_edges``
    edges while merged execution pays the whole merged block at every layer
    (``MultiLayerModule.layer_edge_counts`` reports exactly these counts for
    real runs — the accounting here needs only the blocks).  Returns
    per-layer totals and the aggregate savings fraction.
    """
    graph = graph if graph is not None else citation_graph()
    sampler = NeighborSampler(graph, fanouts=(fanout,) * num_layers, seed=seed)
    rng = np.random.default_rng(seed)

    per_hop_edges = [0] * num_layers
    merged_edges = [0] * num_layers
    for _ in range(num_requests):
        request = rng.choice(graph.num_nodes, size=seeds_per_request, replace=False)
        blocks = sampler.sample_blocks(request)
        merged = sampler.sample(request)
        for layer, block in enumerate(blocks):
            per_hop_edges[layer] += block.num_edges
            merged_edges[layer] += merged.num_edges

    rows: List[Dict[str, object]] = []
    for layer in range(num_layers):
        rows.append({
            "layer": layer + 1,
            "per_hop_edges": per_hop_edges[layer],
            "merged_edges": merged_edges[layer],
            "work_ratio": round(per_hop_edges[layer] / merged_edges[layer], 3)
            if merged_edges[layer] else 0.0,
        })
    total_per_hop = sum(per_hop_edges)
    total_merged = sum(merged_edges)
    return {
        "model": model,
        "graph": graph.name,
        "num_layers": num_layers,
        "fanout": fanout,
        "rows": rows,
        "total_per_hop_edges": total_per_hop,
        "total_merged_edges": total_merged,
        "aggregation_savings": round(1.0 - total_per_hop / total_merged, 3) if total_merged else 0.0,
        "no_layer_does_more_work": all(
            row["per_hop_edges"] <= row["merged_edges"] for row in rows
        ),
    }


def training_rows(study: Dict[str, object]) -> List[Dict[str, object]]:
    """The study's table rows (for ``format_table`` / markdown rendering)."""
    return list(study["rows"])


def main(argv: Optional[List[str]] = None) -> None:
    """CLI entry point; ``--markdown`` targets the CI job summary."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--model", default="rgat", choices=["rgcn", "rgat", "hgt"])
    parser.add_argument("--epochs", type=int, default=6)
    parser.add_argument("--batch-size", type=int, default=32)
    parser.add_argument("--fanout", type=int, default=8)
    parser.add_argument("--markdown", action="store_true",
                        help="emit GitHub-flavoured markdown tables (for $GITHUB_STEP_SUMMARY)")
    args = parser.parse_args(argv)
    study = training_study(model=args.model, epochs=args.epochs,
                           batch_size=args.batch_size, fanout=args.fanout)
    work = perhop_work_study(fanout=args.fanout)
    if args.markdown:
        print(f"### Training — {study['model']} on {study['graph']} ({study['epochs']} epochs)")
        print()
        print(format_markdown_table(training_rows(study)))
        print()
        print(f"**Sampled-vs-full final-loss gap: {study['loss_gap']}** "
              f"(both improved: {study['both_losses_improved']})")
        print()
        print(f"### Per-hop vs merged aggregation work — {work['num_layers']}-layer "
              f"{work['model']}, fanout {work['fanout']}")
        print()
        print(format_markdown_table(work["rows"]))
        print()
        print(f"**Aggregation savings: {work['aggregation_savings'] * 100:.1f}%** "
              f"(no layer does more work: {work['no_layer_does_more_work']})")
    else:
        from repro.evaluation.reporting import format_table

        print(format_table(training_rows(study),
                           title=f"Training study — {study['model']} on {study['graph']}"))
        print(f"sampled-vs-full final-loss gap: {study['loss_gap']}")
        print(format_table(work["rows"],
                           title=f"Per-hop vs merged work — {work['num_layers']}-layer {work['model']}"))
        print(f"aggregation savings: {work['aggregation_savings'] * 100:.1f}%")


if __name__ == "__main__":  # pragma: no cover - CLI
    main()
