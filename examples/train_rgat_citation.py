"""Train a single-head RGAT layer on a synthetic citation knowledge graph.

Mirrors the paper's training methodology (Section 4.1) — cross-entropy
against random labels, running entirely through Hector's generated forward
and backward kernels — but drives it through the :mod:`repro.train`
minibatch trainer:

* a **full-graph** run (unbounded fanout, one accumulation window per
  epoch): exactly classic full-graph training, via the same code path;
* a **sampled-minibatch** run (fanout-capped blocks, one optimizer step per
  minibatch): the production regime, resampling fresh neighborhoods every
  epoch.

Also prints the optimization effect of compaction + reordering on the
compiled plan.  Run with: ``python examples/train_rgat_citation.py``
"""

from repro import CompilerOptions, compile_model
from repro.graph import load_dataset
from repro.graph.generators import random_features, random_labels
from repro.train import MinibatchTrainer

DIM = 32
NUM_CLASSES = DIM  # the layer output doubles as class logits
EPOCHS = 20


def main() -> None:
    # A scaled instantiation of the aifb citation dataset (Table 3 structure).
    graph = load_dataset("aifb", max_edges=6000)
    print(f"graph: {graph}")

    for label, options in (
        ("unoptimised", CompilerOptions(compact_materialization=False, linear_operator_reordering=False)),
        ("compaction + reordering", CompilerOptions(compact_materialization=True,
                                                    linear_operator_reordering=True)),
    ):
        module = compile_model("rgat", graph, in_dim=DIM, out_dim=DIM, options=options, seed=0)
        summary = module.plan.summary()
        print(f"\n[{label}] kernels: {summary['num_gemm_kernels']} GEMM, "
              f"{summary['num_traversal_kernels']} traversal, {summary['num_fallback_kernels']} fallback")

    options = CompilerOptions(compact_materialization=True, linear_operator_reordering=True)
    features = random_features(graph, DIM, seed=0)
    labels = random_labels(graph, NUM_CLASSES, seed=1)

    for mode, trainer_kwargs in (
        # One window covering the whole graph per epoch == full-graph training.
        ("full-graph", dict(batch_size=None, accumulation_steps=None, fanouts=(None,))),
        # Production regime: fanout-capped blocks, one step per minibatch,
        # fresh neighborhoods every epoch (the sampler resamples per epoch).
        ("minibatch (batch=64, fanout=8)", dict(batch_size=64, accumulation_steps=1, fanouts=(8,))),
    ):
        module = compile_model("rgat", graph, in_dim=DIM, out_dim=DIM, options=options, seed=0)
        trainer = MinibatchTrainer(
            module, graph, features, labels,
            objective="cross_entropy", optimizer="adam", lr=0.01,
            **trainer_kwargs,
        )
        print(f"\ntraining [{mode}]:")
        for epoch in range(EPOCHS):
            record = trainer.epoch()
            if epoch % 5 == 0 or epoch == EPOCHS - 1:
                print(f"  epoch {epoch:3d}  loss {record.loss:.4f}  "
                      f"{record.num_minibatches} minibatches, {record.num_steps} steps, "
                      f"{record.seeds_per_second:,.0f} seeds/s")
        summary = trainer.summary()
        print(f"  summary: final loss {summary['final_loss']:.4f}, "
              f"sampler hit rate {summary['sampler_hit_rate']}, "
              f"arena hit rate {summary['arena_hit_rate']}")


if __name__ == "__main__":
    main()
