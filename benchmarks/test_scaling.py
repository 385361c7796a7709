"""Scaling benchmarks: how data-parallel sharded training is accounted.

Two claims are checked here, without reading a clock:

1. **Aggregate throughput is the critical path** —
   ``DistributedTrainStats.summary()`` folds per-shard busy seconds and the
   collective's reduce seconds into ``aggregate_seeds_per_s`` = seeds /
   (slowest shard's busy time + reduce time).  Asserted exactly on synthetic
   records with known seconds.
2. **Work splits evenly and changes nothing numerically** — a real 4-shard
   run gives every shard the same number of minibatches to within one and
   lands on the 1-worker run's final loss.

Measured epoch times are ``epoch_s.*`` in ``bench/``; the bit-identity of
gradients and parameters across {1, 2, 4} shards is
``tests/test_sharded_training.py``.
"""

import pytest

from repro.evaluation.reporting import format_table
from repro.frontend.compiler import compile_model
from repro.frontend.config import CONFIGURATIONS
from repro.graph.datasets import random_hetero_graph
from repro.graph.generators import random_features, random_labels
from repro.train import ShardedTrainer
from repro.train.collective import CollectiveStats
from repro.train.stats import DistributedTrainStats, EpochStats, ShardEpochStats

DIM = 8


class _Collective:
    def __init__(self, reduce_seconds):
        self.stats = CollectiveStats(operations=4, bytes_moved=4096, reduce_seconds=reduce_seconds)


def _stats(busy_seconds, minibatches, seeds=120):
    """One epoch over ``seeds`` seeds, shard ``i`` busy ``busy_seconds[i]``."""
    stats = DistributedTrainStats(num_shards=len(busy_seconds))
    stats.record(EpochStats(epoch=0, loss=1.0, num_seeds=seeds, num_minibatches=sum(minibatches),
                            num_steps=sum(minibatches), seconds=1.0))
    for shard, (busy, count) in enumerate(zip(busy_seconds, minibatches)):
        stats.record_shard(ShardEpochStats(shard=shard, epoch=0, num_minibatches=count,
                                           num_seeds=seeds * count // sum(minibatches), busy_seconds=busy))
    return stats


@pytest.mark.smoke
def test_aggregate_throughput_is_seeds_over_the_critical_path():
    """One worker busy 1.875 s; four shards busy up to 0.5 s; 0.125 s of reduce each.

    The critical paths are 2.0 s and 0.625 s, so 120 seeds aggregate to
    60 and 192 seeds/s: the slowest shard, not the mean, sets the rate.
    """
    one = _stats([1.875], [12]).summary(collective=_Collective(0.125))
    four = _stats([0.5, 0.4375, 0.4375, 0.375], [3, 3, 3, 3]).summary(collective=_Collective(0.125))
    assert (one["max_shard_busy_s"], one["aggregate_seeds_per_s"]) == (1.875, 60.0)
    assert (four["max_shard_busy_s"], four["aggregate_seeds_per_s"]) == (0.5, 192.0)
    assert four["shards"] == 4 and four["all_reduce_s"] == 0.125
    rows = _stats([0.5, 0.4375, 0.4375, 0.375], [3, 3, 3, 3]).per_shard_summary()
    assert [row["seeds_per_s"] for row in rows] == [60.0, 68.6, 68.6, 80.0]


@pytest.mark.smoke
def test_four_shards_split_minibatches_evenly_and_match_one_worker():
    """14 minibatches an epoch (120 seeds in batches of 9) spread 4/4/3/3."""
    graph = random_hetero_graph(
        num_nodes=120, num_edges=500, num_node_types=3, num_edge_types=6, seed=23, name="dispatch-bound",
    )
    features = random_features(graph, DIM, seed=0)
    labels = random_labels(graph, DIM, seed=1)
    epochs = 2

    def train(shards):
        trainer = ShardedTrainer(
            # Trained on sampled blocks: U pinned, not decided from the parent graph.
            lambda: compile_model("rgcn", graph, in_dim=DIM, out_dim=DIM, options=CONFIGURATIONS["U"], seed=0),
            graph, features, labels, num_shards=shards, optimizer="adam", lr=0.1, batch_size=9,
            accumulation_steps=1, fanouts=(None,), sampler_seed=0, shuffle_seed=0,
        )
        trainer.train(epochs)
        return trainer

    one, four = train(1), train(4)
    rows = four.stats.per_shard_summary()
    print()
    print(format_table(rows, title=f"4 shards — rgcn on {graph.name}, {epochs} epochs"))
    counts = [row["minibatches"] for row in rows]
    assert sorted(counts) == [3 * epochs, 3 * epochs, 4 * epochs, 4 * epochs]
    assert sum(row["seeds"] for row in rows) == graph.num_nodes * epochs
    assert four.summary()["all_reduce_ops"] > 0
    assert four.summary()["final_loss"] == one.summary()["final_loss"]
