"""Bit-identity lockdown for data-parallel sharded training.

The central contract of :class:`repro.train.distributed.ShardedTrainer`:
splitting an epoch's minibatches over N workers changes *where* gradients
are computed, never *what* is computed.  Under exact sampling
(``fanouts=(None,)``, where the sampler RNG cannot influence blocks), the
equivalence matrix {1, 2, 4} shards x {RGCN, RGAT, HGT} x {full-epoch,
windowed} accumulation pins every shard count to the 1-worker
:class:`~repro.train.trainer.MinibatchTrainer` with ``np.array_equal`` — no
tolerance — on post-training parameters, final window gradients, and loss
curves, through both the in-process and the shared-memory collective.

The mechanism under test: per-minibatch gradient leaves are all-reduced as
zero-padded rows (exact — each row has one non-zero contributor) and reduced
through the same canonical pairwise tree the single worker uses, so the
floating-point association is a function of the window's global minibatch
order, never of the shard count.

Also locked here: the sampler's negative-epoch/shard validation and the
empty-epoch / zero-seed-tail-shard behaviour (the satellite bugfixes), and
the collectives' own unit semantics.
"""

import numpy as np
import pytest

from repro.frontend import compile_model
from repro.graph import NeighborSampler, random_hetero_graph
from repro.graph.generators import random_labels
from repro.models import MODEL_NAMES
from repro.train import (
    LocalCollective,
    MinibatchTrainer,
    SharedMemoryCollective,
    ShardedTrainer,
    make_collective,
    shard_minibatches,
    tree_reduce,
)

DIM = 8
LR = 0.5
BATCH = 15
EPOCHS = 2


@pytest.fixture(scope="module")
def train_graph():
    return random_hetero_graph(
        num_nodes=60, num_edges=300, num_node_types=3, num_edge_types=6, seed=3, name="train"
    )


@pytest.fixture(scope="module")
def train_features(train_graph):
    return np.random.default_rng(0).standard_normal((train_graph.num_nodes, DIM))


@pytest.fixture(scope="module")
def train_labels(train_graph):
    return random_labels(train_graph, DIM, seed=1)


def make_factory(graph, model="rgcn", seed=7):
    return lambda: compile_model(model, graph, in_dim=DIM, out_dim=DIM, seed=seed)


def reference_trainer(graph, features, labels, model="rgcn", accumulation=2, optimizer="adam"):
    trainer = MinibatchTrainer(
        make_factory(graph, model)(), graph, features, labels,
        optimizer=optimizer, lr=LR, batch_size=BATCH,
        accumulation_steps=accumulation, fanouts=(None,),
    )
    trainer.train(EPOCHS)
    return trainer


def sharded_trainer(graph, features, labels, model="rgcn", shards=2, accumulation=2,
                    collective="local", optimizer="adam", epochs=EPOCHS):
    trainer = ShardedTrainer(
        make_factory(graph, model), graph, features, labels,
        num_shards=shards, collective=collective,
        optimizer=optimizer, lr=LR, batch_size=BATCH,
        accumulation_steps=accumulation, fanouts=(None,),
    )
    trainer.train(epochs)
    return trainer


class TestBitIdentityMatrix:
    """{1, 2, 4} shards x models x accumulation modes vs one worker."""

    @pytest.mark.parametrize("model", MODEL_NAMES)
    @pytest.mark.parametrize("shards", [1, 2, 4])
    @pytest.mark.parametrize("accumulation", [None, 2])
    def test_local_collective_matches_one_worker_bitwise(
        self, model, shards, accumulation, train_graph, train_features, train_labels
    ):
        reference = reference_trainer(
            train_graph, train_features, train_labels, model=model, accumulation=accumulation
        )
        sharded = sharded_trainer(
            train_graph, train_features, train_labels, model=model,
            shards=shards, accumulation=accumulation,
        )
        expected = reference.flat_parameters()
        for replica in sharded.trainers:
            assert np.array_equal(replica.flat_parameters(), expected)
        # Final window gradients survive on the replicas' parameters too.
        for replica in sharded.trainers:
            assert np.array_equal(replica.flat_gradient(), reference.flat_gradient())
        # Loss *telemetry* is a scalar running sum whose association follows
        # the shard layout (per-rank partials, then the rank tree); it is
        # fp-tight, not bitwise — the training state above is the bit contract.
        np.testing.assert_allclose(
            sharded.stats.loss_curve(), reference.stats.loss_curve(), rtol=1e-12
        )

    @pytest.mark.parametrize("model", MODEL_NAMES)
    @pytest.mark.parametrize("accumulation", [None, 2])
    def test_shared_memory_collective_matches_one_worker_bitwise(
        self, model, accumulation, train_graph, train_features, train_labels
    ):
        reference = reference_trainer(
            train_graph, train_features, train_labels, model=model, accumulation=accumulation
        )
        sharded = sharded_trainer(
            train_graph, train_features, train_labels, model=model,
            shards=2, accumulation=accumulation, collective="shm",
        )
        expected = reference.flat_parameters()
        for replica in sharded.trainers:
            assert np.array_equal(replica.flat_parameters(), expected)
        np.testing.assert_allclose(
            sharded.stats.loss_curve(), reference.stats.loss_curve(), rtol=1e-12
        )

    def test_shared_memory_four_shards(self, train_graph, train_features, train_labels):
        reference = reference_trainer(train_graph, train_features, train_labels)
        sharded = sharded_trainer(
            train_graph, train_features, train_labels, shards=4, collective="shm"
        )
        assert np.array_equal(
            sharded.trainers[0].flat_parameters(), reference.flat_parameters()
        )

    def test_sgd_momentum_free_path_matches(self, train_graph, train_features, train_labels):
        reference = reference_trainer(
            train_graph, train_features, train_labels, optimizer="sgd"
        )
        sharded = sharded_trainer(
            train_graph, train_features, train_labels, shards=2, optimizer="sgd"
        )
        assert np.array_equal(
            sharded.trainers[0].flat_parameters(), reference.flat_parameters()
        )

    def test_replicas_stay_in_sync(self, train_graph, train_features, train_labels):
        """Every replica ends every run holding identical parameters."""
        sharded = sharded_trainer(train_graph, train_features, train_labels, shards=4)
        first = sharded.trainers[0].flat_parameters()
        for replica in sharded.trainers[1:]:
            assert np.array_equal(replica.flat_parameters(), first)

    def test_repeated_train_calls_continue_bit_identically(
        self, train_graph, train_features, train_labels
    ):
        """train(1); train(1) == train(2): epoch streams and optimizer state
        (including the shm run's marshalled buffers) carry across calls."""
        reference = reference_trainer(train_graph, train_features, train_labels)
        for collective in ("local", "shm"):
            sharded = ShardedTrainer(
                make_factory(train_graph), train_graph, train_features, train_labels,
                num_shards=2, collective=collective, optimizer="adam", lr=LR,
                batch_size=BATCH, accumulation_steps=2, fanouts=(None,),
            )
            sharded.train(1)
            sharded.train(1)
            assert np.array_equal(
                sharded.trainers[0].flat_parameters(), reference.flat_parameters()
            )


class TestShardedStats:
    def test_global_epoch_records_match_one_worker(
        self, train_graph, train_features, train_labels
    ):
        reference = reference_trainer(train_graph, train_features, train_labels)
        sharded = sharded_trainer(train_graph, train_features, train_labels, shards=2)
        for ours, theirs in zip(sharded.stats.epochs, reference.stats.epochs):
            assert ours.loss == pytest.approx(theirs.loss, rel=1e-12)
            assert ours.num_seeds == theirs.num_seeds
            assert ours.num_minibatches == theirs.num_minibatches
            assert ours.num_steps == theirs.num_steps
            assert ours.block_nodes == theirs.block_nodes
            assert ours.block_edges == theirs.block_edges
            assert ours.layer_edges == theirs.layer_edges

    def test_per_shard_records_partition_the_work(
        self, train_graph, train_features, train_labels
    ):
        sharded = sharded_trainer(train_graph, train_features, train_labels, shards=2)
        for epoch in range(EPOCHS):
            records = [r for r in sharded.stats.shard_epochs if r.epoch == epoch]
            assert len(records) == 2
            assert sum(r.num_seeds for r in records) == train_graph.num_nodes
            assert sum(r.num_minibatches for r in records) == 4  # ceil(60 / 15)

    def test_summary_reports_collective_and_shards(
        self, train_graph, train_features, train_labels
    ):
        sharded = sharded_trainer(train_graph, train_features, train_labels, shards=2)
        summary = sharded.summary()
        assert summary["shards"] == 2
        assert summary["all_reduce_ops"] > 0
        assert summary["all_reduce_mb"] > 0
        assert "aggregate_seeds_per_s" in summary


class TestEdgeCasesAndValidation:
    """The satellite fixes: negative epoch/shard, empty epochs, tail shards."""

    def test_negative_epoch_raises_named_error(self, train_graph):
        sampler = NeighborSampler(train_graph, fanouts=(None,))
        with pytest.raises(ValueError, match="epoch must be >= 0.*got -1"):
            sampler.resample(-1)

    def test_negative_shard_raises_named_error(self, train_graph):
        sampler = NeighborSampler(train_graph, fanouts=(None,))
        with pytest.raises(ValueError, match="shard must be >= 0.*got -3"):
            sampler.resample(0, shard=-3)

    def test_negative_constructor_shard_raises(self, train_graph):
        with pytest.raises(ValueError, match="shard must be >= 0"):
            NeighborSampler(train_graph, fanouts=(None,), shard=-1)

    def test_empty_train_ids_fails_fast_with_named_error(
        self, train_graph, train_features, train_labels
    ):
        with pytest.raises(ValueError, match="at least one seed node"):
            MinibatchTrainer(
                compile_model("rgcn", train_graph, in_dim=DIM, out_dim=DIM, seed=7),
                train_graph, train_features, train_labels, train_ids=[],
            )

    def test_zero_seed_window_normalizer_rejected(
        self, train_graph, train_features, train_labels
    ):
        trainer = MinibatchTrainer(
            compile_model("rgcn", train_graph, in_dim=DIM, out_dim=DIM, seed=7),
            train_graph, train_features, train_labels, fanouts=(None,),
        )
        with pytest.raises(ValueError, match="window seed count must be >= 1"):
            trainer.minibatch_gradient(np.array([0, 1]), 0)

    def test_more_shards_than_minibatches_stays_bit_identical(
        self, train_graph, train_features, train_labels
    ):
        """Tail shards own zero minibatches in some (here: all) epochs; they
        must idle through the collectives, not crash, and stay in sync."""
        reference = MinibatchTrainer(
            make_factory(train_graph)(), train_graph, train_features, train_labels,
            optimizer="adam", lr=LR, batch_size=30, accumulation_steps=1, fanouts=(None,),
        )
        reference.train(EPOCHS)
        sharded = ShardedTrainer(
            make_factory(train_graph), train_graph, train_features, train_labels,
            num_shards=4, collective="local", optimizer="adam", lr=LR,
            batch_size=30, accumulation_steps=1, fanouts=(None,),
        )
        sharded.train(EPOCHS)
        expected = reference.flat_parameters()
        for replica in sharded.trainers:
            assert np.array_equal(replica.flat_parameters(), expected)
        idle = [r for r in sharded.stats.shard_epochs if r.num_minibatches == 0]
        assert idle, "expected at least one zero-minibatch tail shard record"

    def test_invalid_num_shards_rejected(self, train_graph, train_features, train_labels):
        with pytest.raises(ValueError, match="num_shards must be >= 1"):
            ShardedTrainer(
                make_factory(train_graph), train_graph, train_features, train_labels,
                num_shards=0,
            )

    def test_optimizer_instances_rejected(self, train_graph, train_features, train_labels):
        from repro.tensor import optim

        module = compile_model("rgcn", train_graph, in_dim=DIM, out_dim=DIM, seed=7)
        with pytest.raises(TypeError, match="optimizer \\*name\\*"):
            ShardedTrainer(
                make_factory(train_graph), train_graph, train_features, train_labels,
                num_shards=2, optimizer=optim.SGD(module.parameters(), lr=LR),
            )

    def test_unknown_collective_rejected(self, train_graph, train_features, train_labels):
        with pytest.raises(KeyError, match="unknown collective"):
            ShardedTrainer(
                make_factory(train_graph), train_graph, train_features, train_labels,
                num_shards=2, collective="nccl",
            )

    def test_worker_failure_surfaces_not_hangs(
        self, train_graph, train_features, train_labels
    ):
        """A worker raising mid-epoch must abort the rendezvous and re-raise
        in the driver, not deadlock the surviving ranks at the barrier."""
        sharded = ShardedTrainer(
            make_factory(train_graph), train_graph, train_features, train_labels,
            num_shards=2, collective="local", batch_size=BATCH, fanouts=(None,),
        )

        def explode(seeds, normalizer):  # sabotage rank 1 only
            raise RuntimeError("injected worker failure")

        sharded._trainers[1].minibatch_gradient = explode
        with pytest.raises(RuntimeError, match="injected worker failure"):
            sharded.train(1)


class TestShardMinibatches:
    def test_round_robin_partition(self):
        parts = shard_minibatches(10, 4)
        assert [list(p) for p in parts] == [[0, 4, 8], [1, 5, 9], [2, 6], [3, 7]]

    def test_partition_is_disjoint_and_covering(self):
        parts = shard_minibatches(23, 5)
        merged = np.sort(np.concatenate(parts))
        assert np.array_equal(merged, np.arange(23))

    def test_empty_and_invalid(self):
        assert [list(p) for p in shard_minibatches(0, 3)] == [[], [], []]
        with pytest.raises(ValueError, match="num_minibatches must be >= 0"):
            shard_minibatches(-1, 2)
        with pytest.raises(ValueError, match="num_shards must be >= 1"):
            shard_minibatches(4, 0)


class TestCollectives:
    """Unit semantics of the collective layer itself."""

    def test_tree_reduce_matches_sum_and_is_associatively_canonical(self):
        rng = np.random.default_rng(5)
        arrays = [rng.normal(size=7) for _ in range(6)]
        out = tree_reduce(arrays)
        assert np.allclose(out, np.sum(arrays, axis=0))
        # Canonical association: ((a+b)+(c+d)) + ((e+f)) for six inputs.
        expected = ((arrays[0] + arrays[1]) + (arrays[2] + arrays[3])) + (arrays[4] + arrays[5])
        assert np.array_equal(out, expected)

    def test_tree_reduce_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one array"):
            tree_reduce([])

    def test_local_collective_single_rank(self):
        collective = LocalCollective(1)
        out = collective.all_reduce(0, np.array([1.0, 2.0]))
        assert np.array_equal(out, [1.0, 2.0])
        assert collective.stats.operations == 1

    def test_local_collective_threads_sum_and_broadcast(self):
        import threading

        collective = LocalCollective(3)
        results = [None] * 3
        received = [None] * 3

        def worker(rank):
            results[rank] = np.array(
                collective.all_reduce(rank, np.full(4, float(rank + 1)))
            )
            received[rank] = np.array(
                collective.broadcast(rank, np.full(4, float(rank)), root=2)
            )

        threads = [threading.Thread(target=worker, args=(r,)) for r in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for rank in range(3):
            assert np.array_equal(results[rank], np.full(4, 6.0))
            assert np.array_equal(received[rank], np.full(4, 2.0))
        assert collective.stats.operations == 1
        assert collective.stats.bytes_moved == 3 * 4 * 8

    def test_shared_memory_capacity_enforced(self):
        collective = SharedMemoryCollective(1, capacity=4)
        with pytest.raises(ValueError, match="exceeds the collective's capacity"):
            collective.all_reduce(0, np.zeros(5))
        with pytest.raises(ValueError, match="positive element capacity"):
            SharedMemoryCollective(2)

    def test_shared_memory_single_rank_round_trip(self):
        collective = SharedMemoryCollective(1, capacity=6)
        out = collective.all_reduce(0, np.arange(6.0).reshape(2, 3))
        assert np.array_equal(out, np.arange(6.0).reshape(2, 3))
        assert collective.stats.operations == 1

    def test_rank_validation(self):
        collective = LocalCollective(2)
        with pytest.raises(ValueError, match="rank must lie in"):
            collective.all_reduce(2, np.zeros(1))
        with pytest.raises(ValueError, match="world_size must be >= 1"):
            LocalCollective(0)

    def test_make_collective_registry(self):
        assert isinstance(make_collective("local", 2), LocalCollective)
        assert isinstance(make_collective("shm", 2, capacity=8), SharedMemoryCollective)
        assert isinstance(
            make_collective("multiprocessing", 2, capacity=8), SharedMemoryCollective
        )
        with pytest.raises(KeyError, match="unknown collective 'mpi'"):
            make_collective("mpi", 2)
