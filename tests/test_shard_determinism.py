"""Property-based determinism guarantees of the sharded-training substrate.

Three families of properties back the data-parallel design:

* **seed-stream separation** — the sampler salts its per-edge keys from the
  word tuple ``(base_seed, epoch[, shard])``; distinct ``(epoch, shard)``
  pairs must never produce colliding salts (distinct tuples → distinct key
  streams, and shard-less streams never alias sharded ones);
* **partitioning** — :func:`~repro.train.distributed.shard_minibatches` is a
  pure function whose output is always a disjoint, covering, deterministic,
  balanced-to-within-one partition of the global minibatch index range;
* **replayability** — ``resample(epoch, shard)`` is a pure reset: replaying
  any ``(epoch, shard)`` reproduces the identical block regardless of which
  other shards' epochs were sampled in between (the property that lets every
  worker re-derive any other worker's stream for debugging).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import HeteroGraph, NeighborSampler, random_hetero_graph
from repro.train import shard_minibatches

#: Salts depend on the graph not at all; the smallest one will do.
TINY = HeteroGraph({"n": 1}, {("n", "r", "n"): (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))})

epochs = st.integers(min_value=0, max_value=50)
shards = st.integers(min_value=0, max_value=7)


@pytest.fixture(scope="module")
def graph():
    return random_hetero_graph(
        num_nodes=40, num_edges=200, num_node_types=2, num_edge_types=4, seed=9
    )


def stream_fingerprint(base_seed, epoch, shard):
    """The per-edge key salt of the sampler's ``(seed, epoch, shard)`` stream."""
    sampler = NeighborSampler(TINY, fanouts=(1,), seed=base_seed, shard=shard)
    sampler.resample(epoch)
    return int(sampler._salt)


class TestSeedStreamSeparation:
    @settings(max_examples=60, deadline=None)
    @given(e1=epochs, s1=shards, e2=epochs, s2=shards)
    def test_distinct_epoch_shard_pairs_never_collide(self, e1, s1, e2, s2):
        if (e1, s1) == (e2, s2):
            return
        assert stream_fingerprint(0, e1, s1) != stream_fingerprint(0, e2, s2)

    @settings(max_examples=40, deadline=None)
    @given(epoch=epochs, shard=shards.filter(lambda s: s >= 1))
    def test_sharded_streams_never_alias_unsharded_ones(self, epoch, shard):
        """A worker's stream (shard >= 1) must differ from every 1-worker
        epoch stream — otherwise shard k would silently replay some
        single-worker epoch."""
        for other_epoch in range(8):
            assert stream_fingerprint(0, epoch, shard) != stream_fingerprint(0, other_epoch, None)

    def test_shard_zero_is_the_unsharded_stream(self):
        """Pinned identity: numpy's SeedSequence absorbs a trailing zero
        word, so ``(epoch, shard=0)`` salts the very keys unsharded
        training uses — a 1-shard world reproduces the plain trainer's
        sampling exactly, by construction."""
        for epoch in range(5):
            assert stream_fingerprint(0, epoch, 0) == stream_fingerprint(0, epoch, None)

    @settings(max_examples=40, deadline=None)
    @given(epoch=epochs, shard=shards)
    def test_sampler_draws_differ_across_shards(self, graph, epoch, shard):
        a = NeighborSampler(graph, fanouts=(2,), seed=0)
        a.resample(epoch, shard=shard)
        b = NeighborSampler(graph, fanouts=(2,), seed=0)
        b.resample(epoch, shard=shard + 1)
        # Same fanout policy, same seeds, adjacent shards: the sampled edge
        # sets are allowed to coincide by chance on tiny graphs, but the
        # per-edge keys that rank every row must differ.
        assert a._salt != b._salt


class TestShardPartition:
    @settings(max_examples=100, deadline=None)
    @given(
        num_minibatches=st.integers(min_value=0, max_value=200),
        num_shards=st.integers(min_value=1, max_value=16),
    )
    def test_partition_is_disjoint_covering_and_balanced(self, num_minibatches, num_shards):
        parts = shard_minibatches(num_minibatches, num_shards)
        assert len(parts) == num_shards
        merged = np.concatenate(parts) if parts else np.array([])
        assert len(merged) == num_minibatches  # covering without duplicates
        assert np.array_equal(np.sort(merged), np.arange(num_minibatches))
        sizes = [len(part) for part in parts]
        assert max(sizes) - min(sizes) <= 1  # balanced to within one
        for shard, part in enumerate(parts):
            assert all(index % num_shards == shard for index in part)  # round-robin

    @settings(max_examples=50, deadline=None)
    @given(
        num_minibatches=st.integers(min_value=0, max_value=200),
        num_shards=st.integers(min_value=1, max_value=16),
    )
    def test_partition_is_deterministic(self, num_minibatches, num_shards):
        first = shard_minibatches(num_minibatches, num_shards)
        second = shard_minibatches(num_minibatches, num_shards)
        for a, b in zip(first, second):
            assert np.array_equal(a, b)


class TestResampleReplay:
    @settings(max_examples=25, deadline=None)
    @given(
        epoch=st.integers(min_value=0, max_value=10),
        shard=st.integers(min_value=0, max_value=3),
        interleaved=st.lists(
            st.tuples(st.integers(min_value=0, max_value=10), st.integers(min_value=0, max_value=3)),
            max_size=4,
        ),
    )
    def test_resample_replays_identically_after_other_shards(self, graph, epoch, shard, interleaved):
        """Sampling other (epoch, shard) streams between two visits of the
        same (epoch, shard) must not perturb the replay."""
        seeds = np.arange(12)
        sampler = NeighborSampler(graph, fanouts=(2, 2), seed=5)
        sampler.resample(epoch, shard=shard)
        original = sampler.sample(seeds)
        for other_epoch, other_shard in interleaved:
            sampler.resample(other_epoch, shard=other_shard)
            sampler.sample(seeds)
        sampler.resample(epoch, shard=shard)
        replayed = sampler.sample(seeds)
        assert np.array_equal(original.node_map, replayed.node_map)
        assert original.num_edges == replayed.num_edges
        assert np.array_equal(
            original.graph.relation_edge_counts(), replayed.graph.relation_edge_counts()
        )
        assert np.array_equal(original.graph.coo.src, replayed.graph.coo.src)
        assert np.array_equal(original.graph.coo.dst, replayed.graph.coo.dst)

    def test_constructor_shard_is_sticky_across_resamples(self, graph):
        """A sampler built with shard=k keeps drawing shard-k streams when
        resample is called without an explicit shard."""
        sharded = NeighborSampler(graph, fanouts=(2,), seed=5, shard=2)
        sharded.resample(4)
        explicit = NeighborSampler(graph, fanouts=(2,), seed=5)
        explicit.resample(4, shard=2)
        seeds = np.arange(12)
        a, b = sharded.sample(seeds), explicit.sample(seeds)
        assert np.array_equal(a.node_map, b.node_map)
        assert a.num_edges == b.num_edges
