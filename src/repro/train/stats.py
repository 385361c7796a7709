"""Training telemetry: per-epoch records and run-level summaries.

Every aggregate here is defined for *every* history length: zero epochs,
zero shards, zero seconds, and zero collective operations all summarise to
zeros (or ``None`` where "no data" is meaningful) rather than raising — the
zero-record discipline ``tests/test_stats_edge_cases.py`` pins division by
division.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional


@dataclass
class EpochStats:
    """One trainer epoch's record.

    Attributes:
        epoch: the sampler epoch index this epoch trained under.
        loss: mean loss per seed over the epoch.
        num_seeds: seed nodes trained on (the epoch's training-set size).
        num_minibatches: blocks sampled and executed.
        num_steps: optimizer steps taken (accumulation windows completed).
        seconds: wall-clock time of the epoch.
        block_nodes / block_edges: total block sizes sampled this epoch.
        layer_edges: per-layer aggregation work (edges each layer processed,
            summed over minibatches); one entry for single-layer training.
    """

    epoch: int
    loss: float
    num_seeds: int
    num_minibatches: int
    num_steps: int
    seconds: float
    block_nodes: int = 0
    block_edges: int = 0
    layer_edges: List[int] = field(default_factory=list)

    @property
    def seeds_per_second(self) -> float:
        return self.num_seeds / self.seconds if self.seconds > 0 else 0.0


@dataclass
class TrainStats:
    """A training run's accumulated telemetry."""

    epochs: List[EpochStats] = field(default_factory=list)

    def record(self, epoch: EpochStats) -> None:
        self.epochs.append(epoch)

    @property
    def num_epochs(self) -> int:
        return len(self.epochs)

    def loss_curve(self) -> List[float]:
        """Mean loss per epoch, in training order."""
        return [epoch.loss for epoch in self.epochs]

    @property
    def final_loss(self) -> Optional[float]:
        return self.epochs[-1].loss if self.epochs else None

    def summary(
        self,
        sampler=None,
        arena_pools=None,
    ) -> Dict[str, object]:
        """Run-level report row.

        Args:
            sampler: optional :class:`~repro.graph.sampler.NeighborSampler`
                whose ``draw_hit_rate`` — frontier nodes a merged draw
                skipped because an earlier hop had already expanded them,
                against the (relation, destination) rows drawn; 0 for
                per-hop sampling — should be included as
                ``sampler_hit_rate``.
            arena_pools: optional iterable of arena lease sources
                (:class:`~repro.runtime.planner.TenantArenaSource`, whose
                ``stats`` hold the ``hits`` / ``misses`` counters).
        """
        seconds = sum(epoch.seconds for epoch in self.epochs)
        seeds = sum(epoch.num_seeds for epoch in self.epochs)
        out: Dict[str, object] = {
            "epochs": self.num_epochs,
            "final_loss": round(self.final_loss, 6) if self.final_loss is not None else None,
            "seeds_per_s": round(seeds / seconds, 1) if seconds > 0 else 0.0,
            "minibatches": sum(epoch.num_minibatches for epoch in self.epochs),
            "optimizer_steps": sum(epoch.num_steps for epoch in self.epochs),
            "block_edges": sum(epoch.block_edges for epoch in self.epochs),
        }
        if sampler is not None:
            out["sampler_hit_rate"] = round(sampler.draw_hit_rate, 3)
        # Materialise before counting: a generator of pools would be consumed
        # by the hits sum and silently report zero misses (hit rate 1.0).
        arena_pools = list(arena_pools) if arena_pools is not None else []
        if arena_pools:
            hits = sum(pool.stats.hits for pool in arena_pools)
            misses = sum(pool.stats.misses for pool in arena_pools)
            lookups = hits + misses
            out["arena_hit_rate"] = round(hits / lookups, 3) if lookups else 0.0
        return out


@dataclass
class ShardEpochStats:
    """One data-parallel worker's share of one epoch.

    ``busy_seconds`` is the worker's own compute time (thread CPU time for
    in-process workers), excluding time blocked in collective operations —
    the quantity the scaling study's critical-path model maxes over.
    """

    shard: int
    epoch: int
    num_minibatches: int
    num_seeds: int
    busy_seconds: float

    @property
    def seeds_per_second(self) -> float:
        return self.num_seeds / self.busy_seconds if self.busy_seconds > 0 else 0.0


@dataclass
class DistributedTrainStats(TrainStats):
    """Sharded-run telemetry: epoch records plus per-shard and collective views.

    The epoch records (inherited) describe the *global* run — every shard
    observes identical reduced losses and work totals, so there is exactly
    one record per epoch.  ``shard_epochs`` carries each worker's own
    minibatch/seed/busy-time share.
    """

    shard_epochs: List[ShardEpochStats] = field(default_factory=list)
    num_shards: int = 1

    def record_shard(self, record: ShardEpochStats) -> None:
        self.shard_epochs.append(record)

    def shard_records(self, shard: int) -> List[ShardEpochStats]:
        return [record for record in self.shard_epochs if record.shard == shard]

    @property
    def max_shard_busy_seconds(self) -> float:
        """Critical-path compute time: the slowest shard's total busy time."""
        per_shard = [
            sum(record.busy_seconds for record in self.shard_records(shard))
            for shard in range(self.num_shards)
        ]
        return max(per_shard) if per_shard else 0.0

    def per_shard_summary(self) -> List[Dict[str, object]]:
        """One row per shard: minibatches, seeds, busy time, seeds/s."""
        rows: List[Dict[str, object]] = []
        for shard in range(self.num_shards):
            records = self.shard_records(shard)
            seeds = sum(record.num_seeds for record in records)
            busy = sum(record.busy_seconds for record in records)
            rows.append({
                "shard": shard,
                "minibatches": sum(record.num_minibatches for record in records),
                "seeds": seeds,
                "busy_s": round(busy, 4),
                "seeds_per_s": round(seeds / busy, 1) if busy > 0 else 0.0,
            })
        return rows

    def summary(self, sampler=None, arena_pools=None, collective=None) -> Dict[str, object]:
        """Run-level report: the global view plus sharding/collective columns.

        ``aggregate_seeds_per_s`` models data-parallel wall-clock as the
        critical path — the slowest shard's busy time plus the collective's
        reduction time — the number the scaling study gates on.
        """
        out = super().summary(sampler=sampler, arena_pools=arena_pools)
        seeds = sum(epoch.num_seeds for epoch in self.epochs)
        out["shards"] = self.num_shards
        busy = self.max_shard_busy_seconds
        reduce_seconds = 0.0
        if collective is not None:
            stats = collective.stats
            out.update(stats.summary())
            reduce_seconds = stats.reduce_seconds
        critical_path = busy + reduce_seconds
        out["max_shard_busy_s"] = round(busy, 4)
        out["aggregate_seeds_per_s"] = (
            round(seeds / critical_path, 1) if critical_path > 0 else 0.0
        )
        return out
