"""Hector runtime: graph context, executor, memory planning, rebindable modules."""

from repro.runtime.binding import GraphBinding
from repro.runtime.context import GraphContext
from repro.runtime.executor import PlanExecutor
from repro.runtime.memory import MemoryModel, OutOfMemoryError
from repro.runtime.module import CompiledRGNNModule
from repro.runtime.multilayer import MultiLayerModule, StackRun
from repro.runtime.planner import (
    ArenaLease,
    BufferArena,
    BufferLifetime,
    MemoryPlan,
    MemoryPlanner,
    SharedArenaBudget,
    TenantArenaSource,
    TenantArenaStats,
    dim_bucket,
)

__all__ = [
    "GraphContext",
    "GraphBinding",
    "PlanExecutor",
    "MemoryModel",
    "OutOfMemoryError",
    "CompiledRGNNModule",
    "MultiLayerModule",
    "StackRun",
    "ArenaLease",
    "BufferArena",
    "BufferLifetime",
    "MemoryPlan",
    "MemoryPlanner",
    "SharedArenaBudget",
    "TenantArenaSource",
    "TenantArenaStats",
    "dim_bucket",
]
