"""Reproduction of Hector (ASPLOS 2024): a two-level IR and code-generation
framework for relational graph neural networks.

Public entry points:

* :func:`repro.compile_model` / :func:`repro.compile_program` — compile an
  RGNN (RGCN, RGAT, HGT) into a schema-specialised module rebindable across
  graphs sharing the schema (``module.bind(graph)``).
* :mod:`repro.graph` — heterogeneous graph substrate, the Table 3 datasets,
  and the minibatch block sampler (:mod:`repro.graph.sampler`).
* :class:`repro.Router` (from :mod:`repro.serving`) — multi-tenant serving:
  named endpoints, async admission, event-loop scheduling with weighted
  round-robin fairness, and a shared cross-tenant arena budget.
* :class:`repro.MinibatchTrainer` (from :mod:`repro.train`) — sampled-block
  minibatch training: shuffled seed minibatches, per-hop or merged blocks,
  gradient accumulation across bindings, :mod:`repro.tensor.optim` steps.
* :class:`repro.ShardedTrainer` (from :mod:`repro.train.distributed`) —
  data-parallel sharded training over pluggable collectives (in-process
  threads or shared-memory processes), bit-identical to one worker.
* :class:`repro.MultiLayerModule` (from :mod:`repro.runtime`) — L-layer
  stacks executed full-graph, over merged blocks, or layer-by-hop.
* :mod:`repro.tensor` — the numpy autograd tensor substrate.
* :mod:`repro.ir` — the two-level IR, passes, templates, and code generator.
* :func:`repro.get_backend` / :func:`repro.register_backend` /
  :func:`repro.available_backends` (from :mod:`repro.ir.codegen.registry`) —
  the pluggable execution-backend registry behind
  ``CompilerOptions(backend=...)``: ``python-interp`` (per-kernel functions),
  ``python-codegen`` (one specialised whole-plan source function, compiled
  once), and ``cuda-emit`` (source emission only).
* :mod:`repro.gpu` — the analytical GPU cost model (RTX 3090 stand-in).
* :mod:`repro.baselines` — models of DGL, PyG, Seastar, Graphiler, and HGL.
* :mod:`repro.evaluation` — the harness reproducing every table and figure.
"""

from repro.frontend import CompilerOptions, compile_model, compile_program, hector_compile
from repro.ir.codegen.registry import Backend, available_backends, get_backend, register_backend
from repro.runtime import MultiLayerModule
from repro.serving import Router
from repro.train import MinibatchTrainer, ShardedTrainer

__version__ = "1.7.0"

__all__ = [
    "Backend",
    "CompilerOptions",
    "available_backends",
    "compile_model",
    "compile_program",
    "get_backend",
    "hector_compile",
    "register_backend",
    "Router",
    "MinibatchTrainer",
    "ShardedTrainer",
    "MultiLayerModule",
    "__version__",
]
