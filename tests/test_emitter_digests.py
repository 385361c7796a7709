"""SHA-256 lockdown of every executing backend's emitted Python source.

The two text goldens under ``tests/golden/*_codegen.py`` cover RGAT only.
This matrix pins the emitted source of rgcn / rgat / hgt across every
emitter path — per-kernel interp functions, the whole-plan function without
a schema (runtime loops), on a 6-relation schema (unrolled) and on a
40-relation schema (past the unroll limit), and the ``mixed`` backend's
occupancy specialisation of a sparse 40-relation graph — in inference and
training mode under three pass configurations.  Before specialisation
``mixed`` must emit ``python-codegen``'s source, asserted on every codegen
cell.  HGT's merged K/Q/V loop and the >32-relation path have no other text
lockdown.

A digest mismatch means the emitted text changed.  Refresh intentionally with
``pytest tests/test_emitter_digests.py --update-golden`` and say why in the PR.
"""

import hashlib
import json
from pathlib import Path

import numpy as np

from repro.frontend.compiler import compile_program
from repro.frontend.config import CompilerOptions
from repro.graph.generators import random_hetero_graph
from repro.graph.hetero_graph import HeteroGraph
from repro.ir.codegen.artifact_cache import CACHE_ENV
from repro.models import build_program
from repro.runtime.context import GraphContext

DIGEST_PATH = Path(__file__).parent / "golden" / "emitter_digests.json"

MODELS = ("rgcn", "rgat", "hgt")
MODES = {"inference": False, "training": True}
CONFIGS = {
    "default": {},
    "compact_reorder": {"compact_materialization": True, "linear_operator_reordering": True},
    "fuse_elementwise": {"fuse_elementwise": True},
}


#: What no executing backend prints: a per-site unbuffered scatter, the (identity)
#: edge permutation, or a copying gather of a contiguous segment.
_NEVER_EMITTED = ("np.add.at", "etype_perm", "np.arange(start, end)")


def _sparse_graph_40() -> HeteroGraph:
    """40 relations over 3 node types, four of them occupied."""
    rng = np.random.default_rng(7)
    edges = {}
    for r in range(40):
        key = (f"nt{r % 3}", f"rel{r}", f"nt{(r + 1) % 3}")
        count = 25 if r in (0, 7, 13, 39) else 0
        edges[key] = (rng.integers(0, 15, count), rng.integers(0, 15, count))
    return HeteroGraph({"nt0": 15, "nt1": 15, "nt2": 15}, edges)


def _source(program, variant: str, graphs, **option_fields) -> str:
    """Emitted source of one matrix cell."""
    backend = {"interp": "python-interp", "codegen": "python-codegen"}.get(variant.split("_")[0], "mixed")
    graph = graphs.get(variant)
    options = CompilerOptions(backend=backend, enable_compilation_cache=False, **option_fields)
    generated = compile_program(program, options, graph=graph).generated
    if backend == "python-codegen":
        mixed = compile_program(program, options.with_(backend="mixed"), graph=graph).generated
        assert mixed.source == generated.source, f"{variant}: mixed must emit python-codegen's source"
    if variant == "mixed_occupancy":
        specialised = generated.specialise_for_occupancy(GraphContext.from_graph(graph))
        assert specialised is not generated, "sparse occupancy must specialise"
        generated = specialised
    return generated.source


def emitter_cells():
    """Yield ``(key, source)`` for every cell of the lockdown matrix."""
    six = random_hetero_graph(40, 200, 3, 6, seed=3)
    forty = random_hetero_graph(120, 600, 3, 40, seed=5)
    graphs = {
        "codegen_6rel": six,
        "codegen_40rel": forty,
        "mixed_occupancy": _sparse_graph_40(),
    }
    variants = ("interp", "codegen_nograph") + tuple(graphs)
    for model in MODELS:
        program = build_program(model, in_dim=8, out_dim=8)
        for variant in variants:
            for mode, emit_backward in MODES.items():
                for config, fields in CONFIGS.items():
                    source = _source(program, variant, graphs, emit_backward=emit_backward, **fields)
                    yield f"{model}/{variant}/{mode}/{config}", source


def test_emitted_sources_match_digests(update_golden, tmp_path, monkeypatch):
    # A private artifact cache: a digest must come from this tree's emitter.
    monkeypatch.setenv(CACHE_ENV, str(tmp_path / "codegen"))
    digests = {}
    for key, source in emitter_cells():
        digests[key] = hashlib.sha256(source.encode()).hexdigest()
        # Segments are contiguous row ranges and every scatter is the shared helper.
        for text in _NEVER_EMITTED:
            assert text not in source, f"{key}: emitted source contains {text!r}"
    assert len(digests) == len(MODELS) * 5 * len(MODES) * len(CONFIGS)
    if update_golden:
        DIGEST_PATH.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
        return
    assert DIGEST_PATH.exists(), f"missing {DIGEST_PATH}; run pytest --update-golden"
    golden = json.loads(DIGEST_PATH.read_text())
    changed = sorted(key for key in set(golden) | set(digests) if golden.get(key) != digests.get(key))
    assert not changed, (
        f"emitted source changed in {len(changed)} cell(s): {changed[:8]}; if intentional, "
        "refresh with pytest tests/test_emitter_digests.py --update-golden"
    )
