"""Shared fixtures for the test suite."""

import numpy as np
import pytest

from repro.graph import HeteroGraph, random_hetero_graph


@pytest.fixture(scope="session")
def small_graph() -> HeteroGraph:
    """A small random heterogeneous graph (3 node types, 6 relations)."""
    return random_hetero_graph(
        num_nodes=60, num_edges=300, num_node_types=3, num_edge_types=6, seed=3, name="small"
    )


@pytest.fixture(scope="session")
def tiny_graph() -> HeteroGraph:
    """A tiny hand-checkable heterogeneous graph (2 node types, 2 relations)."""
    edges = {
        ("author", "writes", "paper"): (np.array([0, 0, 1, 2]), np.array([0, 1, 1, 2])),
        ("paper", "cites", "paper"): (np.array([0, 1, 2]), np.array([1, 2, 0])),
    }
    return HeteroGraph({"author": 3, "paper": 3}, edges, name="tiny")


@pytest.fixture(scope="session")
def medium_graph() -> HeteroGraph:
    """A slightly larger graph exercising skewed relation sizes."""
    return random_hetero_graph(
        num_nodes=200, num_edges=1500, num_node_types=4, num_edge_types=12, seed=11,
        name="medium", source_locality=0.5,
    )


def _adversarial_graph() -> HeteroGraph:
    """Every structural corner at once: an empty relation, a one-node type,
    duplicate edges, self-loops and nodes without incoming edges."""
    none = np.zeros(0, dtype=np.int64)
    edges = {
        ("a", "loops", "a"): (np.array([0, 0, 1, 1, 2, 3, 3, 3]), np.array([0, 0, 1, 2, 2, 2, 2, 2])),
        ("a", "empty", "hub"): (none, none),
        ("hub", "fans_out", "a"): (np.array([0, 0, 0, 0]), np.array([4, 4, 3, 2])),
        ("c", "fans_in", "hub"): (np.array([0, 1, 2, 2, 3, 4]), np.array([0, 0, 0, 0, 0, 0])),
        ("c", "chain", "c"): (np.array([0, 1, 2, 3]), np.array([1, 2, 3, 4])),
    }
    return HeteroGraph({"a": 6, "hub": 1, "c": 5}, edges, name="adversarial")


#: name -> builder of the graphs the flat-edge-space tests sweep.
CORNER_GRAPHS = {
    "adversarial": _adversarial_graph,
    "48-relations": lambda: random_hetero_graph(
        num_nodes=240, num_edges=2400, num_node_types=6, num_edge_types=48, seed=5, name="manyrel"
    ),
    "dense": lambda: random_hetero_graph(
        num_nodes=80, num_edges=1600, num_node_types=2, num_edge_types=3, seed=7, name="dense"
    ),
}


@pytest.fixture(scope="session", params=list(CORNER_GRAPHS))
def corner_graph(request) -> HeteroGraph:
    """Graphs past the random fixtures: structural corners, 48 relations, high in-degree."""
    return CORNER_GRAPHS[request.param]()


@pytest.fixture
def inline_pool(monkeypatch):
    """Run the serving loop's worker pool inline.

    Every batch completes the moment it is submitted, so a multi-worker
    ``run_serving_loop`` schedule depends only on the service times its
    executor returns, never on thread timing.
    """
    from concurrent.futures import Future

    from repro.serving import scheduler

    class InlinePool:
        def __init__(self, max_workers):
            pass

        def submit(self, function, *args):
            future = Future()
            future.set_result(function(*args))
            return future

        def shutdown(self, wait=True):
            pass

    monkeypatch.setattr(scheduler, "ThreadPoolExecutor", InlinePool)


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    return np.random.default_rng(0)


@pytest.fixture
def small_features(small_graph, rng) -> np.ndarray:
    return rng.standard_normal((small_graph.num_nodes, 8))


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="rewrite the golden snapshots under tests/golden/ instead of comparing against them",
    )


@pytest.fixture
def update_golden(request) -> bool:
    """Whether golden-snapshot tests should refresh their files."""
    return request.config.getoption("--update-golden")
