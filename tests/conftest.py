"""Shared fixtures for the test suite."""

from __future__ import annotations

import os
import random
from pathlib import Path

import pytest

import repro
from repro.graph.generators import barabasi_albert_graph, grid_road_graph
from repro.graph.graph import DiGraph, Graph
from repro.trees.tree import Tree


@pytest.fixture(scope="session")
def subprocess_env():
    """Environment for a child interpreter that imports this ``repro``."""
    src = str(Path(repro.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


@pytest.fixture
def ted_star_calls(monkeypatch):
    """Count the resolver's per-pair ``ted_star`` calls (a one-item list).

    Only the per-pair rung of ``BoundedNedDistance.exact_many`` calls it, so
    the count is the pairs evaluated one at a time in this process (batch
    kernel blocks and worker processes are not counted).
    """
    import repro.ted.resolver as resolver_module

    real_ted_star = resolver_module.ted_star
    calls = [0]

    def counting_ted_star(*args, **kwargs):
        calls[0] += 1
        return real_ted_star(*args, **kwargs)

    monkeypatch.setattr(resolver_module, "ted_star", counting_ted_star)
    return calls


@pytest.fixture
def rng():
    """A deterministic RNG for tests that need randomness."""
    return random.Random(12345)


@pytest.fixture
def path_graph():
    """A 5-node path 0-1-2-3-4."""
    return Graph([(0, 1), (1, 2), (2, 3), (3, 4)])


@pytest.fixture
def star_graph():
    """A star with center 0 and leaves 1..5."""
    return Graph([(0, leaf) for leaf in range(1, 6)])


@pytest.fixture
def cycle_graph():
    """A 6-cycle."""
    return Graph([(i, (i + 1) % 6) for i in range(6)])


@pytest.fixture
def small_digraph():
    """A small directed graph with branching in both directions."""
    return DiGraph([(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (5, 0)])


@pytest.fixture
def small_road_graph():
    """A deterministic perturbed-grid graph used across integration tests."""
    return grid_road_graph(8, 8, seed=7)


@pytest.fixture
def small_powerlaw_graph():
    """A deterministic preferential-attachment graph."""
    return barabasi_albert_graph(60, 2, seed=11)


@pytest.fixture
def simple_tree():
    """Root with two children; the first child has one child of its own."""
    return Tree([-1, 0, 0, 1])


@pytest.fixture
def three_level_tree():
    """A three-level tree with mixed branching (6 nodes, height 2)."""
    return Tree.from_levels([[2], [1, 2]])
