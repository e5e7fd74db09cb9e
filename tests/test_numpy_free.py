"""The paper's algorithm needs no numpy; the engine's bound survey does.

A child interpreter blocks numpy and SciPy (``sys.modules[...] = None``, so
any import of them raises) before importing ``repro``.  NED and per-pair
TED* on the Hungarian backend must still import, run and return the values
this process computes; a bound-pruned session query, which takes its
intervals from the numpy survey, must fail with an ``ImportError`` that
names numpy.
"""

from __future__ import annotations

import json
import subprocess
import sys

import repro
from repro.graph.generators import barabasi_albert_graph
from repro.trees.adjacent import k_adjacent_tree

K = 4
NODES = 16
#: (u, v) node pairs of the test graph, compared with NED and TED*.
PAIRS = [(0, node) for node in range(NODES)] + [(3, 7), (5, 11), (9, 14)]

CHILD = f"""
import json
import sys

sys.modules["numpy"] = sys.modules["scipy"] = None

import repro
from repro.graph.generators import barabasi_albert_graph
from repro.trees.adjacent import k_adjacent_tree

graph = barabasi_albert_graph({NODES}, 2, seed=5)
pairs = {PAIRS!r}
report = {{
    "ned": [repro.ned(graph, u, graph, v, k={K}) for u, v in pairs],
    "ted_star": [
        repro.ted_star(
            k_adjacent_tree(graph, u, {K}), k_adjacent_tree(graph, v, {K}),
            k={K}, backend="hungarian",
        )
        for u, v in pairs
    ],
}}
with repro.NedSession(repro.TreeStore.from_graph(graph, {K})) as session:
    try:
        session.knn(session.probe(graph, 0), 3)
    except ImportError as error:
        report["knn_error"] = str(error)
print(json.dumps(report))
"""


def test_ned_and_ted_star_run_without_numpy(subprocess_env):
    completed = subprocess.run(
        [sys.executable, "-c", CHILD],
        env=subprocess_env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    report = json.loads(completed.stdout.splitlines()[-1])
    graph = barabasi_albert_graph(NODES, 2, seed=5)
    assert report["ned"] == [repro.ned(graph, u, graph, v, k=K) for u, v in PAIRS]
    assert report["ted_star"] == [
        repro.ted_star(
            k_adjacent_tree(graph, u, K), k_adjacent_tree(graph, v, K),
            k=K, backend="hungarian",
        )
        for u, v in PAIRS
    ]
    assert len(set(report["ned"])) > 2  # the pairs are not all alike
    assert "numpy" in report.get("knn_error", "")
