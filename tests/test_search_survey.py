"""Bound-pruned search on the store survey, against the exact-mode scan.

:class:`repro.engine.search.NedSearchEngine` takes every bound-prune interval
of a kNN, top-L or range query from one store-wide
:meth:`BoundedNedDistance.survey`, whatever the exact tier.  Its answers must
be, bit for bit, those of the exact-mode linear scan on per-pair TED*.  A
kernel session and a ``batch=False`` session (the per-pair exact tier)
differ only in how the open survivors are evaluated, so they must return the
same bits and add the same resolver counters; the histogram counts show
which exact route ran.  Either way every exact TED* goes through
``resolve_many`` → ``exact_many``: on a kernel session each open kNN/top-L
survivor is a one-pair kernel block and no per-pair ``ted_star`` runs.
"""

from __future__ import annotations

import pytest

from repro.engine import NedSession, ShardedTreeStore, TreeStore, save_sharded
from repro.graph.generators import barabasi_albert_graph, erdos_renyi_graph, grid_road_graph
from repro.ted.batch import batch_available
from repro.ted.resolver import LEVEL_SIZE_TIER, SIGNATURE_TIER

pytest.importorskip("numpy", reason="the bound survey needs numpy")

needs_kernel = pytest.mark.skipif(
    not batch_available(), reason="the batch kernel needs SciPy"
)

#: Store graphs: a tree-shaped graph and a regular grid, both with many
#: repeated signatures, so the count-th distance is often tied, and a
#: sparse graph whose isolated nodes close the level-size interval.
GRAPHS = {
    "tree": lambda: barabasi_albert_graph(20, 1, seed=3),
    "grid": lambda: grid_road_graph(4, 5, 0.0, 0.0, seed=1),
    "sparse": lambda: erdos_renyi_graph(20, 0.08, seed=3),
}

_stores = {}
_scans = {}


def _store(name: str, k: int) -> TreeStore:
    if (name, k) not in _stores:
        _stores[name, k] = TreeStore.from_graph(GRAPHS[name](), k)
    return _stores[name, k]


def _probes(store: TreeStore):
    # A store entry (the signature tier pins its own row) and a foreign tree.
    foreign = TreeStore.from_graph(erdos_renyi_graph(12, 0.2, seed=9), store.k)
    return [store.entries()[0], foreign.entries()[3]]


def _bits(answer):
    assert all(type(distance) is float for _, distance in answer)
    return [(node, distance.hex()) for node, distance in answer]


def _queries(store, probe, radius):
    counts = (1, 10, len(store), len(store) + 3)
    return (
        [("knn", count) for count in counts]
        + [("top_l", count) for count in (1, 4, len(store))]
        + [("range_search", value) for value in (0.0, radius, float("inf"))]
    )


def _run(session, kind, probe, argument):
    before = session.resolver.counters.copy()
    answer = getattr(session, kind)(probe, argument)
    return _bits(answer), session.resolver.counters.since(before)


def _exact_scans(graph: str, k: int):
    """Each probe's radius and exact-mode linear-scan answer to every query.

    The oracle never surveys: a ``batch=False`` exact-mode session pays a
    per-pair TED* for every candidate.
    """
    if (graph, k) not in _scans:
        dense = _store(graph, k)
        scans = []
        with NedSession(dense, mode="exact", batch=False) as oracle:
            for probe in _probes(dense):
                distances = sorted(d for _, d in oracle.knn(probe, len(dense)))
                radius = distances[len(distances) // 2]
                answers = {
                    (kind, argument): _run(oracle, kind, probe, argument)[0]
                    for kind, argument in _queries(dense, probe, radius)
                }
                scans.append((probe, radius, answers))
        _scans[graph, k] = scans
    return _scans[graph, k]


# Without the degree tier, closed and open intervals mix at every k.
@pytest.mark.parametrize("tiers", [None, (SIGNATURE_TIER, LEVEL_SIZE_TIER)])
@pytest.mark.parametrize("graph", sorted(GRAPHS))
@pytest.mark.parametrize("cache_size", [0, None])
@pytest.mark.parametrize("sharded", [False, True])
@pytest.mark.parametrize("k", [3, 4, 5])
def test_survey_route_matches_the_per_pair_route(
    graph, cache_size, sharded, k, tiers, tmp_path
):
    # Both sessions survey; only the exact tier differs (the batch kernel
    # where SciPy is installed, per-pair TED* under batch=False).
    dense = _store(graph, k)
    stores = [dense, dense]
    if sharded:
        save_sharded(dense, tmp_path, shards=3)
        stores = [ShardedTreeStore.load(tmp_path, max_resident=1) for _ in range(2)]
    with NedSession(stores[0], cache_size=cache_size, tiers=tiers) as fast, \
            NedSession(stores[1], cache_size=cache_size, tiers=tiers, batch=False) as slow:
        assert fast.resolver.batch_active == batch_available()
        assert not slow.resolver.batch_active
        for probe, radius, scanned in _exact_scans(graph, k):
            for kind, argument in _queries(dense, probe, radius):
                surveyed = _run(fast, kind, probe, argument)
                reference = _run(slow, kind, probe, argument)
                assert surveyed[0] == scanned[kind, argument], (kind, argument)
                assert surveyed == reference, (kind, argument)
        assert fast.stats.as_dict() == slow.stats.as_dict()


@needs_kernel
@pytest.mark.parametrize("graph", sorted(GRAPHS))
@pytest.mark.parametrize("k", [3, 4, 5])
def test_exact_mode_kernel_route_matches_the_per_pair_route(graph, k, ted_star_calls):
    # Exact-mode kNN and range run the linear index, whose measure is a
    # one-pair resolve_many; exact top-L is one resolve_many block over the
    # store.  The kernel session pays no per-pair ted_star for any of them.
    store = _store(graph, k)
    with NedSession(store, mode="exact") as fast, \
            NedSession(store, mode="exact", batch=False) as slow:
        for probe in _probes(store):
            for kind, argument in (("knn", 5), ("top_l", 5), ("range_search", 3.0)):
                paid = ted_star_calls[0]
                answer, counters = _run(fast, kind, probe, argument)
                assert ted_star_calls[0] == paid, (kind, argument)
                reference, reference_counters = _run(slow, kind, probe, argument)
                assert answer == reference, (kind, argument)
                if kind == "top_l" and k <= 3:
                    # The closed-form survey decides the whole scan.
                    assert counters.exact_evaluations == 0
                else:
                    assert counters == reference_counters, (kind, argument)


def _histogram_counts(session):
    histograms = session.metrics_snapshot()["histograms"]
    return {
        name: histograms.get(name, {}).get("count", 0)
        for name in (
            "resolver.survey_seconds",
            "resolver.level_size_seconds",
            "resolver.degree_seconds",
            "resolver.exact_seconds",
            "resolver.exact_batch_seconds",
        )
    }


@needs_kernel
@pytest.mark.parametrize("k", [3, 4, 5])
def test_each_bound_prune_query_takes_one_survey_and_no_per_pair_bounds(k, ted_star_calls):
    store = _store("tree", k)
    queries = (("knn", 5), ("top_l", 5), ("range_search", 3.0), ("range_search", float("inf")))
    # cache_size=0: every open survivor reaches the exact tier.
    with NedSession(store, cache_size=0) as session, \
            NedSession(store, cache_size=0, batch=False) as reference:
        for probe in _probes(store):
            for kind, argument in queries:
                before, paid = _histogram_counts(session), ted_star_calls[0]
                answer, counters = _run(session, kind, probe, argument)
                after = _histogram_counts(session)
                assert ted_star_calls[0] == paid, (kind, argument)
                assert after["resolver.survey_seconds"] - before["resolver.survey_seconds"] == 1
                assert after["resolver.level_size_seconds"] == before["resolver.level_size_seconds"]
                assert after["resolver.degree_seconds"] == before["resolver.degree_seconds"]
                assert after["resolver.exact_seconds"] == before["resolver.exact_seconds"]
                # One kernel block per open kNN/top-L survivor; a range
                # query's open candidates share one block.
                blocks = (
                    after["resolver.exact_batch_seconds"]
                    - before["resolver.exact_batch_seconds"]
                )
                open_pairs = counters.exact_evaluations
                if kind == "range_search":
                    assert blocks == min(open_pairs, 1), (kind, argument)
                else:
                    assert blocks == open_pairs, (kind, argument)
                # batch=False changes the exact tier only: it surveys too.
                before = _histogram_counts(reference)
                assert _run(reference, kind, probe, argument) == (answer, counters)
                after = _histogram_counts(reference)
                assert after["resolver.survey_seconds"] - before["resolver.survey_seconds"] == 1
                assert after["resolver.degree_seconds"] == before["resolver.degree_seconds"]
        assert (session.stats.exact_evaluations > 0) == (k > 3)


@needs_kernel
def test_range_open_candidates_take_one_kernel_block_at_k4():
    store = _store("tree", 4)
    probe = _probes(store)[1]
    with NedSession(store, cache_size=0) as session:
        before = _histogram_counts(session)
        session.range_search(probe, float("inf"))
        after = _histogram_counts(session)
        assert session.stats.exact_evaluations > 1
    assert after["resolver.exact_batch_seconds"] - before["resolver.exact_batch_seconds"] == 1
    assert after["resolver.exact_seconds"] == before["resolver.exact_seconds"]
