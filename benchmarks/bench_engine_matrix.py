"""Engine distance matrices and query serving — all through `NedSession`.

Times the all-pairs matrix workload over the same tree store in several
session configurations (serial exact, a reference session with the
pure-Python Hungarian backend and the distance cache off, process-parallel
exact, bound-pruned with level-size bounds only, bound-pruned with the full
signature → level-size → degree-multiset cascade), verifies they produce
identical matrices, and reports the per-tier resolution counts — how many
pairs each tier answered (signature hits, coinciding bounds, cache hits) —
so the pruning and caching wins are visible straight from the CI smoke
output.

A second, repeated-probe workload runs kNN for every graph node through one
session twice — once with the signature-keyed distance cache on, once off —
verifies the results are identical, and reports the cache hit rate.

A third, persistence workload exercises the durable layer: a cold session
shards the store to disk (:func:`repro.engine.shards.save_sharded`) and
writes the exact-distance cache sidecar on close, a warm session re-attaches
both and must answer the same matrix and kNN queries with *zero* exact TED*
evaluations.  With ``--store-dir`` (and optionally ``--cache-file`` /
``--shards``) the cold and warm passes run in separate process invocations,
which is how the CI persistence job uses it.

A fourth, *serving* workload (``--serving`` runs it alone) answers the same
≥32 kNN queries three ways — per-query (a fresh session per query, the
pre-session wiring), batched (one warm session,
:meth:`~repro.engine.NedSession.execute_batch`), and async (the
:class:`~repro.engine.SessionServer` request queue) — asserts all three are
bit-identical with the batched path paying for strictly fewer exact TED*
evaluations, and records the throughput gap in ``BENCH_kernel.json``'s
``serving`` section.

A fifth, *observability* workload (``--observability`` runs it alone, the CI
observability job's entry point) runs one full engine pass — sharded store
with a tight residency budget (forcing evictions), cache sidecar save +
warm reload, bound-pruned matrix, batched and async kNN — once untraced and
once with :mod:`repro.obs` spans on, asserts the digests are bit-identical,
that the traced pass costs at most ``--max-overhead-pct`` extra wall time
(min-of-N rounds), and that the metrics snapshot carries the promised
per-tier latency histograms (with p50/p99), shard-load and sidecar timings
and serving batch/tick stats; the traced snapshot lands in
``BENCH_kernel.json``'s ``observability`` section (and ``--metrics-out``).

All workloads are recorded machine-readably in ``BENCH_kernel.json``
(pairs/sec, queries/sec, cache hit rate, per-configuration timings), so the
engine's perf trajectory is tracked from PR 3 onward.

Runs two ways:

* under pytest-benchmark with the rest of the suite::

      PYTHONPATH=src python -m pytest benchmarks/bench_engine_matrix.py --benchmark-only

* standalone, as the CI smoke check::

      PYTHONPATH=src python benchmarks/bench_engine_matrix.py --smoke
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import json
import sys
import tempfile
from pathlib import Path
from typing import Dict, Optional, Tuple

from repro.engine.session import KnnPlan, NedSession
from repro.engine.shards import ShardedTreeStore, save_sharded, sharded_store_exists
from repro.engine.tree_store import TreeStore
from repro.experiments.reporting import ExperimentTable
from repro.graph.generators import barabasi_albert_graph
from repro.obs import (
    METRIC_NAMES,
    MetricsRegistry,
    Tracer,
    render_metrics_summary,
    validate_snapshot_names,
)
from repro.ted.batch import batch_available
from repro.ted.resolver import DEFAULT_CACHE_SIZE
from repro.ted.ted_star import ted_star
from repro.utils.timer import Timer

# The reference configuration approximates the pre-PR-3 kernel cost profile
# (pure-Python Hungarian matching, no distance cache); it is timed but kept
# out of the value-identity assertion because the Hungarian and SciPy
# solvers may legitimately pick different optimal matchings on tie pairs.
REFERENCE = "reference[hungarian,no-cache]"

# Explicit cold-build comparison of the array-native batch kernel against
# the per-pair scipy exact tier; only meaningful (and only listed) when
# numpy/SciPy are importable — without them "serial" is already per-pair.
PER_PAIR = "serial[per-pair]"

# (name, session options, matrix-plan options) per configuration.  With the
# batch kernel available, "serial" auto-attaches it (executor_used becomes
# "serial[batch]") and the per-pair row pins batch=False — the value-identity
# assertion below then re-proves batch/per-pair bit-identity on every run.
CONFIGURATIONS: Tuple[Tuple[str, Dict[str, object], Dict[str, object]], ...] = (
    ("serial", dict(), dict(mode="exact")),
) + ((
    (PER_PAIR, dict(batch=False), dict(mode="exact")),
) if batch_available() else ()) + (
    (REFERENCE, dict(backend="hungarian", cache_size=0), dict(mode="exact")),
    ("process", dict(executor="process"), dict(mode="exact")),
    ("bound-prune[level-size]",
     dict(tiers=("signature", "level-size")), dict(mode="bound-prune")),
    ("bound-prune", dict(), dict(mode="bound-prune")),
)


def _tier_columns(stats) -> Dict[str, int]:
    """The per-tier resolution counts reported for every configuration."""
    return dict(
        signature_hits=stats.signature_hits,
        decided_level_size=stats.decided_by_level_size,
        decided_degree=stats.decided_by_degree,
        pruned_lower_bound=stats.pruned_by_lower_bound,
        cache_hits=stats.cache_hits,
    )


def build_matrices(
    nodes: int = 120, k: int = 3, seed: int = 5, record: Optional[dict] = None
) -> ExperimentTable:
    """Build the all-pairs matrix under every session configuration.

    When ``record`` is given, per-configuration measurements (build time,
    pairs/sec, cache hit rate) are appended to it for the JSON trail.
    """
    graph = barabasi_albert_graph(nodes, 2, seed=seed)
    with Timer() as extraction_timer:
        store = TreeStore.from_graph(graph, k)
    pair_count = len(store) * (len(store) - 1) // 2
    # Warm the kernel once so the SciPy backend's first-call import cost is
    # not billed to whichever configuration happens to run first.
    entries = store.entries()
    ted_star(entries[0].tree, entries[-1].tree, k=k)
    table = ExperimentTable(
        title=f"Engine matrix build: {nodes} nodes, k={k} ({pair_count} pairs)",
        columns=["configuration", "executor_used", "build_time", "exact_evaluations",
                 "signature_hits", "decided_level_size", "decided_degree",
                 "pruned_lower_bound", "cache_hits"],
        notes=[f"tree extraction: {extraction_timer.elapsed:.3f}s (shared by all builds)"],
    )
    timings: Dict[str, float] = {}
    reference = None
    for name, session_options, plan_options in CONFIGURATIONS:
        with NedSession(store, **session_options) as session:
            with Timer() as timer:
                result = session.pairwise_matrix(**plan_options)
        if name == REFERENCE:
            pass  # timed only; solver tie-breaks may differ legitimately
        elif reference is None:
            reference = result
        elif result.values != reference.values:
            raise AssertionError(f"{name} build disagrees with the serial exact matrix")
        timings[name] = timer.elapsed
        table.add_row(
            configuration=name,
            executor_used=result.executor_used,
            build_time=timer.elapsed,
            exact_evaluations=result.stats.exact_evaluations,
            **_tier_columns(result.stats),
        )
        if record is not None:
            record.setdefault("configurations", []).append(dict(
                configuration=name,
                executor_used=result.executor_used,
                build_time=timer.elapsed,
                pairs_per_sec=pair_count / timer.elapsed if timer.elapsed else None,
                exact_evaluations=result.stats.exact_evaluations,
                cache_hits=result.stats.cache_hits,
                cache_misses=result.stats.cache_misses,
                cache_hit_rate=result.stats.cache_hit_rate,
            ))

    if record is not None:
        record["workload"] = dict(nodes=nodes, k=k, seed=seed, pairs=pair_count)
        if timings.get("serial"):
            record["speedup_exact_vs_reference"] = timings[REFERENCE] / timings["serial"]
            if timings.get(PER_PAIR):
                # Cold-build win of the array-native batch exact tier over
                # the per-pair scipy path, on bit-identical matrices.
                record["speedup_batch_vs_per_pair"] = (
                    timings[PER_PAIR] / timings["serial"]
                )

    # Range-style workloads only need entries below a radius: with a
    # threshold, the lower bound can discard pairs outright (entries become
    # inf), which is where matrix-level pruning really pays.
    finite = sorted(
        value for i, row in enumerate(reference.values) for value in row[i + 1:]
    )
    threshold = finite[len(finite) // 4] if finite else 0.0
    with NedSession(store) as session:
        with Timer() as timer:
            thresholded = session.pairwise_matrix(mode="bound-prune", threshold=threshold)
    for i, row in enumerate(thresholded.values):
        for j, value in enumerate(row):
            if value != float("inf") and value != reference.values[i][j]:
                raise AssertionError("thresholded build changed a kept entry")
    table.add_row(
        configuration=f"bound-prune<= {threshold:g}",
        executor_used=thresholded.executor_used,
        build_time=timer.elapsed,
        exact_evaluations=thresholded.stats.exact_evaluations,
        **_tier_columns(thresholded.stats),
    )
    return table


def repeated_probe_workload(
    nodes: int = 40, k: int = 3, seed: int = 5, record: Optional[dict] = None
) -> ExperimentTable:
    """kNN for every graph node, distance cache on vs off.

    The acceptance check of the cache tier: identical neighbour lists either
    way, nonzero hits with the cache on (recurring signature pairs across
    the per-node probes are answered from memory).
    """
    graph = barabasi_albert_graph(nodes, 2, seed=seed)
    store = TreeStore.from_graph(graph, k)
    table = ExperimentTable(
        title=f"Repeated-probe kNN sweep: every node of {nodes}, k={k}",
        columns=["cache", "sweep_time", "exact_evaluations", "cache_hits",
                 "cache_misses", "cache_hit_rate"],
    )
    results = {}
    for cache_size in (DEFAULT_CACHE_SIZE, 0):
        with NedSession(store, cache_size=cache_size) as session:
            engine = session.search_engine(mode="bound-prune")
            with Timer() as timer:
                answers = [
                    engine.knn(session.probe(graph, node), 5) for node in graph.nodes()
                ]
        results[cache_size] = answers
        label = "on" if cache_size else "off"
        table.add_row(
            cache=label,
            sweep_time=timer.elapsed,
            exact_evaluations=session.stats.exact_evaluations,
            cache_hits=session.stats.cache_hits,
            cache_misses=session.stats.cache_misses,
            cache_hit_rate=session.stats.cache_hit_rate,
        )
        if record is not None:
            record.setdefault("sweeps", []).append(dict(
                cache=label,
                sweep_time=timer.elapsed,
                exact_evaluations=session.stats.exact_evaluations,
                cache_hits=session.stats.cache_hits,
                cache_misses=session.stats.cache_misses,
                cache_hit_rate=session.stats.cache_hit_rate,
            ))
    if results[DEFAULT_CACHE_SIZE] != results[0]:
        raise AssertionError("cache-on kNN sweep disagrees with cache-off")
    if record is not None:
        record["identical_cache_on_off"] = True
        record["workload"] = dict(nodes=nodes, k=k, seed=seed, queries=nodes)
    return table


def _values_digest(values) -> str:
    """Stable digest of a matrix's values for cross-process identity checks."""
    return hashlib.sha256(json.dumps(values).encode("utf-8")).hexdigest()


def _knn_digest(answers) -> str:
    """Stable digest of kNN answers ``[(node, distance), ...]`` per query."""
    rounded = [
        [(repr(node), round(distance, 9)) for node, distance in answer]
        for answer in answers
    ]
    return hashlib.sha256(json.dumps(rounded).encode("utf-8")).hexdigest()


def _persistence_phase(
    store_dir: Path, cache_file: Path, shards: int, nodes: int, k: int, seed: int
) -> dict:
    """Run one cold or warm pass of the persistence workload.

    Cold (no prior state on disk): extract the store, shard it to
    ``store_dir``, open a session with the cache sidecar, build the
    bound-pruned matrix and answer a small kNN sweep; closing the session
    writes the sidecar.  Warm (a previous process left shards + sidecar):
    attach both lazily and run the same workload — every exact distance
    comes from the sidecar, so the phase performs zero exact TED*
    evaluations.  The phase timer covers the whole pass
    (extraction/attachment included), which is the cost a sweep process
    actually pays.
    """
    graph = barabasi_albert_graph(nodes, 2, seed=seed)
    warm = sharded_store_exists(store_dir) and cache_file.exists()
    with Timer() as timer:
        if sharded_store_exists(store_dir):
            store = ShardedTreeStore.load(store_dir)
        else:
            save_sharded(TreeStore.from_graph(graph, k), store_dir, shards=shards)
            store = ShardedTreeStore.load(store_dir)
        with NedSession(store, cache_file=cache_file) as session:
            matrix = session.pairwise_matrix(mode="bound-prune")
            plans = [
                KnnPlan(session.probe(graph, node), 5)
                for node in graph.nodes()[:8]
            ]
            answers = session.execute_batch(plans)
            exact = session.stats.exact_evaluations
            hits = session.stats.cache_hits
    return dict(
        phase="warm" if warm else "cold",
        elapsed=timer.elapsed,
        exact_evaluations=exact,
        cache_hits=hits,
        matrix_digest=_values_digest(matrix.values),
        knn_digest=_knn_digest(answers),
        shard_count=store.shard_count,
        store_nodes=len(store),
    )


def persistence_workload(
    nodes: int = 40,
    k: int = 3,
    seed: int = 5,
    state_dir: Optional[str] = None,
    cache_file: Optional[str] = None,
    shards: int = 4,
    record: Optional[dict] = None,
) -> ExperimentTable:
    """Cold-vs-warm persistence round trip (shards + distance-cache sidecar).

    Without explicit paths, a temporary directory hosts both phases in one
    process: a cold session writes the store shards and cache sidecar, a
    warm session re-attaches them through fresh objects — the acceptance
    check that a warm run performs 0 exact TED* evaluations, returns
    identical matrix/search results, and is measurably faster.

    With ``state_dir``/``cache_file`` pointing at persistent paths, a single
    phase runs per invocation (cold when the state is absent, warm when a
    previous *process* left it), which is how the CI persistence job drives
    it across two separate interpreter invocations.
    """
    cross_process = state_dir is not None
    table = ExperimentTable(
        title=f"Persistence round trip: {nodes} nodes, k={k}, {shards} shards",
        columns=["phase", "elapsed", "exact_evaluations", "cache_hits", "shard_count"],
        notes=["warm phases must answer every exact-path pair from the sidecar"],
    )

    def run_phases(store_dir: Path, sidecar: Path) -> list:
        phases = [_persistence_phase(store_dir, sidecar, shards, nodes, k, seed)]
        if not cross_process and phases[0]["phase"] == "cold":
            phases.append(_persistence_phase(store_dir, sidecar, shards, nodes, k, seed))
        return phases

    if cross_process:
        sidecar = Path(cache_file) if cache_file else Path(state_dir) / "cache.ned"
        phases = run_phases(Path(state_dir) / "store", sidecar)
    else:
        with tempfile.TemporaryDirectory() as tmp:
            phases = run_phases(Path(tmp) / "store", Path(tmp) / "cache.ned")

    # Keep at most one record per phase name (latest wins), so repeated
    # invocations refresh the trail instead of growing it without bound.
    by_phase = {phase["phase"]: phase for phase in (record or {}).get("phases", [])}
    by_phase.update((phase["phase"], phase) for phase in phases)
    all_phases = [by_phase[name] for name in ("cold", "warm") if name in by_phase]
    for phase in phases:
        table.add_row(**{key: phase[key] for key in table.columns})
        if phase["phase"] == "warm":
            if phase["exact_evaluations"] != 0:
                raise AssertionError(
                    f"warm run paid for {phase['exact_evaluations']} exact TED* "
                    f"evaluations; the sidecar should have answered them all"
                )
            cold = by_phase.get("cold")
            if cold is not None:
                if phase["matrix_digest"] != cold["matrix_digest"]:
                    raise AssertionError("warm matrix differs from the cold matrix")
                if phase["knn_digest"] != cold["knn_digest"]:
                    raise AssertionError("warm kNN answers differ from the cold run")
    if record is not None:
        record["phases"] = all_phases
        record["workload"] = dict(nodes=nodes, k=k, seed=seed, shards=shards)
        cold, warm = by_phase.get("cold"), by_phase.get("warm")
        if cold and warm:
            record["identical_cold_warm"] = (
                warm["matrix_digest"] == cold["matrix_digest"]
                and warm["knn_digest"] == cold["knn_digest"]
            )
            record["warm_exact_evaluations"] = warm["exact_evaluations"]
            if warm["elapsed"]:
                record["speedup_warm_vs_cold"] = cold["elapsed"] / warm["elapsed"]
    return table


def serving_workload(
    nodes: int = 40,
    k: int = 3,
    seed: int = 5,
    neighbors: int = 5,
    min_queries: int = 32,
    record: Optional[dict] = None,
) -> ExperimentTable:
    """Batched/async query serving vs the per-query path.

    Answers one kNN query per graph node (at least ``min_queries``; the node
    list is cycled if the graph is smaller) three ways:

    * *per-query* — a fresh :class:`NedSession` per query, the wiring every
      surface did for itself before the session layer existed: each query
      pays for its own cold resolver;
    * *batched* — one warm session, every plan through
      :meth:`~repro.engine.NedSession.execute_batch`: equal-signature plans
      are answered once and fanned out, and recurring probe pairs across
      different queries come from the shared cache;
    * *async* — the same plans submitted concurrently through
      :class:`~repro.engine.SessionServer` batch ticks.

    Asserts all three produce bit-identical answers and that the batched
    path pays for strictly fewer exact TED* evaluations than the per-query
    path; records queries/sec for each in the ``serving`` section of
    ``BENCH_kernel.json``.
    """
    graph = barabasi_albert_graph(nodes, 2, seed=seed)
    store = TreeStore.from_graph(graph, k)
    graph_nodes = graph.nodes()
    query_nodes = [
        graph_nodes[i % len(graph_nodes)]
        for i in range(max(min_queries, len(graph_nodes)))
    ]
    with NedSession(store) as probe_session:
        probes = [probe_session.probe(graph, node) for node in query_nodes]
    plans = [KnnPlan(probe, neighbors) for probe in probes]

    # --- per-query path: every query wires its own session (cold resolver).
    per_query_answers = []
    per_query_exact = 0
    with Timer() as per_query_timer:
        for plan in plans:
            with NedSession(store) as single:
                per_query_answers.append(single.execute(plan))
                per_query_exact += single.stats.exact_evaluations

    # --- batched path: one warm session, one execute_batch call.
    with NedSession(store) as batch_session:
        with Timer() as batch_timer:
            batch_answers = batch_session.execute_batch(plans)
        batch_exact = batch_session.stats.exact_evaluations
        deduplicated = batch_session.deduplicated_plans

    # --- async path: the same plans through the SessionServer facade.
    async def serve_all():
        with NedSession(store) as serving_session:
            async with serving_session.serve() as server:
                answers = await server.map(plans)
            return (answers, server.ticks,
                    serving_session.stats.exact_evaluations,
                    serving_session.deduplicated_plans)

    with Timer() as async_timer:
        async_answers, async_ticks, async_exact, async_dedup = asyncio.run(
            serve_all()
        )

    if batch_answers != per_query_answers:
        raise AssertionError("batched kNN answers differ from the per-query path")
    if async_answers != per_query_answers:
        raise AssertionError("async kNN answers differ from the per-query path")
    if batch_exact >= per_query_exact:
        raise AssertionError(
            f"batched execution paid {batch_exact} exact TED* evaluations, "
            f"expected fewer than the per-query path's {per_query_exact}"
        )

    queries = len(plans)
    rows = [
        ("per-query", per_query_timer.elapsed, per_query_exact, 0, queries),
        ("batched", batch_timer.elapsed, batch_exact, deduplicated, 1),
        ("async", async_timer.elapsed, async_exact, async_dedup, async_ticks),
    ]
    table = ExperimentTable(
        title=f"Serving {queries} kNN queries: per-query vs batched vs async",
        columns=["path", "elapsed", "queries_per_sec", "exact_evaluations",
                 "deduplicated_plans", "ticks"],
        notes=["identical answers on every path; batched must pay for "
               "strictly fewer exact TED* evaluations"],
    )
    for path_name, elapsed, exact, dedup, ticks in rows:
        table.add_row(
            path=path_name,
            elapsed=elapsed,
            queries_per_sec=queries / elapsed if elapsed else None,
            exact_evaluations=exact,
            deduplicated_plans=dedup,
            ticks=ticks,
        )
    if record is not None:
        record["workload"] = dict(
            nodes=nodes, k=k, seed=seed, queries=queries, neighbors=neighbors
        )
        record["identical_answers"] = True
        record["per_query"] = dict(
            elapsed=per_query_timer.elapsed,
            queries_per_sec=queries / per_query_timer.elapsed
            if per_query_timer.elapsed else None,
            exact_evaluations=per_query_exact,
        )
        record["batched"] = dict(
            elapsed=batch_timer.elapsed,
            queries_per_sec=queries / batch_timer.elapsed
            if batch_timer.elapsed else None,
            exact_evaluations=batch_exact,
            deduplicated_plans=deduplicated,
        )
        record["async"] = dict(
            elapsed=async_timer.elapsed,
            queries_per_sec=queries / async_timer.elapsed
            if async_timer.elapsed else None,
            exact_evaluations=async_exact,
            deduplicated_plans=async_dedup,
            ticks=async_ticks,
        )
        if batch_timer.elapsed:
            record["speedup_batched_vs_per_query"] = (
                per_query_timer.elapsed / batch_timer.elapsed
            )
        record["exact_evaluations_saved"] = per_query_exact - batch_exact
    return table


#: Histograms the observability pass must produce, per the PR's acceptance
#: criteria: per-tier resolver latencies, sidecar and shard-load timings,
#: executor chunk timings, and the serving batch/tick distributions.
REQUIRED_HISTOGRAMS = (
    "resolver.level_size_seconds",
    "resolver.degree_seconds",
    "resolver.cache_lookup_seconds",
    "resolver.exact_seconds",
    "sidecar.load_seconds",
    "sidecar.save_seconds",
    "shards.load_seconds",
    "executor.chunk_seconds",
    "search.query_seconds",
    "session.execute_batch_seconds",
    "serving.batch_size",
    "serving.tick_seconds",
) + (
    # The array-native exact tier's block latency — only emitted when a
    # batch kernel is attached, i.e. when numpy/SciPy are importable.
    ("resolver.exact_batch_seconds",) if batch_available() else ()
)

# Every histogram this gate requires must itself be canonical — the
# name table (repro.obs.METRIC_NAMES) is the single source of truth, so a
# rename there that forgets this gate (or vice versa) fails at import time.
_unknown_required = [name for name in REQUIRED_HISTOGRAMS if name not in METRIC_NAMES]
if _unknown_required:
    raise AssertionError(
        f"REQUIRED_HISTOGRAMS not in repro.obs.METRIC_NAMES: {_unknown_required}"
    )


def _observability_pass(
    base: Path,
    label: str,
    trace,
    nodes: int,
    k: int,
    seed: int,
    neighbors: int,
) -> dict:
    """One full engine pass (cold session + warm reopen), traced or not.

    Uses a sharded store with ``max_resident=2`` so the LRU must evict, a
    cache sidecar written on the cold close and loaded by the warm reopen,
    a bound-pruned matrix, a deduplicating ``execute_batch`` and an async
    serving round — every instrumented layer fires.  The timer covers the
    session work only (store build is identical setup on both variants).
    """
    graph = barabasi_albert_graph(nodes, 2, seed=seed)
    store_dir = base / label
    save_sharded(TreeStore.from_graph(graph, k), store_dir, shards=6)
    cache_file = base / f"{label}.ned"
    registry = MetricsRegistry()

    store = ShardedTreeStore.load(store_dir, max_resident=2)
    with Timer() as timer:
        with NedSession(store, cache_file=cache_file, metrics=registry,
                        trace=trace) as session:
            probes = [session.probe(graph, node) for node in graph.nodes()]
            # Cycle a 16-probe pool over 32 plans so the batch has
            # guaranteed duplicates for the dedup counters.  The batch runs
            # *before* the matrix so its exact-path pairs go through the
            # resolver (resolver.exact_seconds) rather than being answered
            # from a matrix-warmed cache.
            pool = probes[:16]
            plans = [KnnPlan(pool[i % len(pool)], neighbors) for i in range(32)]
            answers = session.execute_batch(plans)
            matrix = session.pairwise_matrix(mode="bound-prune")

            async def serve_all():
                async with session.serve(max_batch=8) as server:
                    return await server.map(plans)

            async_answers = asyncio.run(serve_all())
        warm_store = ShardedTreeStore.load(store_dir, max_resident=2)
        with NedSession(warm_store, cache_file=cache_file, metrics=registry,
                        trace=trace) as warm:
            warm_answers = warm.execute_batch(plans)
            snapshot = warm.metrics_snapshot()
    return dict(
        elapsed=timer.elapsed,
        matrix_digest=_values_digest(matrix.values),
        knn_digest=_knn_digest(answers),
        async_digest=_knn_digest(async_answers),
        warm_digest=_knn_digest(warm_answers),
        snapshot=snapshot,
        spans=len(trace.spans) if isinstance(trace, Tracer) else 0,
    )


def observability_workload(
    nodes: int = 40,
    k: int = 3,
    seed: int = 5,
    neighbors: int = 5,
    rounds: int = 2,
    max_overhead_pct: Optional[float] = None,
    trace_out: Optional[str] = None,
    metrics_out: Optional[str] = None,
    record: Optional[dict] = None,
) -> ExperimentTable:
    """Traced-vs-untraced engine pass: identical bits, bounded overhead.

    Runs :func:`_observability_pass` ``rounds`` times untraced and
    ``rounds`` times with spans enabled, asserts every digest (matrix,
    batched kNN, async kNN, warm-reopen kNN) is identical across all
    passes, takes the min-of-rounds wall time per variant and — when
    ``max_overhead_pct`` is given — asserts tracing costs at most that much
    extra.  Also asserts the traced metrics snapshot carries every
    histogram in :data:`REQUIRED_HISTOGRAMS` with usable p50/p99, nonzero
    shard loads *and* evictions, sidecar entry counts and serving stats.
    """
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    passes: Dict[str, list] = {"untraced": [], "traced": []}
    tracer = None
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp)
        for round_index in range(rounds):
            passes["untraced"].append(_observability_pass(
                base, f"untraced-{round_index}", False, nodes, k, seed, neighbors,
            ))
        for round_index in range(rounds):
            # Only the last traced round streams to the JSONL sink, so the
            # file holds one pass's spans rather than `rounds` interleaved.
            sink = trace_out if round_index == rounds - 1 else None
            tracer = Tracer(enabled=True, sink=sink)
            with tracer:
                passes["traced"].append(_observability_pass(
                    base, f"traced-{round_index}", tracer, nodes, k, seed,
                    neighbors,
                ))

    reference = passes["untraced"][0]
    digest_keys = ("matrix_digest", "knn_digest", "async_digest", "warm_digest")
    for variant, runs in passes.items():
        for run in runs:
            for key in digest_keys:
                if run[key] != reference[key]:
                    raise AssertionError(
                        f"{variant} pass {key} differs from the untraced "
                        f"reference: tracing must not change a single bit"
                    )

    untraced_time = min(run["elapsed"] for run in passes["untraced"])
    traced_time = min(run["elapsed"] for run in passes["traced"])
    overhead_pct = (
        (traced_time - untraced_time) / untraced_time * 100.0
        if untraced_time else 0.0
    )
    if max_overhead_pct is not None and overhead_pct > max_overhead_pct:
        raise AssertionError(
            f"tracing overhead {overhead_pct:.2f}% exceeds the "
            f"{max_overhead_pct:g}% budget "
            f"(untraced {untraced_time:.3f}s, traced {traced_time:.3f}s)"
        )

    snapshot = passes["traced"][-1]["snapshot"]
    # Runtime half of the metric-name contract (ned-lint NED-REG02 is the
    # static half): every series the workload actually minted must be in
    # the canonical table, so a phantom name cannot reach a dashboard.
    phantom = validate_snapshot_names(snapshot)
    if phantom:
        raise AssertionError(
            f"metrics snapshot contains non-canonical series names: {phantom}"
        )
    histograms = snapshot["histograms"]
    missing = [name for name in REQUIRED_HISTOGRAMS if name not in histograms]
    if missing:
        raise AssertionError(f"metrics snapshot is missing histograms: {missing}")
    for name in REQUIRED_HISTOGRAMS:
        entry = histograms[name]
        if not entry["count"] or entry["p50"] is None or entry["p99"] is None:
            raise AssertionError(f"histogram {name} has no usable quantiles")
    shards_section = snapshot["shards"]
    if not shards_section["loads"] or not shards_section["evictions"]:
        raise AssertionError(
            f"sharded-store traffic not observed: {shards_section}"
        )
    counters = snapshot["counters"]
    for counter in ("sidecar.loaded_entries", "sidecar.saved_entries",
                    "batch.deduplicated_plans", "shards.evictions"):
        if not counters.get(counter):
            raise AssertionError(f"counter {counter} was never incremented")
    if "serving.queue_depth" not in snapshot["gauges"]:
        raise AssertionError("serving.queue_depth gauge was never set")

    table = ExperimentTable(
        title=f"Observability: traced vs untraced engine pass ({nodes} nodes, k={k})",
        columns=["variant", "best_time", "spans", "overhead_pct"],
        notes=[
            "identical matrix/kNN digests on every pass",
            f"min of {rounds} round(s) per variant",
        ],
    )
    table.add_row(variant="untraced", best_time=untraced_time, spans=0,
                  overhead_pct=0.0)
    table.add_row(variant="traced", best_time=traced_time,
                  spans=passes["traced"][-1]["spans"],
                  overhead_pct=overhead_pct)

    if metrics_out:
        out_path = Path(metrics_out)
        if out_path.parent != Path(""):
            out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_text(json.dumps(snapshot, indent=2) + "\n")
    if record is not None:
        record["workload"] = dict(
            nodes=nodes, k=k, seed=seed, neighbors=neighbors, rounds=rounds
        )
        record["identical_traced_untraced"] = True
        record["untraced_time"] = untraced_time
        record["traced_time"] = traced_time
        record["overhead_pct"] = overhead_pct
        record["spans"] = passes["traced"][-1]["spans"]
        record["metrics"] = snapshot
    return table


def _resilience_pass(
    base: Path,
    label: str,
    resilience,
    nodes: int,
    k: int,
    seed: int,
    neighbors: int,
) -> dict:
    """One engine pass with the resilience layer on or off (no faults).

    Same shape as the observability pass: sharded store with evictions, a
    sidecar, a deduplicating batch and a bound-pruned matrix — the layers
    the resilience policy instruments (shard decodes, sidecar load/save,
    breaker-guarded exact tiers) all run.
    """
    graph = barabasi_albert_graph(nodes, 2, seed=seed)
    store_dir = base / label
    save_sharded(TreeStore.from_graph(graph, k), store_dir, shards=6)
    cache_file = base / f"{label}.ned"
    registry = MetricsRegistry()

    store = ShardedTreeStore.load(store_dir, max_resident=2)
    with Timer() as timer:
        with NedSession(store, cache_file=cache_file, metrics=registry,
                        resilience=resilience) as session:
            probes = [session.probe(graph, node) for node in graph.nodes()]
            pool = probes[:16]
            plans = [KnnPlan(pool[i % len(pool)], neighbors) for i in range(32)]
            answers = session.execute_batch(plans)
            matrix = session.pairwise_matrix(mode="bound-prune")
            snapshot = session.metrics_snapshot()
    return dict(
        elapsed=timer.elapsed,
        matrix_digest=_values_digest(matrix.values),
        knn_digest=_knn_digest(answers),
        snapshot=snapshot,
    )


def resilience_overhead_workload(
    nodes: int = 40,
    k: int = 3,
    seed: int = 5,
    neighbors: int = 5,
    rounds: int = 3,
    max_overhead_pct: Optional[float] = None,
    record: Optional[dict] = None,
) -> ExperimentTable:
    """Resilience-on vs resilience-off engine pass: identical bits, bounded cost.

    With no :class:`~repro.resilience.FaultPlan` installed, the default
    policy's retries/breakers/policy checks must change nothing — every
    digest is asserted identical — and cost at most ``max_overhead_pct``
    extra wall time (min-of-rounds, variants interleaved so machine drift
    hits both equally).  The guarded pass's
    ``metrics_snapshot()["resilience"]`` section is asserted all-zero: no
    fault plan means no retries, no degrades, no shed requests.
    """
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    passes: Dict[str, list] = {"baseline": [], "guarded": []}
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp)
        for round_index in range(rounds):
            passes["baseline"].append(_resilience_pass(
                base, f"baseline-{round_index}", False, nodes, k, seed, neighbors,
            ))
            passes["guarded"].append(_resilience_pass(
                base, f"guarded-{round_index}", None, nodes, k, seed, neighbors,
            ))

    reference = passes["baseline"][0]
    for variant, runs in passes.items():
        for run in runs:
            for key in ("matrix_digest", "knn_digest"):
                if run[key] != reference[key]:
                    raise AssertionError(
                        f"{variant} pass {key} differs from the baseline: the "
                        f"resilience layer must not change a single bit"
                    )

    section = passes["guarded"][-1]["snapshot"]["resilience"]
    if not section["enabled"]:
        raise AssertionError("guarded pass did not run with resilience enabled")
    for key in ("retries", "faults_injected", "degrades", "shed_requests",
                "deadline_exceeded", "retry_exhausted"):
        if section[key]:
            raise AssertionError(
                f"healthy run recorded resilience.{key}={section[key]}; "
                f"expected zero without a FaultPlan"
            )

    baseline_time = min(run["elapsed"] for run in passes["baseline"])
    guarded_time = min(run["elapsed"] for run in passes["guarded"])
    overhead_pct = (
        (guarded_time - baseline_time) / baseline_time * 100.0
        if baseline_time else 0.0
    )
    if max_overhead_pct is not None and overhead_pct > max_overhead_pct:
        raise AssertionError(
            f"resilience overhead {overhead_pct:.2f}% exceeds the "
            f"{max_overhead_pct:g}% budget "
            f"(baseline {baseline_time:.3f}s, guarded {guarded_time:.3f}s)"
        )

    table = ExperimentTable(
        title=(
            f"Resilience: guarded vs unguarded engine pass "
            f"({nodes} nodes, k={k})"
        ),
        columns=["variant", "best_time", "overhead_pct"],
        notes=[
            "identical matrix/kNN digests on every pass",
            f"min of {rounds} interleaved round(s) per variant; no FaultPlan",
        ],
    )
    table.add_row(variant="resilience=False", best_time=baseline_time,
                  overhead_pct=0.0)
    table.add_row(variant="default policy", best_time=guarded_time,
                  overhead_pct=overhead_pct)

    if record is not None:
        record["workload"] = dict(
            nodes=nodes, k=k, seed=seed, neighbors=neighbors, rounds=rounds
        )
        record["identical_guarded_unguarded"] = True
        record["baseline_time"] = baseline_time
        record["guarded_time"] = guarded_time
        record["overhead_pct"] = overhead_pct
        record["max_overhead_pct"] = max_overhead_pct
        record["resilience_section"] = section
    return table


def test_persistence_round_trip(benchmark):
    """Warm run: 0 exact evaluations, identical results, recorded speedup."""
    from _bench_utils import emit_table

    record: dict = {}
    table = benchmark.pedantic(
        persistence_workload, kwargs=dict(nodes=25, record=record),
        rounds=1, iterations=1,
    )
    emit_table(table)
    assert record["warm_exact_evaluations"] == 0
    assert record["identical_cold_warm"]


def test_engine_matrix_builds(benchmark):
    """All build configurations agree; each extra tier skips more exact work."""
    from _bench_utils import emit_table

    table = benchmark.pedantic(build_matrices, rounds=1, iterations=1)
    emit_table(table)
    by_name = {row["configuration"]: row for row in table.rows}
    assert by_name["bound-prune"]["exact_evaluations"] <= (
        by_name["bound-prune[level-size]"]["exact_evaluations"]
    )
    assert (
        by_name["bound-prune[level-size]"]["exact_evaluations"]
        <= by_name["serial"]["exact_evaluations"]
    )
    cheap = (
        by_name["bound-prune"]["signature_hits"]
        + by_name["bound-prune"]["decided_level_size"]
        + by_name["bound-prune"]["decided_degree"]
        + by_name["bound-prune"]["pruned_lower_bound"]
        + by_name["bound-prune"]["cache_hits"]
    )
    assert cheap > 0


def test_repeated_probe_cache(benchmark):
    """Cache-on and cache-off sweeps agree and the cache actually hits."""
    from _bench_utils import emit_table

    record: dict = {}
    table = benchmark.pedantic(
        repeated_probe_workload, kwargs=dict(nodes=25, record=record),
        rounds=1, iterations=1,
    )
    emit_table(table)
    by_cache = {row["cache"]: row for row in table.rows}
    assert by_cache["on"]["cache_hits"] > 0
    assert record["identical_cache_on_off"]


def test_serving_batched_vs_per_query(benchmark):
    """Batched/async serving: identical answers, fewer exact evaluations."""
    from _bench_utils import emit_table

    record: dict = {}
    table = benchmark.pedantic(
        serving_workload, kwargs=dict(nodes=25, record=record),
        rounds=1, iterations=1,
    )
    emit_table(table)
    assert record["identical_answers"]
    assert (
        record["batched"]["exact_evaluations"]
        < record["per_query"]["exact_evaluations"]
    )


def test_observability_traced_vs_untraced(benchmark):
    """Traced pass is bit-identical and the snapshot carries every histogram."""
    from _bench_utils import emit_table

    record: dict = {}
    table = benchmark.pedantic(
        observability_workload, kwargs=dict(nodes=25, rounds=1, record=record),
        rounds=1, iterations=1,
    )
    emit_table(table)
    assert record["identical_traced_untraced"]
    assert record["spans"] > 0
    assert record["metrics"]["histograms"]["resolver.exact_seconds"]["count"] > 0


def main(argv=None) -> int:
    from _bench_utils import BENCH_JSON_FILE, emit_bench_json

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="tiny workload for CI (seconds, not minutes)")
    parser.add_argument("--nodes", type=int, default=None,
                        help="graph size (default: 40 with --smoke, 120 otherwise)")
    parser.add_argument("--k", type=int, default=4,
                        help="tree levels (default 4: at k <= 3 the degree tier "
                        "pins every pair, so no cache, kernel or pool work "
                        "would be measured)")
    parser.add_argument("--serving", action="store_true",
                        help="run only the batched/async serving workload (the "
                        "CI serving job) and record the 'serving' section of "
                        "BENCH_kernel.json")
    parser.add_argument("--store-dir", metavar="DIR", default=None,
                        help="persistent state directory for the cross-process "
                        "persistence workload: the first invocation writes the "
                        "store shards (and cache sidecar) there, a later "
                        "invocation runs warm against them and asserts it paid "
                        "for zero exact TED* evaluations")
    parser.add_argument("--cache-file", metavar="PATH", default=None,
                        help="distance-cache sidecar path for the cross-process "
                        "persistence workload (default: DIR/cache.ned)")
    parser.add_argument("--shards", type=int, default=4, metavar="N",
                        help="shard count for the persisted store (default 4)")
    parser.add_argument("--observability", action="store_true",
                        help="run only the traced-vs-untraced observability "
                        "workload (the CI observability job) and record the "
                        "'observability' section of BENCH_kernel.json")
    parser.add_argument("--resilience", action="store_true",
                        help="run only the resilience-overhead workload "
                        "(guarded vs unguarded, no faults) and record the "
                        "'resilience' section of BENCH_kernel.json")
    parser.add_argument("--max-overhead-pct", type=float, default=None,
                        metavar="PCT",
                        help="fail the observability workload when tracing "
                        "costs more than PCT%% extra wall time (min-of-rounds)")
    parser.add_argument("--rounds", type=int, default=2, metavar="N",
                        help="timing rounds per observability variant "
                        "(default 2; the best round is compared)")
    parser.add_argument("--trace-out", metavar="PATH", default=None,
                        help="stream the final traced round's spans to PATH "
                        "as JSONL")
    parser.add_argument("--metrics-out", metavar="PATH", default=None,
                        help="write the traced metrics snapshot to PATH as JSON")
    args = parser.parse_args(argv)
    nodes = args.nodes if args.nodes is not None else (40 if args.smoke else 120)

    if args.observability:
        obs_record: dict = {}
        print(observability_workload(
            nodes=nodes, k=args.k, rounds=args.rounds,
            max_overhead_pct=args.max_overhead_pct, trace_out=args.trace_out,
            metrics_out=args.metrics_out, record=obs_record,
        ))
        print()
        print(render_metrics_summary(obs_record["metrics"]))
        emit_bench_json("observability", obs_record)
        print(f"\ntracing overhead: {obs_record['overhead_pct']:.2f}% "
              f"({obs_record['spans']} spans; identical digests; recorded in "
              f"BENCH_kernel.json)")
        return 0

    if args.resilience:
        resilience_record: dict = {}
        print(resilience_overhead_workload(
            nodes=nodes, k=args.k, rounds=args.rounds,
            max_overhead_pct=args.max_overhead_pct, record=resilience_record,
        ))
        emit_bench_json("resilience", resilience_record)
        print(f"\nresilience overhead: "
              f"{resilience_record['overhead_pct']:.2f}% (identical digests; "
              f"recorded in BENCH_kernel.json)")
        return 0

    if args.serving:
        serving_record: dict = {}
        print(serving_workload(nodes=nodes, k=args.k, record=serving_record))
        emit_bench_json("serving", serving_record)
        speedup = serving_record.get("speedup_batched_vs_per_query")
        if speedup:
            print(f"batched-vs-per-query speedup: {speedup:.2f}x "
                  f"({serving_record['exact_evaluations_saved']} exact TED* "
                  f"evaluations saved; recorded in BENCH_kernel.json)")
        return 0

    if args.store_dir is not None:
        # Cross-process persistence mode (the CI persistence job): run only
        # the persistence workload against the durable state, carrying the
        # previous invocation's phase records forward so the warm process
        # can assert identity against the cold one.
        persist_record: dict = {}
        # Carry the previous invocation's phases forward only when the
        # durable state this invocation will run against actually exists —
        # i.e. the phases and the state share a lineage.  A fresh checkout
        # ships a BENCH_kernel.json recorded elsewhere; comparing a cold run
        # against *those* phases would be meaningless.
        state_present = sharded_store_exists(Path(args.store_dir) / "store")
        if state_present and BENCH_JSON_FILE.exists():
            try:
                document = json.loads(BENCH_JSON_FILE.read_text(encoding="utf-8"))
                section = document.get("persistence", {})
                expected = dict(nodes=nodes, k=args.k, seed=5, shards=args.shards)
                if section.get("workload") == expected:
                    persist_record["phases"] = section.get("phases", [])
            except (OSError, json.JSONDecodeError):
                pass
        print(persistence_workload(
            nodes=nodes, k=args.k, state_dir=args.store_dir,
            cache_file=args.cache_file, shards=args.shards, record=persist_record,
        ))
        emit_bench_json("persistence", persist_record)
        speedup = persist_record.get("speedup_warm_vs_cold")
        if speedup:
            print(f"warm-vs-cold speedup: {speedup:.2f}x "
                  f"(0 exact TED* evaluations when warm; recorded in BENCH_kernel.json)")
        return 0

    matrix_record: dict = {}
    print(build_matrices(nodes=nodes, k=args.k, record=matrix_record))
    probe_record: dict = {}
    print(repeated_probe_workload(nodes=nodes, k=args.k, record=probe_record))
    persist_record = {}
    print(persistence_workload(
        nodes=nodes, k=args.k, shards=args.shards, record=persist_record
    ))
    serving_record = {}
    print(serving_workload(nodes=nodes, k=args.k, record=serving_record))
    # No overhead gate on the shared smoke path (the dedicated
    # --observability invocation enforces --max-overhead-pct); one round is
    # enough to refresh the snapshot and assert digest identity.
    obs_record = {}
    print(observability_workload(
        nodes=nodes, k=args.k, rounds=1, metrics_out=args.metrics_out,
        trace_out=args.trace_out, record=obs_record,
    ))
    # The resilience layer is gated even on the smoke path: with no
    # FaultPlan the default policy must cost under 3% (min of interleaved
    # rounds) while producing bit-identical digests.
    resilience_record = {}
    print(resilience_overhead_workload(
        nodes=nodes, k=args.k, rounds=3,
        max_overhead_pct=(
            args.max_overhead_pct if args.max_overhead_pct is not None else 3.0
        ),
        record=resilience_record,
    ))
    emit_bench_json("engine_matrix", matrix_record)
    emit_bench_json("repeated_probe", probe_record)
    emit_bench_json("persistence", persist_record)
    emit_bench_json("serving", serving_record)
    emit_bench_json("observability", obs_record)
    emit_bench_json("resilience", resilience_record)
    speedup = matrix_record.get("speedup_exact_vs_reference")
    if speedup:
        print(f"exact-mode speedup vs {REFERENCE}: {speedup:.2f}x "
              "(recorded in BENCH_kernel.json)")
    warm_speedup = persist_record.get("speedup_warm_vs_cold")
    if warm_speedup:
        print(f"persistence warm-vs-cold speedup: {warm_speedup:.2f}x "
              "(0 exact TED* evaluations when warm; recorded in BENCH_kernel.json)")
    serving_speedup = serving_record.get("speedup_batched_vs_per_query")
    if serving_speedup:
        print(f"serving batched-vs-per-query speedup: {serving_speedup:.2f}x "
              "(recorded in BENCH_kernel.json)")
    print(f"resilience overhead: {resilience_record['overhead_pct']:.2f}% "
          "(identical digests, no faults; recorded in BENCH_kernel.json)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
