"""The multi-process NED service: protocol, shm, workers, server, client.

Covers the serving stack end to end:

* wire protocol — every plan kind round-trips to an *equal* plan
  (hypothesis property), unknown versions/fields/kinds raise typed
  :class:`~repro.exceptions.WireFormatError`, typed service errors survive
  encode → decode with their types;
* adaptive ticks — deterministic grow/shrink from observed tick feedback;
* shared memory — zero-copy export/attach bit-identity, child-process
  attach, unlink-exactly-once, no ``/dev/shm`` leaks (including after a
  worker crash);
* the worker pool — dispatched blocks bit-identical to local evaluation,
  small-block declines, crash degradation to the local path;
* the HTTP service — results bit-identical to a direct in-process session,
  per-tenant telemetry, typed overload/deadline errors across the wire;
* ``python -m repro.serving`` as a real subprocess — concurrent clients get
  their cold per-client sessions' bits while the service shares their
  common work, typed sheds under a depth-1 queue, clean SIGTERM shutdown.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.session import (
    CrossMatrixPlan,
    KnnPlan,
    NedSession,
    PairwiseMatrixPlan,
    RangePlan,
    TopLPlan,
)
from repro.engine.shards import ShardedTreeStore, save_sharded
from repro.engine.tree_store import TreeStore, summarize_tree
from repro.exceptions import (
    DeadlineError,
    DistanceError,
    OverloadError,
    WireFormatError,
)
from repro.graph.generators import grid_road_graph
from repro.resilience import FaultPlan, FaultSpec
from repro.serving import protocol
from repro.serving.ticks import AdaptiveTicks
from repro.ted.batch import batch_available
from repro.trees.adjacent import k_adjacent_tree
from repro.trees.tree import Tree

#: k = 4: at k <= 3 the degree tier pins every pair, so no exact block
#: would ever reach the worker pool these tests exercise.
K = 4

#: Tree depth for the wire-protocol property tests.  Strategy-built parent
#: arrays have at most 8 entries, hence height <= 7, so every generated
#: probe summarises cleanly at this k.
K_WIRE = 8

def _probe(graph, node, k=K):
    return summarize_tree(node, k_adjacent_tree(graph, node, k), k)


@pytest.fixture(scope="module")
def demo_graph():
    return grid_road_graph(6, 6, seed=3)


@pytest.fixture(scope="module")
def demo_store(demo_graph):
    return TreeStore.from_graph(demo_graph, k=K)


# ---------------------------------------------------------------------------
# Wire protocol: round-trips and typed rejections
# ---------------------------------------------------------------------------
@st.composite
def parent_arrays(draw):
    size = draw(st.integers(min_value=1, max_value=8))
    parents = [-1]
    for index in range(1, size):
        parents.append(draw(st.integers(min_value=0, max_value=index - 1)))
    return parents


@st.composite
def probes(draw):
    node = draw(
        st.one_of(
            st.integers(min_value=-100, max_value=100),
            st.text(alphabet="abc0", min_size=1, max_size=4),
        )
    )
    return summarize_tree(node, Tree(draw(parent_arrays())), K_WIRE)


@st.composite
def wire_plans(draw):
    kind = draw(st.sampled_from(["knn", "range", "topl", "pairwise"]))
    mode = draw(st.sampled_from([None, "exact", "bound-prune"]))
    if kind == "knn":
        return KnnPlan(
            draw(probes()),
            draw(st.integers(min_value=1, max_value=16)),
            mode=mode,
            index=draw(st.sampled_from([None, "linear", "bktree"])),
        )
    if kind == "range":
        return RangePlan(
            draw(probes()),
            draw(st.floats(min_value=0.0, max_value=8.0, allow_nan=False)),
            mode=mode,
            index=draw(st.sampled_from([None, "linear"])),
        )
    if kind == "topl":
        return TopLPlan(
            draw(probes()), draw(st.integers(min_value=1, max_value=16)), mode=mode
        )
    return PairwiseMatrixPlan(
        mode=draw(st.sampled_from(["exact", "bound-prune"])),
        threshold=draw(
            st.one_of(
                st.none(),
                st.floats(min_value=0.0, max_value=4.0, allow_nan=False),
            )
        ),
        chunk_size=draw(st.integers(min_value=1, max_value=256)),
    )


class TestProtocolRoundTrip:
    @given(plan=wire_plans())
    @settings(max_examples=80, deadline=None)
    def test_every_plan_kind_round_trips_equal(self, plan):
        decoded = protocol.decode_plan(protocol.encode_plan(plan), K_WIRE)
        assert decoded == plan
        # The wire form is pure JSON: dumps/loads must be the identity.
        assert protocol.decode_plan(
            json.loads(json.dumps(protocol.encode_plan(plan))), K_WIRE
        ) == plan

    def test_cross_matrix_round_trips(self, demo_graph):
        col_store = TreeStore(
            K, [_probe(demo_graph, node) for node in (0, 1, 2)]
        )
        plan = CrossMatrixPlan(col_store, mode="exact", threshold=1.5, chunk_size=32)
        decoded = protocol.decode_plan(protocol.encode_plan(plan), K)
        assert decoded.col_store.k == K
        assert decoded.col_store.entries() == col_store.entries()
        assert (decoded.mode, decoded.threshold, decoded.chunk_size) == (
            "exact",
            1.5,
            32,
        )
        assert decoded.executor is None  # executors never travel

    @given(probe=probes())
    @settings(max_examples=60, deadline=None)
    def test_probe_summaries_rebuild_identically(self, probe):
        decoded = protocol.decode_probe(protocol.encode_probe(probe), K_WIRE)
        assert decoded == probe


class TestProtocolRejections:
    def _request(self, demo_graph):
        return protocol.encode_request(
            [KnnPlan(_probe(demo_graph, 0), 3)], tenant="t"
        )

    def test_unknown_schema_version_is_typed(self, demo_graph):
        payload = self._request(demo_graph)
        payload[protocol.F_VERSION] = 99
        with pytest.raises(WireFormatError, match="version"):
            protocol.decode_request(payload, K)

    def test_wrong_format_marker_is_typed(self, demo_graph):
        payload = self._request(demo_graph)
        payload[protocol.F_FORMAT] = "not-ned-wire"
        with pytest.raises(WireFormatError):
            protocol.decode_request(payload, K)

    def test_unknown_field_is_typed(self, demo_graph):
        encoded = protocol.encode_plan(KnnPlan(_probe(demo_graph, 0), 3))
        encoded["surprise"] = 1
        with pytest.raises(WireFormatError, match="surprise"):
            protocol.decode_plan(encoded, K)

    def test_unknown_plan_kind_is_typed(self, demo_graph):
        encoded = protocol.encode_plan(KnnPlan(_probe(demo_graph, 0), 3))
        encoded[protocol.F_KIND] = "teleport"
        with pytest.raises(WireFormatError, match="teleport"):
            protocol.decode_plan(encoded, K)

    def test_unknown_mode_or_index_is_typed(self, demo_graph):
        probe = _probe(demo_graph, 0)
        for plan in (
            KnnPlan(probe, 3, mode="hybrid"),
            KnnPlan(probe, 3, index="quadtree"),
            PairwiseMatrixPlan(mode="hybrid"),
        ):
            with pytest.raises(WireFormatError, match="hybrid|quadtree"):
                protocol.decode_plan(protocol.encode_plan(plan), K)

    def test_empty_plan_list_is_typed(self):
        payload = {
            protocol.F_FORMAT: protocol.WIRE_FORMAT,
            protocol.F_VERSION: protocol.SCHEMA_VERSION,
            protocol.F_PLANS: [],
        }
        with pytest.raises(WireFormatError):
            protocol.decode_request(payload, K)

    @pytest.mark.parametrize(
        "error",
        [
            OverloadError("shed"),
            DeadlineError("expired"),
            WireFormatError("bad"),
            DistanceError("plan"),
        ],
    )
    def test_typed_errors_survive_the_wire(self, error):
        slot = protocol.encode_error(error)
        assert slot[protocol.F_OK] is False
        decoded = protocol.decode_error(slot[protocol.F_ERROR])
        assert type(decoded) is type(error)
        assert str(error) in str(decoded)

    def test_envelope_error_response_raises_typed(self):
        payload = protocol.encode_error_response(OverloadError("queue full"))
        with pytest.raises(OverloadError, match="queue full"):
            protocol.decode_response(payload)


# ---------------------------------------------------------------------------
# Adaptive ticks
# ---------------------------------------------------------------------------
class TestAdaptiveTicks:
    def test_grows_when_saturated_and_fast(self):
        ticks = AdaptiveTicks(target_tick_seconds=0.1, min_batch=2, max_batch=64)
        assert ticks.limit == 2
        ticks.observe(2, 0.01)
        assert ticks.limit == 4
        ticks.observe(4, 0.01)
        assert ticks.limit == 8
        assert ticks.grown == 2 and ticks.shrunk == 0

    def test_shrinks_on_slow_ticks_and_respects_floor(self):
        ticks = AdaptiveTicks(
            target_tick_seconds=0.1, min_batch=2, max_batch=64, initial=32
        )
        ticks.observe(32, 0.5)
        assert ticks.limit == 16
        for _ in range(8):
            ticks.observe(ticks.limit, 0.5)
        assert ticks.limit == 2  # never below min_batch
        assert ticks.shrunk >= 4

    def test_underfull_fast_ticks_hold_steady(self):
        ticks = AdaptiveTicks(target_tick_seconds=0.1, min_batch=4, max_batch=64)
        ticks.observe(1, 0.001)  # fast but nowhere near the limit
        assert ticks.limit == 4

    def test_replay_is_deterministic(self):
        feed = [(4, 0.01), (8, 0.01), (16, 0.4), (3, 0.02), (8, 0.01)]
        runs = []
        for _ in range(2):
            ticks = AdaptiveTicks(
                target_tick_seconds=0.05, min_batch=1, max_batch=128, initial=4
            )
            runs.append([ticks.observe(batch, tick) for batch, tick in feed])
        assert runs[0] == runs[1]

    def test_validation_is_typed(self):
        with pytest.raises(DistanceError):
            AdaptiveTicks(target_tick_seconds=0.0)
        with pytest.raises(DistanceError):
            AdaptiveTicks(min_batch=0)
        with pytest.raises(DistanceError):
            AdaptiveTicks(min_batch=8, max_batch=4)

    def test_session_server_accepts_adaptive_string(self, demo_store):
        import asyncio

        async def run():
            session = NedSession(demo_store)
            async with session.serve(max_batch="adaptive") as server:
                probe = session.probe(grid_road_graph(6, 6, seed=3), 0)
                result = await server.submit(KnnPlan(probe, 3))
                assert server.tick_limit >= 1
                return result

        assert asyncio.run(run())


# ---------------------------------------------------------------------------
# Shared memory
# ---------------------------------------------------------------------------
def _attach_and_read(handle, index):
    from repro.serving.shm import AttachedStore

    attached = AttachedStore(handle)
    try:
        return attached.parent_array(index), attached.signature(index)
    finally:
        attached.close()


class TestSharedMemory:
    def test_export_attach_bit_identical(self, demo_store):
        from repro.serving.shm import AttachedStore, export_store

        with export_store(demo_store) as export:
            attached = AttachedStore(export.handle)
            try:
                packed = demo_store.packed_parent_arrays()
                signatures = demo_store.packed_signatures()
                for index in range(len(packed)):
                    assert attached.parent_array(index) == list(packed[index])
                    assert attached.signature(index) == signatures[index]
            finally:
                attached.close()

    def test_out_of_range_entry_is_typed(self, demo_store):
        from repro.serving.shm import AttachedStore, export_store

        with export_store(demo_store) as export:
            attached = AttachedStore(export.handle)
            try:
                with pytest.raises(DistanceError):
                    attached.parent_array(len(demo_store) + 7)
            finally:
                attached.close()

    def test_child_process_attach_is_zero_copy(self, demo_store):
        from concurrent.futures import ProcessPoolExecutor

        from repro.serving.shm import export_store

        with export_store(demo_store) as export:
            with ProcessPoolExecutor(max_workers=1) as pool:
                parents, signature = pool.submit(
                    _attach_and_read, export.handle, 0
                ).result()
            assert parents == list(demo_store.packed_parent_arrays()[0])
            assert signature == demo_store.packed_signatures()[0]

    def test_unlink_exactly_once_and_no_leak(self, demo_store):
        from repro.serving.shm import export_store

        export = export_store(demo_store)
        name = export.handle.name
        segment = Path("/dev/shm") / name.lstrip("/")
        if not segment.parent.exists():  # pragma: no cover - non-Linux
            pytest.skip("no /dev/shm on this platform")
        assert segment.exists()
        export.close()
        assert not segment.exists()
        export.close()  # idempotent: second close must not raise


# ---------------------------------------------------------------------------
# Worker pool
# ---------------------------------------------------------------------------
class TestSharedWorkerPool:
    @pytest.fixture()
    def exported(self, demo_store):
        from repro.serving.shm import export_store
        from repro.serving.workers import SharedWorkerPool

        with export_store(demo_store) as export:
            pool = SharedWorkerPool(
                export.handle, demo_store, workers=2, min_pairs=2
            )
            try:
                yield pool
            finally:
                pool.close()

    def test_dispatch_bit_identical_to_local(self, demo_store, exported):
        session = NedSession(demo_store)
        entries = demo_store.entries()
        pairs = [(entries[i], entries[j]) for i in range(6) for j in range(6)]
        local = session.resolver.exact_many(pairs)
        dispatched = exported(pairs)
        assert dispatched == local

    def test_small_blocks_are_declined(self, demo_store, exported):
        entries = demo_store.entries()
        assert exported([(entries[0], entries[1])]) is None

    def test_worker_crash_degrades_to_local(self, demo_store, exported):
        assert exported.warm() >= 1  # force the forks so there are pids to kill
        for process in list(exported._pool._processes.values()):
            os.kill(process.pid, 9)
        entries = demo_store.entries()
        pairs = [(entries[i], entries[i + 1]) for i in range(8)]
        assert exported(pairs) is None  # declined, not raised
        assert exported.broken
        session = NedSession(demo_store)
        assert session.resolver.exact_many(pairs)  # local path still serves


class TestHungarianWorkers:
    """Workers keep a non-scipy backend's tie-breaks (no batch kernel)."""

    #: PGP stand-in node pairs at k = 4 whose hungarian and scipy TED*
    #: differ (52/71/65 vs 50/72/63): optimal matchings that tie.
    PAIRS = ((129, 309), (169, 45), (200, 61))

    @pytest.fixture(scope="class")
    def pgp_store(self):
        from repro.datasets.registry import load_dataset

        graph = load_dataset("PGP", scale=0.5)
        nodes = [node for pair in self.PAIRS for node in pair]
        return TreeStore.from_graph(graph, 4, nodes=nodes)

    def test_pool_matches_per_pair_hungarian(self, pgp_store):
        from repro.serving.workers import SharedWorkerPool
        from repro.ted.ted_star import ted_star

        pairs = [(pgp_store.entry(a), pgp_store.entry(b)) for a, b in self.PAIRS]
        expected = [
            ted_star(a.tree, b.tree, k=4, backend="hungarian") for a, b in pairs
        ]
        with SharedWorkerPool(
            None, pgp_store, workers=1, backend="hungarian", min_pairs=1
        ) as pool:
            assert pool(pairs) == expected

    def test_process_build_matches_serial_build(self, pgp_store):
        with NedSession(pgp_store, backend="hungarian") as serial:
            expected = serial.pairwise_matrix(mode="exact")
        with NedSession(
            pgp_store, backend="hungarian", executor="process", max_workers=2
        ) as session:
            got = session.pairwise_matrix(mode="exact")
            counters = session.metrics_snapshot()["counters"]
        assert counters["serving.dispatch_blocks"] == 1
        assert got.executor_used == "process"
        assert got.values == expected.values


# ---------------------------------------------------------------------------
# The HTTP service end to end
# ---------------------------------------------------------------------------
class TestService:
    @pytest.fixture()
    def sharded(self, demo_store, tmp_path):
        save_sharded(demo_store, tmp_path / "shards", shards=3)
        return ShardedTreeStore.load(tmp_path / "shards")

    def _plans(self, graph, session):
        return [
            KnnPlan(session.probe(graph, 0), 5),
            RangePlan(session.probe(graph, 7), 2.0),
            PairwiseMatrixPlan(mode="exact", chunk_size=16),
        ]

    def test_results_bit_identical_to_in_process_session(
        self, demo_graph, demo_store, sharded
    ):
        from repro.serving.client import NedServiceClient
        from repro.serving.server import NedServiceServer

        reference = NedSession(demo_store)
        expected = reference.execute_batch(self._plans(demo_graph, reference))

        session = NedSession(sharded)
        decodes_before = session.metrics.snapshot()["counters"].get(
            "shards.stream_decodes", 0
        )
        with NedServiceServer(session, workers=2, min_pairs=2) as server:
            client = NedServiceClient(port=server.port, tenant="suite")
            got = client.execute_batch(self._plans(demo_graph, reference))
            status = client.status()
            telemetry = client.telemetry()
        assert got[0] == expected[0]
        assert got[1] == expected[1]
        assert got[2].values == expected[2].values
        assert got[2].row_nodes == expected[2].row_nodes
        # Packing for the shm export streams each shard exactly once; the
        # workers themselves never re-decode anything (they attach the
        # segment), so the decode counter must not move while serving.
        decodes_after = session.metrics.snapshot()["counters"].get(
            "shards.stream_decodes", 0
        )
        assert decodes_after - decodes_before <= 3  # one per shard at most
        assert status[protocol.F_WORKERS] == 2
        assert status[protocol.F_K] == K
        merged = telemetry[protocol.F_MERGED]["counters"]
        assert merged["serving.requests"] == 1
        assert merged["serving.request_plans"] == 3
        assert "suite" in telemetry[protocol.F_TENANTS]
        session.close()

    @pytest.mark.skipif(
        not batch_available(), reason="the closed-form survey needs numpy/SciPy"
    )
    def test_closed_form_results_bit_identical_to_the_per_pair_path(
        self, demo_graph, tmp_path
    ):
        # At k = 3 the serving process decides every pair from the bound
        # survey: the answers are the per-pair path's, and no block is
        # dispatched to the workers.
        from repro.serving.client import NedServiceClient
        from repro.serving.server import NedServiceServer

        store = TreeStore.from_graph(demo_graph, k=3)
        save_sharded(store, tmp_path / "shards", shards=3)
        with NedSession(store, batch=False) as reference:
            plans = self._plans(demo_graph, reference)
            expected = reference.execute_batch(plans)
        with NedSession(ShardedTreeStore.load(tmp_path / "shards")) as session:
            with NedServiceServer(session, workers=2, min_pairs=2) as server:
                client = NedServiceClient(port=server.port, tenant="closed-form")
                got = client.execute_batch(plans)
                telemetry = client.telemetry()
        assert got[0] == expected[0]
        assert got[1] == expected[1]
        assert got[2].values == expected[2].values
        assert got[2].row_nodes == expected[2].row_nodes
        merged = telemetry[protocol.F_MERGED]["counters"]
        assert merged["serving.request_plans"] == 3
        assert merged.get("serving.dispatch_blocks", 0) == 0

    def test_overload_and_deadline_errors_are_typed_across_the_wire(
        self, demo_graph, demo_store
    ):
        from repro.serving.client import NedServiceClient
        from repro.serving.server import NedServiceServer

        plan = FaultPlan(
            [
                FaultSpec("serving.request", error=OverloadError("shed by fault")),
                # Each spec's `seen` counter only advances when evaluation
                # reaches it; the overload spec raises on request 1 without
                # touching this one, so request 2 is its first sighting.
                FaultSpec("serving.request", error=DeadlineError("too late")),
            ]
        )
        session = NedSession(demo_store, faults=plan)
        probe = session.probe(demo_graph, 0)
        with NedServiceServer(session, workers=0) as server:
            client = NedServiceClient(port=server.port)
            with pytest.raises(OverloadError, match="shed by fault"):
                client.execute(KnnPlan(probe, 3))
            with pytest.raises(DeadlineError, match="too late"):
                client.execute(KnnPlan(probe, 3))
            # Third request: the one-shot faults are spent, service recovers.
            assert client.execute(KnnPlan(probe, 3))

    def test_unknown_mode_is_answered_typed(self, demo_graph, demo_store):
        from repro.serving.client import NedServiceClient
        from repro.serving.server import NedServiceServer

        session = NedSession(demo_store)
        probe = session.probe(demo_graph, 0)
        with NedServiceServer(session, workers=0) as server:
            client = NedServiceClient(port=server.port)
            with pytest.raises(WireFormatError, match="hybrid"):
                client.execute(KnnPlan(probe, 3, mode="hybrid"))
            assert client.execute(KnnPlan(probe, 3, mode="bound-prune"))

    def test_malformed_payloads_are_typed_not_500(self, demo_store):
        import http.client

        from repro.serving.server import NedServiceServer

        session = NedSession(demo_store)
        with NedServiceServer(session, workers=0) as server:
            connection = http.client.HTTPConnection("127.0.0.1", server.port)
            try:
                connection.request(
                    "POST",
                    protocol.PATH_PLANS,
                    body=b"{not json",
                    headers={"Content-Type": "application/json"},
                )
                response = connection.getresponse()
                body = json.loads(response.read())
            finally:
                connection.close()
            assert response.status == 400
            error = protocol.decode_error(body[protocol.F_ERROR])
            assert isinstance(error, WireFormatError)

    @pytest.mark.parametrize(
        "declared, status",
        [("twelve", 400), ("-5", 400), ("huge", 413)],
    )
    def test_bad_content_length_is_typed_and_counted(
        self, demo_store, declared, status
    ):
        import http.client

        from repro.serving.server import MAX_REQUEST_BYTES, NedServiceServer

        if declared == "huge":
            declared = str(MAX_REQUEST_BYTES + 1)
        session = NedSession(demo_store)
        with NedServiceServer(session, workers=0) as server:
            connection = http.client.HTTPConnection("127.0.0.1", server.port)
            try:
                connection.putrequest("POST", protocol.PATH_PLANS)
                connection.putheader("Content-Length", declared)
                connection.endheaders()
                response = connection.getresponse()
                body = json.loads(response.read())
            finally:
                connection.close()
        assert response.status == status
        error = protocol.decode_error(body[protocol.F_ERROR])
        assert isinstance(error, WireFormatError)
        counters = session.metrics.snapshot()["counters"]
        assert counters["serving.rejected_bodies"] == 1

    def test_worker_kill_falls_back_locally_bit_identical(
        self, demo_graph, demo_store
    ):
        from repro.serving.client import NedServiceClient
        from repro.serving.server import NedServiceServer

        reference = NedSession(demo_store)
        expected = reference.execute_batch(self._plans(demo_graph, reference))
        # The second dispatched block dies; the served pool has no restart
        # budget, so it and every later block run in the server process.
        plan = FaultPlan([FaultSpec("executor.dispatch", kind="kill", after=1)])
        session = NedSession(demo_store, faults=plan)
        with NedServiceServer(session, workers=2, min_pairs=2) as server:
            client = NedServiceClient(port=server.port)
            got = client.execute_batch(self._plans(demo_graph, reference))
            again = client.execute_batch(self._plans(demo_graph, reference))
        assert got[0] == expected[0] and again[0] == expected[0]
        assert got[1] == expected[1] and again[1] == expected[1]
        assert got[2].values == expected[2].values == again[2].values
        snapshot = session.metrics_snapshot()
        assert snapshot["counters"]["serving.dispatch_blocks"] == 1
        assert snapshot["resilience"]["serial_fallbacks"] == 1
        assert snapshot["resilience"]["pool_restarts"] == 0
        session.close()

    def test_unknown_endpoint_is_typed_404(self, demo_store):
        from repro.serving.client import NedServiceClient
        from repro.serving.server import NedServiceServer

        session = NedSession(demo_store)
        with NedServiceServer(session, workers=0) as server:
            client = NedServiceClient(port=server.port)
            payload = client._call("GET", "/v1/nope")
            assert protocol.F_ERROR in payload

    def test_client_unreachable_is_typed(self):
        from repro.serving.client import NedServiceClient

        client = NedServiceClient(port=1, timeout=0.5)
        with pytest.raises(WireFormatError, match="unreachable"):
            client.status()

    def test_shutdown_unlinks_segment_even_after_worker_crash(
        self, demo_graph, demo_store
    ):
        from repro.serving.client import NedServiceClient
        from repro.serving.server import NedServiceServer

        session = NedSession(demo_store)
        server = NedServiceServer(session, workers=2, min_pairs=2).start()
        name = server._export.handle.name
        segment = Path("/dev/shm") / name.lstrip("/")
        if not segment.parent.exists():  # pragma: no cover - non-Linux
            server.close()
            pytest.skip("no /dev/shm on this platform")
        assert segment.exists()
        for process in list(server._pool._pool._processes.values()):
            os.kill(process.pid, 9)
        client = NedServiceClient(port=server.port)
        # The crashed pool degrades the service to local evaluation; the
        # request still answers, bit-identical.
        reference = NedSession(demo_store)
        expected = reference.execute(PairwiseMatrixPlan(mode="exact"))
        got = client.execute(PairwiseMatrixPlan(mode="exact"))
        assert got.values == expected.values
        server.close()
        assert not segment.exists()  # unlinked exactly once, no leak
        server.close()  # idempotent


class TestPersistentConnections:
    """One keep-alive connection per client thread on the NED wire."""

    @staticmethod
    def _connections(session):
        return session.metrics.snapshot()["counters"].get("serving.connections", 0)

    def test_one_connection_per_client_thread(self, demo_store):
        import threading

        from repro.serving.client import NedServiceClient
        from repro.serving.server import NedServiceServer

        session = NedSession(demo_store)
        with NedServiceServer(session, workers=0) as server:
            client = NedServiceClient(port=server.port)
            for _ in range(10):
                client.status()
            assert self._connections(session) == 1

            def calls():
                for _ in range(5):
                    client.status()

            threads = [threading.Thread(target=calls) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
            assert self._connections(session) == 3
            client.close()

    def test_sequential_plans_do_not_wait_for_delayed_acks(
        self, demo_graph, demo_store
    ):
        # With Nagle's algorithm on the server socket, each reply's body
        # waits for the client's delayed ACK of its headers: at least
        # 40 ms per request on a reused connection.
        from repro.serving.client import NedServiceClient
        from repro.serving.server import NedServiceServer
        from repro.utils.timer import clock

        session = NedSession(demo_store)
        plan = KnnPlan(session.probe(demo_graph, 0), 3)
        with NedServiceServer(session, workers=0) as server:
            client = NedServiceClient(port=server.port)
            client.execute(plan)
            started = clock()
            for _ in range(20):
                client.execute(plan)
            elapsed = clock() - started
            client.close()
        assert self._connections(session) == 1
        assert elapsed < 20 * 0.040

    def test_unread_body_reject_closes_and_the_client_reconnects(self, demo_store):
        from repro.serving.client import NedServiceClient
        from repro.serving.server import NedServiceServer

        session = NedSession(demo_store)
        with NedServiceServer(session, workers=0) as server:
            client = NedServiceClient(port=server.port)
            client.status()
            # A bad length on the client's own connection: 400, body unread.
            connection = client._connection()
            connection.putrequest("POST", protocol.PATH_PLANS)
            connection.putheader("Content-Length", "twelve")
            connection.endheaders()
            response = connection.getresponse()
            response.read()
            assert response.status == 400
            assert response.getheader("Connection") == "close"
            assert client.status()[protocol.F_K] == K
            client.close()
        counters = session.metrics.snapshot()["counters"]
        assert counters["serving.rejected_bodies"] == 1
        assert counters["serving.connections"] == 2

    def test_idle_timeout_close_is_resent_once_on_a_fresh_connection(
        self, demo_store, monkeypatch
    ):
        import time

        from repro.serving import server as server_module
        from repro.serving.client import NedServiceClient

        monkeypatch.setattr(server_module, "IDLE_TIMEOUT_S", 0.2)
        session = NedSession(demo_store)
        with server_module.NedServiceServer(session, workers=0) as server:
            client = NedServiceClient(port=server.port)
            client.status()
            connection = client._connection()
            sent = []
            request = connection.request

            def counting_request(*args, **kwargs):
                sent.append(args[:2])
                return request(*args, **kwargs)

            connection.request = counting_request
            time.sleep(1.0)  # the server closes the idle connection
            assert client.status()[protocol.F_K] == K
            assert sent == [("GET", protocol.PATH_STATUS)] * 2
            client.close()
        assert self._connections(session) == 2

    def test_close_does_not_wait_for_idle_connections(self, demo_store):
        from repro.serving.client import NedServiceClient
        from repro.serving.server import NedServiceServer
        from repro.utils.timer import clock

        session = NedSession(demo_store)
        server = NedServiceServer(session, workers=0).start()
        client = NedServiceClient(port=server.port, timeout=5.0)
        client.status()  # leaves an idle keep-alive connection open
        started = clock()
        server.close()
        assert clock() - started < 3.0
        # The reused connection is gone and so is the server: the resend
        # finds nobody listening, which is a typed error.
        with pytest.raises(WireFormatError, match="unreachable"):
            client.status()

    def test_idle_server_closes_without_waiting_out_a_poll(self, demo_store):
        # The HTTP loop checks for shutdown every SHUTDOWN_POLL_S, not every
        # 0.5 s (the stdlib default), so an idle server closes promptly.
        from repro.serving.client import NedServiceClient
        from repro.serving.server import NedServiceServer
        from repro.utils.timer import clock

        server = NedServiceServer(NedSession(demo_store), workers=0).start()
        client = NedServiceClient(port=server.port)
        client.status()  # the HTTP loop is polling by now
        client.close()
        started = clock()
        server.close()
        assert clock() - started < 0.25


class TestServeCli:
    @pytest.mark.parametrize("garbage", [b"not a pickle", b"\x80\x05\x95"])
    def test_unreadable_cache_file_is_a_typed_exit(
        self, demo_store, tmp_path, capsys, garbage
    ):
        from repro.serving.cli import main

        store = tmp_path / "store.ned"
        demo_store.save(store)
        sidecar = tmp_path / "cache.ned"
        sidecar.write_bytes(garbage)
        argv = ["--store-dir", str(store), "--cache-file", str(sidecar), "--port", "0"]
        # A worker thread, so main() leaves the signal handlers alone.
        with ThreadPoolExecutor(1) as pool:
            assert pool.submit(main, argv).result(timeout=60) == 2
        assert "ned-serve: cannot open cache sidecar:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# `python -m repro.serving` as a real subprocess
# ---------------------------------------------------------------------------
#: The ready line ``ned-serve`` prints once it accepts requests.
_READY_LINE = re.compile(r"at http://([0-9.]+):(\d+)")


def _mapped_segments(pid):
    """The shared-memory segments process ``pid`` has mapped."""
    maps = Path(f"/proc/{pid}/maps").read_text().splitlines()
    return {Path(line.split()[-1]).name for line in maps if "/dev/shm/psm_" in line}


class _ServeProcess:
    """One ``python -m repro.serving`` child, parsed ready."""

    def __init__(self, env, store_dir, *options):
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.serving", "--store-dir", str(store_dir),
             "--port", "0", *options],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        )
        match = _READY_LINE.search(self.proc.stdout.readline())
        if match is None:
            self.proc.kill()
            _, err = self.proc.communicate(timeout=30)
            raise AssertionError(f"ned-serve did not come up: {err}")
        self.port = int(match.group(2))

    def stop(self) -> int:
        """SIGTERM, wait, return the exit code (stderr kept on ``self.err``)."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            _, self.err = self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            _, self.err = self.proc.communicate()
        return self.proc.returncode


def _canonical(results):
    """Point answers as-is, matrices as (rows, cols, values)."""
    return [
        result if isinstance(result, list)
        else (result.row_nodes, result.col_nodes, result.values)
        for result in results
    ]


@pytest.mark.skipif(
    not Path("/dev/shm").is_dir() or not Path("/proc/self/maps").exists(),
    reason="needs /dev/shm and /proc",
)
class TestServiceProcess:
    """Concurrent clients against one ``ned-serve`` child at k = 4.

    Every client sends the same exact all-pairs matrix plus its own window
    of kNN probes.  Each must get the bits of a cold session of its own;
    the service computes the shared matrix once, so it makes strictly fewer
    exact evaluations than the cold sessions together.
    """

    CLIENTS = 3
    PROBES = 3
    SHARDS = 3

    @pytest.fixture(scope="class")
    def store_dir(self, demo_store, tmp_path_factory):
        path = tmp_path_factory.mktemp("served") / "shards"
        save_sharded(demo_store, path, shards=self.SHARDS)
        return path

    def _plans(self, graph, client):
        nodes = sorted(graph.nodes())
        plans = [PairwiseMatrixPlan(mode="exact", chunk_size=32)]
        for offset in range(self.PROBES):
            node = nodes[(client * self.PROBES + offset) % len(nodes)]
            plans.append(KnnPlan(_probe(graph, node), 5))
        return plans

    def test_clients_match_cold_sessions_with_shared_work(
        self, demo_graph, store_dir, subprocess_env
    ):
        from repro.serving.client import NedServiceClient

        expected, cold_exact = [], 0
        for client in range(self.CLIENTS):
            with NedSession(ShardedTreeStore.load(store_dir)) as cold:
                expected.append(
                    _canonical(cold.execute_batch(self._plans(demo_graph, client)))
                )
                cold_exact += cold.stats.exact_evaluations

        server = _ServeProcess(
            subprocess_env, store_dir, "--workers", "2", "--min-pairs", "1"
        )
        try:
            ours = _mapped_segments(server.proc.pid)

            def one_client(index):
                client = NedServiceClient(port=server.port, tenant=f"client-{index}")
                return _canonical(client.execute_batch(self._plans(demo_graph, index)))

            with ThreadPoolExecutor(self.CLIENTS) as pool:
                got = list(pool.map(one_client, range(self.CLIENTS)))
            merged = NedServiceClient(port=server.port).telemetry()[protocol.F_MERGED]
        finally:
            rc = server.stop()
        assert rc == 0
        # The segment is gone, and not because the resource tracker had to
        # clean up after a missed unlink (it warns about that on stderr).
        assert ours and not any((Path("/dev/shm") / name).exists() for name in ours)
        assert "leaked shared_memory" not in server.err
        assert got == expected

        counters, histograms = merged["counters"], merged["histograms"]
        assert counters.get("serving.dispatch_blocks", 0) > 0
        assert counters.get("shards.stream_decodes", 0) <= self.SHARDS
        # With --min-pairs 1 every exact block goes to the workers, the kNN
        # survivors' one-pair blocks included, so the service evaluates no
        # pair itself: its exact evaluations are the dispatched pairs.
        assert "resolver.exact_batch_seconds" not in histograms
        assert "resolver.exact_seconds" not in histograms
        assert counters.get("serving.dispatch_fallbacks", 0) == 0
        assert 0 < counters["serving.dispatch_pairs"] < cold_exact
        # One persistent connection per client, plus the telemetry call's.
        assert counters["serving.connections"] <= self.CLIENTS + 1

    def test_burst_on_a_depth_one_queue_sheds_typed(self, store_dir, subprocess_env):
        from repro.serving.client import NedServiceClient

        plan = PairwiseMatrixPlan(mode="exact", chunk_size=32)
        with NedSession(ShardedTreeStore.load(store_dir)) as reference:
            expected = _canonical([reference.execute(plan)])
        server = _ServeProcess(subprocess_env, store_dir, "--max-queue-depth", "1")
        try:
            # Any error but a typed shed propagates out of pool.map.
            def one_request(_):
                client = NedServiceClient(port=server.port)
                try:
                    return _canonical([client.execute(plan)]) == expected
                except (OverloadError, DeadlineError):
                    return None

            with ThreadPoolExecutor(12) as pool:
                outcomes = list(pool.map(one_request, range(12)))
        finally:
            rc = server.stop()
        assert rc == 0
        assert False not in outcomes  # every answer that came back is right
        assert True in outcomes
