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
  per-tenant telemetry, typed overload/deadline errors across the wire.
"""

from __future__ import annotations

import json
import os
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
from repro.serving.shm import shm_available
from repro.serving.ticks import AdaptiveTicks
from repro.trees.adjacent import k_adjacent_tree
from repro.trees.tree import Tree

#: k = 4: at k <= 3 the degree tier pins every pair, so no exact block
#: would ever reach the worker pool these tests exercise.
K = 4

#: Tree depth for the wire-protocol property tests.  Strategy-built parent
#: arrays have at most 8 entries, hence height <= 7, so every generated
#: probe summarises cleanly at this k.
K_WIRE = 8

needs_shm = pytest.mark.skipif(
    not shm_available(), reason="shared-memory workers need numpy"
)


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
        mode=draw(st.sampled_from(["exact", "hybrid"])),
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


@needs_shm
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
@needs_shm
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

    @needs_shm
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

    @needs_shm
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

    @needs_shm
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
