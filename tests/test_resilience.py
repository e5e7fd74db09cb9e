"""Unit tests for :mod:`repro.resilience` (PR 8).

Covers the deterministic fault-injection harness (spec validation,
activation/one-shot/probability semantics, seed reproducibility), the
retry/backoff policy (healing transients, exhaustion re-raising the original
typed error, deterministic jitter), deadlines, the circuit breaker's
closed → open → half-open lifecycle, and the crash-consistency property of
:func:`repro.utils.io.atomic_pickle_dump` under an injected kill between
temp-write and ``os.replace``.
"""

import pickle

import pytest

from repro.exceptions import (
    DeadlineError,
    DistanceError,
    FaultInjectedError,
    OverloadError,
    ResilienceError,
)
from repro.resilience import (
    CircuitBreaker,
    Deadline,
    FaultPlan,
    FaultSpec,
    ResiliencePolicy,
    RetryPolicy,
    inject_io_faults,
)
from repro.ted.batch import batch_available
from repro.utils.io import atomic_pickle_dump, load_validated_payload


class TestFaultSpec:
    def test_validation(self):
        with pytest.raises(ResilienceError, match="kind"):
            FaultSpec("shards.decode", kind="explode")
        with pytest.raises(ResilienceError, match="after"):
            FaultSpec("shards.decode", after=-1)
        with pytest.raises(ResilienceError, match="fires"):
            FaultSpec("shards.decode", fires=0)
        with pytest.raises(ResilienceError, match="probability"):
            FaultSpec("shards.decode", probability=0.0)
        with pytest.raises(ResilienceError, match="delay"):
            FaultSpec("shards.decode", kind="delay", delay=-0.1)


class TestFaultPlan:
    def test_one_shot_error_fires_once_after_skip(self):
        plan = FaultPlan([FaultSpec("shards.decode", after=2)])
        assert plan.fire("shards.decode") is False
        assert plan.fire("shards.decode") is False
        with pytest.raises(FaultInjectedError, match="shards.decode"):
            plan.fire("shards.decode")
        # One-shot: spent after firing once.
        assert plan.fire("shards.decode") is False
        assert plan.activations["shards.decode"] == 4
        assert plan.injected["shards.decode"] == 1
        assert plan.injected_total() == 1

    def test_sites_are_independent(self):
        plan = FaultPlan([FaultSpec("sidecar.load")])
        assert plan.fire("shards.decode") is False  # no spec for this site
        with pytest.raises(FaultInjectedError):
            plan.fire("sidecar.load")

    def test_corrupt_returns_flag_instead_of_raising(self):
        plan = FaultPlan([FaultSpec("sidecar.load", kind="corrupt")])
        assert plan.fire("sidecar.load") is True
        assert plan.fire("sidecar.load") is False

    def test_delay_sleeps_deterministically(self):
        plan = FaultPlan([FaultSpec("serving.tick", kind="delay", delay=0.123)])
        slept = []
        plan._sleep = slept.append
        assert plan.fire("serving.tick") is False
        assert slept == [0.123]

    def test_kill_prefers_the_site_exception(self):
        plan = FaultPlan([FaultSpec("executor.dispatch", kind="kill")])
        with pytest.raises(BrokenPipeError):
            plan.fire("executor.dispatch", kill_error=BrokenPipeError)

    def test_explicit_error_instance_is_raised(self):
        boom = OSError("disk on fire")
        plan = FaultPlan([FaultSpec("shards.decode", error=boom)])
        with pytest.raises(OSError, match="disk on fire"):
            plan.fire("shards.decode")

    def test_probability_schedule_is_seed_deterministic(self):
        def schedule(seed):
            plan = FaultPlan(
                [FaultSpec("kernel.pair", probability=0.5, fires=None)], seed=seed
            )
            fired = []
            for _ in range(50):
                try:
                    plan.fire("kernel.pair")
                    fired.append(False)
                except FaultInjectedError:
                    fired.append(True)
            return fired

        assert schedule(7) == schedule(7)  # same seed, same schedule
        assert schedule(7) != schedule(8)  # different seed, different draws
        assert any(schedule(7)) and not all(schedule(7))

    def test_metrics_count_injections(self):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        plan = FaultPlan([FaultSpec("sidecar.save")])
        plan.attach_metrics(registry)
        with pytest.raises(FaultInjectedError):
            plan.fire("sidecar.save")
        counters = registry.snapshot()["counters"]
        assert counters["resilience.faults_injected.sidecar.save"] == 1


class TestRetryPolicy:
    def test_transient_failure_is_healed(self):
        policy = RetryPolicy(max_attempts=3, base_delay=0.0)
        calls = {"count": 0}

        def flaky():
            calls["count"] += 1
            if calls["count"] < 3:
                raise OSError("transient")
            return "ok"

        assert policy.call(flaky, site="shards.decode", sleep=lambda _: None) == "ok"
        assert calls["count"] == 3

    def test_exhaustion_reraises_the_original_error(self):
        policy = RetryPolicy(max_attempts=2, base_delay=0.0)

        def always():
            raise DistanceError("truncated sidecar")

        with pytest.raises(DistanceError, match="truncated sidecar"):
            policy.call(always, site="sidecar.load", sleep=lambda _: None)

    def test_non_retriable_errors_pass_straight_through(self):
        policy = RetryPolicy(max_attempts=5, base_delay=0.0)
        calls = {"count": 0}

        def blown_deadline():
            calls["count"] += 1
            raise DeadlineError("budget spent")

        with pytest.raises(DeadlineError):
            policy.call(blown_deadline, site="any", sleep=lambda _: None)
        assert calls["count"] == 1  # never retried
        calls["count"] = 0

        def shed():
            calls["count"] += 1
            raise OverloadError("queue full")

        with pytest.raises(OverloadError):
            policy.call(shed, site="any", sleep=lambda _: None)
        assert calls["count"] == 1

    def test_unmatched_exceptions_are_not_retried(self):
        policy = RetryPolicy(max_attempts=5, base_delay=0.0)
        calls = {"count": 0}

        def bug():
            calls["count"] += 1
            raise ValueError("a programming bug, not a fault")

        with pytest.raises(ValueError):
            policy.call(bug, site="any", sleep=lambda _: None)
        assert calls["count"] == 1

    def test_backoff_is_deterministic_exponential_and_capped(self):
        policy = RetryPolicy(
            base_delay=0.01, multiplier=2.0, max_delay=0.05, jitter=0.5, seed=3
        )
        first = [policy.backoff("site", attempt) for attempt in (1, 2, 3, 10)]
        second = [policy.backoff("site", attempt) for attempt in (1, 2, 3, 10)]
        assert first == second  # same (seed, site, attempt) -> same jitter
        for attempt, delay in zip((1, 2, 3, 10), first):
            raw = min(0.05, 0.01 * 2.0 ** (attempt - 1))
            assert raw * 0.5 <= delay <= raw * 1.5
        assert policy.backoff("site", 1) != policy.backoff("other", 1)

    def test_per_site_attempt_caps(self):
        policy = RetryPolicy(max_attempts=4, per_site={"sidecar.load": 1})
        assert policy.attempts_for("sidecar.load") == 1
        assert policy.attempts_for("shards.decode") == 4

    def test_metrics_account_for_every_retry(self):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        policy = RetryPolicy(max_attempts=3, base_delay=0.001)

        def always():
            raise OSError("down")

        with pytest.raises(OSError):
            policy.call(
                always, site="shards.decode", metrics=registry, sleep=lambda _: None
            )
        counters = registry.snapshot()["counters"]
        assert counters["resilience.retries.shards.decode"] == 2
        assert counters["resilience.retry_exhausted.shards.decode"] == 1

    def test_validation(self):
        with pytest.raises(ResilienceError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ResilienceError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ResilienceError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ResilienceError):
            RetryPolicy(per_site={"x": 0})


class TestDeadline:
    def test_check_raises_once_spent(self):
        times = iter([0.0, 0.05, 0.2])
        deadline = Deadline(0.1, clock_fn=lambda: next(times))
        deadline.check("warm")  # 0.05 elapsed: fine
        with pytest.raises(DeadlineError, match="exceeded at cold"):
            deadline.check("cold")

    def test_remaining_and_expired(self):
        now = {"t": 0.0}
        deadline = Deadline(1.0, clock_fn=lambda: now["t"])
        assert deadline.remaining() == pytest.approx(1.0)
        assert not deadline.expired()
        now["t"] = 2.0
        assert deadline.remaining() == pytest.approx(-1.0)
        assert deadline.expired()

    def test_validation(self):
        with pytest.raises(ResilienceError):
            Deadline(0.0)

    def test_kernel_less_exact_scan_stops_between_pairs(self, ted_star_calls):
        # An exact-mode scan on a batch=False session is one resolve_many
        # block on the per-pair rung, which checks the deadline before every
        # pair.  The fake clock reads the number of pairs evaluated so far,
        # so the budget is spent after the third pair.  Those three pairs
        # are counted and cached, so the retry pays only for the rest.
        from repro.engine import NedSession, TreeStore
        from repro.graph.generators import barabasi_albert_graph

        graph = barabasi_albert_graph(12, 2, seed=5)
        store = TreeStore.from_graph(graph, k=4)
        with NedSession(store, batch=False) as uncut:
            expected = uncut.top_l(uncut.probe(graph, 0), 3, mode="exact")
            distinct = uncut.stats.exact_evaluations
        ted_star_calls[0] = 0
        with NedSession(store, batch=False) as session:
            probe = session.probe(graph, 0)
            session.resolver.set_deadline(Deadline(3, clock_fn=lambda: ted_star_calls[0]))
            with pytest.raises(DeadlineError, match="exceeded at resolver.exact$"):
                session.top_l(probe, 3, mode="exact")
            assert ted_star_calls[0] == 3 < distinct
            assert session.stats.exact_evaluations == 3
            assert len(session.resolver.cache) == 3
            session.resolver.set_deadline(None)
            assert session.top_l(probe, 3, mode="exact") == expected
            assert ted_star_calls[0] == session.stats.exact_evaluations == distinct

    @pytest.mark.parametrize(
        "batch",
        [
            False,
            pytest.param(
                True,
                marks=pytest.mark.skipif(
                    not batch_available(), reason="the batch kernel needs numpy/SciPy"
                ),
            ),
        ],
    )
    def test_cut_matrix_build_retry_pays_only_unfinished_pairs(self, batch, ted_star_calls):
        # Blocks of 8 pairs.  Per pair, the fake clock counts ted_star calls,
        # so the cut falls after 11 pairs: one whole block and three pairs of
        # the next.  With the kernel, it counts committed pairs and is
        # checked before each block, so the cut falls after two blocks.
        from repro.engine import NedSession, PairwiseMatrixPlan, TreeStore
        from repro.graph.generators import barabasi_albert_graph

        store = TreeStore.from_graph(barabasi_albert_graph(30, 2, seed=5), k=4)
        plan = PairwiseMatrixPlan(mode="exact", chunk_size=8)
        with NedSession(store, batch=batch) as uncut:
            expected = uncut.execute(plan)
            open_pairs = uncut.stats.exact_evaluations
        with NedSession(store, batch=batch) as session:
            counters = session.stats
            if batch:
                deadline = Deadline(9, clock_fn=lambda: counters.exact_evaluations)
            else:
                deadline = Deadline(11, clock_fn=lambda: ted_star_calls[0])
            session.resolver.set_deadline(deadline)
            with pytest.raises(DeadlineError):
                session.execute(plan)
            finished = counters.exact_evaluations
            assert finished == (16 if batch else 11) < open_pairs
            assert len(session.resolver.cache) == finished
            session.resolver.set_deadline(None)
            retried = session.execute(plan)
        assert retried.values == expected.values
        assert retried.stats.exact_evaluations == open_pairs - finished


class TestCircuitBreaker:
    def test_trips_after_consecutive_failures_only(self):
        breaker = CircuitBreaker("tier", threshold=3, cooldown=10.0)
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()  # resets the consecutive count
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "closed" and breaker.allows()
        breaker.record_failure()
        assert breaker.state == "open" and not breaker.allows()
        assert breaker.trips == 1

    def test_half_open_probe_then_close_or_reopen(self):
        now = {"t": 0.0}
        breaker = CircuitBreaker(
            "tier", threshold=1, cooldown=5.0, clock_fn=lambda: now["t"]
        )
        breaker.record_failure()
        assert not breaker.allows()
        now["t"] = 6.0  # cool-down elapsed: one probe allowed
        assert breaker.state == "half-open"
        assert breaker.allows()
        breaker.record_failure()  # probe failed: re-open, restart cool-down
        assert not breaker.allows()
        now["t"] = 12.0
        assert breaker.allows()
        breaker.record_success()
        assert breaker.state == "closed" and breaker.reopens == 1
        assert breaker.as_dict() == {"state": "closed", "trips": 2, "reopens": 1}

    def test_gauge_mirrors_state(self):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        breaker = CircuitBreaker("tier", threshold=1, metrics=registry)
        breaker.record_failure()
        snapshot = registry.snapshot()
        assert snapshot["gauges"]["resilience.breaker_state.tier"] == 2
        assert snapshot["counters"]["resilience.breaker_trips"] == 1


class TestResiliencePolicy:
    def test_defaults_are_safe(self):
        policy = ResiliencePolicy()
        assert policy.retry is not None
        assert policy.deadline is None
        assert policy.sidecar == "strict"
        assert policy.max_queue_depth is None

    def test_validation(self):
        with pytest.raises(ResilienceError):
            ResiliencePolicy(deadline=0.0)
        with pytest.raises(ResilienceError):
            ResiliencePolicy(sidecar="ignore")
        with pytest.raises(ResilienceError):
            ResiliencePolicy(breaker_threshold=0)
        with pytest.raises(ResilienceError):
            ResiliencePolicy(max_queue_depth=0)


class TestAtomicDumpCrashConsistency:
    """Satellite (c): a kill between temp-write and ``os.replace`` must never
    truncate or corrupt the previously persisted artifact."""

    def test_prior_file_survives_a_kill_before_replace(self, tmp_path):
        target = tmp_path / "artifact.pickle"
        atomic_pickle_dump({"format": "t", "version": 1, "value": "old"}, target)
        plan = FaultPlan([FaultSpec("io.replace", kind="kill")])
        with inject_io_faults(plan):
            with pytest.raises(FaultInjectedError):
                atomic_pickle_dump(
                    {"format": "t", "version": 1, "value": "new"}, target
                )
        # The prior artifact is byte-for-byte loadable and the temp file is
        # cleaned up — a later retry starts from a clean directory.
        payload = load_validated_payload(target, "t", (1,), "test", DistanceError)
        assert payload["value"] == "old"
        assert list(tmp_path.iterdir()) == [target]

    @pytest.mark.parametrize("generation", range(5))
    def test_every_other_dump_killed_never_loses_the_last_good_state(
        self, tmp_path, generation
    ):
        # Property shape: interleave successful dumps with killed dumps at
        # varying offsets; after each kill the newest *committed* payload is
        # the one on disk, fully loadable.
        target = tmp_path / "state.pickle"
        plan = FaultPlan(
            [FaultSpec("io.replace", kind="kill", after=generation, fires=None)]
        )
        committed = None
        with inject_io_faults(plan):
            for value in range(8):
                payload = {"format": "t", "version": 1, "value": value}
                try:
                    atomic_pickle_dump(payload, target)
                    committed = value
                except FaultInjectedError:
                    pass
        assert committed is not None or not target.exists()
        if committed is not None:
            loaded = load_validated_payload(target, "t", (1,), "test", DistanceError)
            assert loaded["value"] == committed
            with target.open("rb") as handle:
                pickle.load(handle)  # no trailing garbage, no truncation

    def test_sidecar_save_through_the_resolver_is_crash_consistent(self, tmp_path):
        # End-to-end shape of the same property: the distance-cache sidecar
        # written by a session survives a kill during a later rewrite.
        from repro.engine import NedSession, TreeStore
        from repro.graph.generators import grid_road_graph

        graph = grid_road_graph(4, 4, seed=2)
        store = TreeStore.from_graph(graph, k=4)  # k = 4: at k <= 3 no pair reaches the cache
        sidecar = tmp_path / "cache.ned"
        with NedSession(store, cache_file=sidecar) as session:
            before = session.knn(session.probe(graph, 0), 4)
        good_bytes = sidecar.read_bytes()

        # fires=None: every save attempt is killed, so the session's retry
        # policy exhausts and the typed error surfaces from close().
        plan = FaultPlan([FaultSpec("io.replace", kind="kill", fires=None)])
        with inject_io_faults(plan):
            with pytest.raises(FaultInjectedError):
                with NedSession(store, cache_file=sidecar) as session:
                    session.knn(session.probe(graph, 1), 4)
        assert sidecar.read_bytes() == good_bytes  # prior sidecar untouched
        with NedSession(store, cache_file=sidecar) as warm:
            assert warm.knn(warm.probe(graph, 0), 4) == before
            assert warm.stats.exact_evaluations == 0
