"""Run one workload of the NED benchmark and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload deanon_matrix --seed 1 --seconds 45 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` repeats the timed
phase with span wrappers installed and prints the per-layer metrics instead
(including the tracing overhead: traced minus untraced end-to-end numbers).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds diagnostics (work counts, digests, host-speed probe).  A run whose
answers or work fail a gate prints no result and exits non-zero.
"""

from __future__ import annotations

import argparse
import json
import math
import signal
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

from common import (
    MAX_FAILED_SHARE,
    MIN_SAMPLES,
    BenchmarkError,
    bootstrap,
    check_digest,
    clock,
    digest,
    histogram_count,
    histogram_sum,
    host_speed_s,
    metric,
    p95_ms,
    typical_ms,
    peak_rss_mb,
    result_line,
)

WORKLOADS = ("deanon_matrix", "served_mix")
#: (name, unit) of every end-to-end metric, in BENCHMARK.json order.
END_TO_END = (
    ("pairs_per_s", "1/s"),
    ("latency_ms", "ms"),
    ("p95_latency_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)
#: Set-ups per run; ``setup_s`` is the import time plus their median.
SETUP_REPEATS = 3


@dataclass
class Measured:
    """One timed phase: latencies, pairs resolved, and what to check."""

    latencies: List[float]
    #: The typical latency in seconds, reported as ``latency_ms``.
    typical: float
    #: Candidate pairs answered, and the busy seconds they took (plan time
    #: in-process, the server's batch-tick time when served).
    pairs: int
    busy: float
    start: float
    end: float
    attempted: int
    failed: int
    host_before: float
    host_after: float
    extra: Dict[str, Any] = field(default_factory=dict)

    def end_to_end(self) -> Dict[str, float]:
        """The timed metrics; a run with too many failures has none."""
        if self.failed > MAX_FAILED_SHARE * self.attempted:
            raise BenchmarkError(f"{self.failed} of {self.attempted} operations failed")
        metrics = {
            "pairs_per_s": self.pairs / self.busy,
            "latency_ms": self.typical * 1000.0,
            "p95_latency_ms": p95_ms(self.latencies),
        }
        unbounded = [name for name, value in metrics.items() if not math.isfinite(value)]
        if unbounded:
            raise BenchmarkError(
                f"{self.failed} of {self.attempted} operations failed, "
                f"bunched so that {', '.join(unbounded)} is unbounded"
            )
        return metrics


# ------------------------------------------------------------ deanon_matrix
def measure_deanon(prepared, seconds: float, reference: bool) -> Measured:
    from inprocess import check_reference, timed_passes

    host_before = host_speed_s()
    start = clock()
    passes = timed_passes(prepared, seconds)
    end = clock()
    host_after = host_speed_s()
    observed = passes[0].digest
    kind = check_digest("deanon_matrix", prepared.key, observed)
    if reference:
        check_reference(prepared, passes[0].answers)
    latencies = [latency for result in passes for latency in result.latencies]
    # Every pass repeats the same plans: a plan's latency is the mean of its
    # repeats, and the typical latency is the median over plans.  The host
    # alternates between two speeds about 1.5-2x apart for seconds at a
    # time; the mean over repeats spread across the run moves in proportion
    # to the time spent in each, where a median jumps between the two.
    per_plan = zip(*(result.latencies for result in passes))
    return Measured(
        latencies=latencies,
        typical=statistics.median(statistics.fmean(times) for times in per_plan),
        pairs=len(latencies) * prepared.cells_per_plan,
        busy=sum(latencies),
        start=start, end=end, attempted=len(latencies), failed=0,
        host_before=host_before, host_after=host_after,
        extra={
            "passes": len(passes),
            "pass_counts": passes[0].counts,
            "digest": observed,
            "digest_reference": kind,
            "snapshots": [result.snapshot for result in passes],
            "pass_seconds": [result.wall for result in passes],
        },
    )


def run_deanon(seed: int, seconds: float, trace: bool, import_s: float):
    from inprocess import prepare_deanon as prepare, warm_up

    setups = []
    for _ in range(SETUP_REPEATS):
        began = clock()
        prepared = prepare(seed)
        warm_up(prepared)
        setups.append(clock() - began)
    measured = measure_deanon(prepared, seconds, reference=True)
    e2e = measured.end_to_end()
    e2e["setup_s"] = import_s + statistics.median(setups)
    e2e["peak_rss_mb"] = peak_rss_mb()
    diagnostics = _diagnostics("deanon_matrix", seed, seconds, measured, setups, import_s)
    if not trace:
        return measured, e2e, diagnostics

    import layers
    from spans import ENGINE_TARGETS, SpanRecorder

    recorder = SpanRecorder()
    with recorder.installed(ENGINE_TARGETS):
        setup_start = clock()
        prepared = prepare(seed)
        warm_up(prepared)
        setup_end = clock()
        traced = measure_deanon(prepared, seconds, reference=False)
    if traced.extra["pass_counts"] != measured.extra["pass_counts"] or (
        traced.extra["digest"] != measured.extra["digest"]
    ):
        raise BenchmarkError("the traced phase did different work than the untraced one")
    per_layer = layers.in_process(
        recorder.window(traced.start, traced.end),
        recorder.window(setup_start, setup_end),
        recorder.spans,
        traced.extra["snapshots"],
        sum(traced.extra["pass_seconds"]),
    )
    _finish_trace(per_layer, traced, e2e)
    return traced, per_layer, diagnostics


# ------------------------------------------------------------------- served
def measure_served(server, inputs, count: int, recorder=None) -> Measured:
    import loadgen
    from served import RATE, SENDERS, WARMUP, answers_of, telemetry_delta

    client = server.client()
    answers: List[Optional[List[Any]]] = [None] * count

    def send(index: int) -> bool:
        plans = inputs.requests[WARMUP + index]
        if recorder is None:
            results = client.execute_batch(plans, return_exceptions=True)
        else:
            recorder.set_request(index)
            with recorder.span("client.request"):
                results = client.execute_batch(plans, return_exceptions=True)
        if any(isinstance(result, BaseException) for result in results):
            return False
        answers[index] = answers_of(results)
        return True

    before = client.telemetry()["merged"]
    host_before = host_speed_s()
    start = clock() + 0.05
    records = loadgen.run(send, count, RATE, SENDERS, start)
    end = clock()
    host_after = host_speed_s()
    telemetry = telemetry_delta(before, client.telemetry()["merged"])
    plans = sum(len(inputs.requests[WARMUP + r.index]) for r in records if r.ok)
    latencies = [record.latency for record in records]
    counters = telemetry["counters"]
    return Measured(
        latencies=latencies,
        # Requests are all different, so there are no repeats to average as
        # in-process; the run is cut into short windows instead and their
        # medians are averaged, which moves in proportion to the time spent
        # in each host speed where one pooled median jumps between the two.
        typical=typical_ms(latencies) / 1000.0,
        pairs=plans * len(inputs.store),
        busy=histogram_sum(telemetry, "serving.tick_seconds"),
        start=start, end=end, attempted=len(records),
        failed=sum(1 for record in records if not record.ok),
        host_before=host_before, host_after=host_after,
        extra={
            "answers": answers, "records": records, "telemetry": telemetry,
            # Reported, not gated: which plans share a tick depends on timing.
            "pass_counts": {
                "ticks": histogram_count(telemetry, "serving.tick_seconds"),
                "batch_plans": counters.get("batch.plans", 0),
                "deduplicated_plans": counters.get("batch.deduplicated_plans", 0),
                "dispatch_blocks": counters.get("serving.dispatch_blocks", 0),
                "per_pair_exact_evaluations": histogram_count(
                    telemetry, "resolver.exact_seconds"
                ),
                "cache_lookups": histogram_count(telemetry, "resolver.cache_lookup_seconds"),
            },
        },
    )


def warm(server, inputs) -> None:
    """Send the stream's warm-up requests closed-loop; every one must succeed."""
    import loadgen
    from served import SENDERS, WARMUP

    client = server.client()
    records = loadgen.run(
        lambda index: client.execute_batch(inputs.requests[index]) is not None,
        WARMUP, math.inf, SENDERS,
    )
    failed = [record.error for record in records if not record.ok]
    if failed:
        raise BenchmarkError(f"warm-up requests failed: {failed[:3]}")


def run_served(seed: int, seconds: float, trace: bool, import_s: float, root: Path):
    from served import RATE, WARMUP, ServerProcess, WorkDir, in_process_answers, make_inputs

    # Like the in-process passes, a short run is stretched to enough samples.
    count = max(round(RATE * seconds), MIN_SAMPLES)
    with WorkDir(root) as work:
        setups = []
        for repeat in range(SETUP_REPEATS):
            began = clock()
            inputs = make_inputs(seed, WARMUP + count)
            store_path = work / f"store-{repeat}.ned"
            inputs.store.save(store_path)
            server = ServerProcess(root, store_path, None)
            try:
                warm(server, inputs)
                setups.append(clock() - began)
                if repeat == SETUP_REPEATS - 1:
                    measured = measure_served(server, inputs, count)
            finally:
                rss = server.stop()
        reference = in_process_answers(inputs)
        _check_served(measured, reference, inputs.key)
        e2e = measured.end_to_end()
        e2e["setup_s"] = import_s + statistics.median(setups)
        e2e["peak_rss_mb"] = rss
        diagnostics = _diagnostics("served_mix", seed, seconds, measured, setups, import_s)
        if not trace:
            return measured, e2e, diagnostics

        import layers
        from spans import CLIENT_TARGETS, ENGINE_TARGETS, Span, SpanRecorder

        recorder = SpanRecorder()
        with recorder.installed(ENGINE_TARGETS):
            setup_start = clock()
            inputs = make_inputs(seed, WARMUP + count)
            store_path = work / "store-traced.ned"
            inputs.store.save(store_path)
            setup_end = clock()
        spans_out = work / "server-spans.json"
        server = ServerProcess(root, store_path, spans_out)
        try:
            warm(server, inputs)
            with recorder.installed(CLIENT_TARGETS):
                traced = measure_served(server, inputs, count, recorder)
        finally:
            server.stop()
        _check_served(traced, reference, inputs.key)
        dumped = json.loads(spans_out.read_text())
        server_spans = [Span(**record) for record in dumped["spans"]]
        in_window = lambda span: traced.start <= span.start <= traced.end  # noqa: E731
        per_layer = layers.served(
            recorder.window(traced.start, traced.end),
            recorder.window(setup_start, setup_end),
            recorder.spans,
            [span for span in server_spans if in_window(span)],
            server_spans,
            traced.extra["telemetry"],
            traced.extra["records"],
            len(inputs.store),
            len(inputs.requests[0]),
            traced.end - traced.start,
        )
        _finish_trace(per_layer, traced, e2e)
        return traced, per_layer, diagnostics


def _check_served(measured: Measured, reference: List[Any], key: str) -> None:
    """Served answers must equal in-process execute_batch, and the digest."""
    from served import WARMUP

    expected = reference[WARMUP:]
    for index, answer in enumerate(measured.extra["answers"]):
        if answer is not None and answer != expected[index]:
            raise BenchmarkError(f"served request {index} differs from in-process execute_batch")
    measured.extra["digest"] = digest(expected)
    measured.extra["digest_reference"] = check_digest("served_mix", key, measured.extra["digest"])


# ------------------------------------------------------------------- report
def _finish_trace(per_layer: Dict[str, float], traced: Measured, untraced: Dict[str, float]) -> None:
    traced_e2e = traced.end_to_end()
    per_layer["tracing.overhead_latency_ms"] = traced_e2e["latency_ms"] - untraced["latency_ms"]
    per_layer["tracing.overhead_p95_latency_ms"] = (
        traced_e2e["p95_latency_ms"] - untraced["p95_latency_ms"]
    )
    per_layer["tracing.overhead_pairs_per_s"] = traced_e2e["pairs_per_s"] - untraced["pairs_per_s"]
    per_layer["host.loop_before_s"] = traced.host_before
    per_layer["host.loop_after_s"] = traced.host_after


def _diagnostics(name, seed, seconds, measured: Measured, setups, import_s) -> Dict[str, Any]:
    extra = measured.extra
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "samples": len(measured.latencies),
        "passes": extra.get("passes"),
        "pass_seconds": extra.get("pass_seconds"),
        "work_counts_per_pass": extra.get("pass_counts"),
        "digest": extra.get("digest"),
        "digest_reference": extra.get("digest_reference"),
        "host_loop_before_s": measured.host_before,
        "host_loop_after_s": measured.host_after,
        "import_s": import_s,
        "setup_repeats_s": setups,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="NED benchmark (one workload per run)")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still stops its server and removes its scratch files.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = Path.cwd()
    started = clock()
    try:
        bootstrap(root)
        import repro.engine  # noqa: F401 - the import is part of set-up
        import repro.serving.client  # noqa: F401
        import_s = clock() - started
        if args.workload == "served_mix":
            measured, metrics, diagnostics = run_served(
                args.seed, args.seconds, bool(args.trace), import_s, root
            )
        else:
            measured, metrics, diagnostics = run_deanon(
                args.seed, args.seconds, bool(args.trace), import_s
            )
    except BenchmarkError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    if args.trace:
        from layers import PER_LAYER

        units = dict(PER_LAYER)
    else:
        units = dict(END_TO_END)
    print(json.dumps({"diagnostics": diagnostics}))
    print(result_line(
        measured.attempted, measured.failed,
        {name: metric(metrics[name], unit) for name, unit in units.items()},
    ))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
