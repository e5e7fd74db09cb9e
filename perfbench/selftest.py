"""Self-test of the benchmark: tiny-size smokes and the gates it relies on.

Run from the checkout root, either way::

    python3 perfbench/selftest.py
    python3 -m pytest -q perfbench/selftest.py

It checks that every workload prints every metric with its unit, that the
digest and identical-work gates reject a perturbed result, and that a
stalled request in the open loop shows up as lateness and latency rather
than as a missing sample.  Sizes are shrunk so the whole file runs in well
under a minute; the recorded digests are keyed by size, so they do not apply.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
if str(BENCH_DIR) not in sys.path:
    sys.path.insert(0, str(BENCH_DIR))

import common  # noqa: E402
import inprocess  # noqa: E402
import loadgen  # noqa: E402
import run  # noqa: E402
import served  # noqa: E402
from layers import PER_LAYER  # noqa: E402

ROOT = BENCH_DIR.parent


@contextlib.contextmanager
def patched(owner, **values):
    saved = {name: getattr(owner, name) for name in values}
    try:
        for name, value in values.items():
            setattr(owner, name, value)
        yield
    finally:
        for name, value in saved.items():
            setattr(owner, name, value)


@contextlib.contextmanager
def tiny():
    """Shrink every workload to a few dozen nodes."""
    prepare = functools.partial(inprocess.prepare_deanon, columns=4, scale=0.1)
    with patched(inprocess, prepare_deanon=prepare), patched(
        served, RATE=200.0, make_inputs=functools.partial(served.make_inputs, scale=0.1)
    ):
        yield


def run_main(*argv: str):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(list(argv))
    lines = out.getvalue().strip().splitlines()
    return code, json.loads(lines[-1]) if lines else None


def _expected_units(trace: int):
    return dict(PER_LAYER) if trace else dict(run.END_TO_END)


def _check_smoke(workload: str, trace: int) -> dict:
    with tiny():
        code, result = run_main(
            "--workload", workload, "--seed", "3", "--seconds", "1.2", "--trace", str(trace)
        )
    assert code == 0, f"{workload} exited {code}"
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= common.MIN_SAMPLES
    units = _expected_units(trace)
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], float) and math.isfinite(m["value"]), name
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    return result["metrics"]


def test_smoke_deanon_matrix():
    _check_smoke("deanon_matrix", 0)


def test_smoke_served_mix():
    _check_smoke("served_mix", 0)


def test_traced_deanon_matrix_attributes_the_kernel():
    metrics = _check_smoke("deanon_matrix", 1)
    assert metrics["ted.batch.blocks"]["value"] > 0
    assert metrics["engine.matrix.chunks"]["value"] == metrics["ted.batch.blocks"]["value"]


def test_traced_served_mix_reaches_the_worker():
    metrics = _check_smoke("served_mix", 1)
    assert metrics["serving.workers.dispatch_blocks"]["value"] > 0
    assert metrics["ted.resolver.degree_s"]["value"] > 0
    assert metrics["engine.search.query_s"]["value"] > metrics["engine.search.self_s"]["value"] > 0
    assert metrics["loadgen.attempted"]["value"] >= common.MIN_SAMPLES
    # Queue waits and ticks are children of their own request, so the
    # remainder is a part of the server's request time, never negative.
    assert metrics["serving.server.queue_wait_s"]["value"] > 0
    unattributed = metrics["unattributed_s"]["value"]
    assert 0 <= unattributed < metrics["serving.server.request_s"]["value"]


def test_benchmark_json_lists_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_digest_gate_rejects_a_perturbed_result():
    common.bootstrap(ROOT)
    prepared = inprocess.prepare_deanon(5, columns=4, scale=0.1)
    answers = inprocess.run_pass(prepared).answers
    with tempfile.TemporaryDirectory() as scratch:
        table = Path(scratch) / "expected.json"
        table.write_text(json.dumps({"deanon_matrix": {prepared.key: common.digest(answers)}}))
        with patched(common, EXPECTED_FILE=table):
            key = prepared.key
            assert common.check_digest("deanon_matrix", key, common.digest(answers)) == "recorded"
            distances = answers[0][1]
            distances[0] = math.nextafter(distances[0], math.inf)
            try:
                common.check_digest("deanon_matrix", key, common.digest(answers))
            except common.BenchmarkError:
                pass
            else:
                raise AssertionError("a one-ulp change passed the digest gate")


def test_served_gate_rejects_an_answer_unlike_in_process():
    reference = [[[[1, 0.5]]]] * (served.WARMUP + 2)
    answers = [[[[1, 0.5]]], [[[1, math.nextafter(0.5, 1.0)]]]]
    measured = run.Measured(
        latencies=[0.0], typical=0.0, pairs=0, busy=1.0, start=0.0, end=0.0,
        attempted=2, failed=0, host_before=0.0, host_after=0.0, extra={"answers": answers},
    )
    try:
        run._check_served(measured, reference, "unrecorded")
    except common.BenchmarkError:
        pass
    else:
        raise AssertionError("a served answer differing by one ulp passed the gate")


def test_identical_work_gate_rejects_a_changed_pass():
    common.bootstrap(ROOT)
    prepared = inprocess.prepare_deanon(5, columns=4, scale=0.1)
    first = inprocess.run_pass(prepared)
    inprocess.check_identical(first, inprocess.run_pass(prepared))
    changed = inprocess.run_pass(prepared)
    changed.counts["exact_evaluations"] += 1
    try:
        inprocess.check_identical(first, changed)
    except common.BenchmarkError:
        pass
    else:
        raise AssertionError("a pass with different work counts passed the gate")


def test_stalled_request_is_late_not_missing():
    stalled = {3, 4}

    def send(index: int) -> bool:
        if index in stalled:
            time.sleep(0.5)
        if index == 7:
            raise ConnectionError("refused")
        return True

    records = loadgen.run(send, 20, rate=50.0, senders=2)
    assert [record.index for record in records] == list(range(20))
    # Both senders are stuck on 3 and 4, so 5 leaves about 0.4 s late and its
    # latency, counted from its due time, includes that wait.
    assert records[5].late > 0.3
    assert records[5].latency >= records[5].late
    assert all(record.latency >= 0.5 for record in records if record.index in stalled)
    # A failed request is a sample that misses every latency limit.
    assert not records[7].ok and records[7].latency == math.inf
    assert sum(1 for record in records if record.ok) == 19


def _measured(latencies, failed):
    return run.Measured(
        latencies=latencies, typical=common.typical_ms(latencies) / 1000.0, pairs=1,
        busy=1.0, start=0.0, end=0.0, attempted=len(latencies), failed=failed,
        host_before=0.0, host_after=0.0,
    )


def test_failures_bunched_in_one_window_fail_the_run():
    latencies = [0.01] * 600
    assert _measured(latencies, 0).end_to_end()["p95_latency_ms"] > 0
    # 25 failures are about 4 % of the run, under the share a run may lose,
    # but landing together they are 12 % of their p95 window.
    bunched = latencies[:]
    bunched[200:225] = [math.inf] * 25
    spread = latencies[:]
    spread[::24] = [math.inf] * 25
    assert math.isfinite(_measured(spread, 25).end_to_end()["p95_latency_ms"])
    for failing in (bunched, [math.inf] * 40 + latencies[40:]):
        failed = sum(1 for value in failing if value == math.inf)
        try:
            _measured(failing, failed).end_to_end()
        except common.BenchmarkError:
            pass
        else:
            raise AssertionError(f"{failed} failures of 600 still gave a result")


def test_checkout_without_program_fails_without_result():
    with tempfile.TemporaryDirectory() as empty:
        with contextlib.chdir(empty):
            code, result = run_main("--workload", "deanon_matrix", "--seed", "1", "--seconds", "1")
    assert code != 0 and result is None


if __name__ == "__main__":
    failures = 0
    for name, test in sorted(globals().items()):
        if name.startswith("test_") and callable(test):
            began = time.perf_counter()
            try:
                test()
                status = "ok"
            except Exception as error:  # report every test, then fail
                failures += 1
                status = f"FAIL {type(error).__name__}: {error}"
            print(f"{name}: {status} ({time.perf_counter() - began:.1f}s)")
    raise SystemExit(1 if failures else 0)
