"""Record the answer digests the benchmark gates on, for a range of seeds.

Usage, from the checkout root::

    python3 perfbench/record_digests.py --seeds 0-15

For each seed it answers every workload once, untimed, at the sizes a run
of ``BENCHMARK.json``'s ``run_seconds`` uses, and writes the sha256 of the
canonical answers into ``perfbench/expected.json``.  Runs on a seed with a
record must reproduce it bit for bit; other seeds rely on the in-run
reference alone.  Re-record only when a workload's definition changes,
never to make a changed answer pass.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from common import BENCH_DIR, EXPECTED_FILE, MIN_SAMPLES, bootstrap, digest


def seeds_of(text: str):
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="a seed or an inclusive range, e.g. 0-15")
    args = parser.parse_args()
    bootstrap(Path.cwd())
    import inprocess
    import served

    seconds = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())["run_seconds"]
    count = max(round(served.RATE * seconds), MIN_SAMPLES)
    table = json.loads(EXPECTED_FILE.read_text()) if EXPECTED_FILE.is_file() else {}
    for seed in seeds_of(args.seeds):
        prepared = inprocess.prepare_deanon(seed)
        answers = inprocess.run_pass(prepared).answers
        table.setdefault("deanon_matrix", {})[prepared.key] = digest(answers)
        inputs = served.make_inputs(seed, served.WARMUP + count)
        answers = served.in_process_answers(inputs)[served.WARMUP:]
        table.setdefault("served_mix", {})[inputs.key] = digest(answers)
        print(f"seed {seed}: recorded", flush=True)
    EXPECTED_FILE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
