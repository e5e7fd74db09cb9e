"""Closed-loop capacity of the ``served_mix`` request stream (sizing aid).

Usage, from the root of a checkout::

    python3 perfbench/capacity.py --seed 1 --rounds 5 --requests 180

It starts ``python -m repro.serving --workers 1`` on the workload's store,
warms it with the stream's warm-up requests, then sends the requests that
follow back to back from ``served.SENDERS`` threads, in ``--rounds``
consecutive slices of ``--requests`` (5 x 180 is the timed stream of a
45 s run), and prints the requests per second of each slice.
``served.RATE`` is set from these figures; the benchmark itself never
searches for capacity (see README.md).
"""

from __future__ import annotations

import argparse
import math
import statistics
from pathlib import Path

from common import bootstrap, clock


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--requests", type=int, default=180)
    args = parser.parse_args(argv)
    root = Path.cwd()
    bootstrap(root)

    import loadgen
    from run import warm
    from served import SENDERS, WARMUP, ServerProcess, WorkDir, make_inputs

    inputs = make_inputs(args.seed, WARMUP + args.rounds * args.requests)
    rates = []
    with WorkDir(root) as work:
        store_path = work / "store.ned"
        inputs.store.save(store_path)
        server = ServerProcess(root, store_path, None)
        try:
            warm(server, inputs)
            client = server.client()
            for round_index in range(args.rounds):
                first = WARMUP + round_index * args.requests
                began = clock()
                records = loadgen.run(
                    lambda index: client.execute_batch(inputs.requests[first + index])
                    is not None,
                    args.requests, math.inf, SENDERS,
                )
                elapsed = clock() - began
                failed = sum(1 for record in records if not record.ok)
                rates.append(args.requests / elapsed)
                service = statistics.median(record.done - record.sent for record in records)
                print(
                    f"round {round_index}: {rates[-1]:.1f} requests/s, "
                    f"median service {service * 1000:.1f} ms, {failed} failed",
                    flush=True,
                )
        finally:
            server.stop()
    print(f"capacity: median {statistics.median(rates):.1f}, min {min(rates):.1f}, "
          f"max {max(rates):.1f} requests/s over {args.rounds} rounds of {args.requests}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
