"""Start ``ned-serve`` with the benchmark's span wrappers installed.

Usage (from the checkout root, ``PYTHONPATH=src``)::

    python perfbench/serve_launcher.py --spans-out spans.json -- --store-dir store.ned --workers 1

It patches the server-side public boundaries (wire decode/encode, request
handling, worker dispatch, the session and everything below it), then hands
over to ``repro.serving.cli.main``.  Each plan's wait between
``SessionServer.submit`` and the batch tick that executes it, and that tick,
are recorded as child spans of the request that decoded the plan, so a
request's self time is the part of it no layer accounts for.  When the
server stops (SIGTERM), the spans are written to ``--spans-out``.  Untraced
runs use ``python -m repro.serving`` instead.
"""

from __future__ import annotations

import argparse
import functools
import json
from pathlib import Path

from common import bootstrap, clock
from spans import SERVER_TARGETS, SpanRecorder


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans-out", required=True, type=Path)
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_args = args.serve_args[1:] if args.serve_args[:1] == ["--"] else args.serve_args
    bootstrap(Path.cwd())

    from repro.engine.session import NedSession, SessionServer
    from repro.serving import cli, server

    recorder = SpanRecorder()
    owner = {}  # id(plan) -> index of the request span that decoded it
    enqueued = {}  # id(plan) -> when it was submitted to the tick queue
    decode, submit = server.decode_request, SessionServer.submit
    execute_batch = NedSession.execute_batch

    @functools.wraps(decode)
    def owned_decode(*args, **kwargs):
        plans, tenant = decode(*args, **kwargs)
        request = recorder.enclosing("serving.server.request")
        for plan in plans:
            owner[id(plan)] = request
        return plans, tenant

    @functools.wraps(submit)
    async def timed_submit(self, plan):
        enqueued[id(plan)] = clock()
        return await submit(self, plan)

    @functools.wraps(execute_batch)
    def timed_execute_batch(self, plans, *rest, **options):
        started = clock()
        try:
            return execute_batch(self, plans, *rest, **options)
        finally:
            ended = clock()
            for plan in plans:
                request = owner.pop(id(plan), None)
                queued = enqueued.pop(id(plan), None)
                if request is not None and queued is not None:
                    recorder.add("serving.server.queue_wait", queued, started, request)
                    recorder.add("serving.server.tick", started, ended, request)

    server.decode_request, SessionServer.submit = owned_decode, timed_submit
    NedSession.execute_batch = timed_execute_batch
    try:
        with recorder.installed(SERVER_TARGETS):
            code = cli.main(serve_args)
    finally:
        server.decode_request, SessionServer.submit = decode, submit
        NedSession.execute_batch = execute_batch
        args.spans_out.write_text(json.dumps(
            {"spans": [span.__dict__ for span in recorder.spans]}
        ))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
