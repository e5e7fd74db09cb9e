"""Open-loop load generator with due-time latency and lateness accounting.

Request ``i`` is *due* at ``start + i / rate``.  A fixed number of sender
threads take requests in order, sleep until each one is due, and send it.
Latency is measured from the due time, not the send time, so a stalled
request also charges the wait it imposes on the requests queued behind it;
how late each send left is recorded separately.  Every request yields a
record, failures included, so a stall can never turn into a missing sample.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass
from typing import Callable, List, Optional

from common import clock


@dataclass
class Record:
    index: int
    due: float
    sent: float = 0.0
    done: float = 0.0
    ok: bool = False
    error: Optional[str] = None

    @property
    def latency(self) -> float:
        """Due-to-done seconds; a failed request never meets a limit."""
        return self.done - self.due if self.ok else math.inf

    @property
    def late(self) -> float:
        return self.sent - self.due


def run(
    send: Callable[[int], bool],
    count: int,
    rate: float,
    senders: int,
    start: Optional[float] = None,
) -> List[Record]:
    """Send requests ``0 .. count-1`` at ``rate`` per second (``inf``: at once).

    ``send(i)`` returns True for a correct reply; it may raise, which counts
    as a failure of that request.  Returns one record per request, in order.
    """
    if start is None:
        start = clock()
    spacing = 0.0 if math.isinf(rate) else 1.0 / rate
    records = [Record(index, start + index * spacing) for index in range(count)]
    cursor = iter(range(count))
    take = threading.Lock()

    def sender() -> None:
        while True:
            with take:
                index = next(cursor, None)
            if index is None:
                return
            record = records[index]
            pause = record.due - clock()
            if pause > 0:
                time.sleep(pause)
            record.sent = clock()
            try:
                record.ok = bool(send(index))
            except Exception as error:  # counted, never lost
                record.error = f"{type(error).__name__}: {error}"
            record.done = clock()

    threads = [
        threading.Thread(target=sender, name=f"loadgen-{n}", daemon=True)
        for n in range(max(1, senders))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return records
