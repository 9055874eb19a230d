"""Open- and closed-loop load over a fixed set of client connections.

One thread per connection, all in this one process.  Every response is
checked byte for byte before the next request on that connection; the
check runs after the response's time is taken, so it never counts as
latency.
"""

from __future__ import annotations

import gzip
import random
import threading
import time
import zlib

from repro.errors import ReproError, ServiceOverloaded

from inputs import Request
from stats import ERROR, OK, SHED, TIMEOUT, WRONG, OpRecord


def verify(req: Request, output: bytes) -> bool:
    """Compress output must gunzip to the input; decompress output must
    equal the original bytes."""
    if req.op == "decompress":
        return output == req.expect
    try:
        return gzip.decompress(output) == req.expect
    except (OSError, EOFError, zlib.error):
        return False


def call(client, req: Request, scheduled: float, ready: float) -> OpRecord:
    """One checked request; failures become outcomes, never exceptions."""
    rec = OpRecord(req.op, len(req.body), scheduled, ready, 0.0, 0.0)
    rec.sent = time.perf_counter()
    try:
        result = client.request(req.op, req.body, qos=req.qos,
                                tenant=req.tenant)
    except ServiceOverloaded:
        rec.done, rec.outcome = time.perf_counter(), SHED
        return rec
    except TimeoutError:
        rec.done, rec.outcome = time.perf_counter(), TIMEOUT
        return rec
    except (ReproError, OSError):
        rec.done, rec.outcome = time.perf_counter(), ERROR
        return rec
    rec.done = time.perf_counter()
    rec.request_id = result.request_id
    rec.reconnects = result.reconnects
    rec.modelled_s = result.modelled_s
    rec.out_bytes = len(result.output)
    rec.outcome = OK if verify(req, result.output) else WRONG
    return rec


def poisson_schedule(start: float, rate: float, seconds: float,
                     seed: int) -> list[float]:
    """Poisson arrivals in ``[start, start+seconds)``, conditioned on
    their count being exactly ``rate * seconds`` (the points of such a
    process are independent and uniform over the window)."""
    rng = random.Random(seed)
    count = int(round(rate * seconds))
    return sorted(start + rng.random() * seconds for _ in range(count))


def _run_threads(clients, work) -> None:
    threads = [threading.Thread(target=work, args=(c,), daemon=True)
               for c in clients]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


def open_loop(clients, requests: list[Request],
              schedule: list[float]) -> list[OpRecord]:
    """Send ``requests[i]`` at ``schedule[i]`` on whichever connection
    is free; a request that finds none waits, and its latency (timed
    from the schedule) shows the wait."""
    records: list[OpRecord | None] = [None] * len(schedule)
    lock = threading.Lock()
    cursor = iter(range(len(schedule)))

    def work(client) -> None:
        while True:
            with lock:
                i = next(cursor, None)
            if i is None:
                return
            ready = time.perf_counter()
            delay = schedule[i] - ready
            if delay > 0:
                time.sleep(delay)
            records[i] = call(client, requests[i], schedule[i], ready)

    _run_threads(clients, work)
    return [r for r in records if r is not None]


def closed_loop(clients, requests: list[Request], seconds: float,
                min_requests: int = 0) -> list[OpRecord]:
    """Each connection sends its next request when the last returns,
    until ``seconds`` have passed and the first ``min_requests`` have
    all been sent (or the requests run out).  Records come back in
    request order."""
    records: dict[int, OpRecord] = {}
    lock = threading.Lock()
    taken = 0
    end = time.perf_counter() + seconds

    def work(client) -> None:
        nonlocal taken
        while True:
            with lock:
                i = taken
                if i >= len(requests) or (
                        i >= min_requests and time.perf_counter() >= end):
                    return
                taken += 1
            now = time.perf_counter()
            rec = call(client, requests[i], now, now)
            with lock:
                records[i] = rec

    _run_threads(clients, work)
    return [records[i] for i in sorted(records)]
