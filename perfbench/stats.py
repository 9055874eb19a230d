"""The benchmark's own arithmetic: percentiles, open-loop timing, outcomes.

Everything here works on plain numbers (seconds, byte counts) so it can
be unit-tested on synthetic timestamps without running the program.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

#: A reported percentile needs at least this many samples beyond it.
MIN_SAMPLES_BEYOND = 10

#: Outcome of one operation.  Only ``ok`` counts as a success; a shed
#: (``rejected``), a timeout and a wrong byte are each a failed op.
OK, SHED, TIMEOUT, WRONG, ERROR = "ok", "shed", "timeout", "wrong", "error"


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile (``p`` in 0..100) of ``values``."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(n: int, p: float) -> int:
    """How many of ``n`` nearest-rank samples lie above the ``p``-th."""
    return n - max(1, math.ceil(p / 100.0 * n))


def supports(n: int, p: float) -> bool:
    """The ten-samples-beyond rule: may ``n`` samples report ``p``?"""
    return samples_beyond(n, p) >= MIN_SAMPLES_BEYOND


def highest_supported(n: int, wanted: float,
                      ladder: tuple[float, ...] = (99.0, 95.0, 90.0, 75.0,
                                                   50.0)) -> float | None:
    """The highest percentile <= ``wanted`` on ``ladder`` that ``n``
    samples support, or None when even the median is unsupported."""
    for p in ladder:
        if p <= wanted and supports(n, p):
            return p
    return None


def tail(values: list[float], wanted: float) -> tuple[float, float]:
    """``(percentile used, value)`` for a tail metric named at ``wanted``.

    Falls back down the ladder when there are too few samples; with
    fewer than eleven samples it reports the maximum, labelled 100.
    """
    p = highest_supported(len(values), wanted)
    if p is None:
        return 100.0, max(values)
    return p, percentile(values, p)


@dataclass
class OpRecord:
    """One operation as the load generator saw it (times in seconds).

    ``scheduled`` is when the open-loop schedule wanted the request
    sent (equal to ``ready`` in a closed loop); ``ready`` is when a
    connection was free to send it; ``sent`` and ``done`` bracket the
    client call.
    """

    kind: str
    nbytes: int
    scheduled: float
    ready: float
    sent: float
    done: float
    outcome: str = OK
    out_bytes: int = 0
    modelled_s: float = 0.0
    request_id: str = ""
    reconnects: int = 0

    @property
    def latency(self) -> float:
        """Open-loop latency: from the scheduled send time, so a stall
        also charges the wait it imposes on the requests behind it."""
        return self.done - self.scheduled

    @property
    def send_lag(self) -> float:
        """How late the generator itself ran: send time past the later
        of the schedule and the moment a connection was free."""
        return max(0.0, self.sent - max(self.scheduled, self.ready))

    @property
    def round_trip(self) -> float:
        return self.done - self.sent


def count_failed(records: list[OpRecord]) -> int:
    """Shed, timed-out, wrong and errored operations all count."""
    return sum(1 for r in records if r.outcome != OK)


def count_wrong(records: list[OpRecord]) -> int:
    return sum(1 for r in records if r.outcome == WRONG)


def rate_mbps(nbytes: float, seconds: float) -> float:
    return nbytes / 1e6 / seconds if seconds > 0 else 0.0


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median (the stability
    measure runs are judged by)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else float("inf")
