"""The benchmark's own arithmetic, on synthetic timestamps (seconds)."""

from __future__ import annotations

import gzip
import time

import pytest

import loadgen
from inputs import Request, read_offsets
from layers import rpc_layers
from repro.errors import ServiceOverloaded
from hostspeed import REFERENCE_PROBE_S, HostSpeed
from run import normalise, ratio_prefix
from spans import Node, Span, clip, fold, self_time, union_length
from stats import (ERROR, OK, SHED, TIMEOUT, WRONG, OpRecord, count_failed,
                   highest_supported, percentile, supports, tail)


# -- the ten-samples-beyond rule ------------------------------------------

def test_p99_needs_a_thousand_samples():
    assert supports(1000, 99.0)
    assert not supports(999, 99.0)
    assert supports(100, 90.0) and not supports(99, 90.0)


def test_tail_falls_back_down_the_ladder():
    assert highest_supported(1000, 99.0) == 99.0
    assert highest_supported(200, 99.0) == 95.0
    assert highest_supported(100, 99.0) == 90.0
    assert highest_supported(50, 99.0) == 75.0
    assert highest_supported(100, 50.0) == 50.0
    values = [float(i) for i in range(1, 101)]
    assert tail(values, 99.0) == (90.0, 90.0)
    assert tail([1.0, 5.0, 3.0], 99.0) == (100.0, 5.0)


def test_nearest_rank_percentile():
    values = [float(i) for i in range(1, 11)]
    assert percentile(values, 50.0) == 5.0
    assert percentile(values, 90.0) == 9.0
    assert percentile(values, 100.0) == 10.0
    with pytest.raises(ValueError):
        percentile([], 50.0)


# -- open-loop timing -----------------------------------------------------

def test_latency_is_timed_from_the_schedule():
    # Due at 1.0, no connection free until 1.2, answered at 1.5.
    rec = OpRecord("compress", 10, scheduled=1.0, ready=1.2, sent=1.2,
                   done=1.5)
    assert rec.latency == pytest.approx(0.5)
    assert rec.round_trip == pytest.approx(0.3)
    assert rec.send_lag == 0.0  # waiting for a connection is not lag


def test_send_lag_is_the_generator_running_late():
    rec = OpRecord("compress", 10, scheduled=1.0, ready=0.9, sent=1.004,
                   done=1.1)
    assert rec.send_lag == pytest.approx(0.004)


class _SlowClient:
    """Answers every request correctly after ``delay`` seconds."""

    def __init__(self, delay: float) -> None:
        self.delay = delay

    def request(self, op, body, **kwargs):
        time.sleep(self.delay)
        return _Result(gzip.compress(body) if op == "compress"
                       else gzip.decompress(body))


class _Result:
    def __init__(self, output: bytes) -> None:
        self.output = output
        self.request_id = "r"
        self.reconnects = 0
        self.modelled_s = 1e-6


def _req(data: bytes = b"abc" * 10) -> Request:
    return Request("compress", data, data, "t", "batch", "f")


def test_open_loop_charges_a_stall_to_the_requests_behind_it():
    # One connection, three requests due at once, each served in 20 ms:
    # the third waits for the first two, and its latency shows it.
    start = time.perf_counter() + 0.01
    records = loadgen.open_loop([_SlowClient(0.02)], [_req()] * 3,
                                [start] * 3)
    assert [r.outcome for r in records] == [OK] * 3
    latencies = sorted(r.latency for r in records)
    assert latencies[2] >= 0.06 - 1e-3
    assert all(r.round_trip < 0.05 for r in records)


def test_closed_loop_completes_its_required_prefix():
    # The deadline has passed at once, yet the first five requests
    # (the ones the ratio covers) are all sent, in request order.
    reqs = [_req(b"x" * (i + 1)) for i in range(8)]
    records = loadgen.closed_loop([_SlowClient(0.0)] * 2, reqs, 0.0,
                                  min_requests=5)
    assert [r.nbytes for r in records] == [1, 2, 3, 4, 5]
    assert loadgen.closed_loop([_SlowClient(0.0)], reqs, 0.0) == []


def test_ratio_prefix_counts_compress_requests():
    dec = Request("decompress", b"", b"", "t", "bulk", "f")
    reqs = [dec, _req(), dec, _req(), _req()]
    assert ratio_prefix(reqs, 2) == 4
    assert ratio_prefix(reqs, 9) == 5


# -- self-time folding ----------------------------------------------------

def test_union_merges_overlaps():
    assert union_length([(1, 4), (3, 6), (8, 9)]) == pytest.approx(6.0)
    assert union_length([(0, 1), (1, 2)]) == pytest.approx(2.0)
    assert union_length([]) == 0.0


def test_self_time_with_overlapping_children():
    parent = Node("service.batch", 0.0, 10.0,
                  [Node("pool.job", 1.0, 4.0), Node("pool.job", 3.0, 6.0)])
    assert self_time(parent) == pytest.approx(5.0)
    layers = fold(parent, lambda name: name.split(".")[0])
    assert layers == {"service": pytest.approx(5.0),
                      "pool": pytest.approx(6.0)}
    # Overlapping siblings are not a blocking path: the sum exceeds
    # the parent by exactly the overlap.
    assert sum(layers.values()) == pytest.approx(11.0)


def test_self_time_clips_overhanging_children():
    parent = Node("a.x", 0.0, 10.0, [Node("b.y", 8.0, 12.0)])
    assert self_time(parent) == pytest.approx(8.0)
    clipped = clip(parent, 2.0, 9.0)
    assert (clipped.start, clipped.end) == (2.0, 9.0)
    assert (clipped.children[0].start, clipped.children[0].end) == (8.0, 9.0)
    assert clip(parent, 11.0, 12.0) is None


def test_blocking_path_sums_to_client_latency():
    # Client scheduled at 0, sent at 1, done at 10.  Server handles
    # 2..9: submit 2..3, wait 3..8; the dispatcher batch that served
    # the ticket ran 2.5..8.5 (clipped to the wait), engine 4..7.
    rec = OpRecord("compress", 100, scheduled=0.0, ready=0.5, sent=1.0,
                   done=10.0, request_id="rid", out_bytes=10)
    spans = [
        Span("wire.server", 2.0, 9.0, 0, 1, {"rid": "rid"}),
        Span("service.submit", 2.0, 3.0, 1, 2, {"ticket": 7}),
        Span("service.wait", 3.0, 8.0, 1, 3, {"ticket": 7}),
        Span("service.batch", 2.5, 8.5, 0, 4, {"tickets": [7]}),
        Span("nx.engine", 4.0, 7.0, 4, 5, {"in_bytes": 1024}),
    ]
    doc = {"spans": [s.to_dict() for s in spans], "state": {},
           "counters": {"dispatch_counts": [1, 1], "exec_restarts": 0}}
    info: dict = {}
    m = rpc_layers([rec], doc, info)
    assert info["folded"] == 1
    # The fold partitions a consistent path, so the sum is exact.
    assert m["trace.blocking_sum_err_pct"] == pytest.approx(0.0, abs=1e-9)
    # Outside the server span 2..9, the client call 1..10 is unwrapped.
    assert m["trace.unwrapped_share"] == pytest.approx(2.0 / 10.0)
    # One sample: the named tails fall back to the maximum, and say so.
    assert info["percentiles"]["wire.overhead_p99_ms"] == 100.0
    # wire overhead: round trip 9 minus submit-start..wait-end 6.
    assert m["wire.overhead_p50_ms"] == pytest.approx(3000.0)
    # The batch covers the whole wait, so the queue wait is zero.
    assert m["service.queue_wait_p50_ms"] == pytest.approx(0.0)
    assert m["nx.engine_us_per_kib"] == pytest.approx(3e6)


def _server_doc(spans: list[Span]) -> dict:
    return {"spans": [s.to_dict() for s in spans], "state": {},
            "counters": {"dispatch_counts": [1, 1], "exec_restarts": 0}}


def test_inconsistent_path_breaks_the_blocking_sum():
    # The server span for this request id overhangs the client call
    # (a mislinked span or a clock the client does not share): its
    # time is counted beyond the latency, and the check shows it.
    rec = OpRecord("compress", 100, scheduled=0.0, ready=0.0, sent=0.0,
                   done=10.0, request_id="rid", out_bytes=10)
    doc = _server_doc([
        Span("wire.server", 5.0, 15.0, 0, 1, {"rid": "rid"}),
        Span("service.submit", 5.0, 6.0, 1, 2, {"ticket": 7}),
        Span("service.wait", 6.0, 14.0, 1, 3, {"ticket": 7}),
    ])
    m = rpc_layers([rec], doc, {})
    assert m["trace.blocking_sum_err_pct"] == pytest.approx(50.0)


# -- failures -------------------------------------------------------------

class _RaisingClient:
    def __init__(self, exc: Exception) -> None:
        self.exc = exc

    def request(self, op, body, **kwargs):
        raise self.exc


class _WrongClient:
    def request(self, op, body, **kwargs):
        return _Result(gzip.compress(body + b"!"))


def test_shed_timeout_and_wrong_bytes_all_count_as_failed():
    now = time.perf_counter()
    shed = loadgen.call(_RaisingClient(ServiceOverloaded("full")), _req(),
                        now, now)
    late = loadgen.call(_RaisingClient(TimeoutError()), _req(), now, now)
    wrong = loadgen.call(_WrongClient(), _req(), now, now)
    right = loadgen.call(_SlowClient(0.0), _req(), now, now)
    assert [shed.outcome, late.outcome, wrong.outcome, right.outcome] == \
        [SHED, TIMEOUT, WRONG, OK]
    error = OpRecord("decompress", 1, 0, 0, 0, 0, outcome=ERROR)
    assert count_failed([shed, late, wrong, right, error]) == 4


def test_compress_output_must_gunzip_to_the_input():
    req = _req(b"hello world")
    assert loadgen.verify(req, gzip.compress(b"hello world"))
    assert not loadgen.verify(req, b"not gzip at all")
    dec = Request("decompress", gzip.compress(b"x"), b"x", "t", "bulk", "f")
    assert loadgen.verify(dec, b"x") and not loadgen.verify(dec, b"y")


def test_read_offsets_are_stratified_and_seeded():
    offs = read_offsets(3, 1 << 20, 16, 4096)
    assert offs == read_offsets(3, 1 << 20, 16, 4096)
    stratum = ((1 << 20) - 4096) / 16
    assert sorted(int(o // stratum) for o in offs) == list(range(16))


# -- host-speed normalisation -----------------------------------------------

def test_times_and_rates_are_scaled_to_the_reference_speed():
    # On a CPU twice as slow as the reference (factor 2), a 10 ms time
    # reads 5 ms and 1 MB/s reads 2 MB/s; ratios and sizes stay.
    assert normalise(10.0, "ms", 2.0) == 5.0
    assert normalise(4.0, "us/KiB", 2.0) == 2.0
    assert normalise(1.0, "MB/s", 2.0) == 2.0
    assert normalise(3.3, "x", 2.0) == 3.3
    assert normalise(100.0, "MB", 2.0) == 100.0
    assert normalise(7.0, "GB/s", 2.0) == 7.0  # simulated time


def test_host_factor_is_the_median_probe_over_the_reference():
    speed = HostSpeed()
    assert speed.factor == 1.0  # no probes: no correction
    ref = REFERENCE_PROBE_S
    speed.samples = [ref, 3 * ref, 2 * ref, 2 * ref, 9 * ref]
    assert speed.factor == pytest.approx(2.0)
