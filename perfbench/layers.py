"""Per-layer metrics from a traced run's spans.

Every per-layer metric is reported for every workload; a layer the
workload bypasses reads 0 (no work, no time).
"""

from __future__ import annotations

from probes import layer_of
from spans import Node, Span, build_tree, clip, fold, self_time
from statistics import median

from stats import OK, tail

#: Per-layer metrics in report order: ``(name, unit, better)``.
PER_LAYER_SPEC = (
    ("loadgen.send_lag_p99_ms", "ms", "lower"),
    ("wire.overhead_p50_ms", "ms", "lower"),
    ("wire.overhead_p99_ms", "ms", "lower"),
    ("wire.reconnects", "count", "lower"),
    ("idempotency.us_per_request", "us", "lower"),
    ("idempotency.peak_bytes", "bytes", "lower"),
    ("service.queue_wait_p50_ms", "ms", "lower"),
    ("service.queue_wait_p99_ms", "ms", "lower"),
    ("service.dispatch_self_p50_ms", "ms", "lower"),
    ("service.batch_size_mean", "count", "higher"),
    ("service.shed_ratio", "ratio", "lower"),
    ("cache.hit_ratio", "ratio", "higher"),
    ("cache.us_per_lookup", "us", "lower"),
    ("cache.peak_bytes", "bytes", "lower"),
    ("pool.route_us", "us", "lower"),
    ("pool.self_p50_ms", "ms", "lower"),
    ("pool.chip_balance", "ratio", "lower"),
    ("exec.jobs", "count", "higher"),
    ("exec.roundtrip_p50_ms", "ms", "lower"),
    ("exec.echo_rtt_us", "us", "lower"),
    ("exec.respawns", "count", "lower"),
    ("driver.self_us_per_job", "us", "lower"),
    ("nx.engine_us_per_kib", "us/KiB", "lower"),
    ("nx.engine_share", "ratio", "lower"),
    ("nx.cycles_per_kib", "cycles/KiB", "lower"),
    ("nx.bank_stall_share", "ratio", "lower"),
    ("nx.dht_cycle_share", "ratio", "lower"),
    ("deflate.kernel_us_per_kib", "us/KiB", "lower"),
    ("inflate.kernel_us_per_kib", "us/KiB", "lower"),
    ("pinflate.spec_used_ratio", "ratio", "higher"),
    ("pinflate.chunks_failed", "count", "lower"),
    ("pinflate.serial_segments", "count", "lower"),
    ("range.decoded_kib_per_read", "KiB", "lower"),
    ("range.index_points", "count", "higher"),
    ("scan.compress_mbps", "MB/s", "higher"),
    ("scan.inflate_own_mbps", "MB/s", "higher"),
    ("scan.inflate_foreign_mbps", "MB/s", "higher"),
    ("modelled_gbps", "GB/s", "higher"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.blocking_sum_err_pct", "%", "lower"),
    ("trace.unwrapped_share", "ratio", "lower"),
)
PER_LAYER = tuple(name for name, _, _ in PER_LAYER_SPEC)
UNITS = {name: unit for name, unit, _ in PER_LAYER_SPEC}

#: Tolerance on the blocking-path invariant: for every request, the
#: layer self times must sum to the client latency within this share.
BLOCKING_SUM_TOLERANCE_PCT = 2.0


def _ms(values: list[float], p: float, name: str, used: dict) -> float:
    """``values``' ``p``-th percentile in ms, or a lower one when there
    are too few samples; ``used[name]`` gets the percentile taken."""
    if not values:
        return 0.0
    used[name], value = tail(values, p)
    return value * 1e3


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _subtree(node: Node) -> list[Node]:
    out, todo = [], [node]
    while todo:
        n = todo.pop()
        out.append(n)
        todo.extend(n.children)
    return out


def _layer_self(node: Node, layer: str) -> float:
    return sum(self_time(n) for n in _subtree(node)
               if layer_of(n.name) == layer)


def request_paths(records, spans: list[Span]) -> list[tuple]:
    """Per served request: ``(record, path root, server span, submit,
    wait, batch)``, the path being the request's blocking tree.

    The tree is the load generator's request (from its scheduled time),
    the client call, the server's handling of that wire request id, and
    — hung under the ticket wait, clipped to it — the dispatcher batch
    that served the ticket.
    """
    nodes = build_tree(spans)
    by_rid: dict[str, Span] = {}
    batches: dict[int, Span] = {}
    for s in spans:
        if s.name == "wire.server" and s.attrs.get("rid"):
            by_rid[s.attrs["rid"]] = s
        elif s.name == "service.batch":
            for ticket in s.attrs.get("tickets", ()):
                batches[ticket] = s
    kids: dict[int, list[Span]] = {}
    for s in spans:
        kids.setdefault(s.parent, []).append(s)
    out = []
    for r in records:
        server = by_rid.get(r.request_id)
        if r.outcome != OK or server is None:
            continue
        submit = wait = None
        for s in kids.get(server.sid, ()):
            if s.name == "service.submit":
                submit = s
        for s in kids.get(server.sid, ()):
            if s.name == "service.wait" and submit is not None \
                    and s.attrs.get("ticket") == submit.attrs.get("ticket"):
                wait = s
        if submit is None or wait is None:
            continue
        batch = batches.get(wait.attrs["ticket"])
        if batch is not None:
            adopted = clip(nodes[batch.sid], wait.start, wait.end)
            if adopted is not None:
                nodes[wait.sid].children.append(adopted)
        client = Node("wire.client", r.sent, r.done, [nodes[server.sid]])
        root = Node("loadgen.request", r.scheduled, r.done, [client])
        out.append((r, root, server, submit, wait, batch))
    return out


def rpc_layers(records, server_doc: dict, info: dict) -> dict[str, float]:
    """Per-layer metrics of a traced rpc run.

    ``info`` gets ``folded`` (requests whose blocking path was folded)
    and ``percentiles`` (the percentile each tail metric really took).
    """
    spans = [Span.from_dict(d) for d in server_doc["spans"]]
    m = dict.fromkeys(PER_LAYER, 0.0)
    used = info["percentiles"] = {}
    if records:
        m["loadgen.send_lag_p99_ms"] = _ms([r.send_lag for r in records],
                                           99.0, "loadgen.send_lag_p99_ms",
                                           used)
        m["wire.reconnects"] = float(sum(r.reconnects for r in records))
        m["service.shed_ratio"] = _ratio(
            sum(1 for r in records if r.outcome == "shed"), len(records))
        # Simulated engine time from the response headers: exact for a
        # seed, so it moves only when the model does.
        modelled = [r for r in records if r.outcome == OK and r.modelled_s]
        m["modelled_gbps"] = _ratio(sum(r.nbytes for r in modelled) / 1e9,
                                    sum(r.modelled_s for r in modelled))

    paths = request_paths(records, spans)
    info["folded"] = len(paths)
    overhead, queue, errors = [], [], []
    unwrapped = latency = 0.0
    for r, root, server, submit, wait, batch in paths:
        overhead.append(r.round_trip - (wait.end - submit.start))
        if batch is not None:
            queue.append(self_time(next(
                n for n in _subtree(root) if n.name == "service.wait")))
        total = sum(fold(root, layer_of).values())
        errors.append(abs(total - r.latency) / r.latency * 100.0)
        # The client call outside the server's handling of it: no
        # wrapped entry point times this (socket transfer, framing,
        # the handler thread waiting to run).
        unwrapped += self_time(root.children[0])
        latency += r.latency
    for name, values, p in (("wire.overhead_p50_ms", overhead, 50.0),
                            ("wire.overhead_p99_ms", overhead, 99.0),
                            ("service.queue_wait_p50_ms", queue, 50.0),
                            ("service.queue_wait_p99_ms", queue, 99.0)):
        m[name] = _ms(values, p, name, used)
    # The worst request, so one inconsistent path is enough to show.
    m["trace.blocking_sum_err_pct"] = max(errors, default=0.0)
    m["trace.unwrapped_share"] = _ratio(unwrapped, latency)

    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def total(name: str) -> float:
        return sum(s.duration for s in by_name.get(name, ()))

    n_requests = len(by_name.get("wire.server", ()))
    m["idempotency.us_per_request"] = _ratio(
        (total("idempotency.begin") + total("idempotency.commit")) * 1e6,
        n_requests)
    state = server_doc.get("state", {})
    m["idempotency.peak_bytes"] = float(state.get("idem_peak", 0))

    nodes = build_tree(spans)
    batches = by_name.get("service.batch", [])
    if batches:
        m["service.dispatch_self_p50_ms"] = median(
            [_layer_self(nodes[b.sid], "service") for b in batches]) * 1e3
        m["pool.self_p50_ms"] = median(
            [_layer_self(nodes[b.sid], "pool") for b in batches]) * 1e3
        m["service.batch_size_mean"] = (
            sum(len(b.attrs.get("tickets", ())) for b in batches)
            / len(batches))

    begins = by_name.get("cache.begin", [])
    if begins:
        m["cache.hit_ratio"] = _ratio(
            sum(1 for s in begins if s.attrs.get("state") == "hit"),
            len(begins))
        m["cache.us_per_lookup"] = (total("cache.key") + total("cache.begin")
                                    + total("cache.commit")) * 1e6 / len(begins)
    m["cache.peak_bytes"] = float(state.get("cache_peak", 0))

    routes = by_name.get("pool.route", [])
    m["pool.route_us"] = _ratio(total("pool.route") * 1e6, len(routes))
    counts = server_doc["counters"]["dispatch_counts"]
    if counts and max(counts):
        m["pool.chip_balance"] = max(counts) / max(1, min(counts))
    _exec_layers(m, by_name, state, server_doc["counters"]["exec_restarts"],
                 server_doc.get("echo", {}))

    engines = by_name.get("nx.engine", [])
    if engines:
        # Self time already excludes nested driver calls and engines.
        driver_self = sum(self_time(nodes[s.sid]) for s in spans
                          if s.name.startswith("driver."))
        m["driver.self_us_per_job"] = driver_self * 1e6 / len(engines)
        in_kib = sum(s.attrs.get("in_bytes", 0) for s in engines) / 1024.0
        engine_s = total("nx.engine")
        m["nx.engine_us_per_kib"] = _ratio(engine_s * 1e6, in_kib)
        m["nx.engine_share"] = _ratio(engine_s, total("service.batch"))
        cycles = sum(s.attrs.get("cycles", 0) for s in engines)
        compress_cycles = sum(s.attrs.get("cycles", 0) for s in engines
                              if "bank_stalls" in s.attrs)
        m["nx.cycles_per_kib"] = _ratio(cycles, in_kib)
        m["nx.bank_stall_share"] = _ratio(
            sum(s.attrs.get("bank_stalls", 0) for s in engines),
            compress_cycles)
        m["nx.dht_cycle_share"] = _ratio(
            sum(s.attrs.get("dht_cycles", 0) for s in engines),
            compress_cycles)
    return m


def _exec_layers(m: dict, by_name: dict, state: dict, restarts: int,
                 echo) -> None:
    jobs = by_name.get("exec.job", [])
    m["exec.jobs"] = float(state.get("exec_jobs", 0))
    if jobs:
        m["exec.roundtrip_p50_ms"] = median([s.duration for s in jobs]) * 1e3
    rtts = [median(times) * 1e6 for times in echo.values() if times]
    if rtts:  # the median of the before and after probes
        m["exec.echo_rtt_us"] = median(rtts)
    m["exec.respawns"] = float(restarts)


def scan_layers(doc: dict) -> dict[str, float]:
    spans = [Span.from_dict(d) for d in doc["spans"]]
    m = dict.fromkeys(PER_LAYER, 0.0)
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    routes = by_name.get("pool.route", [])
    m["pool.route_us"] = _ratio(
        sum(s.duration for s in routes) * 1e6, len(routes))
    m["pool.chip_balance"] = 1.0  # one software-parallel "chip"
    nodes = build_tree(spans)
    jobs = by_name.get("pool.job", [])
    if jobs:
        m["pool.self_p50_ms"] = median(
            [_layer_self(nodes[s.sid], "pool") for s in jobs]) * 1e3
    _exec_layers(m, by_name, doc["state"], doc["restarts"], doc["echo"])

    kernels = doc["kernels"]
    kib = sum(k["bytes"] for k in kernels) / 1024.0
    m["deflate.kernel_us_per_kib"] = _ratio(
        sum(k["deflate_s"] for k in kernels) * 1e6, kib)
    m["inflate.kernel_us_per_kib"] = _ratio(
        sum(k["inflate_s"] for k in kernels) * 1e6, kib)

    steps = [s for s in doc["steps"] if s["phase"] == "traced"]
    inflates = [s for s in steps if s["kind"].startswith("inflate_")]
    m["pinflate.spec_used_ratio"] = _ratio(
        sum(s["used"] for s in inflates),
        sum(s["speculated"] for s in inflates))
    m["pinflate.chunks_failed"] = float(sum(s["failed"] for s in inflates))
    m["pinflate.serial_segments"] = float(sum(s["serial"] for s in inflates))
    if inflates:
        m["range.index_points"] = (sum(s["points"] for s in inflates)
                                   / len(inflates))
    reads = [r for r in doc["reads"] if r["phase"] == "traced"]
    if reads:
        m["range.decoded_kib_per_read"] = (
            sum(r["decoded"] for r in reads) / 1024.0 / len(reads))
    for kind, name in (("compress", "scan.compress_mbps"),
                       ("inflate_own", "scan.inflate_own_mbps"),
                       ("inflate_foreign", "scan.inflate_foreign_mbps")):
        chosen = [s for s in steps if s["kind"] == kind]
        m[name] = _ratio(sum(s["bytes"] for s in chosen) / 1e6,
                         sum(s["s"] for s in chosen))
    return m
