"""Runtime wrappers around each layer's public entry points.

Installed by the benchmark's server launcher (rpc workloads) and scan
driver when a run is traced; nothing in the program changes.  Span
names are ``<layer>.<what>``; :data:`LAYERS` maps the prefix to the
layer a self time is credited to.
"""

from __future__ import annotations

import importlib
import time

from spans import Recorder

#: Span-name prefix -> layer (the repo module it times).
LAYERS = {
    "loadgen": "loadgen",          # the benchmark itself
    "wire": "wire",                # service.client / protocol / server
    "idempotency": "idempotency",  # service.idempotency
    "service": "service",          # service.core / service.qos
    "cache": "cache",              # dictsvc
    "pool": "pool",                # backend.pool
    "exec": "exec",                # exec
    "driver": "driver",            # sysstack
    "nx": "nx",                    # nx engine
    "backend": "backend",          # backend kernels (software-parallel)
    "pinflate": "pinflate",        # deflate.parallel_inflate
    "range": "range",              # deflate.seekindex reads
}


#: Echo round trips per exec probe.
ECHO_ROUNDS = 20


def layer_of(name: str) -> str:
    return LAYERS.get(name.split(".", 1)[0], "other")


def echo_rtts(pool) -> list[float]:
    """Round-trip times (s) of the exec layer's registered ``echo`` job."""
    times = []
    for i in range(ECHO_ROUNDS):
        t0 = time.perf_counter()
        pool.run_batch([("echo", {"value": i})])
        times.append(time.perf_counter() - t0)
    return times


def _nx_attrs(outcome, span, engine, crb, space) -> None:
    span.attrs["in_bytes"] = crb.source.total_length
    result = outcome.result
    if result is None:
        return
    cycles = result.cycles
    if hasattr(cycles, "total"):  # compression: a CycleBreakdown
        span.attrs.update(cycles=cycles.total, bank_stalls=cycles.bank_stalls,
                          dht_cycles=cycles.dht_generation)
    else:
        span.attrs["cycles"] = int(cycles)


def install_exec(rec: Recorder, state: dict) -> None:
    """Exec layer: parent-side round trip per job, waits, respawns."""
    from repro.exec.pool import ProcessWorkerPool

    submitted: dict[int, tuple[float, str]] = {}
    state["exec_jobs"] = 0

    def on_submit(job, span, pool, fn, **kwargs):
        submitted[job.job_id] = (span.start, fn)
        state["exec_jobs"] += 1

    rec.wrap(ProcessWorkerPool, "submit", "exec.submit",
             after=on_submit)
    rec.wrap(ProcessWorkerPool, "wait", "exec.wait")

    original = vars(ProcessWorkerPool)["_handle"]

    def handle(pool, record):
        job = original(pool, record)
        if job is not None and job.job_id in submitted:
            start, fn = submitted.pop(job.job_id)
            # Top-level on purpose: the job runs past the submit call,
            # and the blocking wait already covers it on the path.
            rec.record("exec.job", start, time.perf_counter(), fn=fn)
        return job

    rec.patch(ProcessWorkerPool, "_handle", handle)


def install_pool(rec: Recorder) -> None:
    from repro.backend.pool import AcceleratorPool

    rec.wrap(AcceleratorPool, "_submit", "pool.job")
    rec.wrap(AcceleratorPool, "compress", "pool.job")
    rec.wrap(AcceleratorPool, "decompress", "pool.job")
    rec.wrap(AcceleratorPool, "_route_spanned", "pool.route")
    rec.wrap(AcceleratorPool, "wait_all", "pool.wait_all")


def install_server(rec: Recorder, state: dict) -> None:
    """Every layer a served request crosses, from the socket inward."""
    from repro.dictsvc.cache import ResultCache
    from repro.nx.engine import NxEngine
    from repro.service import core
    from repro.service.core import CompressionService, ServiceTicket
    from repro.service.idempotency import IdempotencyCache
    from repro.service.server import _Handler
    from repro.sysstack.driver import AsyncNxDriver

    state.setdefault("idem_peak", 0)
    state.setdefault("cache_peak", 0)

    rec.wrap(_Handler, "_serve", "wire.server",
             before=lambda h, svc, header, payload: {
                 "rid": header.get("request_id") or "",
                 "op": header.get("op")})
    rec.wrap(IdempotencyCache, "begin", "idempotency.begin")

    def idem_commit(_result, span, cache, *args, **kwargs):
        state["idem_peak"] = max(state["idem_peak"], cache.cached_bytes())

    rec.wrap(IdempotencyCache, "commit", "idempotency.commit",
             after=idem_commit)

    def on_submit(ticket, span, *args, **kwargs):
        span.attrs["ticket"] = ticket.request_id

    rec.wrap(CompressionService, "submit", "service.submit",
             after=on_submit)
    rec.wrap(ServiceTicket, "wait", "service.wait",
             before=lambda ticket, *a, **k: {"ticket": ticket.request_id})
    rec.wrap(CompressionService, "_run_batch", "service.batch",
             before=lambda svc, qcls, batch: {
                 "tickets": [req.ticket.request_id for req in batch]})
    rec.wrap(core, "result_key", "cache.key")

    def cache_begin(result, span, *args, **kwargs):
        span.attrs["state"] = result[0]

    def cache_commit(_result, span, cache, *args, **kwargs):
        state["cache_peak"] = max(state["cache_peak"], cache.cached_bytes())

    rec.wrap(ResultCache, "begin", "cache.begin", after=cache_begin)
    rec.wrap(ResultCache, "commit", "cache.commit", after=cache_commit)
    install_pool(rec)
    rec.wrap(AsyncNxDriver, "submit", "driver.submit")
    rec.wrap(AsyncNxDriver, "poll", "driver.poll")
    rec.wrap(AsyncNxDriver, "run", "driver.run")
    rec.wrap(NxEngine, "execute", "nx.engine", after=_nx_attrs)
    install_exec(rec, state)


def install_scan(rec: Recorder, state: dict) -> None:
    """Bulk path: software-parallel deflate, speculative inflate, reads."""
    from repro.backend.software_parallel import SoftwareParallelBackend

    # The package re-exports a function of the module's own name.
    pi = importlib.import_module("repro.deflate.parallel_inflate")

    install_pool(rec)
    rec.wrap(SoftwareParallelBackend, "_compress", "backend.compress")
    rec.wrap(pi, "_pool_speculate", "pinflate.speculate")
    rec.wrap(pi._Resolver, "run", "pinflate.resolve")
    rec.wrap(pi, "_decode_from_point", "range.decode")
    install_exec(rec, state)
