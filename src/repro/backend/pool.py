"""AcceleratorPool: N per-chip backend instances behind one job router.

A multi-chip system has one NX/zEDC per chip; production software must
decide *which* chip's engine serves each request.  The pool owns one
backend instance per chip (created lazily, so policy studies on large
topologies don't build N driver stacks) plus a software instance for
the size-threshold fallback, and routes with the same policy kernel the
DES in :mod:`repro.perf.routing` uses:

* ``local``          — the submitting chip's engine;
* ``round_robin``    — rotate across chips;
* ``least_loaded``   — fewest pending + served bytes, local on ties;
* ``size_threshold`` — small buffers to software (below break-even the
  invocation overhead dominates), large ones round-robin across chips.

Every job has one lifecycle, as a CRB does on the hardware: it is
routed, submitted to its chip's executor, and completed in one place
(:meth:`AcceleratorPool._finish_pending`), the only one that rescues,
counts breaker failures and verifies.  Each chip has one executor,
picked from what its backend exposes: the ``nx`` backend's own
asynchronous paste/poll surface; for synchronous backends with exec
workers on, an exec executor that runs jobs in worker processes; else
an inline executor that runs the call at submit.  Blocking
``compress``/``decompress`` take the inline executor (the asynchronous
driver cannot carry a history DDE) and return their own job's result.

The pool is also where resilience lives (the RAS discipline of the z15
part — a shared accelerator fails *per request*, never per tenant):

* every chip has a :class:`~repro.resilience.health.CircuitBreaker`;
  consecutive failures quarantine the chip and ``route()`` excludes it,
  half-open chips must pass known-answer probes
  (:func:`~repro.nx.selftest.probe_backend`) before user jobs return;
* a hardware failure is *rescued* — the job reruns on the calling core
  so the caller still gets correct bytes — unless
  ``allow_software_rescue=False``, in which case an all-open pool
  raises :class:`~repro.errors.ChipUnavailable`;
* ``verify=True`` re-inflates every compressed payload and CRC-checks
  it before returning (verify-after-compress); a mismatch counts as a
  chip failure and the payload is re-encoded in software.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field

from ..errors import (AcceleratorError, ChipUnavailable, ConfigError,
                      DeadlineExceeded, ExecError, WorkerCrash)
from ..nx.params import POWER9, MachineParams, Topology, get_machine
from ..obs.flight import FLIGHT as _FLIGHT
from ..obs.metrics import REGISTRY as _REGISTRY
from ..obs.trace import TRACE as _TRACE
from ..perf.routing import MultiChipRouter, RoutingResult, choose_chip
from ..resilience.health import HealthConfig, HealthTracker
from ..resilience.verify import (decode_payload, note_mismatch,
                                 software_compress, verify_payload)
from ..sysstack.driver import DriverResult, SubmissionStats
from .base import CompressionBackend
from .registry import create_backend, default_backend

#: Pool routing policies (superset of the DES policies: adds the
#: software fallback threshold, which has no queueing analogue).
ROUTING_POLICIES = ("local", "round_robin", "least_loaded",
                    "size_threshold")

#: Pseudo chip index for the software-fallback instance.
SOFTWARE = -1

#: E16's finding: a few in-flight requests saturate one engine (depth 4
#: reaches full utilisation on 64 KB jobs); deeper batches only queue.
SATURATION_DEPTH = 4

#: How long a blocking exec drain tolerates *zero* completions before
#: declaring unresolved jobs orphaned (worker died in its claim window)
#: and rescuing them; any progress restarts the window.
_EXEC_ORPHAN_TIMEOUT_S = 10.0


def _hardware_clean(result: DriverResult) -> bool:
    """Did the hardware serve this without misbehaving?

    Translation faults and target regrowth are *protocol*, not failure;
    hangs, spurious CCs, and retry-exhausted software fallbacks are the
    breaker-relevant signals.
    """
    stats = result.stats
    return not (stats.fallback_to_software
                or getattr(stats, "engine_hangs", 0)
                or getattr(stats, "spurious_ccs", 0))


def _outcome(job: "PoolJob") -> DriverResult:
    """A finished job's result, or its terminal error raised."""
    if job.error is not None:
        raise job.error
    return job.result


@dataclass(frozen=True)
class PoolStats:
    """One immutable, mutually consistent snapshot of pool activity.

    Built under the pool's lock in a single pass, so ``requests`` /
    ``bytes_*`` / ``dispatch_counts`` / ``in_flight`` all describe the
    same instant even while another thread is batch-submitting.
    """

    requests: int = 0
    bytes_in: int = 0
    bytes_out: int = 0
    modelled_seconds: float = 0.0
    faults: int = 0
    fallbacks: int = 0
    dispatch_counts: tuple[int, ...] = ()
    software_jobs: int = 0
    in_flight: int = 0
    rescues: int = 0
    verify_failures: int = 0
    breaker_opens: int = 0
    breaker_states: tuple[str, ...] = ()


#: Sequences of the pool's own pendings: unique, and never a driver's.
_SEQUENCES = itertools.count(1)


class _Pending:
    """A job on an inline or exec executor, shaped like a driver's."""

    __slots__ = ("sequence", "result", "error")

    def __init__(self, prefix: str) -> None:
        self.sequence = f"{prefix}:{next(_SEQUENCES)}"
        self.result: DriverResult | None = None
        self.error: Exception | None = None

    @property
    def done(self) -> bool:
        return self.result is not None or self.error is not None


class _ExecPending(_Pending):
    """An exec-layer job plus the shared-memory slabs it rides in."""

    __slots__ = ("exec_job", "src_slab", "out_slab", "nbytes", "kind",
                 "poisoned")

    def __init__(self, exec_job, src_slab, out_slab, nbytes: int,
                 kind: str) -> None:
        super().__init__("exec")
        self.exec_job = exec_job
        self.src_slab = src_slab
        self.out_slab = out_slab
        self.nbytes = nbytes
        self.kind = kind
        #: An orphan-failed job's task may still sit in the shared queue;
        #: its slabs must be unlinked, never recycled, or a worker could
        #: eventually run the stale task and scribble over whichever job
        #: reused them.  Unlinking is safe: names are never reissued, so
        #: the stale run hits FileNotFoundError (or a dead mapping) and
        #: its completion is ignored.
        self.poisoned = False


@dataclass
class PoolJob:
    """One request, batch or blocking, and where it was routed.

    The original payload is retained until completion so a job whose
    chip fails mid-flight can be rescued in software.  ``error`` is set
    when the job terminally failed (and no rescue was possible).
    """

    index: int
    chip: int
    nbytes: int
    kind: str
    result: DriverResult | None = None
    payload: bytes = field(default=b"", repr=False)
    fmt: str | None = None
    error: Exception | None = None
    verify: bool = False

    @property
    def done(self) -> bool:
        return self.result is not None or self.error is not None

    @property
    def failed(self) -> bool:
        return self.error is not None


class _InlineExecutor:
    """Runs a synchronous backend's call at submit: nothing is ever in
    flight.  A blocking call builds its own to pass ``history``/``final``.
    """

    in_flight = 0

    def __init__(self, backend: CompressionBackend, history: bytes = b"",
                 final: bool = True) -> None:
        self.backend = backend
        self.history = history
        self.final = final

    def submit(self, kind: str, data: bytes, *, strategy: object = "auto",
               fmt: str | None = None,
               deadline_s: float | None = None) -> _Pending:
        pending = _Pending("inline")
        if kind == "compress":
            pending.result = self.backend.compress(
                data, strategy=strategy, fmt=fmt, history=self.history,
                final=self.final, deadline_s=deadline_s)
        else:
            pending.result = self.backend.decompress(
                data, fmt=fmt, history=self.history, deadline_s=deadline_s)
        return pending

    def poll(self) -> list[_Pending]:
        return []

    wait_all = cancel_pending = poll


class _ExecExecutor:
    """Runs a synchronous backend's jobs in exec-layer worker processes.

    A job the execution layer cannot take (no worker pool, or a strategy
    object rather than a name) runs inline instead.
    """

    def __init__(self, pool: "AcceleratorPool", chip: int) -> None:
        self.pool = pool
        self.inline = _InlineExecutor(pool.backend_for(chip))
        self._open: list[_ExecPending] = []

    @property
    def in_flight(self) -> int:
        return len(self._open)

    def submit(self, kind: str, data: bytes, *, strategy: object = "auto",
               fmt: str | None = None,
               deadline_s: float | None = None) -> _Pending:
        """Ship one job to a pool worker; payload via shared memory.

        The worker's spans nest under the submitting span, and the wire
        trace context rides along as a ``traceparent``.
        """
        exec_pool = self.pool._exec()
        if exec_pool is None or not isinstance(strategy, str):
            return self.inline.submit(kind, data, strategy=strategy,
                                      fmt=fmt, deadline_s=deadline_s)
        allocator = exec_pool.allocator
        src_slab = allocator.acquire(max(1, len(data)))
        src_slab.write(0, data)
        out_slab = out = None
        if kind == "compress":
            # Compressed output fits input + slack; decompressed output
            # is unbounded, so it rides back inline instead.
            cap = len(data) + len(data) // 4 + 256
            out_slab = allocator.acquire(cap)
            out = (out_slab.name, 0, cap)
        ctx = _TRACE.current_ctx()
        pool = self.pool
        exec_job = exec_pool.submit(
            "backend_job",
            span_parent=_TRACE.current(),
            traceparent=ctx.to_traceparent() if ctx else None,
            backend=pool.backend_name,
            machine=pool.machine.name,
            backend_kwargs=pool._backend_kwargs,
            kind=kind, fmt=fmt, strategy=strategy,
            deadline_s=deadline_s,
            src=(src_slab.name, 0, len(data)),
            out=out)
        pending = _ExecPending(exec_job, src_slab, out_slab, len(data),
                               kind)
        self._open.append(pending)
        return pending

    def poll(self) -> list[_Pending]:
        return self._drain(block=False)

    def wait_all(self) -> list[_Pending]:
        return self._drain(block=True)

    # Exec jobs are CPU work already running in a worker, not wedged
    # hardware: cancelling drains them to completion.
    cancel_pending = wait_all

    def _resolve(self, pending: _ExecPending) -> None:
        exec_job = pending.exec_job
        try:
            if exec_job.error is not None:
                pending.error = exec_job.error
            elif exec_job.result is None:
                pending.error = ExecError(
                    "exec job resolved with neither result nor error")
            else:
                record = exec_job.result
                output = record.get("inline")
                if output is None:
                    output = pending.out_slab.read(0, record["n"])
                pending.result = DriverResult(output=output, csb=None,
                                              stats=record["stats"])
                # The worker instance's accounting died with the job's
                # process; record once against the parent-side instance
                # so BackendStats and the registry stay truthful.
                self.inline.backend._record(pending.result, pending.nbytes,
                                            pending.kind)
        finally:
            allocator = self.pool._exec_pool.allocator
            for slab in (pending.src_slab, pending.out_slab):
                if slab is None:
                    continue
                if pending.poisoned:
                    slab.destroy()
                else:
                    allocator.release(slab)

    def _drain(self, block: bool) -> list[_Pending]:
        """Resolve finished exec jobs; returns their pendings.

        The execution pool is shared (parallel_deflate batches ride the
        same fleet), so this never trusts the pool's own returned job
        lists — it polls the pool, then checks *its* handles.
        """
        exec_pool = self.pool._exec_pool
        if exec_pool is None or not self._open:
            return []
        if block:
            # A worker killed between popping a task and writing its
            # claim record leaves a job nothing will ever resolve.  A
            # stalled *total* wait can't distinguish that from a long
            # queue, so the orphan verdict is progress-based: only when
            # no handle at all resolves for the full window are the
            # stragglers failed (the completion path then rescues them).
            handles = [pending.exec_job for pending in self._open]
            while not all(job.done for job in handles):
                done_before = sum(job.done for job in handles)
                try:
                    exec_pool.wait([job for job in handles if not job.done],
                                   timeout_s=_EXEC_ORPHAN_TIMEOUT_S)
                except TimeoutError:
                    if sum(job.done for job in handles) > done_before:
                        continue  # progress: not orphaned, keep waiting
                    for pending in self._open:
                        if not pending.exec_job.done:
                            pending.poisoned = True
                            exec_pool.fail_job(pending.exec_job, WorkerCrash(
                                "job orphaned by a dying worker"))
        else:
            exec_pool.poll()
        finished = [p for p in self._open if p.exec_job.done]
        for pending in finished:
            self._resolve(pending)
            self._open.remove(pending)
        return finished


class AcceleratorPool:
    """Owns per-chip accelerator backends and routes jobs across them."""

    def __init__(self, machine: MachineParams | str = POWER9,
                 chips: int = 1, policy: str = "round_robin",
                 backend: str | None = None,
                 software_threshold: int = 16384,
                 cross_chip_penalty_us: float = 0.5,
                 health: HealthConfig | None = None,
                 verify: bool = False,
                 allow_software_rescue: bool = True,
                 exec_workers: int | None = None,
                 exec_pool=None,
                 **backend_kwargs) -> None:
        if isinstance(machine, str):
            machine = get_machine(machine)
        if chips < 1:
            raise ConfigError(f"need at least one chip, got {chips}")
        if policy not in ROUTING_POLICIES:
            raise ConfigError(f"unknown pool policy {policy!r}; "
                              f"have {ROUTING_POLICIES}")
        self.machine = machine
        self.chips = chips
        self.policy = policy
        self.backend_name = backend or default_backend(machine)
        self.software_threshold = software_threshold
        self.cross_chip_penalty_us = cross_chip_penalty_us
        self.health = HealthTracker(chips, health)
        self.verify = verify
        self.allow_software_rescue = allow_software_rescue
        self._backend_kwargs = backend_kwargs
        # Per-chip state lists carry one extra, last slot: SOFTWARE (-1).
        self._instances: list[CompressionBackend | None] = [None] * (chips + 1)
        self._rr_state = [0]
        self._pending_bytes = [0] * (chips + 1)
        self.dispatch_counts = [0] * chips
        self.software_jobs = 0
        self.rescues = 0
        self.verify_failures = 0
        self._open: list[PoolJob] = []
        self._by_pending: dict[tuple[int, object], PoolJob] = {}
        self._next_index = 0
        # Each chip's executor, picked at its first batch job.
        self._executors: dict[int, object] = {}
        # Process-based execution of batch submits on synchronous
        # backends: opt-in via exec_workers (shared warm pool) or an
        # explicitly provided exec_pool.
        self.exec_workers = exec_workers
        self._exec_pool = exec_pool
        self._lock = threading.Lock()
        # One lock per chip handle (plus software): a chip's send window
        # serves one request context at a time, so concurrent callers
        # serialize per chip while different chips run in parallel.
        self._chip_locks = [threading.Lock() for _ in range(chips + 1)]

    # -- instance management -------------------------------------------------

    def backend_for(self, chip: int) -> CompressionBackend:
        """The (lazily created) backend instance serving ``chip``."""
        if not SOFTWARE <= chip < self.chips:
            raise ConfigError(f"chip {chip} outside pool of {self.chips}")
        if self._instances[chip] is None:
            with self._lock:
                if self._instances[chip] is None:
                    self._instances[chip] = (
                        create_backend("software", machine=self.machine)
                        if chip == SOFTWARE else
                        create_backend(self.backend_name,
                                       machine=self.machine,
                                       **self._backend_kwargs))
        return self._instances[chip]

    def close(self) -> None:
        for instance in self._instances:
            if instance is not None:
                instance.close()

    def __enter__(self) -> "AcceleratorPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- routing -------------------------------------------------------------

    def route(self, nbytes: int, home: int = 0) -> int:
        """Pick the chip (or :data:`SOFTWARE`) for an ``nbytes`` job.

        Quarantined chips (breaker OPEN) are never returned: the policy
        kernel's pick is remapped deterministically onto the healthy
        subset.  With every breaker open the job goes to software, or —
        when ``allow_software_rescue`` is off — :class:`ChipUnavailable`
        is raised so the caller can shed load instead.
        """
        if (self.policy == "size_threshold"
                and nbytes < self.software_threshold):
            return SOFTWARE
        available = self.health.available_chips()
        if not available:
            return self._all_chips_down("every chip's circuit breaker is open")
        policy = ("round_robin" if self.policy == "size_threshold"
                  else self.policy)
        with self._lock:
            chip = choose_chip(policy, home, self._loads(), self._rr_state)
        if chip not in available:
            chip = available[chip % len(available)]
        return chip

    def _loads(self) -> list[float]:
        """Per-chip pending bytes plus bytes already served (live proxy
        for queue depth: synchronous calls never leave work pending)."""
        loads: list[float] = []
        for chip in range(self.chips):
            served = (self._instances[chip].stats().bytes_in
                      if self._instances[chip] is not None else 0)
            loads.append(self._pending_bytes[chip] + served)
        return loads

    def _dispatch(self, chip: int) -> None:
        with self._lock:
            if chip == SOFTWARE:
                self.software_jobs += 1
            else:
                self.dispatch_counts[chip] += 1
        if _REGISTRY.enabled:
            target = "software" if chip == SOFTWARE else str(chip)
            _REGISTRY.counter("repro_pool_dispatch_total",
                              "jobs routed per chip").inc(1, chip=target)

    def _route_spanned(self, nbytes: int, home: int) -> int:
        """Route + probes + dispatch accounting, under a span."""
        if _TRACE.enabled:
            with _TRACE.span("pool.route", policy=self.policy,
                             nbytes=nbytes, home=home) as span:
                chip = self._route_healthy(nbytes, home)
                span.set(chip="software" if chip == SOFTWARE else chip)
        else:
            chip = self._route_healthy(nbytes, home)
        self._dispatch(chip)
        return chip

    def _route_healthy(self, nbytes: int, home: int) -> int:
        """One routing tick; half-open picks must pass their probes."""
        self.health.tick()
        for _ in range(self.chips + 1):
            chip = self.route(nbytes, home)
            if chip == SOFTWARE or self._probe(chip):
                return chip
        # Every half-open candidate failed its probe this tick.
        return self._all_chips_down("no chip passed its recovery probe")

    def _all_chips_down(self, reason: str) -> int:
        """Software takes the job, unless rescue is off."""
        if not self.allow_software_rescue:
            raise ChipUnavailable(reason)
        _TRACE.event("pool.all_chips_down")
        _FLIGHT.auto_dump("all_chips_down", chips=self.chips)
        return SOFTWARE

    def _probe(self, chip: int) -> bool:
        """Run known-answer probes while ``chip`` is half-open.

        Returns True when the chip may serve the user job (CLOSED, or
        it passed enough probes to close); False re-opens the breaker.
        """
        if not self.health.needs_probe(chip):
            return True
        from ..nx.selftest import probe_backend

        backend = self.backend_for(chip)
        with self._chip_locks[chip]:
            while self.health.needs_probe(chip):
                if not hasattr(backend, "accelerator"):
                    # Software-ish backend: nothing hardware to probe.
                    self.health.record_success(chip)
                    continue
                if probe_backend(backend):
                    self.health.record_success(chip)
                else:
                    self.health.record_failure(chip)  # half-open -> open
                    return False
        return True

    # -- synchronous operations ----------------------------------------------

    def compress(self, data: bytes, *, strategy: object = "auto",
                 fmt: str | None = None, history: bytes = b"",
                 final: bool = True, home: int = 0,
                 deadline_s: float | None = None,
                 verify: bool | None = None) -> DriverResult:
        return _outcome(self._start(
            "compress", data, strategy, fmt, home, deadline_s, inline=True,
            history=history, final=final, verify=verify))

    def decompress(self, payload: bytes, *, fmt: str | None = None,
                   history: bytes = b"", home: int = 0,
                   deadline_s: float | None = None) -> DriverResult:
        return _outcome(self._start(
            "decompress", payload, "auto", fmt, home, deadline_s,
            inline=True, history=history))

    # -- resilience plumbing -------------------------------------------------

    def _note_health(self, chip: int, healthy: bool) -> None:
        if chip == SOFTWARE:
            return
        if healthy:
            self.health.record_success(chip)
        else:
            self.health.record_failure(chip)

    def _rescue(self, kind: str, data: bytes, fmt: str,
                cause: Exception) -> DriverResult:
        """Re-run a failed hardware job on the calling core."""
        with self._lock:
            self.rescues += 1
        _TRACE.event("pool.rescue", kind=kind, cause=type(cause).__name__)
        _FLIGHT.record("pool.rescue", kind=kind,
                       cause=type(cause).__name__, nbytes=len(data))
        if _REGISTRY.enabled:
            _REGISTRY.counter(
                "repro_resilience_rescues_total",
                "hardware jobs re-run in software after a failure").inc(
                1, kind=kind)
        stats = SubmissionStats(fallback_to_software=True)
        if kind == "compress":
            output, seconds = software_compress(data, fmt=fmt,
                                                machine=self.machine)
        else:
            from ..perf.cost import SoftwareCostModel

            output = decode_payload(data, fmt)
            seconds = SoftwareCostModel(self.machine).decompress_seconds(
                len(output))
        stats.elapsed_seconds = seconds
        return DriverResult(output=output, csb=None, stats=stats)

    def _verified(self, chip: int, original: bytes, fmt: str,
                  result: DriverResult) -> DriverResult:
        """Verify-after-compress: CRC-checked round trip or re-encode."""
        if verify_payload(original, result.output, fmt):
            return result
        backend_name = ("software" if chip == SOFTWARE
                        else self.backend_name)
        note_mismatch(backend_name, fmt, len(original))
        _FLIGHT.auto_dump("verify_failure", backend=backend_name,
                          fmt=fmt, chip=chip, nbytes=len(original))
        with self._lock:
            self.verify_failures += 1
        self._note_health(chip, healthy=False)
        output, seconds = software_compress(original, fmt=fmt,
                                            machine=self.machine)
        with self._lock:
            self.rescues += 1
        stats = result.stats
        stats.fallback_to_software = True
        stats.elapsed_seconds += seconds
        return DriverResult(output=output, csb=None, stats=stats)

    # -- the job lifecycle ---------------------------------------------------

    def submit_compress(self, data: bytes, *, strategy: object = "auto",
                        fmt: str | None = None, home: int = 0,
                        deadline_s: float | None = None) -> PoolJob:
        return self._submit("compress", data, strategy, fmt, home,
                            deadline_s)

    def submit_decompress(self, payload: bytes, *, fmt: str | None = None,
                          home: int = 0,
                          deadline_s: float | None = None) -> PoolJob:
        return self._submit("decompress", payload, "auto", fmt, home,
                            deadline_s)

    def _submit(self, kind: str, data: bytes, strategy: object,
                fmt: str | None, home: int,
                deadline_s: float | None = None) -> PoolJob:
        """Start a batch job; :meth:`wait_all` returns its result."""
        job = self._start(kind, data, strategy, fmt, home, deadline_s)
        with self._lock:
            self._open.append(job)
        return job

    def _start(self, kind: str, data: bytes, strategy: object,
               fmt: str | None, home: int, deadline_s: float | None, *,
               inline: bool = False, history: bytes = b"",
               final: bool = True, verify: bool | None = None) -> PoolJob:
        """Route one job and submit it to its chip's executor, or with
        ``inline`` to an inline one (a blocking call).  A submit failing
        on the accelerator resolves the job with that failure; other
        errors (a malformed payload) raise."""
        chip = self._route_spanned(len(data), home)
        backend = self.backend_for(chip)
        fmt = fmt or backend.capabilities().default_format
        verify = self.verify if verify is None else verify
        with self._lock:
            job = PoolJob(index=self._next_index, chip=chip,
                          nbytes=len(data), kind=kind, payload=data,
                          fmt=fmt, verify=(verify and kind == "compress"
                                           and final and not history))
            self._next_index += 1
        with self._chip_locks[chip]:
            executor = (_InlineExecutor(backend, history, final) if inline
                        else self._executor(chip))
            try:
                pending = executor.submit(kind, data, strategy=strategy,
                                          fmt=fmt, deadline_s=deadline_s)
            except AcceleratorError as exc:
                pending = _Pending("failed")
                pending.error = exc
        with self._lock:
            self._pending_bytes[chip] += len(data)
            self._by_pending[(chip, pending.sequence)] = job
        if pending.done:
            self._finish_pending(chip, pending)
        else:
            self._publish_in_flight()
        return job

    def _executor(self, chip: int):
        """The executor serving ``chip``'s batch jobs, picked once."""
        executor = self._executors.get(chip)
        if executor is None:
            backend = self.backend_for(chip)
            if hasattr(backend, "submit"):
                executor = backend
            elif chip != SOFTWARE and (self.exec_workers is not None
                                       or self._exec_pool is not None):
                executor = _ExecExecutor(self, chip)
            else:
                executor = _InlineExecutor(backend)
            self._executors[chip] = executor
        return executor

    def _finish_pending(self, chip: int, pending) -> PoolJob | None:
        """Resolve one executor completion into its pool job.

        A failed hardware job is rescued in software (the caller still
        gets correct bytes), except on the software instance itself and
        for deadline failures: rescuing would blow the caller's latency
        contract.
        """
        with self._lock:
            job = self._by_pending.pop((chip, pending.sequence), None)
            if job is None:
                return None
            self._pending_bytes[chip] -= job.nbytes
        self._publish_in_flight()
        if pending.result is None:
            error = pending.error or AcceleratorError(
                "pending job resolved with neither result nor error")
            # A late chip is a sick chip, but the deadline is still the
            # caller's contract: no software rescue behind its back.
            late = isinstance(error, DeadlineExceeded)
            self._note_health(chip, healthy=False)
            if late:
                _FLIGHT.auto_dump("deadline_exceeded", layer="pool",
                                  kind=job.kind, chip=chip,
                                  nbytes=job.nbytes)
            if late or chip == SOFTWARE or not self.allow_software_rescue:
                job.error = error
            else:
                try:
                    job.result = self._rescue(job.kind, job.payload,
                                              job.fmt, error)
                except Exception as exc:  # bad input: fails anywhere
                    job.error = exc
        else:
            self._note_health(chip,
                              healthy=_hardware_clean(pending.result))
            job.result = pending.result
            if job.verify:
                job.result = self._verified(chip, job.payload, job.fmt,
                                            job.result)
        return job

    def _exec(self):
        """The execution pool serving this AcceleratorPool, if enabled."""
        if self.exec_workers is None and self._exec_pool is None:
            return None
        from ..exec.worker import in_worker
        if in_worker():
            return None
        if self._exec_pool is None or self._exec_pool.closed \
                or self._exec_pool.broken:
            from ..exec.pool import get_default_pool
            try:
                self._exec_pool = get_default_pool(self.exec_workers)
            except ExecError:
                return None
        return self._exec_pool

    def _collect(self, step) -> list[PoolJob]:
        """Apply ``step`` to every chip's executor under the chip's lock
        and finish each pending it hands back."""
        finished: list[PoolJob] = []
        for chip, executor in list(self._executors.items()):
            with self._chip_locks[chip]:
                resolved = step(executor)
            for pending in resolved:
                job = self._finish_pending(chip, pending)
                if job is not None:
                    finished.append(job)
        return finished

    def poll(self) -> list[PoolJob]:
        """Drain every chip once; returns jobs that resolved."""
        return self._collect(lambda executor: executor.poll())

    def wait_all(self) -> list[DriverResult | None]:
        """Complete every open job; results in submission order.

        A job that terminally failed (deadline, unrescuable input)
        yields ``None`` in its slot; its exception is on the
        :class:`PoolJob` handle returned at submit time.
        """
        self._collect(lambda executor: executor.wait_all())
        with self._lock:
            results = [job.result for job in self._open]
            self._open = []
        return results

    @property
    def in_flight(self) -> int:
        with self._lock:
            return len(self._by_pending)

    def cancel_in_flight(self) -> list[PoolJob]:
        """Abandon every pending batch job (hung-engine recovery).

        Each chip's driver flushes its FIFOs, resets hung engines, and
        reclaims window credits; the abandoned jobs come back through
        :meth:`_finish_pending`, where the normal failure path applies —
        so with rescue enabled callers still receive correct bytes,
        computed on the CPU.  Exec jobs are drained to completion.
        """
        return self._collect(lambda executor: executor.cancel_pending())

    def suggested_batch_depth(self) -> int:
        """How many jobs a caller should coalesce per async batch.

        E16's saturation depth (:data:`SATURATION_DEPTH`) per healthy
        chip, capped by the aggregate window credits when the backend
        exposes them — submitting past the credit pool only spins the
        paste loop.  This is what the service layer sizes its request
        coalescing with.
        """
        healthy = max(1, len(self.health.available_chips()))
        depth = SATURATION_DEPTH * healthy
        credits = 0
        for instance in self._instances:
            cap = getattr(instance, "capacity", 0)
            credits += cap if isinstance(cap, int) else 0
        if credits:
            depth = min(depth, credits)
        return max(1, depth)

    def _publish_in_flight(self) -> None:
        if _REGISTRY.enabled:
            _REGISTRY.gauge("repro_pool_in_flight",
                            "batch jobs awaiting completion").set(
                self.in_flight)

    # -- aggregate accounting ------------------------------------------------

    def stats(self) -> PoolStats:
        """One consistent, immutable snapshot across every instance.

        All counters — per-instance totals, dispatch/software counts,
        in-flight depth — are read in a single critical section, so a
        snapshot taken mid-batch never shows e.g. a dispatch without its
        matching request total.
        """
        with self._lock:
            parts = [i.stats() for i in self._instances if i is not None]
            return PoolStats(
                requests=sum(p.requests for p in parts),
                bytes_in=sum(p.bytes_in for p in parts),
                bytes_out=sum(p.bytes_out for p in parts),
                modelled_seconds=sum(p.modelled_seconds for p in parts),
                faults=sum(p.faults for p in parts),
                fallbacks=sum(p.fallbacks for p in parts),
                dispatch_counts=tuple(self.dispatch_counts),
                software_jobs=self.software_jobs,
                in_flight=len(self._by_pending),
                rescues=self.rescues,
                verify_failures=self.verify_failures,
                breaker_opens=self.health.total_opens(),
                breaker_states=tuple(
                    b.state.name for b in self.health.breakers))

    # -- capacity planning ---------------------------------------------------

    def simulate_load(self, per_chip_load: list[float], duration_s: float,
                      size_bytes: int = 262144,
                      seed: int = 42) -> RoutingResult:
        """Queueing DES of this pool's topology under offered load.

        Answers "what would latency/throughput look like" without
        executing jobs — the capacity-planning view of the same policy
        kernel the live ``route`` uses.
        """
        if self.policy == "size_threshold":
            raise ConfigError(
                "size_threshold has no queueing analogue; simulate with "
                "local/round_robin/least_loaded")
        topology = Topology(machine=self.machine,
                            chips_per_drawer=self.chips, drawers=1,
                            cross_chip_penalty_us=self.cross_chip_penalty_us)
        router = MultiChipRouter(topology, policy=self.policy,
                                 size_bytes=size_bytes, seed=seed)
        return router.run(list(per_chip_load), duration_s)
