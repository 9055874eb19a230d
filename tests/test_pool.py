"""AcceleratorPool routing, batch submission, and driver-session safety."""

from __future__ import annotations

import gzip as stdlib_gzip

import pytest

from repro.backend import SOFTWARE, AcceleratorPool
from repro.errors import AcceleratorError, ConfigError, DeadlineExceeded
from repro.nx.accelerator import NxAccelerator
from repro.nx.params import POWER9, Z15
from repro.sysstack.driver import NxDriver
from repro.sysstack.mmu import AddressSpace
from repro.workloads.generators import generate


# -- routing policies --------------------------------------------------------

def test_round_robin_spreads_evenly(text_20k):
    with AcceleratorPool(POWER9, chips=3, policy="round_robin") as pool:
        for _ in range(6):
            result = pool.compress(text_20k)
            assert stdlib_gzip.decompress(result.output) == text_20k
        assert pool.dispatch_counts == [2, 2, 2]
        assert pool.software_jobs == 0


def test_least_loaded_balances_bytes():
    big = generate("json_records", 65536, seed=5)
    small = generate("json_records", 4096, seed=6)
    with AcceleratorPool(POWER9, chips=2, policy="least_loaded") as pool:
        pool.compress(big, home=0)       # chip 0 now carries 64 KB
        pool.compress(small, home=0)     # should prefer idle chip 1
        assert pool.dispatch_counts == [1, 1]


def test_size_threshold_routes_small_jobs_to_software(text_20k):
    small = b"tiny payload"
    with AcceleratorPool(POWER9, chips=2, policy="size_threshold",
                         software_threshold=16384) as pool:
        assert pool.route(len(small)) == SOFTWARE
        pool.compress(small)
        pool.compress(text_20k)
        assert pool.software_jobs == 1
        assert sum(pool.dispatch_counts) == 1
        assert pool.stats().requests == 2


def test_local_policy_pins_to_home(text_20k):
    with AcceleratorPool(POWER9, chips=3, policy="local") as pool:
        for _ in range(3):
            pool.compress(text_20k, home=1)
        assert pool.dispatch_counts == [0, 3, 0]


def test_pool_validates_configuration():
    with pytest.raises(ConfigError, match="policy"):
        AcceleratorPool(POWER9, chips=2, policy="weighted")
    with pytest.raises(ConfigError, match="chip"):
        AcceleratorPool(POWER9, chips=0)


def test_pool_over_dfltcc_backend(text_20k):
    """Synchronous backends work behind the same pool surface."""
    with AcceleratorPool(Z15, chips=2, policy="round_robin") as pool:
        assert pool.backend_name == "dfltcc"
        jobs = [pool.submit_compress(text_20k) for _ in range(4)]
        results = pool.wait_all()
        assert all(job.done for job in jobs)
        assert [stdlib_gzip.decompress(r.output) for r in results] \
            == [text_20k] * 4
        assert pool.dispatch_counts == [2, 2]


# -- asynchronous batch submission -------------------------------------------

def test_batch_submission_preserves_order():
    payloads = [generate("markov_text", 8192 + 1024 * i, seed=20 + i)
                for i in range(6)]
    with AcceleratorPool(POWER9, chips=3, policy="round_robin") as pool:
        jobs = [pool.submit_compress(data) for data in payloads]
        assert pool.in_flight == 6
        results = pool.wait_all()
        assert pool.in_flight == 0
        assert all(job.done for job in jobs)
        for data, result in zip(payloads, results):
            assert stdlib_gzip.decompress(result.output) == data


def test_poll_drains_incrementally(text_20k):
    with AcceleratorPool(POWER9, chips=2, policy="round_robin") as pool:
        pool.submit_compress(text_20k)
        pool.submit_compress(text_20k)
        finished = pool.poll()
        # The modelled drain completes pasted work, so poll returns jobs
        # with results attached and accounted.
        assert all(job.result is not None for job in finished)
        pool.wait_all()
        assert pool.stats().requests == 2


# -- capacity planning (DES view of the same policies) ------------------------

@pytest.mark.parametrize("policy", ["round_robin", "least_loaded"])
def test_simulate_load_runs_per_policy(policy):
    pool = AcceleratorPool(POWER9, chips=4, policy=policy)
    result = pool.simulate_load([0.9, 0.1, 0.1, 0.1], duration_s=0.05)
    assert result.jobs
    assert result.mean_latency > 0.0
    assert result.throughput_gbps > 0.0
    pool.close()


def test_simulate_load_rejects_size_threshold():
    pool = AcceleratorPool(POWER9, chips=2, policy="size_threshold")
    with pytest.raises(ConfigError, match="size_threshold"):
        pool.simulate_load([0.5, 0.5], duration_s=0.01)
    pool.close()


# -- driver session safety (idempotent open / repeat-safe close) --------------

def test_driver_open_is_idempotent():
    accelerator = NxAccelerator(POWER9)
    driver = NxDriver(accelerator, AddressSpace())
    driver.open()
    window_id = driver._window_id
    assert len(accelerator.vas.windows) == 1
    driver.open()                       # no second window, same id
    assert driver._window_id == window_id
    assert len(accelerator.vas.windows) == 1
    driver.close()
    assert len(accelerator.vas.windows) == 0
    driver.close()                      # repeat close is a no-op
    assert len(accelerator.vas.windows) == 0


def test_driver_reopen_after_close_allocates_fresh_window():
    accelerator = NxAccelerator(POWER9)
    driver = NxDriver(accelerator, AddressSpace())
    driver.open()
    driver.close()
    driver.open()
    assert len(accelerator.vas.windows) == 1
    driver.close()


# -- one job lifecycle: every executor completes a job the same way ----------

#: Executor kind -> (machine, backend, extra pool kwargs).
EXECUTORS = {
    "nx": ("POWER9", "nx", {}),
    "inline": ("z15", "dfltcc", {}),
    "exec": ("z15", "dfltcc", {"exec_workers": 1}),
}


def _executor_pool(kind: str, **kwargs) -> AcceleratorPool:
    machine, backend, extra = EXECUTORS[kind]
    return AcceleratorPool(machine, chips=1, backend=backend, **extra,
                           **kwargs)


def _compress_via(pool: AcceleratorPool, data: bytes, path: str):
    """Compress through the blocking call or a batch of one."""
    if path == "sync":
        return pool.compress(data, fmt="gzip")
    job = pool.submit_compress(data, fmt="gzip")
    pool.wait_all()
    assert job.done
    if job.error is not None:
        raise job.error
    return job.result


def _inject(backend, error: Exception) -> None:
    """Make every compress on this backend instance fail with ``error``."""
    def fail(*args, **kwargs):
        raise error
    backend._compress = fail
    if hasattr(backend, "submit"):
        backend.submit = fail


@pytest.fixture
def exec_teardown():
    from repro.exec import shutdown_default_pool
    yield
    shutdown_default_pool()


@pytest.mark.parametrize("path", ["sync", "batch"])
@pytest.mark.parametrize("kind", ["nx", "inline", "exec"])
def test_verify_runs_once_per_compress(kind, path, text_20k, monkeypatch,
                                       exec_teardown):
    import repro.backend.pool as pool_module

    calls = []
    real = pool_module.verify_payload

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(pool_module, "verify_payload", counting)
    with _executor_pool(kind, verify=True) as pool:
        result = _compress_via(pool, text_20k, path)
        assert pool.stats().verify_failures == 0
    assert stdlib_gzip.decompress(result.output) == text_20k
    assert len(calls) == 1


@pytest.mark.parametrize("path", ["sync", "batch"])
@pytest.mark.parametrize("kind", ["nx", "inline"])
def test_accelerator_error_is_rescued_and_counted(kind, path, text_20k):
    with _executor_pool(kind) as pool:
        _inject(pool.backend_for(0), AcceleratorError("injected"))
        result = _compress_via(pool, text_20k, path)
        assert stdlib_gzip.decompress(result.output) == text_20k
        assert result.stats.fallback_to_software
        assert pool.stats().rescues == 1
        assert pool.health.breakers[0].consecutive_failures == 1
        assert pool.in_flight == 0


@pytest.mark.parametrize("path", ["sync", "batch"])
@pytest.mark.parametrize("kind", ["nx", "inline"])
def test_deadline_exceeded_is_never_rescued(kind, path, text_20k):
    with _executor_pool(kind) as pool:
        _inject(pool.backend_for(0), DeadlineExceeded("injected late"))
        with pytest.raises(DeadlineExceeded):
            _compress_via(pool, text_20k, path)
        assert pool.stats().rescues == 0
        assert pool.health.breakers[0].consecutive_failures == 1
        assert pool.in_flight == 0


def test_sync_jobs_stay_out_of_batch_results(text_20k):
    with AcceleratorPool(Z15, chips=1, backend="dfltcc") as pool:
        job = pool.submit_compress(text_20k)
        pool.compress(b"a blocking call between submit and wait")
        assert pool.wait_all() == [job.result]
        assert pool.stats().rescues == 0


@pytest.mark.parametrize("machine", [POWER9, Z15])
@pytest.mark.parametrize("size", [256, 4096, 65536])
def test_nx_modelled_time_same_sync_and_async(machine, size):
    """A fault-free job costs the same modelled time on either path."""
    data = generate("markov_text", size, seed=size)
    with AcceleratorPool(machine, chips=1, backend="nx") as pool:
        sync = pool.compress(data, fmt="gzip")
        job = pool.submit_compress(data, fmt="gzip")
        pool.wait_all()
    assert job.result.output == sync.output
    assert job.result.stats.submissions == sync.stats.submissions == 1
    assert job.result.stats.elapsed_seconds == pytest.approx(
        sync.stats.elapsed_seconds, rel=1e-12)
