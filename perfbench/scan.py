"""Scan driver process: the bulk path on the host cores, no server.

For each seeded MiB-scale object it runs, closed loop with 2 workers:

1. compress through ``AcceleratorPool`` on ``software-parallel`` (as
   ``repro compress --parallel-workers 2`` does);
2. full decode of that output and of a stdlib-gzip stream of the same
   object with ``parallel_inflate(..., build_index=True)`` (as
   ``repro cat`` does);
3. a batch of 4 KiB ``read_range`` reads at seeded offsets, each offset
   read through both built indexes.

Every output is checked against the object.  Results (raw step timings,
and the per-layer numbers when traced) go to ``--out`` as JSON.
"""

from __future__ import annotations

import argparse
import gzip
import json
import sys
import time
import zlib

from repro.backend import AcceleratorPool
from repro.deflate.compress import deflate
from repro.deflate.inflate import inflate
from repro.deflate.parallel_inflate import parallel_inflate, read_range
from repro.exec.pool import get_default_pool, shutdown_default_pool

import probes
from inputs import read_offsets, scan_objects
from spans import Recorder

WORKERS = 2
READ_BYTES = 4096
READS_PER_STREAM = 20
SETUP_ROUNDS = 5
#: The compression ratio covers the seed's first objects; an untraced
#: run always completes them, even past its deadline, so the ratio is
#: the same on any host for a given seed and program.
RATIO_OBJECTS = 2
#: Slice of each object the serial reference kernels run on.
KERNEL_SLICE = 128 << 10


def warm_pool() -> float:
    """Cold-start the exec pool until every worker has run a job."""
    shutdown_default_pool()
    t0 = time.perf_counter()
    pool = get_default_pool(WORKERS)
    pool.warm()
    seen: set[int] = set()
    while len(seen) < WORKERS:
        jobs = [pool.submit("echo", value=i, delay_s=0.02)
                for i in range(WORKERS)]
        pool.wait(jobs, timeout_s=60.0)
        seen.update(j.claimed_by for j in jobs if j.claimed_by is not None)
    return time.perf_counter() - t0


def echo_probe() -> list[float]:
    return probes.echo_rtts(get_default_pool(WORKERS))


class Scan:
    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.objects = scan_objects(seed)
        self.pool = AcceleratorPool("POWER9", chips=1,
                                    backend="software-parallel",
                                    workers=WORKERS)
        self.steps: list[dict] = []
        self.reads: list[dict] = []
        self.wrong = 0
        self.kernels: list[dict] = []
        self.index = 0

    def _check(self, ok: bool) -> None:
        if not ok:
            self.wrong += 1

    def _step(self, kind: str, nbytes: int, seconds: float, phase: str,
              ok: bool, **extra) -> None:
        self._check(ok)
        self.steps.append({"kind": kind, "bytes": nbytes, "s": seconds,
                           "phase": phase, "ok": ok, "object": self.index,
                           **extra})

    def run(self, seconds: float, phase: str, kernels: bool,
            min_objects: int = 0) -> None:
        """Whole objects, started until ``seconds`` have passed and at
        least ``min_objects`` have been done, so every run carries the
        same mix of steps and reads."""
        end = time.perf_counter() + seconds
        first = self.index
        while (time.perf_counter() < end
               or self.index - first < min_objects):
            obj = next(self.objects)
            self.index += 1
            if kernels:
                self._kernels(obj[:KERNEL_SLICE])
            t0 = time.perf_counter()
            result = self.pool.compress(obj, fmt="gzip")
            dt = time.perf_counter() - t0
            own = result.output
            try:
                ok = gzip.decompress(own) == obj
            except (OSError, EOFError, zlib.error):
                ok = False
            self._step("compress", len(obj), dt, phase, ok, out=len(own))
            streams = {"own": own,
                       "foreign": gzip.compress(obj, 6, mtime=0)}
            indexes = {}
            for name, stream in streams.items():
                t0 = time.perf_counter()
                res = parallel_inflate(stream, "gzip", workers=WORKERS,
                                       build_index=True)
                dt = time.perf_counter() - t0
                self._step("inflate_" + name, len(obj), dt, phase,
                           res.data == obj,
                           speculated=res.chunks_speculated,
                           used=res.chunks_used,
                           failed=res.chunks_failed,
                           serial=res.serial_segments,
                           points=len(res.index.points))
                indexes[name] = res.index
            offsets = read_offsets(self.seed * 1000 + self.index, len(obj),
                                   READS_PER_STREAM, READ_BYTES)
            for off in offsets:
                for name, stream in streams.items():
                    self._read(obj, stream, indexes[name], off, name, phase)

    def _read(self, obj, stream, index, off, name, phase) -> None:
        t0 = time.perf_counter()
        rr = read_range(stream, off, READ_BYTES, index=index)
        dt = time.perf_counter() - t0
        ok = rr.data == obj[off:off + READ_BYTES]
        self._check(ok)
        self.reads.append({"s": dt, "decoded": rr.decoded_bytes,
                           "stream": name, "phase": phase, "ok": ok})

    def _kernels(self, data: bytes) -> None:
        """Serial deflate/inflate on a slice: the parallel reference."""
        t0 = time.perf_counter()
        raw = deflate(data, level=6).data
        t1 = time.perf_counter()
        back = inflate(raw)
        t2 = time.perf_counter()
        self._check(back == data)
        self.kernels.append({"bytes": len(data), "deflate_s": t1 - t0,
                             "inflate_s": t2 - t1})


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    scan = Scan(args.seed)
    setups = [warm_pool() for _ in range(SETUP_ROUNDS)]
    doc: dict = {"setup_s": setups, "ratio_objects": RATIO_OBJECTS}
    # Memory sampling starts here: the throwaway set-up pools are gone.
    print("ready", flush=True)
    if not args.trace:
        scan.run(args.seconds, "plain", kernels=False,
                 min_objects=RATIO_OBJECTS)
    else:
        scan.run(args.seconds / 2, "plain", kernels=False)
        echo_before = echo_probe()
        rec, state = Recorder(), {}
        probes.install_scan(rec, state)
        scan.run(args.seconds / 2, "traced", kernels=True)
        rec.unwrap_all()
        doc.update(echo={"before": echo_before, "after": echo_probe()},
                   state=state, kernels=scan.kernels,
                   restarts=get_default_pool(WORKERS).worker_restarts,
                   spans=[s.to_dict() for s in rec.spans])
    doc.update(steps=scan.steps, reads=scan.reads, wrong=scan.wrong)
    scan.pool.close()
    shutdown_default_pool()
    with open(args.out, "w") as fh:
        json.dump(doc, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
