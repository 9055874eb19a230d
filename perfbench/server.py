"""Server process for the rpc workloads.

Builds the service exactly as ``repro serve`` does for the same flags,
prints ``PORT <n>`` once it accepts connections, then obeys one-line
commands on stdin:

* ``trace``  — install the benchmark's layer wrappers (see probes.py);
* ``probe``  — time the exec layer's registered ``echo`` job (again
  after the wrappers come off, when traced);
* ``stop``   — write counters (and spans, when traced) to ``--out`` as
  JSON, drain, and exit.

End of stdin counts as ``stop``.
"""

from __future__ import annotations

import argparse
import json
import sys

from spans import Recorder

import probes

def echo_probe(service) -> list[float]:
    pool = service.pool._exec()
    return [] if pool is None else probes.echo_rtts(pool)


def snapshot(service, server) -> dict:
    stats = service.stats()
    pool = service.pool
    exec_pool = pool._exec_pool
    return {
        "accepted": stats.accepted, "rejected": stats.rejected,
        "completed": stats.completed, "failed": stats.failed,
        "expired": stats.expired, "batches": stats.batches,
        "dispatch_counts": list(pool.dispatch_counts),
        "cache": stats.cache,
        "dedup_bytes": server.dedup.cached_bytes(),
        "exec_restarts": (exec_pool.worker_restarts
                          if exec_pool is not None else 0),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--machine", default="POWER9")
    parser.add_argument("--backend", default=None)
    parser.add_argument("--chips", type=int, default=1)
    parser.add_argument("--exec-workers", type=int, default=None)
    parser.add_argument("--cache-mb", type=float, default=None)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    from repro.service import CompressionService, serve

    service = CompressionService(machine=args.machine, chips=args.chips,
                                 backend=args.backend,
                                 exec_workers=args.exec_workers,
                                 cache_mb=args.cache_mb)
    server = serve(service, host="127.0.0.1", port=0)
    print(f"PORT {server.port}", flush=True)

    rec: Recorder | None = None
    state: dict = {}
    echo: dict[str, list[float]] = {}
    for line in sys.stdin:
        cmd = line.strip()
        if cmd == "trace" and rec is None:
            rec = Recorder()
            probes.install_server(rec, state)
            print("OK trace", flush=True)
        elif cmd == "probe":
            echo["before"] = echo_probe(service)
            print("OK probe", flush=True)
        elif cmd == "stop":
            break
    if rec is not None:
        rec.unwrap_all()
        echo["after"] = echo_probe(service)
    doc = {"counters": snapshot(service, server), "echo": echo,
           "state": state,
           "spans": [s.to_dict() for s in rec.spans] if rec else []}
    server.shutdown()
    service.close()
    with open(args.out, "w") as fh:
        json.dump(doc, fh)
    print("OK stop", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
