"""The repository's benchmark: one command, three seeded workloads.

    python3 perfbench/run.py --workload rpc-p9 --seed 1 --seconds 30 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):

* ``rpc-p9``  — served small-buffer RPCs on the POWER9 NX model, open
  loop (Poisson arrivals at a fixed rate) over 2 connections;
* ``rpc-z15`` — served large unique jobs on the z15 DFLTCC model with
  2 exec workers, closed loop over 2 connections;
* ``scan``    — bulk compress / parallel inflate / indexed reads on the
  host cores, no server.

``--workload all`` runs the three in turn.  Every output byte is
checked; a wrong byte makes the command exit 1, and so does, in a traced
rpc run, a request whose layer self times do not sum to its latency.  Human-readable lines
(a fingerprint and each metric by name with its unit) come first; the
last line is one JSON object ``{"correct", "attempted", "failed",
"metrics"}`` with the end-to-end metrics (``--trace 0``) or the
per-layer metrics of a traced run (``--trace 1``).  A traced run
measures half its time untraced and half traced, and reports the
difference as ``trace.overhead_pct``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import time
from statistics import median

from hostspeed import HostSpeed
from layers import (BLOCKING_SUM_TOLERANCE_PCT, PER_LAYER, UNITS,
                    rpc_layers, scan_layers)
from procmem import TreeSampler, tree_pids
from stats import (OK, count_failed, count_wrong, percentile, rate_mbps,
                   tail)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

#: Hard ceiling on one invocation; children are killed past it.
DEADLINE_S = 170

#: rpc-p9 offered load, fixed once and recorded in every fingerprint.
#: On the reference host (2 CPUs, Python 3.11.7) a closed loop over the
#: same 2 connections completes about 78 req/s of this mix.  At 40 req/s
#: (half of that) host-load swings moved the median latency by 30-50%
#: between runs; at 20 req/s the queue stays short and runs agree.
P9_RATE_PER_S = 20.0

SERVER_FLAGS = {
    "rpc-p9": ["--backend", "nx", "--chips", "2", "--cache-mb", "16"],
    "rpc-z15": ["--machine", "z15", "--chips", "2", "--exec-workers", "2",
                "--cache-mb", "16"],
}
CONNECTIONS = 2
RPC_SETUP_ROUNDS = 5
#: Upper bound on closed-loop requests generated per measured second.
Z15_MAX_RATE_PER_S = 16
#: rpc-z15's compression ratio covers the compress requests of the
#: seed's first input blocks (whole blocks, so every family counts
#: equally).  The closed loop always completes them, even past its
#: deadline, so the ratio is the same on any host for a given seed and
#: program.
Z15_RATIO_BLOCKS = 2

END_TO_END = {
    "setup_s": "s", "latency_p50_ms": "ms", "latency_p90_ms": "ms",
    "throughput_mbps": "MB/s", "compression_ratio": "x",
    "peak_rss_mb": "MB",
}


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + HERE
    return env


class Server:
    """The program's server process (launched via server.py)."""

    def __init__(self, workload: str, out: str) -> None:
        from repro.service import ServiceClient

        self.out = out
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "server.py"),
             *SERVER_FLAGS[workload], "--out", out],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=_env(), cwd=ROOT)
        try:
            line = self.proc.stdout.readline()
            if not line.startswith("PORT "):
                raise RuntimeError(f"server failed to start: {line!r}")
            port = int(line.split()[1])
            self.clients = [ServiceClient("127.0.0.1", port, reconnect=True)
                            for _ in range(CONNECTIONS)]
        except BaseException:
            kill_tree(self.proc)
            raise

    def verify_each_connection(self) -> float:
        """One checked request per connection; returns time since launch."""
        from loadgen import call
        from inputs import Request
        from repro.workloads.generators import generate

        for i, client in enumerate(self.clients):
            data = generate("log_lines", 2048, seed=i)
            req = Request("compress", data, data, "setup", "batch", "")
            now = time.perf_counter()
            if call(client, req, now, now).outcome != OK:
                raise RuntimeError("setup request failed verification")
        return time.perf_counter() - self.t0

    def command(self, cmd: str) -> str:
        self.proc.stdin.write(cmd + "\n")
        self.proc.stdin.flush()
        return self.proc.stdout.readline().strip()

    def stop(self) -> dict:
        for client in self.clients:
            client.close()
        self.command("stop")
        self.proc.wait(timeout=60)
        with open(self.out) as fh:
            return json.load(fh)

    def kill(self) -> None:
        kill_tree(self.proc)


def kill_tree(proc: subprocess.Popen) -> None:
    """Kill ``proc`` and every process it started, then reap it.

    The tree is listed before anything dies, so workers cannot escape
    by being re-parented."""
    if proc.poll() is None:
        for pid in reversed(tree_pids(proc.pid)):
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
    proc.wait()


def _latency_metrics(lat: list[float],
                     percentiles: dict) -> tuple[float, float]:
    used, p90 = tail(lat, 90.0)
    percentiles["latency_p90_ms"] = used
    return percentile(lat, 50.0) * 1e3, p90 * 1e3


def ratio_prefix(requests, compresses: int) -> int:
    """Length of the shortest prefix of ``requests`` that holds
    ``compresses`` compress requests (all of them if fewer)."""
    seen = 0
    for i, req in enumerate(requests):
        seen += req.op == "compress"
        if seen == compresses:
            return i + 1
    return len(requests)


def rpc_e2e(records, start: float, ratio_upto: int,
            percentiles: dict) -> dict:
    """End-to-end numbers from the load generator's own records (in
    request order); the ratio covers the first ``ratio_upto``."""
    ok = [r for r in records if r.outcome == OK]
    comp = [r for r in records[:ratio_upto]
            if r.outcome == OK and r.kind == "compress"]
    p50, p90 = _latency_metrics([r.latency for r in ok], percentiles)
    expect_out = {"compress": lambda r: r.nbytes,
                  "decompress": lambda r: r.out_bytes}
    return {
        "latency_p50_ms": p50,
        "latency_p90_ms": p90,
        "throughput_mbps": rate_mbps(
            sum(expect_out[r.kind](r) for r in ok),
            max(r.done for r in ok) - start),
        "compression_ratio": (sum(r.nbytes for r in comp)
                              / sum(r.out_bytes for r in comp)),
    }


def run_rpc(workload: str, seed: int, seconds: float, trace: bool,
            tag: str) -> dict:
    import loadgen
    from inputs import (Z15_COMPRESS_PER_FAMILY, Z15_FAMILIES,
                        rpc_p9_requests, rpc_z15_requests)

    open_loop = workload == "rpc-p9"
    if open_loop:
        # Arrivals are drawn first; requests are made for exactly those.
        schedule = loadgen.poisson_schedule(0.0, P9_RATE_PER_S, seconds,
                                            seed)
        requests = rpc_p9_requests(seed, len(schedule))
        ratio_upto = len(requests)
    else:
        requests = rpc_z15_requests(
            seed, int(Z15_MAX_RATE_PER_S * seconds) + 1)
        ratio_upto = ratio_prefix(requests, Z15_RATIO_BLOCKS
                                  * Z15_COMPRESS_PER_FAMILY
                                  * len(Z15_FAMILIES))

    setups = []
    rounds = 1 if trace else RPC_SETUP_ROUNDS
    server = None
    try:
        for i in range(rounds):
            server = Server(workload, os.path.join(OUT_DIR,
                                                   f"{tag}-server.json"))
            setups.append(server.verify_each_connection())
            if i < rounds - 1:
                server.stop()
                server = None
        with TreeSampler(server.proc.pid) as rss:
            phases = ([("plain", seconds)] if not trace
                      else [("plain", seconds / 2), ("traced", seconds / 2)])
            records: dict[str, list] = {}
            starts: dict[str, float] = {}
            offset_s, used = 0.0, 0
            for phase, length in phases:
                if phase == "traced":
                    server.command("probe")
                    server.command("trace")
                if open_loop:
                    base = time.perf_counter() + 0.05
                    chosen = [i for i, s in enumerate(schedule)
                              if offset_s <= s < offset_s + length]
                    starts[phase] = base
                    records[phase] = loadgen.open_loop(
                        server.clients, [requests[i] for i in chosen],
                        [base + schedule[i] - offset_s for i in chosen])
                else:
                    starts[phase] = time.perf_counter()
                    records[phase] = loadgen.closed_loop(
                        server.clients, requests[used:], length,
                        min_requests=0 if trace else ratio_upto)
                    used += len(records[phase])
                offset_s += length
            rss.sample()
            doc = server.stop()
            server = None
    finally:
        if server is not None:
            server.kill()

    all_records = [r for rs in records.values() for r in rs]
    result = {"records": all_records, "setups": setups,
              "rss_mb": rss.peak_mb, "rss_procs": rss.processes,
              "ratio_requests": ratio_upto}
    if not trace:
        result["percentiles"] = {}
        metrics = rpc_e2e(records["plain"], starts["plain"], ratio_upto,
                          result["percentiles"])
        metrics["setup_s"] = median(setups)
        metrics["peak_rss_mb"] = rss.peak_mb
        result["metrics"] = metrics
    else:
        info: dict = {}
        result["metrics"] = rpc_layers(records["traced"], doc, info)
        result["folded"] = info["folded"]
        result["percentiles"] = info["percentiles"]
        # Median latency per half, for the tracing overhead.
        result["halves"] = {
            p: percentile([r.latency for r in records[p]
                           if r.outcome == "ok"], 50.0)
            for p in ("plain", "traced")}
    return result


def run_scan(seed: int, seconds: float, trace: bool, tag: str) -> dict:
    out = os.path.join(OUT_DIR, f"{tag}-scan.json")
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "scan.py"), "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(int(trace)),
         "--out", out], stdout=subprocess.PIPE, text=True, env=_env(),
        cwd=ROOT)
    try:
        if proc.stdout.readline().strip() != "ready":
            raise RuntimeError("scan driver failed during set-up")
        with TreeSampler(proc.pid) as rss:
            code = proc.wait(timeout=DEADLINE_S)
    finally:
        kill_tree(proc)
    if code != 0:
        raise RuntimeError(f"scan driver exited {code}")
    with open(out) as fh:
        doc = json.load(fh)

    def rate(*kinds: str) -> float:
        """Median over objects of one step's (or steps') MB/s."""
        per_object: dict[int, list] = {}
        for s in doc["steps"]:
            if s["kind"] in kinds and s["phase"] == "plain":
                per_object.setdefault(s["object"], []).append(s)
        return median([rate_mbps(sum(s["bytes"] for s in steps),
                                 sum(s["s"] for s in steps))
                       for steps in per_object.values()])

    plain_reads = [r["s"] for r in doc["reads"] if r["phase"] == "plain"]
    c, own, foreign = (rate("compress"), rate("inflate_own"),
                       rate("inflate_foreign"))
    result = {"doc": doc, "rss_mb": rss.peak_mb, "rss_procs": rss.processes,
              "setups": doc["setup_s"], "percentiles": {},
              "step_rates": {"scan_compress_mbps": c,
                             "inflate_own_mbps": own,
                             "inflate_foreign_mbps": foreign}}
    if not trace:
        # The seed's first objects, which every run completes.
        comp = [s for s in doc["steps"] if s["kind"] == "compress"
                and s["object"] <= doc["ratio_objects"]]
        p50, p90 = _latency_metrics(plain_reads, result["percentiles"])
        result["metrics"] = {
            "setup_s": median(doc["setup_s"]),
            "latency_p50_ms": p50,
            "latency_p90_ms": p90,
            # One object's full pass: compress, then both full decodes.
            "throughput_mbps": 1.0 / (1.0 / c + 1.0 / own + 1.0 / foreign),
            "compression_ratio": (sum(s["bytes"] for s in comp)
                                  / sum(s["out"] for s in comp)),
            "peak_rss_mb": rss.peak_mb,
        }
    else:
        result["metrics"] = scan_layers(doc)
        result["halves"] = {
            p: percentile([r["s"] for r in doc["reads"] if r["phase"] == p],
                          50.0)
            for p in ("plain", "traced")}
    return result


def _scan_counts(doc: dict) -> tuple[int, int, int]:
    ops = doc["steps"] + doc["reads"]
    attempted = len(ops)
    failed = sum(1 for op in ops if not op["ok"])
    return attempted, failed, doc["wrong"]


def fingerprint(workload: str, seed: int, seconds: float, trace: bool,
                result: dict) -> dict:
    fp = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace), "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "setup_rounds": len(result["setups"]),
        "program_processes": result["rss_procs"],
        "tail_percentiles": result["percentiles"],
    }
    if workload in SERVER_FLAGS:
        records = result["records"]
        lags = [r.send_lag for r in records]
        fp.update(server_flags=" ".join(SERVER_FLAGS[workload]),
                  connections=CONNECTIONS,
                  load=("open loop, Poisson" if workload == "rpc-p9"
                        else "closed loop"),
                  rpc_p9_rate_per_s=P9_RATE_PER_S,
                  samples=len(records),
                  ratio_requests=result["ratio_requests"],
                  late_send_p50_ms=percentile(lags, 50.0) * 1e3,
                  late_send_max_ms=max(lags) * 1e3,
                  late_sends_over_1ms=sum(1 for x in lags if x > 1e-3))
    else:
        fp.update(workers=2, reads=len(result["doc"]["reads"]),
                  steps=len(result["doc"]["steps"]),
                  ratio_objects=result["doc"]["ratio_objects"])
    return fp


#: Readable names of the end-to-end figures, per workload family.
_HUMAN_NAMES = {
    "rpc": {"latency_p50_ms": "rpc_p50_ms", "latency_p90_ms": "rpc_p90_ms",
            "throughput_mbps": "rpc_throughput_mbps"},
    "scan": {"latency_p50_ms": "range_read_p50_ms",
             "latency_p90_ms": "range_read_p90_ms"},
}


#: Units of host time (scaled down by the host factor) and of host
#: rates (scaled up).  Simulated, count and size metrics stay as read.
_TIME_UNITS = ("s", "ms", "us", "us/KiB")
_RATE_UNITS = ("MB/s",)


def normalise(value: float, unit: str, factor: float) -> float:
    """A host-time figure as it would read at the reference CPU speed."""
    if unit in _TIME_UNITS:
        return value / factor
    if unit in _RATE_UNITS:
        return value * factor
    return value


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{workload}-s{seed}-t{int(trace)}"
    with HostSpeed() as speed:
        if workload == "scan":
            result = run_scan(seed, seconds, trace, tag)
        else:
            result = run_rpc(workload, seed, seconds, trace, tag)
    if workload == "scan":
        attempted, failed, wrong = _scan_counts(result["doc"])
        for name, value in result["step_rates"].items():
            print(f"{name} = {value * speed.factor:.6g} MB/s")
    else:
        records = result["records"]
        attempted, failed = len(records), count_failed(records)
        wrong = count_wrong(records)

    units = UNITS if trace else END_TO_END
    raw = result["metrics"]
    if trace:
        p50 = result["halves"]
        raw["trace.overhead_pct"] = (p50["traced"] / p50["plain"] - 1) * 100
    # An open loop's throughput is set by its schedule, not the host.
    fixed = {"throughput_mbps"} if workload == "rpc-p9" else set()
    metrics = {k: v if k in fixed else normalise(v, units[k], speed.factor)
               for k, v in raw.items()}
    fp = fingerprint(workload, seed, seconds, trace, result)
    fp.update(host_factor=speed.factor, host_probes=len(speed.samples),
              raw_metrics=raw)
    print("fingerprint " + json.dumps(fp, sort_keys=True))
    names = ({name: "" for name in PER_LAYER} if trace else
             _HUMAN_NAMES["scan" if workload == "scan" else "rpc"])
    print(f"host CPU factor {speed.factor:.3f}: times below are at "
          f"reference speed (raw figures in the fingerprint)")
    used = result["percentiles"]
    for key, value in metrics.items():
        label = names.get(key) or key
        note = ""
        if key in used and f"_p{used[key]:g}_" not in key:
            note = f" (p{used[key]:g}: too few samples for the named tail)"
        print(f"{label} = {value:.6g} {units[key]}{note}")
    consistent = True
    if trace and workload != "scan":
        err = metrics["trace.blocking_sum_err_pct"]
        consistent = (result["folded"] > 0
                      and err <= BLOCKING_SUM_TOLERANCE_PCT)
        print(f"blocking path of {result['folded']} requests: layer self "
              f"times sum to client latency within {err:.3g}% for the "
              f"worst request (tolerance {BLOCKING_SUM_TOLERANCE_PCT}%): "
              f"{'ok' if consistent else 'VIOLATED'}")
    print(f"attempted = {attempted}, failed = {failed}, wrong = {wrong}")
    doc = {"correct": wrong == 0 and consistent, "attempted": attempted,
           "failed": failed,
           "metrics": {k: {"value": v, "unit": units[k]}
                       for k, v in metrics.items()}}
    with open(os.path.join(OUT_DIR, f"{tag}-result.json"), "w") as fh:
        json.dump({"fingerprint": fp, "result": doc}, fh, indent=1)
    return doc


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("rpc-p9", "rpc-z15", "scan", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    signal.signal(signal.SIGALRM, _timeout)
    # A terminated run still unwinds, so its child processes are killed.
    signal.signal(signal.SIGTERM, _terminated)
    signal.alarm(DEADLINE_S if args.workload != "all" else 3 * DEADLINE_S)

    workloads = (("rpc-p9", "rpc-z15", "scan") if args.workload == "all"
                 else (args.workload,))
    docs = {}
    for workload in workloads:
        print(f"== {workload}")
        docs[workload] = run_one(workload, args.seed, args.seconds,
                                 bool(args.trace))
    if len(docs) == 1:
        final = docs[workloads[0]]
    else:
        final = {"correct": all(d["correct"] for d in docs.values()),
                 "attempted": sum(d["attempted"] for d in docs.values()),
                 "failed": sum(d["failed"] for d in docs.values()),
                 "metrics": {f"{w}/{k}": v for w, d in docs.items()
                             for k, v in d["metrics"].items()}}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


def _timeout(_signum, _frame):
    raise TimeoutError(f"benchmark exceeded {DEADLINE_S}s")


def _terminated(_signum, _frame):
    raise SystemExit(143)


if __name__ == "__main__":
    sys.exit(main())
