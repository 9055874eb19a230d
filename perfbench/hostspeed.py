"""Host CPU speed probe, run beside the benchmark in its own process.

The reference host is a shared virtual machine whose CPUs change speed
by up to 3x within minutes (a fixed pure-Python loop took 0.12 s at one
moment and 0.40 s some minutes later, in CPU time as well as wall time).
Wall times measured minutes apart are then not comparable.  This probe
times a fixed pure-Python loop every ``INTERVAL_S`` in CPU time, which
waiting for a CPU does not inflate.  ``run.py`` divides each host-time
metric by the run's median probe relative to ``REFERENCE_PROBE_S``: the
result is what the time would have been on a CPU where one probe takes
``REFERENCE_PROBE_S``.  The raw figures and the factor are recorded in
every fingerprint.

    python3 perfbench/hostspeed.py    # probes until stdin closes, then
                                      # prints the probe times as JSON
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import threading
import time

#: Loop iterations per probe (about 6 ms of CPU on the reference host).
PROBE_ITERATIONS = 100_000
INTERVAL_S = 0.5
#: Probe CPU time that defines the reference speed.
REFERENCE_PROBE_S = 0.006


def probe() -> float:
    t0 = time.process_time()
    acc = 0
    for i in range(PROBE_ITERATIONS):
        acc += i * i
    return time.process_time() - t0


class HostSpeed:
    """Run the probe process for the lifetime of a ``with`` block."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def __enter__(self) -> "HostSpeed":
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        return self

    def __exit__(self, *exc_info: object) -> None:
        out, _ = self.proc.communicate("", timeout=30)
        if self.proc.returncode == 0 and out.strip():
            self.samples = json.loads(out)

    @property
    def factor(self) -> float:
        """How much slower than the reference this run's CPU was."""
        if not self.samples:
            return 1.0
        return statistics.median(self.samples) / REFERENCE_PROBE_S


def main() -> int:
    stop = threading.Event()
    threading.Thread(target=lambda: (sys.stdin.read(), stop.set()),
                     daemon=True).start()
    samples = []
    while not stop.wait(INTERVAL_S):
        samples.append(probe())
    print(json.dumps(samples))
    return 0


if __name__ == "__main__":
    sys.exit(main())
