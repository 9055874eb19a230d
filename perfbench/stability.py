"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/stability.py --workload scan --seeds 1 2 3 4 5

For every end-to-end metric it prints the median over the runs and the
interquartile distance as a share of the median, next to a third of
the metric's bound from BENCHMARK.json (the steadiness target).  The
spread of the raw figure, before the host-speed correction, is shown
beside it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from stats import spread

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    """The run's result line and its raw (uncorrected) metrics."""
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{out.returncode}:\n{out.stderr[-2000:]}")
    lines = out.stdout.strip().splitlines()
    fp = next(json.loads(line.split(" ", 1)[1]) for line in lines
              if line.startswith("fingerprint "))
    return json.loads(lines[-1]), fp["raw_metrics"]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values: dict[str, list[float]] = {}
    raws: dict[str, list[float]] = {}
    for seed in args.seeds:
        doc, raw = run(args.workload, seed, spec["run_seconds"])
        line = {k: round(v["value"], 4) for k, v in doc["metrics"].items()}
        print(f"seed {seed}: correct={doc['correct']} "
              f"attempted={doc['attempted']} failed={doc['failed']} {line}",
              flush=True)
        for key, metric in doc["metrics"].items():
            values.setdefault(key, []).append(metric["value"])
            raws.setdefault(key, []).append(raw[key])
    for key, vals in values.items():
        shown = raw_shown = "n/a"
        if len(vals) >= 2:
            shown = f"{spread(vals):.4f}"
            raw_shown = f"{spread(raws[key]):.4f}"
        print(f"{key:20s} median {statistics.median(vals):12.5g}  "
              f"spread {shown} (raw {raw_shown})  "
              f"target < {bounds[key] / 3:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
