#!/usr/bin/env python3
"""Benchmark for epsmult: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Every repetition is a fresh worker process
(worker.py), so the family memo is cold each time and set-up is measured
afresh; workers run one after another, single-threaded.  Repetitions continue
until S seconds have passed (at least MIN_REPS).  The first repetition also
cross-checks every item; later ones must reproduce its outputs exactly.
Times are scaled to a reference machine speed by an interleaved probe job
(speed.py), because the host's speed drifts by up to 2x within seconds.

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced and
traced repetitions and reports the per-layer metrics plus the tracing
overhead.  The last line of stdout is the JSON result; the lines before it
are a readable table and the environment.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("limit-family", "h0-box", "epsilon-volume", "fit-grid")
MIN_REPS = 3
SETUP_SAMPLES = 15   # set-up is sampled at least this often per run, then the median is taken
DEADLINE_S = 170.0   # the whole run ends well inside 180 s


class RunFailed(Exception):
    pass


def spawn(args: argparse.Namespace, flags: list[str], timeout: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed)]
    probes = ",".join(map(repr, speed.probe_durations(5)))
    cmd += ["--spawn-probes", probes, "--t-spawn", repr(time.monotonic()), *flags]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise RunFailed(f"worker exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RunFailed(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "epsmult", "__init__.py")):
        print(f"run.py: no epsmult sources under {ROOT}/src", file=sys.stderr)
        return 2

    begin = time.monotonic()

    def remaining() -> float:
        return DEADLINE_S - (time.monotonic() - begin)

    reps: list[dict] = []
    try:
        while len(reps) < MIN_REPS * (1 + args.trace) or time.monotonic() - begin < args.seconds:
            traced = bool(args.trace) and len(reps) % 2 == 1
            flags = (["--check"] if not reps else []) + (["--trace"] if traced else [])
            rep = spawn(args, flags, remaining())
            rep["traced"] = traced
            reps.append(rep)
        setups = [r["setup_s"] for r in reps if not r["traced"]]
        while not args.trace and len(setups) < SETUP_SAMPLES:
            setups.append(spawn(args, ["--setup-only"], remaining())["setup_s"])
    except RunFailed as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    # Every repetition must give the outputs the checked first one gave.
    reference, bad = reps[0]["digests"], set(reps[0]["failures"])
    attempted = failed = 0
    for rep in reps:
        for i, digest in enumerate(rep["digests"]):
            attempted += 1
            failed += str(i) in bad or str(i) in rep["failures"] or digest != reference[i]
    for i, why in sorted(reps[0]["failures"].items(), key=lambda kv: int(kv[0])):
        print(f"item {i} failed: {why}")

    plain = [r for r in reps if not r["traced"]]
    if args.trace:
        traced = [r for r in reps if r["traced"]]
        walls = statistics.median(r["wall_s"] for r in traced), statistics.median(r["wall_s"] for r in plain)
        metrics = {key: {"value": statistics.median(r["layers"][key][0] for r in traced),
                         "unit": unit} for key, (_, unit) in traced[0]["layers"].items()}
        metrics["trace.overhead_s"] = {"value": walls[0] - walls[1], "unit": "s"}
        metrics["raw.wall_s"] = {"value": statistics.median(r["raw_wall_s"] for r in plain), "unit": "s"}
        metrics["speed.probe_ms"] = {"value": statistics.median(r["probe_s"] for r in plain) * 1e3,
                                     "unit": "ms"}
    else:
        # each item's median over the repetitions, so that a burst of load on
        # the machine does not land in the tail of the item distribution
        items_ms = [statistics.median(r["item_s"][i] for r in plain) * 1e3
                    for i in range(len(reference))]
        metrics = {
            "wall_s": {"value": statistics.median(r["wall_s"] for r in plain), "unit": "s"},
            "item_p50_ms": {"value": statistics.median(items_ms), "unit": "ms"},
            "item_p90_ms": {"value": nearest_rank(items_ms, 0.9), "unit": "ms"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in plain), "unit": "MB"},
        }
    print(f"workload {args.workload}  seed {args.seed}  repetitions {len(reps)}"
          f" ({len(plain)} untraced)  items/rep {len(reference)}")
    for key, m in metrics.items():
        print(f"  {key:<44} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'failed_frac':<44} {failed / attempted:>14.6g} ratio  ({failed}/{attempted})")
    if not args.trace:
        print(f"  unscaled: wall {statistics.median(r['raw_wall_s'] for r in plain):.6g} s,"
              f" probe {statistics.median(r['probe_s'] for r in plain) * 1e3:.6g} ms"
              f" (reference {speed.PROBE_REF_S * 1e3:g} ms)")
    print(json.dumps({"environment": reps[0]["environment"]}, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
