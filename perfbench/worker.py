#!/usr/bin/env python3
"""One repetition of one workload, in a fresh process so the family memo is cold.

Started by run.py; prints one JSON line.  The timed phase runs every item of
the workload once, with a speed.Sampler probing the machine's speed, and
reports each item's time scaled to the reference speed (speed.py); with
--check, every item is then cross-checked by its second route.  --setup-only
stops right before the first timed call.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def environment() -> dict:
    import numpy

    from epsmult import _kernels

    backend = getattr(_kernels, "active_backend", None)
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "backend": backend() if backend else None,
            "EPSMULT_BACKEND": os.environ.get("EPSMULT_BACKEND")}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t-spawn", type=float, required=True,
                        help="time.monotonic() in the parent right before the spawn")
    parser.add_argument("--spawn-probes", required=True,
                        help="comma-separated probe durations in the parent right before the spawn")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "epsmult", "__init__.py")):
        print(f"worker: no epsmult sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import speed

    # the sampler runs from here to the end of the timed phase; set-up before
    # this point is scaled by the parent's probes and the first ones here
    sampler = speed.Sampler().start()
    since_spawn, t_sampler = time.monotonic() - args.t_spawn, time.perf_counter()
    import workloads

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer().install()
    workload = workloads.WORKLOADS[args.workload]
    items = workload.make_items(args.seed)
    t_setup = time.perf_counter()
    setup_raw_s = since_spawn + sampler.raw(t_sampler, t_setup)
    probes = [float(x) for x in args.spawn_probes.split(",")] + sampler.took
    setup_s = setup_raw_s * speed.PROBE_REF_S / statistics.median(probes)
    if args.setup_only:
        sampler.stop()
        print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw_s}))
        return 0

    raws, spans, errors = [], [], {}
    for i, item in enumerate(items):
        t0 = time.perf_counter()
        try:
            raws.append(workload.run(item))
        except Exception as exc:  # an item that raises counts as failed; the run goes on
            raws.append(None)
            errors[i] = repr(exc)
        spans.append((t0, time.perf_counter()))
    sampler.stop()
    latencies = [sampler.scaled(a, b) for a, b in spans]
    raw_wall_s = sampler.raw(spans[0][0], spans[-1][1])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    layers = None
    if tracer is not None:
        tracer.uninstall()
        layers = tracer.metrics(tracing.memo_hit_ratio())

    digests = [None if raw is None else hashlib.sha256(json.dumps(
        workload.summarize(item, raw), sort_keys=True).encode()).hexdigest()
        for item, raw in zip(items, raws)]
    failures = dict(errors)
    if args.check:
        ok = [i for i in range(len(items)) if i not in errors]
        try:
            found = workload.check([items[i] for i in ok], [raws[i] for i in ok])
        except Exception as exc:  # a check that cannot run fails every item it covers
            found = dict.fromkeys(range(len(ok)), f"check raised {exc!r}")
        failures.update({ok[j]: why for j, why in found.items()})

    print(json.dumps({
        "setup_s": setup_s, "setup_raw_s": setup_raw_s, "wall_s": sum(latencies),
        "raw_wall_s": raw_wall_s, "probe_s": statistics.median(sampler.took), "item_s": latencies,
        "peak_rss_mb": peak_rss_mb, "digests": digests,
        "failures": {str(i): why for i, why in failures.items()},
        "layers": layers, "environment": environment(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
