"""Benchmark entry point: one workload, one seed, bare or traced.

    python3 perfbench/run.py --workload threads --seed 1 --seconds 20 \\
        --trace 0

runs from the root of a checkout of this repository and measures the
package under ``src/`` in this process.  It prints a report (every
metric with its unit and sample count, ``failed/attempted``, and any
failed check), writes the full record — metadata and every
repetition's samples in time order — to ``perfbench/out/``, and ends
with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, measured bare: every
workload reports the same four, each for its own operation.
``--trace 1`` installs the span wrappers of ``layers.py`` and reports
every per-layer metric.  ``--inject-ns N`` wraps every
``DedupTable.fresh`` call and adds N ns of busy work to it (the
sensitivity check of ``sensitivity.py``, whose base runs pass 0, so
that both sides carry the same wrapper and imports); a plain run never
sets it.

Exit status: 0 when the run completed (``correct`` says whether its
outputs were right; a run whose program hung ends early, counts the
unanswered requests as failed and reports 0 for what it could not
measure), 2 when the program under test is missing.
"""

from __future__ import annotations

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: the end-to-end metrics (name, unit) every workload reports
END_TO_END = [("setup_s", "s"), ("peak_rss_mb", "MB"), ("latency_us", "us"),
              ("throughput_per_s", "1/s")]
#: workload -> (module, keyword arguments of its run functions)
WORKLOADS = {
    "threads": ("wl_runtimes", {"runtime": "threads"}),
    "actors": ("wl_runtimes", {"runtime": "actors"}),
    "coroutines": ("wl_runtimes", {"runtime": "coroutines"}),
    "cluster": ("wl_cluster", {}),
    "explore": ("wl_explore", {}),
}


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inject-ns", type=int, default=None,
                    help="busy ns added to every DedupTable.fresh call "
                         "(sensitivity check)")
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program under test at {SRC}/repro",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)

    import common
    import layers

    cpus = common.pin_to_one_cpu()

    module_name, kwargs = WORKLOADS[args.workload]
    module = __import__(module_name)
    run = common.Run(args.workload, args.seed, args.seconds,
                     traced=bool(args.trace))
    run.notes.append(f"pinned to CPU {cpus}")
    if args.inject_ns is not None:
        run.notes.append(f"injected {args.inject_ns} ns into every "
                         f"DedupTable.fresh call")
    if args.trace:
        wanted = layers.PER_LAYER
    else:
        wanted = END_TO_END
    try:
        if args.trace:
            module.run_traced(run, args.seconds, args.inject_ns or 0,
                              **kwargs)
        else:
            from tracer import Tracer
            slow = Tracer()
            if args.inject_ns is not None:
                layers.slow_dedup(slow, args.inject_ns)
            try:
                module.run_bare(run, args.seconds, **kwargs)
            finally:
                slow.restore()
    except common.Hung as exc:
        run.notes.append(f"run ended early: {exc}")
    if not args.trace:
        run.metric("peak_rss_mb", common.peak_rss_mb(), "MB")
    if common.REFS:
        run.notes.append(
            f"host speed: reference kernel median "
            f"{common.median(common.REFS) / 1e6:.3f} ms over "
            f"{len(common.REFS)} timings (nominal "
            f"{common.REF_NOMINAL_NS / 1e6:g} ms); times and rates are "
            f"normalised to the nominal host")
    for name, unit in wanted:
        if name not in run.metrics:           # not measured: hung first
            run.metric(name, 0.0, unit, n=0)
    names = [name for name, _ in wanted]
    for line in run.report_lines(names):
        print(line)
    print(f"# record: {os.path.relpath(run.write_record(), ROOT)}")
    sys.stdout.flush()
    print(run.result_line(names))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
