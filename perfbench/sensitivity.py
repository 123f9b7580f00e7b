"""Sensitivity self-check: does the benchmark see a slowed layer?

    python3 perfbench/sensitivity.py [--seeds 3] [--seconds N]

From the benchmark side only (no file of the program changes), every
call of one layer's public callable, ``DedupTable.fresh``, gets a
busy-wait added.  The delay is calibrated so the added work per
``cluster`` round trip is a quarter of the measured bare cost of a
phase-B round trip (a 25% slowdown placed entirely in that one layer;
with the process on one CPU the round-trip rate falls by 1 - 1/1.25 =
20%).  Then, with the same seeds and the A/B order alternating:

* the layer's per-layer metric (``cluster.delivery.dedup_fresh_ns``,
  traced run) must move by more than the largest end-to-end bound;
* ``throughput_per_s`` on ``cluster`` (bare, phase-B round trips per
  second) must get worse by more than its bound;
* every end-to-end metric of ``threads``, ``actors`` and
  ``coroutines`` (bare), which never call the layer, must stay within
  its bound.

Prints one line per comparison and exits 0 only when all three hold.
Its record goes to ``perfbench/out/sensitivity.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

LAYER_METRIC = "cluster.delivery.dedup_fresh_ns"
#: DedupTable.fresh runs once per TELL frame received: the request at
#: the echo's node, the reply at the client's
CALLS_PER_MSG = 2


def bench(workload: str, seed: int, seconds: int, trace: int = 0,
          inject_ns: int = 0) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--inject-ns", str(inject_ns)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=600)
    if out.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{' '.join(cmd)}: outputs incorrect\n{out.stdout}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def worse(metric: dict, base: float, new: float) -> float:
    """How much worse ``new`` is than ``base``, as a share of base."""
    change = (new - base) / base
    return change if metric["better"] == "lower" else -change


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", type=int, default=3)
    ap.add_argument("--seconds", type=int, default=0,
                    help="per run (default: run_seconds of BENCHMARK.json)")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    seeds = [9000 + i for i in range(args.seeds)]
    lines: list[str] = []

    def say(line: str) -> None:
        print(line, flush=True)
        lines.append(line)

    # calibrate on a seed of its own: bare phase-B cost per round trip,
    # from the blocks' raw rates (the busy-wait is raw time, and the
    # reported rate is normalised to the nominal host)
    bench("cluster", 8999, seconds)
    with open(os.path.join(HERE, "out", "cluster-bare-seed8999.json")) as f:
        reps = json.load(f)["repetitions"]
    per_msg_ns = 1e9 / statistics.median(
        r["msgs_per_s"] for r in reps if r["phase"] == "bare.B")
    traced = bench("cluster", seeds[0], seconds, trace=1)
    delay = int(per_msg_ns / 4 / CALLS_PER_MSG)
    say(f"calibration: phase-B round trip {per_msg_ns / 1e3:.1f} us bare, "
        f"{CALLS_PER_MSG} DedupTable.fresh calls per round trip -> "
        f"{delay} ns injected per call (+25% work per round trip)")

    def paired(workload: str) -> tuple[list, list]:
        """Base and slowed runs per seed, alternating which goes first."""
        base, slowed = [], []
        for i, s in enumerate(seeds):
            sides = [(base, 0), (slowed, delay)]
            for out, inj in (sides if i % 2 == 0 else sides[::-1]):
                out.append(bench(workload, s, seconds, inject_ns=inj))
        return base, slowed

    ok = True
    base_cluster, slowed_cluster = paired("cluster")
    m = e2e["throughput_per_s"]
    base = statistics.median(r["throughput_per_s"] for r in base_cluster)
    new = statistics.median(r["throughput_per_s"] for r in slowed_cluster)
    w = worse(m, base, new)
    moved = w > m["bound"]
    ok &= moved
    say(f"cluster throughput_per_s: {base:.0f} -> {new:.0f}/s, {w:+.1%} "
        f"worse (bound {m['bound']:.0%}): "
        f"{'MOVED' if moved else 'did not move'}")
    b = statistics.median(r["latency_us"] for r in base_cluster)
    n = statistics.median(r["latency_us"] for r in slowed_cluster)
    say(f"  cluster latency_us: {b:.1f} -> {n:.1f} us "
        f"({worse(e2e['latency_us'], b, n):+.1%} worse; bound "
        f"{e2e['latency_us']['bound']:.0%})")

    slowed_traced = bench("cluster", seeds[0], seconds, trace=1,
                          inject_ns=delay)
    metric = LAYER_METRIC
    b, n = traced[metric], slowed_traced[metric]
    largest = max(x["bound"] for x in spec["end_to_end"])
    moved = (n - b) / b > largest
    ok &= moved
    say(f"{metric}: {b:.0f} -> {n:.0f} ns ({(n - b) / b:+.1%}; largest "
        f"end-to-end bound {largest:.0%}): "
        f"{'MOVED' if moved else 'did not move'}")

    for workload in ("threads", "actors", "coroutines"):
        base_rt, slowed_rt = paired(workload)
        for name in base_rt[0]:
            b = statistics.median(r[name] for r in base_rt)
            n = statistics.median(r[name] for r in slowed_rt)
            w = worse(e2e[name], b, n)
            flat = w <= e2e[name]["bound"]
            ok &= flat
            say(f"{workload} {name}: {b:.5g} -> {n:.5g} ({w:+.1%} worse; "
                f"bound {e2e[name]['bound']:.0%}): "
                f"{'flat' if flat else 'MOVED'}")

    say("sensitivity check " + ("passed" if ok else "FAILED"))
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "sensitivity.json"), "w") as f:
        json.dump({"layer": "DedupTable.fresh", "inject_ns": delay,
                   "seeds": seeds,
                   "seconds": seconds, "lines": lines, "passed": ok}, f,
                  indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
