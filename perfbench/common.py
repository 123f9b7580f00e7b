"""Shared helpers: sample summaries, failure accounting, run metadata.

Every workload module fills one :class:`Run`: named metrics with their
unit and sample count, a failure tally, and the per-repetition samples
in time order.  ``run.py`` prints the report and the closing JSON line
from it.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from collections import Counter
from typing import Any, Iterable, Optional

#: percentiles a tail is reported at, highest first; the reported tail
#: is the highest one with at least ten samples beyond it
TAIL_LEVELS = (99.99, 99.9, 99.0, 95.0, 90.0, 75.0)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def now_ns() -> int:
    return time.perf_counter_ns()


def quantile(sorted_vals: list, q: float) -> float:
    """Nearest-rank-free linear quantile of an already sorted list."""
    n = len(sorted_vals)
    if n == 0:
        raise ValueError("quantile of no samples")
    pos = (n - 1) * q
    lo = int(pos)
    hi = min(lo + 1, n - 1)
    frac = pos - lo
    return sorted_vals[lo] * (1.0 - frac) + sorted_vals[hi] * frac


def tail_level(n: int) -> Optional[float]:
    """Highest percentile in :data:`TAIL_LEVELS` with >= 10 samples
    beyond it, or None when there are too few samples for any."""
    for level in TAIL_LEVELS:
        if n * (100.0 - level) / 100.0 >= 10.0:
            return level
    return None


#: significant bits a pooled latency sample keeps (relative precision
#: 2**-10, about 0.1%)
HIST_BITS = 10


def block_quantiles(samples: Iterable[int], *qs: float) -> list[float]:
    """Exact quantiles (:func:`quantile`) of one block's samples."""
    vals = sorted(samples)
    return [quantile(vals, q) for q in qs]


class Hist:
    """Latency histogram: sample value (integer ns, rounded down to
    :data:`HIST_BITS` significant bits) -> count.

    Rounding bounds the number of distinct values — about a thousand
    per doubling of latency — however many round trips a run completes
    and however they jitter, so the sample store stays small and the
    same size from run to run, which keeps ``peak_rss_mb`` about the
    program.  Pooled quantiles are within 0.1% of the exact ones.
    """

    def __init__(self) -> None:
        self.counts: Counter = Counter()
        self.n = 0

    def add(self, samples: Iterable[int]) -> None:
        before = self.counts.total()
        self.counts.update(_round(v) for v in samples)
        self.n += self.counts.total() - before

    def quantile(self, q: float) -> float:
        """Same definition as :func:`quantile` on the sorted samples."""
        if self.n == 0:
            raise ValueError("quantile of no samples")
        pos = (self.n - 1) * q
        lo = int(pos)
        frac = pos - lo
        seen = 0
        vals = sorted(self.counts)
        for i, v in enumerate(vals):
            seen += self.counts[v]
            if seen > lo:
                if frac == 0.0 or seen > lo + 1:
                    return float(v)
                return v * (1.0 - frac) + vals[i + 1] * frac
        return float(vals[-1])

    def summary(self, scale: float = 1.0) -> dict[str, Any]:
        """Median, reported tail and count, values multiplied by
        ``scale`` (1e-3 turns ns into µs)."""
        out: dict[str, Any] = {"n": self.n}
        if self.n:
            out["p50"] = self.quantile(0.5) * scale
            level = tail_level(self.n)
            if level is not None:
                out["tail"] = f"p{level:g}"
                out["tail_value"] = self.quantile(level / 100.0) * scale
        return out


def _round(v: int) -> int:
    shift = v.bit_length() - HIST_BITS
    return v if shift <= 0 else (v >> shift) << shift


class Hung(RuntimeError):
    """A block's replies stopped coming.  Its unanswered requests are
    already counted as failures; the run reports what it has and ends
    without running further blocks."""


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


def geomean(values: Iterable[float]) -> float:
    vals = [v for v in values if v > 0]
    if not vals:
        return 0.0
    return statistics.geometric_mean(vals)


#: iterations of the reference kernel
REF_LOOPS = 10000
#: the reference kernel's time on the nominal host: a normalised figure
#: is what the block would have measured on a host where one kernel run
#: takes this long (about its fast level on the host this was tuned on)
REF_NOMINAL_NS = 2_500_000
#: every reference time of this process, in order
REFS: list[int] = []


def reference_ns() -> int:
    """Time one run of a fixed pure-Python kernel — dict updates and
    small list allocations, like the interpreter work of the program —
    as the host's current speed.

    The kernel is timed on this thread's CPU clock, which slows with the
    host (it tracks the wall clock within 1% while the thread runs) but
    not with other threads: time spent descheduled, or waiting for the
    interpreter lock while one of the program's own threads holds it,
    does not count, so busier program threads cannot make the kernel
    look slower.
    """
    d: dict = {}
    t0 = time.thread_time_ns()
    for i in range(REF_LOOPS):
        d[i & 255] = d.get(i & 255, 0) + i
        x = [i, i]
        x.append(i)
    dt = time.thread_time_ns() - t0
    REFS.append(dt)
    return dt


def settle() -> int:
    """Collect garbage before a timed block, so every block starts from
    the same heap state instead of inheriting the last one's debt, then
    time the reference kernel; returns that time for
    :func:`host_scale`."""
    gc.collect()
    return reference_ns()


def host_scale(ref_before: int) -> float:
    """Time the reference kernel again, after a block, and return the
    factor that takes the block's times to the nominal host: a time
    times it, a rate divided by it.

    The shared host this benchmark was tuned on switches between speed
    levels up to ~1.8x apart, for seconds to minutes at a time, as its
    neighbours' load comes and goes.  The kernel slows with the host
    and never with the program, so a block's time over the mean kernel
    time around it is the program's cost at one host speed.
    """
    ref_after = reference_ns()
    return 2.0 * REF_NOMINAL_NS / (ref_before + ref_after)


def pin_to_one_cpu() -> list[int]:
    """Run the whole benchmark process on one CPU; returns the mask.

    Every thread the workloads start inherits the mask.  The
    interpreter lock already lets only one of them run Python at a
    time; what a second CPU adds is cross-CPU wake-ups, and on a shared
    2-vCPU guest those carry the host's noise: a blocked thread's
    wake-up latency flips between regimes (~20, ~29, ~42 µs per
    threads round trip) that last seconds, and time stolen from the
    other vCPU stalls every handoff to it (cluster p99 from ~0.3 ms to
    several ms, throughput halved).  Pinned, the same handoffs are
    same-CPU context switches and runs repeat.
    """
    if not hasattr(os, "sched_setaffinity"):
        return sorted(range(os.cpu_count() or 1))
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return [cpu]


def peak_rss_mb() -> float:
    # ru_maxrss is KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` files only (no git
    process, nothing outside the checkout); "unknown" when absent."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def _src_digest() -> str:
    """Digest of every source file of the program under test — names
    the measured code even where the checkout is not a git repo."""
    h = hashlib.blake2b(digest_size=10)
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def host_fingerprint() -> dict[str, Any]:
    return {"nproc": os.cpu_count(),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine()}


class Run:
    """Everything one benchmark invocation measured and checked."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 traced: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.metrics: dict[str, dict[str, Any]] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        #: per-repetition sample summaries, in the order they ran
        self.repetitions: list[dict[str, Any]] = []
        self.notes: list[str] = []
        self.t_start = time.time()

    # -- measurements ---------------------------------------------------
    def metric(self, name: str, value: float, unit: str, n: int = 1,
               **extra: Any) -> None:
        if name in self.metrics:
            raise KeyError(f"metric {name!r} reported twice")
        self.metrics[name] = {"value": float(value), "unit": unit, "n": n,
                              **extra}

    def latency(self, name: str, block_p50s_us: list, pooled: Hist
                ) -> None:
        """Report a latency under ``name``: the median of the per-block
        medians, normalised (:func:`host_scale`; each block weighs the
        same, however many round trips it completed), with the raw
        pooled median and tail — the highest percentile with ten
        samples beyond it — and the sample count beside it."""
        s = pooled.summary(1e-3)
        self.metric(name, median(block_p50s_us), "us",
                    n=s["n"], blocks=len(block_p50s_us),
                    pooled_p50=s.get("p50"),
                    tail=s.get("tail"), tail_value=s.get("tail_value"))

    def repetition(self, phase: str, **fields: Any) -> None:
        self.repetitions.append({"phase": phase,
                                 "t": round(time.time() - self.t_start, 4),
                                 **fields})

    # -- failure accounting --------------------------------------------
    def attempt(self, n: int = 1) -> None:
        self.attempted += n

    def fail(self, what: str, n: int = 1) -> None:
        self.failed += n
        if len(self.problems) < 50:
            self.problems.append(what)

    def check(self, ok: bool, what: str) -> bool:
        """One checked output: counts as attempted, and failed if not ok."""
        self.attempt()
        if not ok:
            self.fail(what)
        return ok

    # -- output ---------------------------------------------------------
    def metadata(self) -> dict[str, Any]:
        return {"workload": self.workload, "seed": self.seed,
                "seconds": self.seconds,
                "mode": "traced" if self.traced else "bare",
                "git_sha": _git_sha(), "src_digest": _src_digest(),
                "host": host_fingerprint(), "argv": sys.argv[1:],
                "started": self.t_start}

    def report_lines(self, order: Iterable[str] = ()) -> list[str]:
        """Human-readable report, the metrics named in ``order`` first."""
        names = [n for n in order if n in self.metrics]
        names += [n for n in self.metrics if n not in names]
        lines = [f"# {self.workload} ({'traced' if self.traced else 'bare'}"
                 f", seed {self.seed}, {self.seconds:g}s): "
                 f"failed/attempted = {self.failed}/{self.attempted}"]
        for name in names:
            m = self.metrics[name]
            tail = ""
            if m.get("blocks"):
                tail = f" blocks={m['blocks']}"
            if m.get("min_block_n"):
                tail += f" (smallest n={m['min_block_n']})"
            if m.get("tail"):
                tail += (f"  raw pooled p50={m['pooled_p50']:.4g} "
                         f"{m['tail']}={m['tail_value']:.4g}")
            lines.append(f"  {name:<44} {m['value']:>14.6g} {m['unit']:<7}"
                         f" n={m['n']}{tail}")
        for note in self.notes:
            lines.append(f"  {note}")
        for problem in self.problems:
            lines.append(f"  FAILED: {problem}")
        return lines

    def write_record(self) -> str:
        """Full record (metadata, metrics, repetitions in time order)
        under ``perfbench/out/``; returns its path."""
        out_dir = os.path.join(ROOT, "perfbench", "out")
        os.makedirs(out_dir, exist_ok=True)
        mode = "traced" if self.traced else "bare"
        path = os.path.join(out_dir,
                            f"{self.workload}-{mode}-seed{self.seed}.json")
        record = {"metadata": self.metadata(), "metrics": self.metrics,
                  "attempted": self.attempted, "failed": self.failed,
                  "problems": self.problems, "notes": self.notes,
                  "repetitions": self.repetitions}
        with open(path, "w") as f:
            json.dump(record, f, indent=1)
        return path

    def result_line(self, names: Iterable[str]) -> str:
        """The closing JSON line: exactly the listed metric names."""
        metrics = {}
        for name in names:
            m = self.metrics[name]
            metrics[name] = {"value": m["value"], "unit": m["unit"]}
        return json.dumps({"correct": self.failed == 0 and
                           self.attempted > 0,
                           "attempted": self.attempted,
                           "failed": self.failed, "metrics": metrics})
