"""Shared pieces of the benchmark: environment scrub, clocks, sample
statistics, harness-owned spans and host facts.

Nothing here imports numpy or the engine, so :func:`scrub_environment`
can run before either is loaded (the BLAS thread variables only take
effect at import time).
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Optional

#: The checkout root: ``perf/`` sits directly beneath it.
ROOT = Path(__file__).resolve().parent.parent
#: Everything a run leaves behind lives here (ignored by git).
OUT = ROOT / "perf" / "out"

#: Never report an end-to-end timing from fewer samples than this. The
#: traced pass runs every loop twice and takes half; ``--quick`` takes
#: the fewest a quartile needs. Sizes never change.
MIN_SAMPLES = 10
TRACED_MIN_SAMPLES = 5
QUICK_MIN_SAMPLES = 2

clock = time.perf_counter


#: Process environment every run (and the server subprocess) is pinned
#: to: numpy's BLAS/OpenMP pools stay at one thread.
PINNED_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}


def scrub_environment() -> list[str]:
    """Remove every ``REPRO_*`` switch and apply :data:`PINNED_ENV`, so
    each run measures the default ``Database()`` configuration. Returns
    the names removed."""
    removed = sorted(k for k in os.environ if k.startswith("REPRO_"))
    for key in removed:
        del os.environ[key]
    os.environ.update(PINNED_ENV)
    return removed


def timebox(seconds: float, min_n: int):
    """Iteration indices for one closed loop: at least ``min_n``
    iterations, then more until ``seconds`` have passed."""
    started = clock()
    i = 0
    while i < min_n or clock() - started < seconds:
        yield i
        i += 1


# ---------------------------------------------------------------------------
# sample statistics
# ---------------------------------------------------------------------------


def percentile(values: list[float], p: float) -> float:
    """Linear-interpolated percentile (``p`` in 0..100)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = (len(ordered) - 1) * p / 100.0
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


class Metric:
    """One reported number: the value plus the samples behind it."""

    def __init__(
        self,
        value: float,
        unit: str,
        samples: Optional[list[float]] = None,
        count: Optional[int] = None,
    ):
        self.value = float(value)
        self.unit = unit
        self.samples = samples or []
        #: How many observations the value rests on (a throughput has a
        #: count but no per-sample list).
        self.count = count if count is not None else len(self.samples)

    @classmethod
    def of(cls, samples: list[float], unit: str, p: float = 50.0) -> "Metric":
        """The ``p``-th percentile of ``samples`` (median by default)."""
        return cls(percentile(samples, p), unit, samples)

    def quartiles(self) -> tuple[float, float]:
        if len(self.samples) < 2:
            return self.value, self.value
        q1, _q2, q3 = statistics.quantiles(self.samples, n=4)
        return q1, q3


def format_table(rows: list[tuple], header: tuple) -> str:
    cells = [tuple(str(c) for c in header)] + [
        tuple(str(c) for c in row) for row in rows
    ]
    widths = [max(len(r[i]) for r in cells) for i in range(len(header))]
    return "\n".join(
        "  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip()
        for row in cells
    )


def metric_rows(metrics: dict[str, Metric], alias: dict[str, str]) -> list:
    rows = []
    for name, m in metrics.items():
        q1, q3 = m.quartiles()
        rows.append(
            (
                name, alias.get(name, ""), m.unit, m.count or "-",
                f"{m.value:.6g}", f"{q1:.6g}", f"{q3:.6g}",
            )
        )
    return rows


METRIC_HEADER = ("metric", "meaning", "unit", "n", "value", "q1", "q3")


# ---------------------------------------------------------------------------
# harness-owned spans
# ---------------------------------------------------------------------------


class Tracer:
    """Spans recorded by the harness around calls into the engine's
    public entry points: name, start, end, parent and statement id.
    Kept in memory; :meth:`write_chrome_trace` dumps them at exit."""

    def __init__(self):
        #: [name, start_s, end_s, parent index or -1, statement id, tid]
        self.spans: list[list] = []
        self._local = threading.local()

    @contextmanager
    def span(self, name: str, stmt: Optional[int] = None) -> Iterator[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else -1
        if stmt is None and parent >= 0:
            stmt = self.spans[parent][4]
        record = [name, clock(), 0.0, parent, stmt, threading.get_ident()]
        self.spans.append(record)
        index = len(self.spans) - 1
        stack.append(index)
        try:
            yield index
        finally:
            record[2] = clock()
            stack.pop()

    def durations(self, name: str) -> list[float]:
        """Seconds of every finished span called ``name``."""
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def self_seconds(self) -> dict[str, tuple[float, int]]:
        """Per span name: (total self time, span count). A span's self
        time is its duration minus the part its child spans cover."""
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s[3] >= 0:
                covered[s[3]] += s[2] - s[1]
        out: dict[str, tuple[float, int]] = {}
        for s, child_s in zip(self.spans, covered):
            total, count = out.get(s[0], (0.0, 0))
            out[s[0]] = (total + (s[2] - s[1]) - child_s, count + 1)
        return out

    def write_chrome_trace(self, path: Path) -> None:
        """Chrome-trace (``chrome://tracing`` / Perfetto) JSON."""
        if not self.spans:
            return
        origin = min(s[1] for s in self.spans)
        tids = {tid: i for i, tid in enumerate(
            sorted({s[5] for s in self.spans})
        )}
        events = [
            {
                "name": s[0],
                "cat": s[0].split(".", 1)[0],
                "ph": "X",
                "ts": (s[1] - origin) * 1e6,
                "dur": (s[2] - s[1]) * 1e6,
                "pid": 1,
                "tid": tids[s[5]],
                "args": {"id": i, "parent": s[3], "stmt": s[4]},
            }
            for i, s in enumerate(self.spans)
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(
                {"traceEvents": events, "displayTimeUnit": "ms"}, fh
            )

    def self_time_table(self) -> str:
        rows = [
            (name, count, f"{total * 1e3:.3f}", f"{total / count * 1e6:.1f}")
            for name, (total, count) in sorted(
                self.self_seconds().items(), key=lambda kv: -kv[1][0]
            )
        ]
        return format_table(
            rows, ("span", "count", "self_ms_total", "self_us_each")
        )


# ---------------------------------------------------------------------------
# host and configuration facts
# ---------------------------------------------------------------------------


def peak_rss_mib(pid: Optional[int] = None) -> float:
    """Peak resident set (MiB) of this process, or of ``pid`` read from
    ``/proc`` while it is still alive."""
    if pid is None:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def git_commit() -> str:
    """HEAD of the checkout, or ``unknown`` outside a git repository
    (the driver's checkouts are plain directories)."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def engine_config(db) -> dict:
    """The resolved configuration of a ``Database``, from its public
    attributes."""
    return {
        "workers": db.workers,
        "encoding": db.encoding,
        "plan_cache": db.plan_cache_active(),
        "morsel_rows": db.morsel_rows,
        "parallel_threshold": db.parallel_threshold,
        "profile_operators": db.profile_operators,
        "topn": db.topn_enabled,
        "feedback": db.feedback_enabled,
        "checkpoint_bytes": db.checkpoint_bytes,
        "recovery": db.recovery,
        "wal": db.wal_path is not None,
    }


def host_facts(seed: int, scrubbed: list[str]) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": sys.platform,
        "git_commit": git_commit(),
        "seed": seed,
        "flush_policy": "fsync per commit (engine default)",
        "scrubbed_env": scrubbed,
        "pinned_env": {k: os.environ.get(k) for k in PINNED_ENV},
    }
