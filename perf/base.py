"""What the four workloads share: failure accounting around
``Database.execute`` and the per-layer numbers every embedded
``Database`` can report.
"""

from __future__ import annotations

from pathlib import Path

from repro.errors import ReproError

import harness
from harness import Metric, clock


class Workload:
    """One closed-loop workload. Subclasses provide ``setup``,
    ``measure``, ``verify`` and ``layers``; the runner owns the order.

    ``SLOTS`` names the workload's six end-to-end latencies in the order
    they fill ``lat1_ms`` .. ``lat6_ms`` of ``BENCHMARK.json``.
    """

    name = ""
    SLOTS: tuple[str, ...] = ()

    def __init__(self, seed: int, workdir: Path, min_samples: int):
        self.seed = seed
        self.workdir = workdir
        self.min_samples = min_samples
        #: Operations attempted / failed (a raised error or a refused
        #: request; the runner adds failed output checks).
        self.attempted = 0
        self.failed = 0
        #: The embedded ``Database`` (``server_mixed``: the traced
        #: pass's in-process twin of the served table).
        self.db = None

    def close(self) -> None:
        if self.db is not None:
            self.db.close()

    def counters(self) -> dict:
        """``{"counters": {series: value}}`` of the process hosting the
        engine; deltas of two calls give the cache ratios."""
        return self.db.metrics.snapshot()

    def peak_rss_mib(self) -> float:
        return harness.peak_rss_mib()

    def config(self) -> dict:
        """The resolved configuration of the engine under test."""
        return harness.engine_config(self.db)

    def _execute(self, sql: str, params=None, tracer=None, stmt=None):
        """``db.execute`` with failure accounting; ``None`` on a typed
        engine error."""
        self.attempted += 1
        try:
            if tracer is None:
                return self.db.execute(sql, params)
            with tracer.span("api.execute", stmt=stmt):
                return self.db.execute(sql, params)
        except ReproError:
            self.failed += 1
            return None

    # -- per-layer numbers every embedded Database can report -------------

    def api_metrics(self, point_sql: str, point_params, seconds: float) -> dict:
        """The fixed per-statement cost of ``api/database.py`` + ``obs``
        history: ``SELECT 1`` and one parameterised key lookup."""
        out = {}
        for name, sql, params_of in (
            ("api.noop_stmt_us", "SELECT 1", lambda i: None),
            ("api.point_execute_us", point_sql, point_params),
        ):
            samples = []
            for i in harness.timebox(seconds / 2, self.min_samples * 20):
                params = params_of(i)
                started = clock()
                self.db.execute(sql, params).rows
                samples.append((clock() - started) * 1e6)
            out[name] = Metric.of(samples, "us")
        return out

    def storage_metrics(self, rows_loaded: int, load_seconds: float) -> dict:
        stats = self.db.storage_stats()
        return {
            "storage.encoded_over_raw_bytes": Metric(
                stats["encoded_bytes"] / stats["raw_bytes"], "ratio"),
            "storage.load_rows_per_s": Metric(
                rows_loaded / load_seconds, "rows/s", count=rows_loaded),
        }
