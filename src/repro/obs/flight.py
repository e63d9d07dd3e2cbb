"""The flight recorder: post-mortem bundles for statements that die.

A :class:`FlightRecorder` rides along with every
:class:`~repro.api.database.Database`. In normal operation it costs
nothing beyond the tracer's existing ring of recent span trees; when a
statement dies — a :class:`~repro.errors.ResourceGovernorError`
(timeout, cancel, memory budget), a chaos-injected fault, or a worker
crash survived by serial retry — it dumps one **self-contained
diagnostic bundle** to disk:

* the failing statement's full span tree plus the recent-trace ring,
* the governor's final report (verdict, checkpoints, peak bytes),
* the tail of the query history store,
* a metrics snapshot,
* the engine configuration (``dataclasses.asdict(db.config)``).

Bundles are plain JSON under ``results/flightrec/`` (override with
``Database(flight_dir=...)`` or ``REPRO_FLIGHTREC``); the directory is
pruned to the newest :data:`DEFAULT_KEEP` bundles so an abort storm
cannot fill the disk. Render one with::

    python -m repro.obs.dump results/flightrec/<bundle>.json

The chaos harness (:mod:`repro.testing.chaos`) asserts that every
injected abort produces a loadable bundle — the flight recorder is part
of the engine's failure contract, not best-effort logging.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Optional

#: Default bundle directory (relative to the working directory).
DEFAULT_DIR = os.path.join("results", "flightrec")

#: Newest bundles kept per directory; older ones are pruned on write.
DEFAULT_KEEP = 50

#: Bundle schema identifier (bumped on incompatible layout changes).
BUNDLE_SCHEMA = "repro-flightrec-v1"

#: Keys every loadable bundle must carry.
REQUIRED_KEYS = (
    "schema",
    "created_at",
    "reason",
    "error",
    "governor",
    "trace",
    "recent_traces",
    "history",
    "metrics",
    "config",
)


class FlightRecorder:
    """Dumps diagnostic bundles when statements die.

    ``tracer`` / ``history`` / ``metrics`` are the session's live
    objects — the recorder snapshots them at dump time, so a bundle
    reflects the session as it was at the moment of death. ``config``
    is a plain dict of session settings embedded verbatim.
    """

    def __init__(
        self,
        tracer=None,
        history=None,
        metrics=None,
        config: Optional[dict] = None,
        directory: str = DEFAULT_DIR,
        keep: int = DEFAULT_KEEP,
        history_tail: int = 20,
    ):
        self.directory = directory
        self.keep = max(int(keep), 1)
        self.history_tail = history_tail
        self.tracer = tracer
        self.history = history
        self.metrics = metrics
        self.config = dict(config or {})
        #: Path of the most recent bundle written (None before any).
        self.last_bundle_path: Optional[str] = None
        #: The most recent bundle as a dict (kept even if the disk
        #: write failed — in-memory post-mortems always work).
        self.last_bundle: Optional[dict] = None
        #: Why the last disk write failed (None while healthy).
        self.last_write_error: Optional[str] = None
        self.bundles_written = 0
        self._lock = threading.Lock()
        self._seq = 0

    # -- bundle assembly ---------------------------------------------------

    def build_bundle(
        self,
        reason: str,
        error: Optional[BaseException] = None,
        governor: Optional[dict] = None,
        trace=None,
    ) -> dict:
        """Assemble (but do not write) one bundle dict."""
        trace_dict = None
        if trace is not None:
            trace_dict = trace.to_dict()
        elif self.tracer is not None and self.tracer.last_root is not None:
            trace_dict = self.tracer.last_root.to_dict()
        recent = []
        if self.tracer is not None:
            recent = [
                root.to_dict() for root in self.tracer.recent_roots(8)
            ]
        history_tail = []
        if self.history is not None:
            history_tail = self.history.tail_dicts(self.history_tail)
        metrics_snapshot = {}
        if self.metrics is not None:
            metrics_snapshot = self.metrics.snapshot()
        error_info = None
        if error is not None:
            error_info = {
                "type": type(error).__name__,
                "message": str(error),
            }
        return {
            "schema": BUNDLE_SCHEMA,
            "created_at": time.time(),
            "reason": reason,
            "error": error_info,
            "governor": governor or {},
            "trace": trace_dict,
            "recent_traces": recent,
            "history": history_tail,
            "metrics": metrics_snapshot,
            "config": dict(self.config),
        }

    # -- dumping -----------------------------------------------------------

    def dump(
        self,
        reason: str,
        error: Optional[BaseException] = None,
        governor: Optional[dict] = None,
        trace=None,
    ) -> Optional[str]:
        """Write one bundle; returns its path (None when the write
        failed — the bundle is still retained on ``last_bundle``).
        Never raises: the flight recorder must not turn one failure
        into two."""
        bundle = self.build_bundle(
            reason, error=error, governor=governor, trace=trace
        )
        with self._lock:
            self._seq += 1
            seq = self._seq
        name = (
            f"flightrec-{int(bundle['created_at'] * 1e3)}"
            f"-{os.getpid()}-{seq:04d}-{reason}.json"
        )
        path = os.path.join(self.directory, name)
        try:
            os.makedirs(self.directory, exist_ok=True)
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(bundle, fh, indent=1, sort_keys=True)
            self._prune()
        except OSError as exc:
            self.last_write_error = f"{type(exc).__name__}: {exc}"
            path = None
        with self._lock:
            self.last_bundle = bundle
            if path is not None:
                self.last_bundle_path = path
                self.bundles_written += 1
        if self.metrics is not None and path is not None:
            self.metrics.counter(
                "flightrec_bundles_total", reason=reason
            ).inc()
        return path

    def _prune(self) -> None:
        """Keep only the newest ``keep`` bundles (best-effort; bundle
        names embed a millisecond timestamp, so name order is age
        order)."""
        try:
            names = sorted(
                n
                for n in os.listdir(self.directory)
                if n.startswith("flightrec-") and n.endswith(".json")
            )
        except OSError:
            return
        for stale in names[: -self.keep]:
            try:
                os.unlink(os.path.join(self.directory, stale))
            except OSError:
                pass


# ---------------------------------------------------------------------------
# Loading / validation
# ---------------------------------------------------------------------------


def validate_bundle(bundle: dict) -> list[str]:
    """Structural check of a bundle dict; returns problems (empty =
    loadable)."""
    problems = []
    if not isinstance(bundle, dict):
        return ["bundle is not a JSON object"]
    for key in REQUIRED_KEYS:
        if key not in bundle:
            problems.append(f"missing key {key!r}")
    if bundle.get("schema") != BUNDLE_SCHEMA:
        problems.append(
            f"unknown schema {bundle.get('schema')!r} "
            f"(expected {BUNDLE_SCHEMA!r})"
        )
    trace = bundle.get("trace")
    if trace is not None and "name" not in trace:
        problems.append("trace is not a span tree")
    if not isinstance(bundle.get("recent_traces", []), list):
        problems.append("recent_traces is not a list")
    if not isinstance(bundle.get("history", []), list):
        problems.append("history is not a list")
    return problems


def load_bundle(path: str) -> dict:
    """Read and validate one bundle; raises ``ValueError`` with the
    problem list when the file is not a loadable bundle."""
    with open(path, "r", encoding="utf-8") as fh:
        bundle = json.load(fh)
    problems = validate_bundle(bundle)
    if problems:
        raise ValueError(
            f"{path}: not a loadable flight-recorder bundle: "
            + "; ".join(problems)
        )
    return bundle


def format_bundle(bundle: dict) -> str:
    """Human-readable rendering (the ``repro.obs.dump`` CLI)."""
    from .trace import Span

    lines = []
    created = bundle.get("created_at", 0.0)
    stamp = time.strftime(
        "%Y-%m-%d %H:%M:%S", time.localtime(created)
    )
    lines.append(
        f"flight-recorder bundle — reason={bundle.get('reason')!r} "
        f"at {stamp}"
    )
    error = bundle.get("error")
    if error:
        lines.append(f"error: {error.get('type')}: {error.get('message')}")
    gov = bundle.get("governor") or {}
    if gov:
        lines.append(
            f"governor: verdict={gov.get('verdict')} "
            f"checkpoints={gov.get('checkpoints')} "
            f"elapsed_ms={gov.get('elapsed_ms', 0):.3f} "
            f"peak_bytes={gov.get('peak_bytes')}"
        )
    config = bundle.get("config") or {}
    if config:
        rendered = ", ".join(
            f"{k}={v}" for k, v in sorted(config.items())
        )
        lines.append(f"config: {rendered}")
    trace = bundle.get("trace")
    if trace:
        lines.append("")
        lines.append("failing statement trace:")
        lines.append(Span.from_dict(trace).format(indent=1))
    history = bundle.get("history") or []
    if history:
        lines.append("")
        lines.append(f"history tail ({len(history)} statement(s)):")
        from .history import QueryRecord

        for payload in history:
            lines.append(
                "  " + QueryRecord.from_dict(payload).format()
            )
    recent = bundle.get("recent_traces") or []
    if recent:
        lines.append("")
        lines.append(f"recent traces: {len(recent)} retained")
    metrics = bundle.get("metrics") or {}
    counters = metrics.get("counters") or {}
    if counters:
        lines.append("")
        lines.append(f"metrics: {len(counters)} counter series; e.g.")
        for name in sorted(counters)[:8]:
            lines.append(f"  {name} = {counters[name]:g}")
    return "\n".join(lines)
