"""Metric exporters: Prometheus text exposition, JSON dump, timelines.

Library use::

    from repro.obs.export import to_prometheus, to_json
    print(to_prometheus(db.metrics))

Histograms export both the standard ``_bucket``/``_sum``/``_count``
series and a companion ``<name>_summary`` gauge family carrying p50 /
p95 / p99 estimates (``{quantile="0.5"}`` ...), so dashboards get
latency percentiles without server-side ``histogram_quantile``.

CLI (runs a tiny built-in workload, then exports its session metrics)::

    python -m repro.obs.export                    # Prometheus text
    python -m repro.obs.export --format json      # JSON dump
    python -m repro.obs.export --chrome-trace t.json  # Perfetto timeline
    python -m repro.obs.export --check            # observability smoke

``--check`` is the ``make obs-smoke`` entry point: it drives the
workload, validates the Prometheus exposition (every line parses, one
TYPE per family, no duplicate series), round-trips a Chrome-trace
export through ``json.loads`` plus a schema check, and forces a query
timeout to verify the flight recorder dumps a loadable bundle — exit 0
on success, 1 on any failure.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys

from .metrics import MetricsRegistry, format_series

_METRIC_NAME = r"[a-zA-Z_:][a-zA-Z0-9_:]*"
_LABELS = r"\{[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\"(,[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\")*\}"
_SAMPLE_RE = re.compile(
    rf"^({_METRIC_NAME})({_LABELS})?\s+(-?\d+(\.\d+)?([eE][+-]?\d+)?|\+Inf|NaN)$"
)
_TYPE_RE = re.compile(
    rf"^# TYPE ({_METRIC_NAME}) (counter|gauge|histogram)$"
)


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _bucket_label(upper: float) -> str:
    return "+Inf" if upper == math.inf else _format_value(upper)


#: Percentiles exported as the ``<name>_summary`` companion family.
SUMMARY_QUANTILES = (0.5, 0.95, 0.99)


def to_prometheus(registry: MetricsRegistry) -> str:
    """Render the registry in the Prometheus text exposition format.

    Each histogram family additionally exports a ``<name>_summary``
    gauge family with interpolated p50/p95/p99 estimates per series —
    a separate family (not extra samples of the histogram) so the
    exposition stays valid under the one-TYPE-per-family rule."""
    lines: list[str] = []
    for name, kind, children in registry.families():
        lines.append(f"# TYPE {name} {kind}")
        summary_lines: list[str] = []
        for key, metric in sorted(children.items()):
            if kind in ("counter", "gauge"):
                lines.append(
                    f"{format_series(name, key)} "
                    f"{_format_value(metric.value)}"
                )
                continue
            cumulative = metric.cumulative()
            uppers = list(metric.buckets) + [math.inf]
            for upper, count in zip(uppers, cumulative):
                bucket_key = key + (("le", _bucket_label(upper)),)
                bucket_key = tuple(sorted(bucket_key))
                lines.append(
                    f"{format_series(name + '_bucket', bucket_key)} "
                    f"{count}"
                )
            lines.append(
                f"{format_series(name + '_sum', key)} "
                f"{_format_value(metric.sum)}"
            )
            lines.append(
                f"{format_series(name + '_count', key)} {metric.count}"
            )
            for q in SUMMARY_QUANTILES:
                value = metric.quantile(q)
                if value is None:
                    continue
                q_key = key + (("quantile", _format_value(q)),)
                q_key = tuple(sorted(q_key))
                summary_lines.append(
                    f"{format_series(name + '_summary', q_key)} "
                    f"{_format_value(value)}"
                )
        if summary_lines:
            lines.append(f"# TYPE {name}_summary gauge")
            lines.extend(summary_lines)
    return "\n".join(lines) + ("\n" if lines else "")


def to_json(registry: MetricsRegistry, indent: int | None = 2) -> str:
    """The registry snapshot as a JSON document."""
    return json.dumps(registry.snapshot(), indent=indent, sort_keys=True)


def validate_exposition(text: str) -> list[str]:
    """Check a Prometheus text exposition: every line must be a comment,
    a ``# TYPE`` declaration, or a well-formed sample; each family gets
    exactly one TYPE line, declared before its samples; no series may
    repeat. Returns a list of problems (empty = valid)."""
    problems: list[str] = []
    declared: dict[str, str] = {}
    seen_series: set[str] = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            match = _TYPE_RE.match(line)
            if match is None:
                if line.startswith("# TYPE"):
                    problems.append(
                        f"line {lineno}: malformed TYPE line: {line!r}"
                    )
                continue  # other comments (HELP etc.) are fine
            name, kind = match.group(1), match.group(2)
            if name in declared:
                problems.append(
                    f"line {lineno}: duplicate TYPE for {name!r}"
                )
            declared[name] = kind
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            problems.append(f"line {lineno}: malformed sample: {line!r}")
            continue
        name = match.group(1)
        family = name
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix) and name[: -len(suffix)] in declared:
                family = name[: -len(suffix)]
                break
        if family not in declared:
            problems.append(
                f"line {lineno}: sample {name!r} has no TYPE declaration"
            )
        series = line.rsplit(" ", 1)[0]
        if series in seen_series:
            problems.append(
                f"line {lineno}: duplicate series {series!r}"
            )
        seen_series.add(series)
    return problems


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def run_tiny_workload():
    """A minimal session exercising every instrumented layer: DDL, DML,
    a join, ITERATE, k-Means, PageRank, a rollback, and a vacuum.
    Returns the session so callers can export ``db.metrics``."""
    from ..api.database import Database

    db = Database()
    db.execute("CREATE TABLE pts (x FLOAT, y FLOAT)")
    db.insert_rows(
        "pts",
        [(0.0, 0.0), (0.1, 0.2), (1.0, 1.1), (9.0, 9.1), (8.8, 9.3)],
    )
    db.execute("CREATE TABLE edges (src INTEGER, dest INTEGER)")
    db.insert_rows("edges", [(1, 2), (2, 3), (3, 1), (3, 4), (4, 1)])
    db.execute("SELECT count(*) FROM pts p, edges e WHERE e.src > p.x")
    db.execute(
        "SELECT * FROM ITERATE((SELECT 1 AS n),"
        " (SELECT n + 1 FROM iterate),"
        " (SELECT n FROM iterate WHERE n >= 4))"
    )
    db.execute(
        "SELECT * FROM KMEANS((SELECT x, y FROM pts),"
        " (SELECT x, y FROM pts LIMIT 2), 5)"
    )
    db.execute(
        "SELECT * FROM PAGERANK((SELECT src, dest FROM edges),"
        " 0.85, 0.000001, 20)"
    )
    db.execute("UPDATE pts SET x = x + 1 WHERE x < 1")
    db.execute("DELETE FROM edges WHERE src = 4")
    try:
        db.execute("SELECT * FROM no_such_table")
    except Exception:
        pass  # an error statement, so error counters are non-zero
    db.begin()
    db.execute("INSERT INTO pts VALUES (2.0, 2.0)")
    db.rollback()
    db.vacuum()
    return db


def _check_chrome_trace(db) -> list[str]:
    """Round-trip a Chrome-trace export of the workload's spans through
    ``json.loads`` plus the schema check."""
    from .timeline import export_chrome_trace, validate_chrome_trace

    text = export_chrome_trace(db.tracer)
    try:
        document = json.loads(text)
    except ValueError as exc:
        return [f"chrome trace is not valid JSON: {exc}"]
    problems = validate_chrome_trace(document)
    events = document.get("traceEvents", [])
    if not any(
        e.get("ph") == "X" and e.get("name") == "statement"
        for e in events
    ):
        problems.append("chrome trace has no statement span events")
    return problems


def _check_flight_recorder() -> list[str]:
    """Force a query timeout in a throwaway session and verify the
    flight recorder dumped a loadable bundle for it."""
    import os
    import tempfile

    from ..api.database import Database
    from ..errors import QueryTimeout
    from .flight import load_bundle

    with tempfile.TemporaryDirectory() as tmp:
        db = Database(timeout_ms=0.01, flight_dir=tmp)
        timed_out = False
        try:
            db.execute(
                "SELECT * FROM ITERATE((SELECT 1 AS n),"
                " (SELECT n + 1 FROM iterate),"
                " (SELECT n FROM iterate WHERE n >= 1000000))"
            )
        except QueryTimeout:
            timed_out = True
        if not timed_out:
            return ["forced timeout did not raise QueryTimeout"]
        bundles = [
            os.path.join(tmp, name)
            for name in os.listdir(tmp)
            if name.endswith(".json")
        ]
        if not bundles:
            return ["forced timeout produced no flight-recorder bundle"]
        try:
            bundle = load_bundle(bundles[-1])
        except (OSError, ValueError) as exc:
            return [f"flight-recorder bundle not loadable: {exc}"]
        if bundle.get("reason") != "timeout":
            return [
                f"bundle reason is {bundle.get('reason')!r}, "
                "expected 'timeout'"
            ]
        if not (bundle.get("governor") or {}).get("verdict") == "timeout":
            return ["bundle governor verdict is not 'timeout'"]
        if not db.history() or db.history()[-1].verdict != "timeout":
            return ["history did not record the timed-out statement"]
    return []


def run_check() -> int:
    """The ``make obs-smoke`` battery: Prometheus exposition, Chrome
    trace round trip, history store, flight recorder."""
    db = run_tiny_workload()
    text = to_prometheus(db.metrics)
    problems = validate_exposition(text)
    if not any("_summary" in line for line in text.splitlines()):
        problems.append("exposition has no quantile summary series")
    problems.extend(_check_chrome_trace(db))
    if not db.history():
        problems.append("history store recorded no statements")
    problems.extend(_check_flight_recorder())
    if problems:
        for problem in problems:
            print(problem, file=sys.stderr)
        print(
            f"FAIL: {len(problems)} problem(s)", file=sys.stderr
        )
        return 1
    n_series = sum(
        1 for line in text.splitlines()
        if line and not line.startswith("#")
    )
    print(
        f"observability smoke OK: {n_series} series, "
        f"{len(db.history(100))} history records, "
        "chrome trace + flight bundle round-trip clean"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.export",
        description=(
            "Run a tiny workload and export its engine metrics."
        ),
    )
    parser.add_argument(
        "--format", choices=("prometheus", "json"), default="prometheus",
        help="output format (default: prometheus)",
    )
    parser.add_argument(
        "--chrome-trace", metavar="PATH", default=None,
        help=(
            "write the workload's span trees as a Chrome-trace / "
            "Perfetto JSON timeline to PATH ('-' for stdout) instead "
            "of exporting metrics"
        ),
    )
    parser.add_argument(
        "--check", action="store_true",
        help=(
            "run the observability smoke battery (exposition parse, "
            "chrome-trace round trip, history store, flight-recorder "
            "bundle from a forced timeout); exit 1 on problems"
        ),
    )
    args = parser.parse_args(argv)

    if args.check:
        return run_check()
    db = run_tiny_workload()
    if args.chrome_trace is not None:
        from .timeline import export_chrome_trace

        path = (
            None if args.chrome_trace == "-" else args.chrome_trace
        )
        text = export_chrome_trace(db.tracer, path)
        if path is None:
            sys.stdout.write(text)
        else:
            events = len(json.loads(text).get("traceEvents", []))
            print(f"wrote {events} trace events to {path}")
        return 0
    if args.format == "json":
        print(to_json(db.metrics))
    else:
        sys.stdout.write(to_prometheus(db.metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
