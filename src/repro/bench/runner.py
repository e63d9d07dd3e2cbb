"""Timing and reporting utilities for the benchmark harness."""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass
class BenchResult:
    """One measured point: a series (system) at one sweep value."""

    series: str
    x: object
    seconds: Optional[float]  # None = skipped (over the system's cap)
    note: str = ""


def measure(fn: Callable[[], object], repeat: int = 1) -> float:
    """Best-of-``repeat`` wall-clock seconds of ``fn()``."""
    best = float("inf")
    for _ in range(max(repeat, 1)):
        start = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best = elapsed
    return best


@dataclass
class SeriesTable:
    """Collects results and prints them as the paper's figures print:
    one row per sweep value, one column per system series.

    ``units`` overrides the per-series value suffix (default "s",
    seconds); use "" for plain counts (e.g. live-tuple columns)."""

    title: str
    xlabel: str
    series_names: list[str]
    results: list[BenchResult] = field(default_factory=list)
    units: dict = field(default_factory=dict)

    def add(self, result: BenchResult) -> None:
        self.results.append(result)

    def record(
        self, series: str, x: object, seconds: Optional[float],
        note: str = "",
    ) -> None:
        self.add(BenchResult(series, x, seconds, note))

    def x_values(self) -> list[object]:
        seen: list[object] = []
        for result in self.results:
            if result.x not in seen:
                seen.append(result.x)
        return seen

    def lookup(self, series: str, x: object) -> Optional[BenchResult]:
        for result in self.results:
            if result.series == series and result.x == x:
                return result
        return None

    def format(self) -> str:
        width = max(
            [len(self.xlabel)] + [len(str(x)) for x in self.x_values()]
        ) + 2
        col = max([12] + [len(s) + 2 for s in self.series_names])
        lines = [self.title, "=" * len(self.title)]
        header = self.xlabel.ljust(width) + "".join(
            name.rjust(col) for name in self.series_names
        )
        lines.append(header)
        lines.append("-" * len(header))
        for x in self.x_values():
            cells = []
            for name in self.series_names:
                result = self.lookup(name, x)
                if result is None or result.seconds is None:
                    cells.append("—".rjust(col))
                else:
                    unit = self.units.get(name, "s")
                    if unit == "":
                        cells.append(
                            f"{result.seconds:g}".rjust(col)
                        )
                    else:
                        cells.append(
                            f"{result.seconds:.4f}{unit}".rjust(col)
                        )
            lines.append(str(x).ljust(width) + "".join(cells))
        return "\n".join(lines)

    def print(self) -> None:
        print()
        print(self.format())
        print()

    def to_dict(self) -> dict:
        return {
            "title": self.title,
            "xlabel": self.xlabel,
            "results": [
                {
                    "series": r.series,
                    "x": str(r.x),
                    "seconds": r.seconds,
                    "note": r.note,
                }
                for r in self.results
            ],
        }


def write_bench_json(
    name: str,
    table: SeriesTable,
    directory: str = "results",
    metrics: Optional[dict] = None,
) -> str:
    """Write one experiment's measurements to
    ``<directory>/BENCH_<name>.json``, embedding a metrics snapshot of
    the engine counters the run produced; returns the path written."""
    from ..config import EngineConfig

    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"BENCH_{name}.json")
    payload = table.to_dict()
    payload["experiment"] = name
    payload["workers"] = EngineConfig.resolve().workers
    payload["metrics"] = metrics if metrics is not None else {}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
    return path
