"""Fuzzing CLI for the differential oracle.

Usage::

    python -m repro.testing.fuzz --seeds 1000
    python -m repro.testing.fuzz --seeds 1 --start 4242 -v

Each seed runs under its own drawn engine configuration
(:func:`repro.testing.oracle.draw_config`), so ``--seeds 1 --start S``
reproduces seed S exactly — configuration included. Exit status is 0
when every seed agrees, 1 when any divergence was found (minimized
reproducers are printed), 2 on bad arguments.
"""

from __future__ import annotations

import argparse
import sys
import time

from .oracle import DEFAULT_QUERIES_PER_SEED, run_seed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.testing.fuzz",
        description=(
            "Differential fuzzing of repro.Database: each seed's "
            "generated SQL runs on a sampled engine configuration, on "
            "the plain reference engine and on SQLite."
        ),
    )
    parser.add_argument(
        "--seeds", type=int, default=100,
        help="number of seeds to run (default: 100)",
    )
    parser.add_argument(
        "--start", type=int, default=0,
        help="first seed (default: 0)",
    )
    parser.add_argument(
        "--queries-per-seed", type=int, default=DEFAULT_QUERIES_PER_SEED,
        help="queries generated per seed (default: %(default)s)",
    )
    parser.add_argument(
        "--no-minimize", action="store_true",
        help="report raw reproducers without shrinking",
    )
    parser.add_argument(
        "-v", "--verbose", action="store_true",
        help="progress line every 50 seeds",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help=(
            "print a metrics snapshot after the run (queries run, "
            "divergences, rows compared, engine counters)"
        ),
    )
    args = parser.parse_args(argv)
    if args.seeds < 1 or args.queries_per_seed < 1:
        parser.print_usage(sys.stderr)
        return 2

    started = time.perf_counter()
    n_divergences = 0
    for offset in range(args.seeds):
        seed = args.start + offset
        divergences = run_seed(
            seed,
            queries_per_seed=args.queries_per_seed,
            minimize=not args.no_minimize,
        )
        for divergence in divergences:
            n_divergences += 1
            print(divergence.report())
            print()
        if args.verbose and (offset + 1) % 50 == 0:
            elapsed = time.perf_counter() - started
            print(
                f"... {offset + 1}/{args.seeds} seeds "
                f"({elapsed:.1f}s, {n_divergences} divergence(s))",
                file=sys.stderr,
            )

    elapsed = time.perf_counter() - started
    total = args.seeds * args.queries_per_seed
    if args.profile:
        _print_profile()
    if n_divergences:
        print(
            f"FAIL: {n_divergences} divergence(s) in {total} queries "
            f"across {args.seeds} seed(s) ({elapsed:.1f}s)"
        )
        return 1
    print(
        f"OK: {total} queries across {args.seeds} seed(s) agree with "
        f"the reference engine and SQLite ({elapsed:.1f}s)"
    )
    return 0


def _print_profile() -> None:
    """Summarize the run's metrics (fuzz counters first, then every
    engine counter the workload touched)."""
    from ..obs.metrics import global_registry

    snapshot = global_registry().snapshot()
    counters = snapshot["counters"]
    print("-- fuzz profile --")
    for name in (
        "fuzz_queries_total",
        "fuzz_divergences_total",
        "fuzz_rows_compared_total",
    ):
        print(f"{name} {counters.get(name, 0)}")
    for series, value in sorted(counters.items()):
        if not series.startswith("fuzz_"):
            print(f"{series} {value}")


if __name__ == "__main__":
    sys.exit(main())
