"""Render flight-recorder bundles: ``python -m repro.obs.dump``.

With no arguments, renders the newest bundle under the resolved
flight-recorder directory (``REPRO_FLIGHTREC`` or
``results/flightrec``); with paths, renders each in turn. ``--list``
enumerates available bundles instead.
"""

from __future__ import annotations

import argparse
import os
import sys

from ..config import EngineConfig
from .flight import format_bundle, load_bundle


def _bundles_in(directory: str) -> list[str]:
    try:
        names = sorted(
            n
            for n in os.listdir(directory)
            if n.startswith("flightrec-") and n.endswith(".json")
        )
    except OSError:
        return []
    return [os.path.join(directory, n) for n in names]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.dump",
        description="Render flight-recorder bundles.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="bundle files to render (default: newest in the "
        "flight-recorder directory)",
    )
    parser.add_argument(
        "--dir",
        default=None,
        help="bundle directory (default: REPRO_FLIGHTREC or "
        "results/flightrec)",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        help="list available bundles instead of rendering",
    )
    args = parser.parse_args(argv)

    directory = EngineConfig.resolve(flight_dir=args.dir).flight_dir
    if args.list:
        bundles = _bundles_in(directory)
        if not bundles:
            print(f"no bundles under {directory}")
            return 1
        for path in bundles:
            print(path)
        return 0

    paths = args.paths
    if not paths:
        bundles = _bundles_in(directory)
        if not bundles:
            print(f"no bundles under {directory}", file=sys.stderr)
            return 1
        paths = bundles[-1:]

    status = 0
    for i, path in enumerate(paths):
        if i:
            print()
        try:
            bundle = load_bundle(path)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            status = 1
            continue
        print(f"== {path}")
        print(format_bundle(bundle))
    return status


if __name__ == "__main__":
    raise SystemExit(main())
