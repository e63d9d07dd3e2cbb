"""Deterministic chaos-injection harness (docs/robustness.md).

A :class:`ChaosInjector` is a seeded, fire-once fault injector hooked
into the three places a statement can die mid-flight:

* ``on_checkpoint`` — the governor's cooperative checkpoint, called at
  every morsel / iteration-round boundary. Kinds ``operator_raise``
  (raise :class:`~repro.errors.InjectedFault` at the Nth checkpoint)
  and ``cancel`` (fire the statement's cancel token at the Nth
  checkpoint, surfacing as :class:`~repro.errors.QueryCancelled`).
* ``on_alloc`` — the governor's memory ledger. Kind ``alloc_fail``
  raises :class:`~repro.errors.MemoryBudgetExceeded` at the Nth
  reservation, simulating an allocation failure at a pipeline breaker.
* ``on_worker_task`` — the worker pool's task entry. Kind
  ``worker_crash`` raises :class:`~repro.errors.WorkerCrashError` on
  the Nth task that lands on a non-coordinator thread; the pool retries
  the morsel serially, so the statement *succeeds* and the injection
  proves the pool survives a crashed worker.

The seed fully determines (kind, Nth, database configuration), so a
failing seed replays exactly: ``python -m repro.testing.chaos --seeds 1
--start <seed>``.

:func:`run_chaos_seed` is the oracle: it runs a statement battery
covering the streaming and pool-dispatched scan, ITERATE,
recursive-CTE and analytics paths against a chaos-armed *subject*
database, mirrors every *successful* statement onto an untouched
*twin*, and requires

1. every statement to either succeed (matching the twin's rows) or fail
   with a typed governor error, and
2. after the injected fault, a differential probe suite (including a
   plan-cached re-run) to answer identically on subject and twin, with
   no transaction left open — statement atomicity.

Enable engine-wide via ``REPRO_CHAOS=<seed>`` (or ``<kind>:<nth>``) or
per-database via ``Database(chaos=ChaosInjector(...))``; the fuzzer's
configuration draw (:mod:`repro.testing.oracle`) arms a fresh injector,
seeded from the fuzz seed, on about half of its seeds.
"""

from __future__ import annotations

import argparse
import random
import sys
import threading
import time
from typing import Optional

from ..errors import (
    InjectedFault,
    MemoryBudgetExceeded,
    ResourceGovernorError,
    WorkerCrashError,
)

#: The injectable fault kinds, in the order the seed RNG draws from.
KINDS = ("operator_raise", "cancel", "alloc_fail", "worker_crash")

#: Per-kind range for the Nth call that fires, sized to the number of
#: hook calls the battery actually makes on that path.
_NTH_RANGES = {
    "operator_raise": (1, 20),
    "cancel": (1, 20),
    "alloc_fail": (1, 6),
    "worker_crash": (1, 8),
}


class ChaosInjector:
    """Seeded, fire-once fault injection.

    The injector starts *disarmed* so databases can be populated
    fault-free; :meth:`arm` turns the hooks live. All counters are
    lock-protected (checkpoints run on worker threads too), and the
    fire decision happens under the same lock so exactly one call
    fires.
    """

    def __init__(self, kind: str, nth: int, seed: Optional[int] = None):
        if kind not in KINDS:
            raise ValueError(f"unknown chaos kind {kind!r}")
        self.kind = kind
        self.nth = max(1, int(nth))
        self.seed = seed
        self.armed = False
        self.fired = False
        self.fired_at: Optional[str] = None
        self._lock = threading.Lock()
        self._checkpoint_calls = 0
        self._alloc_calls = 0
        self._worker_calls = 0

    def __repr__(self) -> str:
        return (
            f"ChaosInjector(kind={self.kind!r}, nth={self.nth}, "
            f"seed={self.seed}, fired={self.fired})"
        )

    @classmethod
    def from_seed(cls, seed: int) -> "ChaosInjector":
        rng = random.Random(int(seed))
        kind = rng.choice(KINDS)
        lo, hi = _NTH_RANGES[kind]
        return cls(kind, rng.randint(lo, hi), seed=int(seed))

    @classmethod
    def from_spec(cls, spec: str) -> "ChaosInjector":
        """An injector from its text form (what ``REPRO_CHAOS`` and
        ``EngineConfig.chaos`` hold): a numeric seed (``17``) or an
        explicit ``kind:nth`` pair (``cancel:3``)."""
        kind, pair, nth = str(spec).partition(":")
        try:
            if pair:
                return cls(kind.strip(), int(nth))
            return cls.from_seed(int(kind))
        except ValueError as exc:
            raise ValueError(
                f"expected a seed or kind:nth, got {spec!r} ({exc})"
            ) from None

    @property
    def spec(self) -> str:
        """The text :meth:`from_spec` rebuilds this injector from."""
        return f"{self.kind}:{self.nth}"

    def arm(self) -> "ChaosInjector":
        self.armed = True
        return self

    def _take_shot(self, counter: str) -> bool:
        """Increment ``counter`` and decide, atomically, whether this
        call is the one that fires."""
        with self._lock:
            if self.fired:
                return False
            count = getattr(self, counter) + 1
            setattr(self, counter, count)
            if count < self.nth:
                return False
            self.fired = True
            return True

    # -- hooks (called from governor / worker pool) ----------------------

    def on_checkpoint(self, governor, where: str) -> None:
        if not self.armed or self.kind not in ("operator_raise", "cancel"):
            return
        if not self._take_shot("_checkpoint_calls"):
            return
        self.fired_at = where
        if self.kind == "cancel":
            # The enclosing check() observes the token immediately and
            # raises QueryCancelled — a cancel landing mid-round.
            governor.cancel_token.cancel()
            return
        raise governor._fail(
            "injected_fault",
            InjectedFault(
                f"chaos: injected fault at checkpoint {where!r} "
                f"(seed={self.seed}, nth={self.nth})"
            ),
        )

    def on_alloc(self, governor, nbytes: int, where: str) -> None:
        if not self.armed or self.kind != "alloc_fail":
            return
        if not self._take_shot("_alloc_calls"):
            return
        self.fired_at = where
        raise governor._fail(
            "oom",
            MemoryBudgetExceeded(
                f"chaos: injected allocation failure of {nbytes} bytes "
                f"at {where!r} (seed={self.seed}, nth={self.nth})"
            ),
        )

    def on_worker_task(self, worker_id: int) -> None:
        if not self.armed or self.kind != "worker_crash":
            return
        # Only crash genuine worker threads: the serial retry on the
        # coordinator must succeed, proving the pool survives.
        if worker_id == 0:
            return
        if not self._take_shot("_worker_calls"):
            return
        # Which pool thread picks up the Nth task is scheduling noise;
        # keep fired_at seed-deterministic (the error message carries
        # the id for debugging).
        self.fired_at = "worker_task"
        raise WorkerCrashError(
            f"chaos: injected crash on worker {worker_id} "
            f"(seed={self.seed}, nth={self.nth})"
        )


# ---------------------------------------------------------------------------
# The chaos oracle
# ---------------------------------------------------------------------------

#: The probe suite run on subject and twin after the battery; results
#: must match exactly (the subject's fault must leave no trace).
PROBES = (
    ("SELECT count(*), sum(amount) FROM sales", False),
    ("SELECT region, count(*) FROM sales GROUP BY region "
     "ORDER BY region", True),
    ("SELECT count(*) FROM regions", False),
    ("SELECT vertex, rank FROM PAGERANK((SELECT src, dst FROM edges), "
     "0.85, 0.000001) ORDER BY vertex", True),
    ("SELECT s.id, r.name FROM sales s JOIN regions r "
     "ON s.region = r.id ORDER BY s.id LIMIT 10", True),
)


def _battery(seed_rng: random.Random) -> list[tuple[str, bool]]:
    """The (sql, ordered) statements thrown at the subject, covering
    the streaming and pool-dispatched scan, ITERATE, recursive-CTE and
    analytics execution paths. Order is seed-shuffled so the Nth hook
    call lands in a different operator per seed."""
    statements = [
        # scan-filter-project pipelines
        ("SELECT id, amount * 2 FROM sales WHERE amount > 10 "
         "ORDER BY id LIMIT 50", True),
        ("SELECT region, count(*), sum(amount) FROM sales "
         "GROUP BY region ORDER BY region", True),
        # join + sort
        ("SELECT s.id, r.name FROM sales s JOIN regions r "
         "ON s.region = r.id ORDER BY s.id LIMIT 20", True),
        # window
        ("SELECT id, sum(amount) OVER (PARTITION BY region ORDER BY id) "
         "FROM sales ORDER BY id LIMIT 20", True),
        # set op + distinct
        ("SELECT region FROM sales UNION SELECT id FROM regions", False),
        # ITERATE (paper section 5.1)
        ("SELECT * FROM ITERATE((SELECT 1 AS x),"
         " (SELECT x + 1 FROM iterate),"
         " (SELECT x FROM iterate WHERE x >= 12))", False),
        # recursive CTE
        ("WITH RECURSIVE t(n) AS (SELECT 1 UNION ALL "
         "SELECT n + 1 FROM t WHERE n < 15) SELECT sum(n) FROM t",
         False),
        # analytics: PageRank over the edge table
        ("SELECT vertex, rank FROM PAGERANK("
         "(SELECT src, dst FROM edges), 0.85, 0.000001) "
         "ORDER BY vertex", True),
        # DML mid-battery: atomicity under faults
        ("UPDATE sales SET amount = amount + 1 WHERE id < 40", False),
        ("INSERT INTO sales SELECT id + 1000, region, amount "
         "FROM sales WHERE id < 20", False),
        ("DELETE FROM sales WHERE id >= 1000", False),
    ]
    seed_rng.shuffle(statements)
    return statements


def _populate(db) -> None:
    rng = random.Random(97)
    db.execute(
        "CREATE TABLE sales (id INTEGER, region INTEGER, amount INTEGER)"
    )
    db.execute("CREATE TABLE regions (id INTEGER, name VARCHAR)")
    db.execute("CREATE TABLE edges (src INTEGER, dst INTEGER)")
    db.insert_rows(
        "sales",
        [(i, i % 7, rng.randint(0, 500)) for i in range(300)],
    )
    db.insert_rows("regions", [(i, f"region-{i}") for i in range(7)])
    db.insert_rows(
        "edges",
        [
            (rng.randint(0, 60), rng.randint(0, 60))
            for _ in range(400)
        ],
    )


def _build_pair(
    seed: int, injector: "ChaosInjector", flight_dir: Optional[str] = None
):
    """(subject, twin) databases with identical data; the subject
    carries the (still disarmed) injector. Worker-crash seeds force a
    parallel pool; other kinds draw the worker count from the seed so
    the battery covers serial and parallel dispatch. ``flight_dir``
    points both sessions' flight recorders at a scratch directory so
    the oracle can assert every injected abort leaves a bundle."""
    from ..api.database import Database

    rng = random.Random(seed ^ 0x9E3779B9)
    if injector.kind == "worker_crash":
        workers = 2
    else:
        workers = rng.choice((1, 1, 2))
    config = dict(
        workers=workers,
        parallel_threshold=0 if workers > 1 else None,
        morsel_rows=64,
        profile_operators=False,
        flight_dir=flight_dir,
    )
    config = {k: v for k, v in config.items() if v is not None}
    subject = Database(chaos=injector, **config)
    twin = Database(**config)
    _populate(subject)
    _populate(twin)
    return subject, twin, rng


def _check_flight_bundle(subject, bundles_seen: int, what: str) -> list[str]:
    """Assert the subject's flight recorder wrote one more loadable
    bundle than ``bundles_seen`` — part of the engine's failure
    contract: every injected abort must leave a post-mortem behind."""
    from ..obs.flight import load_bundle

    if subject.flight.bundles_written <= bundles_seen:
        return [f"no flight-recorder bundle for {what}"]
    try:
        load_bundle(subject.flight.last_bundle_path)
    except (OSError, ValueError) as exc:
        return [f"flight bundle for {what} not loadable: {exc}"]
    return []


def run_chaos_seed(seed: int) -> dict:
    """Run one seeded injection and its oracle.

    Returns a dict with ``seed``, ``kind``, ``nth``, ``fired`` and a
    (hopefully empty) ``failures`` list of oracle violations."""
    import tempfile

    from .oracle import normalize_rows, rows_equal

    injector = ChaosInjector.from_seed(seed)
    flight_tmp = tempfile.TemporaryDirectory(prefix="repro-chaos-flight-")
    subject, twin, rng = _build_pair(seed, injector, flight_tmp.name)
    failures: list[str] = []
    faults: list[str] = []
    bundles_seen = 0
    try:
        injector.arm()
        for sql, ordered in _battery(rng):
            try:
                subject_rows = normalize_rows(
                    subject.execute(sql).rows, ordered
                )
            except (ResourceGovernorError, InjectedFault) as exc:
                # Typed governor family: the expected way to die. The
                # flight recorder must have dumped a loadable bundle.
                faults.append(f"{type(exc).__name__}: {sql[:60]}")
                failures.extend(
                    _check_flight_bundle(
                        subject, bundles_seen,
                        f"{type(exc).__name__} on {sql[:60]!r}",
                    )
                )
                bundles_seen = subject.flight.bundles_written
                continue
            except Exception as exc:  # noqa: BLE001 — oracle verdict
                failures.append(
                    f"untyped error from {sql!r}: "
                    f"{type(exc).__name__}: {exc}"
                )
                continue
            # Success: mirror onto the twin; rows must agree.
            twin_rows = normalize_rows(twin.execute(sql).rows, ordered)
            if not rows_equal(subject_rows, twin_rows, ordered):
                failures.append(
                    f"result divergence on {sql!r}: "
                    f"{len(subject_rows)} vs {len(twin_rows)} row(s)"
                )
        injector.armed = False
        if injector.fired and injector.kind == "worker_crash":
            # The statement *succeeded* (serial retry), so the dump on
            # the survived crash is the only evidence it happened.
            failures.extend(
                _check_flight_bundle(
                    subject, 0, "survived worker crash"
                )
            )

        # -- post-fault oracle: subject must answer like the twin ----
        if subject.in_transaction:
            failures.append("subject left with an open transaction")
        for sql, ordered in PROBES:
            try:
                subject_rows = normalize_rows(
                    subject.execute(sql).rows, ordered
                )
                twin_rows = normalize_rows(
                    twin.execute(sql).rows, ordered
                )
            except Exception as exc:  # noqa: BLE001 — oracle verdict
                failures.append(
                    f"probe raised {type(exc).__name__} on {sql!r}: "
                    f"{exc}"
                )
                continue
            if not rows_equal(subject_rows, twin_rows, ordered):
                failures.append(
                    f"probe divergence on {sql!r}: "
                    f"{len(subject_rows)} vs {len(twin_rows)} row(s)"
                )
        # Plan-cache consistency: a cached re-run of the first probe
        # must match its own first answer.
        sql, ordered = PROBES[0]
        first = normalize_rows(subject.execute(sql).rows, ordered)
        second = normalize_rows(subject.execute(sql).rows, ordered)
        if first != second:
            failures.append("cached re-run diverged from cold run")
    finally:
        subject.close()
        twin.close()
        flight_tmp.cleanup()
    return {
        "seed": seed,
        "kind": injector.kind,
        "nth": injector.nth,
        "fired": injector.fired,
        "fired_at": injector.fired_at,
        "faults": faults,
        "failures": failures,
    }


def run_chaos_battery(
    seeds: int, start: int = 1, verbose: bool = False
) -> dict:
    """Run ``seeds`` consecutive seeded injections; returns a summary
    with total ``fired`` count and all oracle ``failures``."""
    fired = 0
    failures: list[str] = []
    per_kind: dict[str, int] = {k: 0 for k in KINDS}
    started = time.perf_counter()
    for offset in range(seeds):
        seed = start + offset
        result = run_chaos_seed(seed)
        if result["fired"]:
            fired += 1
            per_kind[result["kind"]] += 1
        for failure in result["failures"]:
            failures.append(f"seed {seed}: {failure}")
        if verbose and (offset + 1) % 50 == 0:
            elapsed = time.perf_counter() - started
            print(
                f"... {offset + 1}/{seeds} seeds "
                f"({fired} fired, {len(failures)} failure(s), "
                f"{elapsed:.1f}s)",
                file=sys.stderr,
            )
    return {
        "seeds": seeds,
        "fired": fired,
        "per_kind": per_kind,
        "failures": failures,
        "elapsed_s": time.perf_counter() - started,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.testing.chaos",
        description=(
            "Seeded chaos injection against repro.Database with a "
            "differential-twin oracle."
        ),
    )
    parser.add_argument(
        "--seeds", type=int, default=100,
        help="number of seeds to run (default: 100)",
    )
    parser.add_argument(
        "--start", type=int, default=1,
        help="first seed (default: 1)",
    )
    parser.add_argument(
        "-v", "--verbose", action="store_true",
        help="progress line every 50 seeds",
    )
    args = parser.parse_args(argv)
    if args.seeds < 1:
        parser.print_usage(sys.stderr)
        return 2

    summary = run_chaos_battery(
        args.seeds, start=args.start, verbose=args.verbose
    )
    for failure in summary["failures"]:
        print(f"FAILURE: {failure}")
    kinds = ", ".join(
        f"{kind}={count}" for kind, count in summary["per_kind"].items()
    )
    status = "FAIL" if summary["failures"] else "OK"
    print(
        f"{status}: {summary['fired']}/{summary['seeds']} seeds fired "
        f"({kinds}); {len(summary['failures'])} oracle failure(s) "
        f"({summary['elapsed_s']:.1f}s)"
    )
    return 1 if summary["failures"] else 0


if __name__ == "__main__":
    sys.exit(main())
