"""Kill-point crash-recovery battery (docs/durability.md).

Proves the durability contract — *every acknowledged commit survives a
crash, and recovery always lands on a prefix-consistent committed
state* — by actually crashing processes:

1. A **driver** subprocess (``--driver``) replays a seeded,
   deterministic DML workload against a durable
   :class:`repro.Database` and journals one JSON line to stdout per
   *acknowledged* commit (``{"i": k, "wal_bytes": n}``), flushed
   before the next statement starts.
2. The harness injects one seeded fault per run:

   - ``kill_at_bytes`` — the child SIGKILLs itself mid-append the
     moment the WAL crosses a random byte count
     (``REPRO_WAL_KILL_AT_BYTES``), leaving a genuinely torn frame;
   - ``kill_after_ack`` — the harness SIGKILLs the child at a random
     acknowledged-commit count, mid-statement-stream;
   - ``torn_truncate`` — after a kill, the log is truncated at a
     random offset **at or past the acknowledged prefix** (simulating
     an unfsynced tail vanishing — fsync means bytes *before* the last
     ack can never be torn);
   - ``fsync_fail`` — the Nth commit fsync raises
     (``REPRO_WAL_FSYNC_FAIL``); the driver verifies the log poisons
     itself (further commits refuse) and exits without acknowledging;
   - ``corrupt_flip`` — a random byte of the completed log is
     bit-flipped (detection test: bit rot, not a crash);
   - ``corrupt_snapshot`` — a checkpoint is forced and a random byte
     of the ``.ckpt`` is flipped (recovery must *fail typed*, never
     silently serve partial data).

3. The harness recovers the survivor and diffs its full state against
   a twin that replayed only a prefix of the workload: the recovered
   state must equal ``prefix[K]`` for some ``K >= acknowledged`` (kill
   faults) — unacknowledged trailing commits may survive, acknowledged
   ones must. Corruption faults are detection-only: any prefix is
   acceptable, but data loss must be *signalled* (discard counters in
   ``db.last_recovery``, or a typed ``WalCorruptionError`` whose
   recovery failure leaves a loadable flight-recorder bundle).
4. Every recovered database must still be writable-and-durable: a
   probe table is committed, the database reopened, and the probe row
   checked.

Usage::

    python -m repro.testing.crash --seeds 200
    python -m repro.testing.crash --seeds 1 --start 17 -v

Exit status 0 when every seed upholds the contract, 1 otherwise.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import random
import signal
import subprocess
import sys
import tempfile
import time

WORDS = (
    "alpha", "bravo", "china", "delta", "echo", "fox",
    "golf", "hotel", "india", "jazz", "kilo", "lima",
)

FAULT_KINDS = (
    "kill_at_bytes",
    "kill_after_ack",
    "torn_truncate",
    "fsync_fail",
    "corrupt_flip",
    "corrupt_snapshot",
)

#: Fault kinds whose workload may include explicit CHECKPOINT ops
#: (byte-offset faults need a monotonically growing log to stay
#: meaningful, so they exclude them).
_CHECKPOINT_OK = ("kill_after_ack", "fsync_fail", "corrupt_snapshot")


# ---------------------------------------------------------------------------
# deterministic workload (shared by driver, harness reference, and twin)
# ---------------------------------------------------------------------------


def build_workload(seed: int, allow_checkpoints: bool) -> list[dict]:
    """The seed's operation list — pure function of its arguments, so
    the driver subprocess and the harness twin derive the same one."""
    rng = random.Random(seed)
    ops: list[dict] = []
    tables = [f"t{i}" for i in range(rng.choice((1, 2)))]
    for name in tables:
        ops.append({"kind": "create", "table": name})
    next_id = {name: 0 for name in tables}

    def fresh_rows(name: str, n: int) -> list[list]:
        rows = []
        for _ in range(n):
            i = next_id[name]
            next_id[name] += 1
            rows.append([i, rng.choice(WORDS), rng.randint(0, 100)])
        return rows

    for _ in range(rng.randint(10, 22)):
        name = rng.choice(tables)
        roll = rng.random()
        if roll < 0.55 or next_id[name] == 0:
            ops.append(
                {
                    "kind": "insert",
                    "table": name,
                    "rows": fresh_rows(name, rng.randint(1, 5)),
                }
            )
        elif roll < 0.75:
            ops.append(
                {
                    "kind": "update",
                    "table": name,
                    "cut": rng.randint(0, 100),
                    "word": rng.choice(WORDS),
                }
            )
        elif roll < 0.90:
            ops.append(
                {"kind": "delete", "table": name, "cut": rng.randint(0, 100)}
            )
        elif allow_checkpoints:
            ops.append({"kind": "checkpoint"})
        else:
            ops.append(
                {"kind": "insert", "table": name, "rows": fresh_rows(name, 1)}
            )
    return ops


def apply_op(db, op: dict, durable: bool) -> None:
    """Apply one workload operation (one autocommitted transaction)."""
    kind = op["kind"]
    if kind == "create":
        db.execute(
            f"CREATE TABLE {op['table']} "
            "(id INTEGER, word VARCHAR, score INTEGER)"
        )
    elif kind == "insert":
        db.insert_rows(op["table"], [tuple(r) for r in op["rows"]])
    elif kind == "update":
        db.execute(
            f"UPDATE {op['table']} SET word = '{op['word']}' "
            f"WHERE score < {op['cut']}"
        )
    elif kind == "delete":
        db.execute(
            f"DELETE FROM {op['table']} WHERE score > {op['cut']}"
        )
    elif kind == "checkpoint":
        if durable:
            db.checkpoint()
    else:  # pragma: no cover - workload generator and apply_op co-evolve
        raise ValueError(f"unknown workload op {kind!r}")


def dump_state(db) -> dict:
    """Full committed state as ``{table: sorted rows}`` (JSON-stable)."""
    out = {}
    for name in db.catalog.table_names():
        rows = [list(r) for r in db.catalog.data(name).rows()]
        out[name] = sorted(rows, key=repr)
    return out


# ---------------------------------------------------------------------------
# driver (the process that gets crashed)
# ---------------------------------------------------------------------------


def run_driver(seed: int, wal_path: str, allow_checkpoints: bool) -> int:
    import repro
    from repro.errors import TransactionError

    ops = build_workload(seed, allow_checkpoints)
    db = repro.Database(wal_path=wal_path, workers=1)
    for i, op in enumerate(ops):
        try:
            apply_op(db, op, durable=True)
        except TransactionError as exc:
            # A failed commit fsync must poison the log: later commits
            # have to refuse rather than ack on an unknowable prefix.
            # The probe commit must not depend on any workload table —
            # the failed commit may have been the CREATE TABLE itself.
            try:
                db.execute("CREATE TABLE poison_probe (id INTEGER)")
                poison_ok = False
            except TransactionError:
                poison_ok = True
            print(
                json.dumps(
                    {"panic": str(exc), "i": i, "poison_ok": poison_ok}
                ),
                flush=True,
            )
            return 3
        # The commit was acknowledged: journal it *after* it is durable.
        print(
            json.dumps({"i": i, "wal_bytes": db.txns.wal.size_bytes()}),
            flush=True,
        )
    print(json.dumps({"done": True}), flush=True)
    return 0


# ---------------------------------------------------------------------------
# harness
# ---------------------------------------------------------------------------


def _spawn_driver(
    seed: int,
    wal_path: str,
    allow_checkpoints: bool,
    encoding: str,
    extra_env: dict,
) -> subprocess.Popen:
    src_dir = os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    )
    env = {
        k: v
        for k, v in os.environ.items()
        if not k.startswith("REPRO_")
    }
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    env["REPRO_ENCODING"] = encoding
    env["REPRO_WORKERS"] = "1"
    env.update(extra_env)
    argv = [
        sys.executable, "-m", "repro.testing.crash",
        "--driver", "--seed", str(seed), "--wal", wal_path,
    ]
    if allow_checkpoints:
        argv.append("--allow-checkpoints")
    return subprocess.Popen(
        argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True,
    )


def _read_acks(proc, kill_after: int | None = None) -> tuple[list[dict], dict | None]:
    """Drain the driver's journal; optionally SIGKILL it after the
    ``kill_after``-th acknowledgement. Returns (acks, panic)."""
    acks: list[dict] = []
    panic = None
    while True:
        line = proc.stdout.readline()
        if not line:
            break
        try:
            entry = json.loads(line)
        except json.JSONDecodeError:
            continue
        if "panic" in entry:
            panic = entry
            continue
        if "done" in entry:
            continue
        acks.append(entry)
        if kill_after is not None and len(acks) >= kill_after:
            try:
                os.kill(proc.pid, signal.SIGKILL)
            except OSError:
                pass
            # Keep draining: acks already flushed stay valid.
            kill_after = None
    proc.wait(timeout=60)
    return acks, panic


def _flip_byte(path: str, offset: int) -> None:
    with open(path, "r+b") as handle:
        handle.seek(offset)
        byte = handle.read(1)
        handle.seek(offset)
        handle.write(bytes((byte[0] ^ 0x40,)))


def _loadable_bundles(flight_dir: str) -> int:
    """How many loadable flight bundles ``flight_dir`` holds; -1 when a
    bundle exists but does not validate."""
    from ..obs.flight import load_bundle

    paths = sorted(glob.glob(os.path.join(flight_dir, "*.json")))
    for path in paths:
        try:
            load_bundle(path)
        except (OSError, ValueError):
            return -1
    return len(paths)


def run_crash_seed(seed: int, verbose: bool = False) -> list[str]:
    """Run one seeded crash scenario end to end; returns failure
    descriptions (empty = contract upheld)."""
    import repro
    from repro.errors import WalCorruptionError
    from repro.txn.wal import describe

    failures: list[str] = []
    rng = random.Random(seed * 7919 + 13)
    kind = FAULT_KINDS[rng.randrange(len(FAULT_KINDS))]
    recovery = rng.choice(("tolerant", "tolerant", "strict"))
    encoding = rng.choice(("auto", "raw"))
    allow_ckpt = kind in _CHECKPOINT_OK and rng.random() < 0.5
    ops = build_workload(seed, allow_ckpt)
    label = f"seed {seed} [{kind}, {recovery}, {encoding}]"

    with tempfile.TemporaryDirectory(prefix="repro-crash-") as tmp:
        # Reference run: per-prefix states plus per-op WAL byte counts.
        ref_wal = os.path.join(tmp, "ref", "db.wal")
        os.makedirs(os.path.dirname(ref_wal))
        ref = repro.Database(wal_path=ref_wal, workers=1, encoding=encoding)
        states = [dump_state(ref)]
        ref_bytes = []
        for op in ops:
            apply_op(ref, op, durable=True)
            states.append(dump_state(ref))
            ref_bytes.append(ref.txns.wal.size_bytes())
        ref.close()

        wal_path = os.path.join(tmp, "subject", "db.wal")
        os.makedirs(os.path.dirname(wal_path))
        extra_env = {}
        kill_after = None
        if kind == "kill_at_bytes":
            extra_env["REPRO_WAL_KILL_AT_BYTES"] = str(
                rng.randint(9, max(10, ref_bytes[-1] + 64))
            )
        elif kind == "fsync_fail":
            extra_env["REPRO_WAL_FSYNC_FAIL"] = str(
                rng.randint(1, len(ops))
            )
        elif kind in ("kill_after_ack", "torn_truncate"):
            kill_after = rng.randint(1, max(1, len(ops) - 1))
        elif kind == "corrupt_snapshot":
            # Guarantee a snapshot exists by checkpointing eagerly.
            extra_env["REPRO_CHECKPOINT_BYTES"] = "64"

        proc = _spawn_driver(seed, wal_path, allow_ckpt, encoding, extra_env)
        acks, panic = _read_acks(proc, kill_after=kill_after)
        acked = len(acks)

        if kind == "fsync_fail":
            if panic is None and proc.returncode == 0:
                # The injected fsync landed on a checkpoint-rewrite or
                # never fired: nothing to check beyond a clean run.
                pass
            elif panic is None:
                failures.append(f"{label}: driver died without a panic")
            elif not panic.get("poison_ok"):
                failures.append(
                    f"{label}: WAL accepted a commit after a failed fsync"
                )

        # Inject the post-mortem faults.
        if kind == "torn_truncate" and os.path.exists(wal_path):
            size = os.path.getsize(wal_path)
            floor = acks[-1]["wal_bytes"] if acks else 8
            if floor <= size:
                os.truncate(wal_path, rng.randint(floor, size))
        elif kind == "corrupt_flip" and os.path.exists(wal_path):
            size = os.path.getsize(wal_path)
            if size > 9:
                _flip_byte(wal_path, rng.randint(8, size - 1))
        elif kind == "corrupt_snapshot":
            snap = wal_path + ".ckpt"
            if not os.path.exists(snap):
                failures.append(f"{label}: forced checkpoint never fired")
                return failures
            size = os.path.getsize(snap)
            _flip_byte(snap, rng.randint(9, size - 1))

        # Recover and judge.
        flight_dir = os.path.join(tmp, "flightrec")
        corrupt_fault = kind in ("corrupt_flip", "corrupt_snapshot")
        db = None
        try:
            db = repro.Database(
                wal_path=wal_path, workers=1, encoding=encoding,
                recovery=recovery, flight_dir=flight_dir,
            )
        except WalCorruptionError:
            if not corrupt_fault:
                failures.append(
                    f"{label}: WalCorruptionError without injected "
                    "corruption"
                )
            bundles = _loadable_bundles(flight_dir)
            if bundles <= 0:
                failures.append(
                    f"{label}: recovery failure left no loadable "
                    f"flight bundle ({bundles})"
                )
            return failures
        except Exception as exc:  # noqa: BLE001 — contract verdict
            failures.append(
                f"{label}: recovery died untyped: "
                f"{type(exc).__name__}: {exc}"
            )
            return failures

        state = dump_state(db)
        floor_k = 0 if corrupt_fault else acked
        match = next(
            (
                k
                for k in range(floor_k, len(states))
                if states[k] == state
            ),
            None,
        )
        if match is None:
            failures.append(
                f"{label}: recovered state is not prefix-consistent "
                f"(acked {acked}/{len(ops)}); "
                f"last_recovery={db.last_recovery}; log:\n  "
                + "\n  ".join(describe(wal_path))
            )
        elif corrupt_fault and match < len(ops) and kind == "corrupt_flip":
            # Data went missing: it must have been *signalled*.
            rec = db.last_recovery
            if not (
                rec["records_discarded"]
                or rec["bytes_discarded"]
                or rec["torn_bytes"]
            ):
                failures.append(
                    f"{label}: corruption dropped commits silently: "
                    f"{rec}"
                )

        # The survivor must still be writable — and durably so.
        try:
            db.execute("CREATE TABLE probe (id INTEGER)")
            db.insert_rows("probe", [(seed,)])
            db.close()
            db2 = repro.Database(
                wal_path=wal_path, workers=1, encoding=encoding,
                recovery=recovery, flight_dir=flight_dir,
            )
            rows = db2.execute("SELECT id FROM probe").rows
            if rows != [(seed,)]:
                failures.append(
                    f"{label}: post-recovery commit lost on reopen "
                    f"({rows!r})"
                )
            db2.close()
        except Exception as exc:  # noqa: BLE001 — contract verdict
            failures.append(
                f"{label}: survivor unusable: "
                f"{type(exc).__name__}: {exc}"
            )
        if verbose and not failures:
            print(
                f"  {label}: ok (acked {acked}/{len(ops)}, "
                f"prefix {match})",
                file=sys.stderr,
            )
    return failures


def run_crash_battery(
    seeds: int, start: int = 0, jobs: int = 1, verbose: bool = False
) -> list[str]:
    """Run ``seeds`` scenarios (optionally ``jobs``-wide — each seed is
    fully independent); returns all failures."""
    failures: list[str] = []
    if jobs <= 1:
        for offset in range(seeds):
            failures.extend(run_crash_seed(start + offset, verbose))
        return failures
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=jobs) as pool:
        for result in pool.map(
            lambda s: run_crash_seed(s, verbose),
            range(start, start + seeds),
        ):
            failures.extend(result)
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.testing.crash",
        description="Kill-point crash-recovery battery.",
    )
    parser.add_argument(
        "--seeds", type=int, default=50,
        help="number of scenarios to run (default: 50)",
    )
    parser.add_argument(
        "--start", type=int, default=0, help="first seed (default: 0)"
    )
    parser.add_argument(
        "--jobs", type=int, default=4,
        help="concurrent scenarios (default: 4)",
    )
    parser.add_argument(
        "-v", "--verbose", action="store_true",
        help="one line per passing seed",
    )
    parser.add_argument(
        "--driver", action="store_true", help=argparse.SUPPRESS
    )
    parser.add_argument("--seed", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--wal", help=argparse.SUPPRESS)
    parser.add_argument(
        "--allow-checkpoints", action="store_true", help=argparse.SUPPRESS
    )
    args = parser.parse_args(argv)

    if args.driver:
        if args.seed is None or not args.wal:
            parser.print_usage(sys.stderr)
            return 2
        return run_driver(args.seed, args.wal, args.allow_checkpoints)

    if args.seeds < 1 or args.jobs < 1:
        parser.print_usage(sys.stderr)
        return 2
    started = time.perf_counter()
    failures = run_crash_battery(
        args.seeds, start=args.start, jobs=args.jobs, verbose=args.verbose
    )
    elapsed = time.perf_counter() - started
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        print(
            f"FAIL: {len(failures)} violation(s) across {args.seeds} "
            f"crash seed(s) ({elapsed:.1f}s)"
        )
        return 1
    print(
        f"OK: {args.seeds} crash seed(s) upheld the durability "
        f"contract ({elapsed:.1f}s)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
