"""Write-ahead log: checksummed, length-prefixed, fsync-durable.

Committed transactions append one logical record per operation
(create/drop table, insert, whole-table replace) followed by a commit
marker; all of a transaction's frames are written in one ``write`` and
made durable with one ``fsync`` before the commit is acknowledged.
Recovery replays complete transactions **atomically** (grouped by
transaction id, one commit per original transaction) in commit order.

The engine logs *logical* operations rather than physical page images
because the storage layer is pure main-memory copy-on-write: replaying
logical ops against an empty catalog deterministically reconstructs
state. DELETE and UPDATE are logged as the full replacement row set of
the table (simple and correct for a main-memory engine whose versions
are already whole-table snapshots); ``Database.checkpoint()`` bounds
the resulting log growth (docs/durability.md).

On-disk format
--------------

::

    file   := magic frame*
    magic  := b"RPWALv2\\n"                      (8 bytes)
    frame  := header payload
    header := length:u32be crc32:u32be seq:u64be (16 bytes)

``length`` is the payload byte count, ``payload`` is one UTF-8 JSON
document, ``seq`` is a per-record monotonically increasing sequence
number (contiguous within one log file), and ``crc32`` covers the
8-byte big-endian ``seq`` followed by the payload. The reader
distinguishes two failure classes:

* **torn tail** — the final frame is incomplete (header or payload
  runs past end-of-file). This is the normal signature of a crash
  mid-append; the tail is truncated and the log continues.
* **corruption** — a frame is *complete* but wrong: CRC mismatch,
  undecodable payload, or a sequence-number break. This means bit rot
  or an overwrite, never a clean crash. In ``recovery="strict"`` mode
  it raises :class:`~repro.errors.WalCorruptionError`; in ``tolerant``
  mode the corrupt suffix is discarded and counted.

A non-empty file that does not start with the magic is **not a repro
WAL**: opening it raises :class:`~repro.errors.WalCorruptionError` in
both recovery modes and leaves its bytes untouched — the log never
truncates or appends to a file it did not write.

Durability of the file itself: the log keeps **one** append handle
(``O_APPEND``) for its whole life, fsyncs it at every commit, and
fsyncs the *parent directory* when the file is first created (and
after every atomic rename), so a freshly created log cannot vanish
across a crash.

Fault-injection hooks (used by :mod:`repro.testing.crash`):
``REPRO_WAL_FSYNC_FAIL=N`` makes the Nth commit fsync raise (the log
poisons itself afterwards, PostgreSQL-style — a failed fsync leaves
the durable prefix unknowable, so continuing would be a lie);
``REPRO_WAL_KILL_AT_BYTES=X`` SIGKILLs the process the moment the
log's total byte count would cross ``X``, leaving a genuinely torn
frame behind.
"""

from __future__ import annotations

import io
import json
import os
import signal
import struct
import zlib
from typing import Optional, Sequence

from ..errors import TransactionError, WalCorruptionError
from ..types import SQLType, TypeKind
from ..storage.schema import ColumnSchema, TableSchema

#: File magic (8 bytes).
MAGIC = b"RPWALv2\n"

#: Frame header: payload length (u32), crc32 (u32), sequence (u64).
_HEADER = struct.Struct(">IIQ")

#: Sanity cap on a single record's payload (guards the reader against
#: interpreting garbage as a multi-gigabyte length).
MAX_RECORD_BYTES = 1 << 30

#: What a reader does on mid-log corruption.
RECOVERY_MODES = ("tolerant", "strict")

#: Environment hooks for deterministic crash injection.
FSYNC_FAIL_HOOK = "REPRO_WAL_FSYNC_FAIL"
KILL_AT_BYTES_HOOK = "REPRO_WAL_KILL_AT_BYTES"


def _schema_to_json(schema: TableSchema) -> list[dict]:
    out = []
    for col in schema:
        out.append(
            {
                "name": col.name,
                "type": col.sql_type.kind.value,
                "width": col.sql_type.width,
                "not_null": col.not_null,
            }
        )
    return out


def _schema_from_json(payload: list[dict]) -> TableSchema:
    cols = []
    for item in payload:
        sql_type = SQLType(TypeKind(item["type"]), item.get("width"))
        cols.append(
            ColumnSchema(item["name"], sql_type, item.get("not_null", False))
        )
    return TableSchema(tuple(cols))


def fsync_directory(path: str) -> None:
    """fsync the directory containing ``path`` so a creation or rename
    inside it is itself durable (POSIX: file data reaching disk does
    not imply the directory entry did)."""
    parent = os.path.dirname(os.path.abspath(path)) or "."
    try:
        fd = os.open(parent, os.O_RDONLY)
    except OSError:
        return  # e.g. platforms that cannot open directories
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class ScanInfo:
    """What one pass over the log found (recovery telemetry)."""

    __slots__ = (
        "records_scanned",
        "records_discarded",
        "bytes_discarded",
        "torn_bytes",
        "corrupt",
        "corrupt_detail",
        "valid_bytes",
        "last_seq",
    )

    def __init__(self) -> None:
        self.records_scanned = 0
        #: Records (or, for undecodable garbage, at least one) dropped
        #: because of mid-log corruption — NOT the torn tail.
        self.records_discarded = 0
        self.bytes_discarded = 0
        #: Trailing bytes belonging to an incomplete final frame.
        self.torn_bytes = 0
        self.corrupt = False
        self.corrupt_detail: Optional[str] = None
        #: Offset of the end of the last valid frame (truncation point).
        self.valid_bytes = 0
        self.last_seq = 0

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


class WriteAheadLog:
    """An append-only, checksummed log of committed logical operations.

    Pass ``path=None`` for an in-memory log (tests); otherwise records
    are written through a single persistent ``O_APPEND`` handle and
    fsynced at each commit. ``recovery`` selects how mid-log corruption
    is handled when reading: ``"tolerant"`` (default) discards the
    corrupt suffix and counts it, ``"strict"`` raises
    :class:`~repro.errors.WalCorruptionError`.
    """

    def __init__(
        self,
        path: str | None = None,
        metrics=None,
        recovery: str = "tolerant",
    ):
        if recovery not in RECOVERY_MODES:
            raise ValueError(
                f"recovery must be 'tolerant' or 'strict', got {recovery!r}"
            )
        self.path = path
        self.metrics = metrics
        self.recovery = recovery
        self._memory: Optional[io.BytesIO] = None
        self._handle = None
        self._seq = 0  # last sequence number written or seen
        self._bytes = 0  # current log size in bytes
        self._poisoned: Optional[str] = None
        #: ScanInfo from the open-time pass over an existing file (None
        #: for in-memory logs) — recovery telemetry captured *before*
        #: any truncate-and-continue repair.
        self.open_scan: Optional[ScanInfo] = None
        # -- crash-injection hooks (see module docstring) ---------------
        self._fsync_calls = 0
        self._fsync_fail_at = self._env_int(FSYNC_FAIL_HOOK)
        self._kill_at_bytes = self._env_int(KILL_AT_BYTES_HOOK)
        if path is None:
            self._memory = io.BytesIO()
            self._memory.write(MAGIC)
            self._bytes = len(MAGIC)
            return
        self._open_file()

    @staticmethod
    def _env_int(name: str) -> Optional[int]:
        raw = os.environ.get(name, "").strip()
        if not raw:
            return None
        try:
            value = int(raw)
        except ValueError:
            return None
        return value if value > 0 else None

    # -- file lifecycle ----------------------------------------------------

    def _open_file(self) -> None:
        """Open (creating if needed) the log and position the single
        append handle after the last *valid* frame.

        A torn tail left by a crash mid-append is truncated here —
        otherwise new appends would land after garbage and be discarded
        by every future reader. Mid-log corruption is truncated too in
        ``tolerant`` mode (after recording what was lost in
        ``self.open_scan``); in ``strict`` mode the file is left
        untouched for post-mortem and the log poisons itself — the
        first read raises :class:`WalCorruptionError` and no append is
        accepted. A non-empty file without the magic is rejected
        outright (:class:`WalCorruptionError`, both modes) before any
        byte of it is touched.
        """
        created = not os.path.exists(self.path)
        if created:
            with open(self.path, "xb") as handle:
                handle.write(MAGIC)
                handle.flush()
                os.fsync(handle.fileno())
            fsync_directory(self.path)
        data = self._read_bytes()
        if len(data) < len(MAGIC) and MAGIC.startswith(data):
            # Pre-existing but empty file (or a creation torn inside
            # the magic itself): stamp the magic.
            with open(self.path, "r+b") as handle:
                handle.write(MAGIC)
                handle.flush()
                os.fsync(handle.fileno())
            data = MAGIC
        info = self._scan(data)
        self.open_scan = info
        self._seq = info.last_seq
        if info.corrupt and self.recovery == "strict":
            # Preserve the evidence; refuse to write after it.
            self._poisoned = f"corrupt log (strict): {info.corrupt_detail}"
            self._bytes = len(data)
        else:
            if info.valid_bytes < len(data):
                # Torn tail (normal crash) and/or — in tolerant mode —
                # a corrupt suffix: truncate-and-continue.
                with open(self.path, "r+b") as handle:
                    handle.truncate(info.valid_bytes)
                    handle.flush()
                    os.fsync(handle.fileno())
            self._bytes = info.valid_bytes
        self._handle = open(self.path, "ab")

    def close(self) -> None:
        """Close the append handle (idempotent)."""
        if self._handle is not None:
            try:
                self._handle.close()
            finally:
                self._handle = None

    @property
    def last_seq(self) -> int:
        """Sequence number of the most recent record written/seen."""
        return self._seq

    def ensure_seq(self, seq: int) -> None:
        """Raise the sequence high-water mark to at least ``seq``.

        A checkpoint can truncate the log to an *empty* suffix, leaving
        no frame to carry the numbering forward; a later session would
        restart at 1 and its commits would sit at or below the
        snapshot's ``wal_seq`` — silently filtered by the next
        recovery. Recovery therefore lifts the counter to the
        snapshot's high-water mark so new appends always sort after
        everything the snapshot covers."""
        if seq > self._seq:
            self._seq = seq

    def size_bytes(self) -> int:
        """Current log size in bytes (magic included)."""
        return self._bytes

    def _read_bytes(self) -> bytes:
        if self._memory is not None:
            return self._memory.getvalue()
        with open(self.path, "rb") as handle:
            return handle.read()

    # -- writing ---------------------------------------------------------------

    def _frame(self, seq: int, payload: bytes) -> bytes:
        seq_bytes = struct.pack(">Q", seq)
        crc = zlib.crc32(seq_bytes + payload) & 0xFFFFFFFF
        return _HEADER.pack(len(payload), crc, seq) + payload

    def log_commit(self, txn_id: int, operations: Sequence[tuple]) -> int:
        """Append a transaction's operations plus its commit marker and
        make them durable; returns the number of bytes written.

        The whole group goes down in one write and one fsync — the
        commit is acknowledged only after the fsync returns, which is
        the engine's entire durability contract."""
        if self._poisoned is not None:
            raise TransactionError(
                f"write-ahead log is poisoned after a failed fsync "
                f"({self._poisoned}); restart and recover"
            )
        frames = []
        n_records = 0
        for op in operations:
            self._seq += 1
            payload = json.dumps(self._encode(txn_id, op)).encode("utf-8")
            frames.append(self._frame(self._seq, payload))
            n_records += 1
        self._seq += 1
        frames.append(
            self._frame(
                self._seq,
                json.dumps({"txn": txn_id, "op": "commit"}).encode("utf-8"),
            )
        )
        n_records += 1
        blob = b"".join(frames)
        self._write_durable(blob)
        if self.metrics is not None:
            self.metrics.counter("wal_records_total").inc(n_records)
        return len(blob)

    def _write_durable(self, blob: bytes) -> None:
        if self._memory is not None:
            self._memory.write(blob)
            self._bytes += len(blob)
            return
        if self._handle is None or self._handle.closed:
            # close() keeps the session reusable (mirroring
            # Database.close): the append handle respawns on demand.
            self._handle = open(self.path, "ab")
        if (
            self._kill_at_bytes is not None
            and self._bytes + len(blob) > self._kill_at_bytes
        ):
            # Crash injection: die mid-append, leaving a torn frame.
            keep = max(0, self._kill_at_bytes - self._bytes)
            self._handle.write(blob[:keep])
            self._handle.flush()
            os.kill(os.getpid(), signal.SIGKILL)
        self._handle.write(blob)
        self._handle.flush()
        self._fsync_calls += 1
        if (
            self._fsync_fail_at is not None
            and self._fsync_calls >= self._fsync_fail_at
        ):
            self._poisoned = "injected fsync failure"
            raise TransactionError(
                "wal fsync failed (injected): commit not durable"
            )
        try:
            os.fsync(self._handle.fileno())
        except OSError as exc:
            # fsyncgate: after a failed fsync the kernel may have
            # dropped the dirty pages — the durable prefix is unknown,
            # so the only honest move is to refuse further commits.
            self._poisoned = f"{type(exc).__name__}: {exc}"
            raise TransactionError(
                f"wal fsync failed: commit not durable ({exc})"
            ) from exc
        self._bytes += len(blob)

    @staticmethod
    def _encode(txn_id: int, op: tuple) -> dict:
        kind = op[0]
        if kind == "create_table":
            _, name, schema = op
            return {
                "txn": txn_id,
                "op": "create_table",
                "name": name,
                "schema": _schema_to_json(schema),
            }
        if kind == "drop_table":
            _, name = op
            return {"txn": txn_id, "op": "drop_table", "name": name}
        if kind == "insert":
            _, name, rows = op
            return {
                "txn": txn_id,
                "op": "insert",
                "name": name,
                "rows": [list(r) for r in rows],
            }
        if kind == "replace":
            _, name, rows = op
            return {
                "txn": txn_id,
                "op": "replace",
                "name": name,
                "rows": [list(r) for r in rows],
            }
        raise TransactionError(f"unknown WAL operation: {kind!r}")

    # -- reading ---------------------------------------------------------------

    def _scan(self, data: bytes) -> ScanInfo:
        if not data.startswith(MAGIC):
            raise WalCorruptionError(
                f"{self.path or 'log'} is not a repro WAL (no "
                f"{MAGIC!r} magic); refusing to touch it",
                info={"bytes": len(data)},
            )
        info = ScanInfo()
        pos = len(MAGIC)
        info.valid_bytes = pos
        size = len(data)
        prev_seq: Optional[int] = None
        while pos < size:
            if size - pos < _HEADER.size:
                info.torn_bytes = size - pos
                break
            length, crc, seq = _HEADER.unpack_from(data, pos)
            end = pos + _HEADER.size + length
            if length > MAX_RECORD_BYTES or end > size:
                # Frame runs past EOF: an append died mid-write.
                info.torn_bytes = size - pos
                break
            payload = data[pos + _HEADER.size : end]
            seq_bytes = struct.pack(">Q", seq)
            if zlib.crc32(seq_bytes + payload) & 0xFFFFFFFF != crc:
                info.corrupt = True
                info.corrupt_detail = (
                    f"crc mismatch at offset {pos} (seq {seq})"
                )
                break
            if prev_seq is not None and seq != prev_seq + 1:
                info.corrupt = True
                info.corrupt_detail = (
                    f"sequence break at offset {pos}: "
                    f"{prev_seq} -> {seq}"
                )
                break
            try:
                json.loads(payload.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError):
                info.corrupt = True
                info.corrupt_detail = (
                    f"undecodable payload at offset {pos} (seq {seq})"
                )
                break
            prev_seq = seq
            info.last_seq = seq
            info.records_scanned += 1
            pos = end
            info.valid_bytes = pos
        if info.corrupt:
            rest = data[info.valid_bytes:]
            info.bytes_discarded = len(rest)
            # Best-effort count of whole frames lost after the corrupt
            # point (framing may itself be damaged, so this is a floor).
            info.records_discarded = max(1, self._count_frames(rest))
        return info

    @staticmethod
    def _count_frames(data: bytes) -> int:
        """How many structurally complete frames ``data`` holds (no
        CRC/seq validation — used only to size a corrupt suffix)."""
        count, pos, size = 0, 0, len(data)
        while size - pos >= _HEADER.size:
            length, _, _ = _HEADER.unpack_from(data, pos)
            end = pos + _HEADER.size + length
            if length > MAX_RECORD_BYTES or end > size:
                break
            count += 1
            pos = end
        return count

    @staticmethod
    def _frames(data: bytes, info: ScanInfo):
        """``(seq, start, end)`` byte extents of every valid frame a
        :meth:`_scan` of ``data`` found, in log order."""
        pos = len(MAGIC)
        for _ in range(info.records_scanned):
            length, _, seq = _HEADER.unpack_from(data, pos)
            end = pos + _HEADER.size + length
            yield seq, pos, end
            pos = end

    def scan(self) -> tuple[list[dict], ScanInfo]:
        """All valid records plus what the pass found.

        Honors ``self.recovery``: mid-log corruption raises
        :class:`WalCorruptionError` in strict mode; in tolerant mode
        the corrupt suffix is dropped and counted on the returned
        :class:`ScanInfo`. A torn tail is never an error."""
        data = self._read_bytes()
        info = self._scan(data)
        records = [
            json.loads(data[start + _HEADER.size : end].decode("utf-8"))
            for _, start, end in self._frames(data, info)
        ]
        if info.corrupt and self.recovery == "strict":
            raise WalCorruptionError(
                f"write-ahead log corrupt: {info.corrupt_detail} "
                f"({info.records_discarded} record(s), "
                f"{info.bytes_discarded} byte(s) unrecoverable)",
                info=info.to_dict(),
            )
        return records, info

    def records(self) -> list[dict]:
        """All well-formed records (tolerant of a torn tail; honors the
        log's ``recovery`` mode for mid-log corruption)."""
        return self.scan()[0]

    def committed_operations(self) -> list[dict]:
        """Operations of transactions that reached their commit marker,
        in commit order."""
        records = self.records()
        committed = {
            r["txn"] for r in records if r.get("op") == "commit"
        }
        return [
            r
            for r in records
            if r.get("op") != "commit" and r.get("txn") in committed
        ]

    # -- replay ---------------------------------------------------------------

    @staticmethod
    def apply_operation(txn, record: dict) -> None:
        """Apply one logical record inside an open transaction."""
        op = record["op"]
        if op == "create_table":
            txn.create_table(
                record["name"], _schema_from_json(record["schema"])
            )
        elif op == "drop_table":
            txn.drop_table(record["name"])
        elif op == "insert":
            txn.insert_rows(record["name"], record["rows"])
        elif op == "replace":
            from ..storage.table import TableData

            data = txn.read(record["name"])
            txn.write(
                record["name"],
                TableData.from_rows(data.schema, record["rows"]),
            )
        else:
            raise TransactionError(f"unknown WAL record: {op!r}")

    def replay_into(self, manager, min_seq: int = 0) -> int:
        """Re-apply committed transactions through a fresh transaction
        manager; returns the number of operations replayed.

        Replay is **atomic per original transaction**: records are
        grouped by their ``txn`` id and the whole group commits once,
        so a crash during recovery can never surface half of a
        transaction. Records with a sequence number at or below
        ``min_seq`` are skipped (already covered by a snapshot — this
        makes replay after an interrupted checkpoint truncation
        idempotent). Transactions without a commit marker are ignored.
        """
        return self.replay_stats(manager, min_seq=min_seq)["operations"]

    def replay_stats(self, manager, min_seq: int = 0) -> dict:
        data = self._read_bytes()
        # scan() already applied the recovery policy; re-walk the
        # frames for (seq, record) pairs.
        records, info = self.scan()
        seqs = [seq for seq, _, _ in self._frames(data, info)]
        pending: dict[int, list[dict]] = {}
        operations = 0
        transactions = 0
        skipped = 0
        for seq, record in zip(seqs, records):
            txn_id = record.get("txn")
            if record.get("op") != "commit":
                pending.setdefault(txn_id, []).append(
                    record if seq > min_seq else None
                )
                continue
            group = pending.pop(txn_id, [])
            group = [r for r in group if r is not None]
            if not group:
                skipped += 1
                continue
            txn = manager.begin()
            saved_wal, manager.wal = manager.wal, None
            try:
                for op_record in group:
                    self.apply_operation(txn, op_record)
                txn.commit()
            except BaseException:
                if txn.status == "active":
                    txn.rollback()
                raise
            finally:
                manager.wal = saved_wal
            operations += len(group)
            transactions += 1
        return {
            "operations": operations,
            "transactions": transactions,
            "commits_skipped": skipped,
            "incomplete_transactions": sum(
                1 for ops in pending.values() if any(ops)
            ),
        }

    # -- checkpoint truncation -------------------------------------------------

    def truncate_through(self, seq: int) -> None:
        """Atomically drop every record with sequence number <= ``seq``
        (they are covered by a durable snapshot). The surviving suffix
        is rewritten into a fresh file that replaces the log in one
        rename; the append handle is reopened on the new file."""
        data = self._read_bytes()
        blob = MAGIC + b"".join(
            data[start:end]
            for rec_seq, start, end in self._frames(data, self._scan(data))
            if rec_seq > seq
        )
        if self._memory is not None:
            self._memory = io.BytesIO()
            self._memory.write(blob)
            self._bytes = len(blob)
            return
        tmp = self.path + ".tmp"
        with open(tmp, "wb") as handle:
            handle.write(blob)
            handle.flush()
            os.fsync(handle.fileno())
        self.close()
        os.replace(tmp, self.path)
        fsync_directory(self.path)
        self._bytes = len(blob)
        self._handle = open(self.path, "ab")
