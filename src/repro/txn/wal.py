"""Write-ahead log: checksummed, length-prefixed, fsync-durable.

Committed transactions append one record per operation (create/drop
table, and the three *delta* kinds ``append``, ``delete``, ``update``)
followed by a commit marker; all of a transaction's frames are written
in one ``write`` and made durable with one ``fsync`` before the commit
is acknowledged. Recovery replays complete transactions **atomically**
(grouped by transaction id, one commit per original transaction) in
commit order.

A data record carries what changed, never the table: ``append`` holds
the appended rows as one column chunk (:mod:`repro.storage.chunk`),
``delete`` the positions of the deleted rows, ``update`` the positions,
the ordinals of the assigned columns and a chunk of the new values.
Positions only mean something against the table version they were
computed from, so every data record also carries ``rows_before`` — the
row count of that version — and replay raises
:class:`~repro.errors.WalCorruptionError` rather than apply a delta to
a table of any other size. ``Database.checkpoint()`` bounds the log
(docs/durability.md).

On-disk format
--------------

::

    file    := magic frame*
    magic   := b"RPWALv3\n"                      (8 bytes)
    frame   := header payload
    header  := length:u32be crc32:u32be seq:u64be (16 bytes)
    payload := hlen:u32le head chunk?

``length`` is the payload byte count, ``seq`` is a per-record
monotonically increasing sequence number (contiguous within one log
file), and ``crc32`` covers the 8-byte big-endian ``seq`` followed by
the payload. ``head`` is a small UTF-8 JSON object of ``hlen`` bytes
(space-padded so the chunk after it starts on an 8-byte boundary of
the payload): ``txn``, ``op`` and, by kind, ``name``, ``schema``,
``rows_before``, ``rows``, ``ordinals``. The chunk is raw bytes; JSON
never holds table contents. The reader distinguishes two failure
classes:

* **torn tail** — the final frame is incomplete (header or payload
  runs past end-of-file). This is the normal signature of a crash
  mid-append; the tail is truncated and the log continues.
* **corruption** — a frame is *complete* but wrong: CRC mismatch,
  undecodable head, or a sequence-number break. This means bit rot
  or an overwrite, never a clean crash. In ``recovery="strict"`` mode
  it raises :class:`~repro.errors.WalCorruptionError`; in ``tolerant``
  mode the corrupt suffix is discarded and counted.

A non-empty file that does not start with the magic is **not a log
this engine wrote in this format**: opening it raises
:class:`~repro.errors.WalCorruptionError` in both recovery modes and
leaves its bytes untouched — the log never truncates or appends to a
file it did not write. That includes logs of an earlier format version
(``RPWALv2``): the message names the version, and there is no second
reader.

Durability of the file itself: the log keeps **one** append handle
(``O_APPEND``) for its whole life, fsyncs it at every commit, and
fsyncs the *parent directory* when the file is first created (and
after every atomic rename), so a freshly created log cannot vanish
across a crash.

``python -m repro.txn.wal <path>`` prints one line per record (``seq
txn op table rows bytes``) without touching the file.

Fault-injection hooks (used by :mod:`repro.testing.crash`):
``REPRO_WAL_FSYNC_FAIL=N`` makes the Nth commit fsync raise (the log
poisons itself afterwards, PostgreSQL-style — a failed fsync leaves
the durable prefix unknowable, so continuing would be a lie);
``REPRO_WAL_KILL_AT_BYTES=X`` SIGKILLs the process the moment the
log's total byte count would cross ``X``, leaving a genuinely torn
frame behind.
"""

from __future__ import annotations

import dataclasses
import io
import json
import os
import re
import signal
import struct
import sys
import time
import zlib
from typing import NamedTuple, Optional, Sequence

import numpy as np

from ..errors import ChunkError, TransactionError, WalCorruptionError
from ..storage.chunk import decode_chunk, encode_chunk
from ..storage.column import Column
from ..storage.schema import ColumnSchema, TableSchema
from ..types import BIGINT, SQLType, TypeKind

#: File magic (8 bytes); everything before the digit names the family.
MAGIC = b"RPWALv3\n"

#: Frame header: payload length (u32), crc32 (u32), sequence (u64).
_HEADER = struct.Struct(">IIQ")

#: Length prefix of a payload's (or a snapshot body's) JSON head.
_HEAD_LENGTH = struct.Struct("<I")

#: Sanity cap on a single record's payload (guards the reader against
#: interpreting garbage as a multi-gigabyte length).
MAX_RECORD_BYTES = 1 << 30

#: What a reader does on mid-log corruption.
RECOVERY_MODES = ("tolerant", "strict")

#: Record kinds; the last three carry a column chunk.
_OPS = ("commit", "create_table", "drop_table", "append", "delete", "update")

#: Environment hooks for deterministic crash injection.
FSYNC_FAIL_HOOK = "REPRO_WAL_FSYNC_FAIL"
KILL_AT_BYTES_HOOK = "REPRO_WAL_KILL_AT_BYTES"


def _schema_to_json(schema: TableSchema) -> list[dict]:
    return [
        {
            "name": col.name,
            "type": col.sql_type.kind.value,
            "width": col.sql_type.width,
            "not_null": col.not_null,
        }
        for col in schema
    ]


def _schema_from_json(payload: list[dict]) -> TableSchema:
    return TableSchema(
        tuple(
            ColumnSchema(
                item["name"],
                SQLType(TypeKind(item["type"]), item.get("width")),
                item.get("not_null", False),
            )
            for item in payload
        )
    )


def pack_head(head: dict) -> bytes:
    """``hlen head``: the JSON head of a log payload or a snapshot
    body, space-padded so whatever follows it starts on an 8-byte
    boundary."""
    text = json.dumps(head, separators=(",", ":")).encode("utf-8")
    text += b" " * (-(len(text) + _HEAD_LENGTH.size) % 8)
    return _HEAD_LENGTH.pack(len(text)) + text


def unpack_head(data, start: int, end: int) -> tuple[dict, int]:
    """The head packed at ``data[start:end]`` and the offset after it;
    ValueError when those bytes do not start with one."""
    body = start + _HEAD_LENGTH.size
    if body > end:
        raise ValueError("shorter than a head length")
    body += _HEAD_LENGTH.unpack_from(data, start)[0]
    if body > end:
        raise ValueError("head runs past the end")
    head = json.loads(str(data[start + _HEAD_LENGTH.size : body], "utf-8"))
    if not isinstance(head, dict):
        raise ValueError("head is not an object")
    return head, body


def refuse_other_format(data: bytes, magic: bytes, what: str) -> None:
    """Raise WalCorruptionError unless ``data`` starts with ``magic``,
    naming the version when it is another version of the same format
    (there is one reader and one writer: the current version's)."""
    if data.startswith(magic):
        return
    current = magic[:-1].decode()
    family = re.escape(magic.rstrip(b"0123456789\n"))
    other = re.match(family + rb"(\d+)\n", data)
    if other:
        detail = (
            f"is in format version {int(other[1])} "
            f"({other[0][:-1].decode()}); this engine reads and writes "
            f"{current} only"
        )
    else:
        detail = f"is not a repro {what.split()[0]} (no {magic!r} magic)"
    raise WalCorruptionError(
        f"{what} {detail}; refusing to touch it", info={"bytes": len(data)}
    )


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


@dataclasses.dataclass
class ScanInfo:
    """What one pass over the log found (recovery telemetry)."""

    records_scanned: int = 0
    #: Records (or, for undecodable garbage, at least one) dropped
    #: because of mid-log corruption — NOT the torn tail.
    records_discarded: int = 0
    bytes_discarded: int = 0
    #: Trailing bytes belonging to an incomplete final frame.
    torn_bytes: int = 0
    corrupt: bool = False
    corrupt_detail: Optional[str] = None
    #: Offset of the end of the last valid frame (truncation point).
    valid_bytes: int = 0
    last_seq: int = 0

    to_dict = dataclasses.asdict


class Frame(NamedTuple):
    """One valid record: its sequence number, its decoded head, and the
    offsets of the frame, of the chunk (if any) and of the frame's end."""

    seq: int
    head: dict
    start: int
    chunk: int
    end: int


def scan_log(data: bytes, path: str = "log") -> tuple[list[Frame], ScanInfo]:
    """Validate ``data`` frame by frame — CRC, sequence chain and head
    decode in one pass; opening, replay and checkpoint truncation all
    read the log through here. Chunk bodies are covered by the CRC and
    decoded only by whoever applies them."""
    refuse_other_format(data, MAGIC, f"WAL {path}")
    frames: list[Frame] = []
    info = ScanInfo()
    view = memoryview(data)
    pos = info.valid_bytes = len(MAGIC)
    size = len(data)
    while pos < size:
        if size - pos < _HEADER.size:
            info.torn_bytes = size - pos
            break
        length, crc, seq = _HEADER.unpack_from(data, pos)
        payload = pos + _HEADER.size
        end = payload + length
        if length > MAX_RECORD_BYTES or end > size:
            # Frame runs past EOF: an append died mid-write.
            info.torn_bytes = size - pos
            break
        seq_crc = zlib.crc32(view[pos + 8 : payload])
        if zlib.crc32(view[payload:end], seq_crc) != crc:
            info.corrupt_detail = f"crc mismatch at offset {pos} (seq {seq})"
            break
        if frames and seq != frames[-1].seq + 1:
            info.corrupt_detail = (
                f"sequence break at offset {pos}: "
                f"{frames[-1].seq} -> {seq}"
            )
            break
        try:
            head, chunk = unpack_head(view, payload, end)
            if head.get("op") not in _OPS:
                raise ValueError(f"unknown op {head.get('op')!r}")
        except ValueError as exc:
            info.corrupt_detail = (
                f"undecodable payload at offset {pos} (seq {seq}): {exc}"
            )
            break
        frames.append(Frame(seq, head, pos, chunk, end))
        pos = info.valid_bytes = end
    info.records_scanned = len(frames)
    info.last_seq = frames[-1].seq if frames else 0
    if info.corrupt_detail is not None:
        info.corrupt = True
        rest = data[info.valid_bytes :]
        info.bytes_discarded = len(rest)
        # Best-effort count of whole frames lost after the corrupt
        # point (framing may itself be damaged, so this is a floor).
        info.records_discarded = max(1, _count_frames(rest))
    return frames, info


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


def _positions_column(positions: np.ndarray) -> Column:
    return Column(np.asarray(positions, dtype=np.int64), BIGINT)


def _encode(txn_id: int, op: tuple) -> list[bytes]:
    """One staged operation (``Transaction._log``) as payload parts."""
    kind, name = op[0], op[1]
    head = {"txn": txn_id, "op": kind, "name": name}
    if kind == "create_table":
        head["schema"] = _schema_to_json(op[2])
        return [pack_head(head)]
    if kind == "drop_table":
        return [pack_head(head)]
    head["rows_before"] = op[2]
    if kind == "append":
        columns = list(op[3])
        head["rows"] = len(columns[0]) if columns else 0
    elif kind == "delete":
        columns = [_positions_column(op[3])]
        head["rows"] = len(op[3])
    elif kind == "update":
        columns = [_positions_column(op[3]), *op[4].values()]
        head["rows"] = len(op[3])
        head["ordinals"] = list(op[4])
    else:
        raise TransactionError(f"unknown WAL operation: {kind!r}")
    return [pack_head(head), encode_chunk(columns)]


def apply_record(txn, head: dict, chunk: bytes) -> None:
    """Apply one record inside an open transaction. A delta whose
    ``rows_before`` is not the row count of the table it meets, or
    whose chunk or positions do not fit it, is corruption."""
    op, name = head["op"], head["name"]
    if op == "create_table":
        txn.create_table(name, _schema_from_json(head["schema"]))
        return
    if op == "drop_table":
        txn.drop_table(name)
        return
    rows = txn.read(name).row_count
    if rows != head["rows_before"]:
        raise WalCorruptionError(
            f"{op} record for {name!r} was logged against "
            f"{head['rows_before']} row(s), the table has {rows}"
        )
    try:
        columns, _ = decode_chunk(chunk)
    except ChunkError as exc:
        raise WalCorruptionError(
            f"{op} record for {name!r}: {exc}"
        ) from exc
    if op == "append":
        txn.append_columns(name, columns)
        return
    positions = columns[0].values
    if len(positions) and not (
        0 <= positions.min() and positions.max() < rows
    ):
        raise WalCorruptionError(
            f"{op} record for {name!r} names a row outside the table"
        )
    if op == "delete":
        txn.delete_rows(name, positions)
    else:
        txn.update_rows(
            name, positions, dict(zip(head["ordinals"], columns[1:]))
        )


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
        _, info = scan_log(data, self.path)
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

    def _observe(self, name: str, started: float) -> None:
        if self.metrics is not None:
            self.metrics.histogram(name).observe(
                time.perf_counter() - started
            )

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
        started = time.perf_counter()
        payloads = [_encode(txn_id, op) for op in operations]
        payloads.append([pack_head({"txn": txn_id, "op": "commit"})])
        largest = max(sum(map(len, payload)) for payload in payloads)
        if largest > MAX_RECORD_BYTES:
            # The reader takes a longer frame for a torn tail: refuse
            # to write what recovery would then silently drop.
            raise TransactionError(
                f"one statement's log record is {largest} bytes, over "
                f"the {MAX_RECORD_BYTES}-byte limit; write in smaller "
                "batches"
            )
        parts = []
        for payload in payloads:
            self._seq += 1
            seq_bytes = struct.pack(">Q", self._seq)
            crc = zlib.crc32(seq_bytes)
            for part in payload:
                crc = zlib.crc32(part, crc)
            parts.append(
                _HEADER.pack(sum(map(len, payload)), crc, self._seq)
            )
            parts.extend(payload)
        blob = b"".join(parts)
        self._observe("wal_serialize_seconds", started)
        self._write_durable(blob)
        if self.metrics is not None:
            self.metrics.counter("wal_records_total").inc(len(payloads))
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
        started = time.perf_counter()
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
        self._observe("wal_fsync_seconds", started)
        self._bytes += len(blob)

    # -- reading ---------------------------------------------------------------

    def _frames(self) -> tuple[bytes, list[Frame], ScanInfo]:
        """The log's bytes and every valid frame in them, under the
        recovery policy: mid-log corruption raises
        :class:`WalCorruptionError` in strict mode; in tolerant mode
        the corrupt suffix is dropped and counted on the
        :class:`ScanInfo`. A torn tail is never an error."""
        data = self._read_bytes()
        frames, info = scan_log(data, self.path)
        if info.corrupt and self.recovery == "strict":
            raise WalCorruptionError(
                f"write-ahead log corrupt: {info.corrupt_detail} "
                f"({info.records_discarded} record(s), "
                f"{info.bytes_discarded} byte(s) unrecoverable)",
                info=info.to_dict(),
            )
        return data, frames, info

    def scan(self) -> tuple[list[dict], ScanInfo]:
        """The head of every valid record (``txn``, ``op`` and, by
        kind, ``name``, ``rows_before``, ``rows``, ... — never table
        contents) plus what the pass found; honors ``self.recovery``."""
        _, frames, info = self._frames()
        return [frame.head for frame in frames], info

    def records(self) -> list[dict]:
        """:meth:`scan` without the telemetry."""
        return self.scan()[0]

    # -- replay ---------------------------------------------------------------

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
        data, frames, _ = self._frames()
        pending: dict[int, list[Optional[Frame]]] = {}
        operations = 0
        transactions = 0
        skipped = 0
        for frame in frames:
            txn_id = frame.head.get("txn")
            if frame.head["op"] != "commit":
                pending.setdefault(txn_id, []).append(
                    frame if frame.seq > min_seq else None
                )
                continue
            group = [f for f in pending.pop(txn_id, []) if f is not None]
            if not group:
                skipped += 1
                continue
            txn = manager.begin()
            saved_wal, manager.wal = manager.wal, None
            try:
                for f in group:
                    # A copy, so that the columns decoded from it pin
                    # this record's bytes and not the whole log's.
                    apply_record(txn, f.head, data[f.chunk : f.end])
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
        blob = MAGIC
        if seq < self._seq:
            # (A checkpoint covers the whole log and never gets here.)
            data = self._read_bytes()
            blob += b"".join(
                data[frame.start : frame.end]
                for frame in scan_log(data, self.path)[0]
                if frame.seq > seq
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


def describe(path: str) -> list[str]:
    """One line per record of the log at ``path`` — ``seq txn op table
    rows bytes`` — and one for a torn or corrupt tail. Read-only."""
    with open(path, "rb") as handle:
        data = handle.read()
    frames, info = scan_log(data, path)
    lines = ["seq txn op table rows bytes"]
    for f in frames:
        head = f.head
        lines.append(
            f"{f.seq} {head.get('txn')} {head['op']} "
            f"{head.get('name', '-')} {head.get('rows', '-')} "
            f"{f.end - f.start}"
        )
    if info.corrupt:
        lines.append(
            f"corrupt: {info.corrupt_detail}; "
            f"{info.bytes_discarded} byte(s) after it"
        )
    elif info.torn_bytes:
        lines.append(f"torn tail: {info.torn_bytes} byte(s)")
    return lines


def main(argv: Optional[list[str]] = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print("usage: python -m repro.txn.wal <path>", file=sys.stderr)
        return 2
    try:
        print("\n".join(describe(args[0])))
    except (OSError, WalCorruptionError) as exc:
        print(f"{args[0]}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
