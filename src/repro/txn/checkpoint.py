"""Checkpoint snapshots: atomic, checksummed catalog images beside the WAL.

A checkpoint bounds both the log and recovery time: the committed
catalog is serialized into a sidecar file (``<wal>.ckpt``) with an
atomic write-then-rename, then every WAL record the snapshot covers is
truncated away. Recovery becomes "load the snapshot, replay only the
WAL suffix" — flat in total history, linear only in the suffix
(docs/durability.md).

On-disk format::

    file    := magic header body
    magic   := b"RPSNAPv2\n"                  (9 bytes)
    header  := crc32:u32be length:u64be 0:3   (15 bytes; crc32 covers body)
    body    := hlen:u32le head chunk*

``head`` is a JSON object (packed like a WAL record's) holding the WAL
sequence number the snapshot is consistent with (``wal_seq``), the
commit timestamp, and per table its name, schema and row count; the
tables' contents follow as one column chunk each
(:mod:`repro.storage.chunk`, the format the log's data records use), in
the order the head lists them. The 24 bytes before the body keep every
chunk on an 8-byte boundary, so a restored column is a view into the
file's bytes, and a dictionary column comes back as the dictionary
column it was. Recovery skips replaying any WAL record at or below
``wal_seq``, which makes the checkpoint protocol crash-safe — if the
process dies *between* the snapshot rename and the log truncation, the
stale WAL prefix is simply filtered out instead of applied twice.

A torn ``.ckpt.tmp`` (crash mid-write, before the rename) is ignored
and cleaned up; the previous snapshot — or no snapshot — is still the
newest valid one. A damaged ``.ckpt`` itself can only mean bit rot or
an external overwrite (the rename is atomic), and since the WAL behind
it was truncated, no mode can silently skip it: loading raises
:class:`~repro.errors.WalCorruptionError` in strict *and* tolerant
recovery. So does a snapshot of an earlier format version
(``RPSNAPv1``), which is left as it is.
"""

from __future__ import annotations

import os
import struct
import zlib
from typing import Optional

from ..errors import ChunkError, WalCorruptionError
from ..storage.chunk import decode_chunk, encode_chunk
from .wal import (
    _schema_from_json,
    _schema_to_json,
    fsync_directory,
    pack_head,
    refuse_other_format,
    unpack_head,
)

#: Snapshot file magic (9 bytes).
SNAP_MAGIC = b"RPSNAPv2\n"

#: Snapshot header: crc32 (u32), body length (u64), and padding that
#: puts the body on an 8-byte boundary of the file.
_SNAP_HEADER = struct.Struct(">IQ3x")


def snapshot_path(wal_path: str) -> str:
    """The sidecar snapshot path for a WAL file."""
    return wal_path + ".ckpt"


def write_snapshot(path: str, catalog, ts: int, wal_seq: int) -> dict:
    """Atomically persist every table visible at commit timestamp
    ``ts`` at ``path``; returns the head written plus ``bytes``.

    write tmp → fsync tmp → rename over ``path`` → fsync directory, so
    a crash at any point leaves either the old snapshot or the new one,
    never a torn file under the final name."""
    tables, chunks = [], []
    for name in catalog.table_names(ts):
        data = catalog.data(name, ts)
        tables.append(
            {
                "name": name,
                "schema": _schema_to_json(data.schema),
                "rows": data.row_count,
            }
        )
        chunks.append(encode_chunk(data.columns))
    head = {"wal_seq": wal_seq, "commit_ts": ts, "tables": tables}
    parts = [pack_head(head), *chunks]
    crc = 0
    for part in parts:
        crc = zlib.crc32(part, crc)
    header = _SNAP_HEADER.pack(crc, sum(map(len, parts)))
    tmp = path + ".tmp"
    with open(tmp, "wb") as handle:
        handle.write(b"".join([SNAP_MAGIC, header, *parts]))
        handle.flush()
        os.fsync(handle.fileno())
        head["bytes"] = handle.tell()
    os.replace(tmp, path)
    fsync_directory(path)
    return head


def load_snapshot(path: str) -> Optional[dict]:
    """Read and validate a snapshot; ``None`` when there is none. The
    result is the snapshot's head with each table's ``columns`` decoded
    beside its ``name``, ``schema`` and ``rows``.

    Any damage — bad magic, short header, truncated body, CRC mismatch,
    undecodable head or chunk — raises
    :class:`~repro.errors.WalCorruptionError`: the WAL records the
    snapshot replaced are gone, so there is nothing to fall back to."""
    # A leftover .tmp is a checkpoint that died before its rename; the
    # file under the final name (if any) is still authoritative.
    try:
        os.unlink(path + ".tmp")
    except OSError:
        pass
    if not os.path.exists(path):
        return None
    with open(path, "rb") as handle:
        data = handle.read()
    refuse_other_format(data, SNAP_MAGIC, f"snapshot {path}")
    start = len(SNAP_MAGIC) + _SNAP_HEADER.size
    if len(data) < start:
        raise WalCorruptionError(f"snapshot {path}: truncated header")
    crc, length = _SNAP_HEADER.unpack_from(data, len(SNAP_MAGIC))
    if len(data) - start != length:
        raise WalCorruptionError(
            f"snapshot {path}: body is {len(data) - start} byte(s), "
            f"header says {length}"
        )
    view = memoryview(data)
    if zlib.crc32(view[start:]) != crc:
        raise WalCorruptionError(f"snapshot {path}: crc mismatch")
    try:
        head, pos = unpack_head(view, start, len(data))
        for table in head["tables"]:
            table["columns"], pos = decode_chunk(data, pos)
    except (ValueError, KeyError, TypeError, ChunkError) as exc:
        raise WalCorruptionError(
            f"snapshot {path}: undecodable body ({exc})"
        ) from exc
    return head


def restore_into(manager, snapshot: dict) -> int:
    """Recreate the snapshot's tables through ``manager`` in one
    transaction (so a crash mid-restore leaves nothing behind); returns
    the number of tables restored. The WAL is detached for the duration
    — the snapshot's contents are already durable."""
    tables = snapshot["tables"]
    txn = manager.begin()
    saved_wal, manager.wal = manager.wal, None
    try:
        for table in tables:
            txn.create_table(
                table["name"], _schema_from_json(table["schema"])
            )
            txn.append_columns(table["name"], table["columns"])
        txn.commit()
    except BaseException:
        if txn.status == "active":
            txn.rollback()
        raise
    finally:
        manager.wal = saved_wal
    return len(tables)
