"""Checkpoint snapshots: atomic, checksummed catalog images beside the WAL.

A checkpoint bounds both the log and recovery time: the committed
catalog is serialized into a sidecar file (``<wal>.ckpt``) with an
atomic write-then-rename, then every WAL record the snapshot covers is
truncated away. Recovery becomes "load the snapshot, replay only the
WAL suffix" — flat in total history, linear only in the suffix
(docs/durability.md).

On-disk format::

    file    := magic header payload
    magic   := b"RPSNAPv1\\n"            (9 bytes)
    header  := crc32:u32be length:u64be  (12 bytes)
    payload := one UTF-8 JSON document (crc32 covers it)

The payload carries the WAL sequence number the snapshot is consistent
with (``wal_seq``): recovery skips replaying any WAL record at or
below it, which makes the checkpoint protocol crash-safe — if the
process dies *between* the snapshot rename and the log truncation, the
stale WAL prefix is simply filtered out instead of applied twice.

A torn ``.ckpt.tmp`` (crash mid-write, before the rename) is ignored
and cleaned up; the previous snapshot — or no snapshot — is still the
newest valid one. A damaged ``.ckpt`` itself can only mean bit rot or
an external overwrite (the rename is atomic), and since the WAL behind
it was truncated, no mode can silently skip it: loading raises
:class:`~repro.errors.WalCorruptionError` in strict *and* tolerant
recovery.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from typing import Optional

from ..errors import WalCorruptionError
from .wal import _schema_from_json, _schema_to_json, fsync_directory

#: Snapshot file magic (9 bytes).
SNAP_MAGIC = b"RPSNAPv1\n"

#: Snapshot header: crc32 (u32) then payload length (u64).
_SNAP_HEADER = struct.Struct(">IQ")


def snapshot_path(wal_path: str) -> str:
    """The sidecar snapshot path for a WAL file."""
    return wal_path + ".ckpt"


def capture_catalog(catalog, ts: int) -> dict:
    """Serialize every table visible at commit timestamp ``ts``."""
    tables = {}
    for name in catalog.table_names(ts):
        data = catalog.data(name, ts)
        tables[name] = {
            "schema": _schema_to_json(data.schema),
            "rows": [list(r) for r in data.rows()],
        }
    return tables


def write_snapshot(path: str, payload: dict) -> int:
    """Atomically persist ``payload`` at ``path``; returns bytes written.

    write tmp → fsync tmp → rename over ``path`` → fsync directory, so
    a crash at any point leaves either the old snapshot or the new one,
    never a torn file under the final name."""
    body = json.dumps(payload).encode("utf-8")
    crc = zlib.crc32(body) & 0xFFFFFFFF
    blob = SNAP_MAGIC + _SNAP_HEADER.pack(crc, len(body)) + body
    tmp = path + ".tmp"
    with open(tmp, "wb") as handle:
        handle.write(blob)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    fsync_directory(path)
    return len(blob)


def load_snapshot(path: str) -> Optional[dict]:
    """Read and validate a snapshot; ``None`` when there is none.

    Any damage — bad magic, short header, truncated payload, CRC
    mismatch, undecodable JSON — raises
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
    if not data.startswith(SNAP_MAGIC):
        raise WalCorruptionError(
            f"snapshot {path}: bad magic "
            f"(got {data[:len(SNAP_MAGIC)]!r})"
        )
    if len(data) < len(SNAP_MAGIC) + _SNAP_HEADER.size:
        raise WalCorruptionError(f"snapshot {path}: truncated header")
    crc, length = _SNAP_HEADER.unpack_from(data, len(SNAP_MAGIC))
    body = data[len(SNAP_MAGIC) + _SNAP_HEADER.size :]
    if len(body) != length:
        raise WalCorruptionError(
            f"snapshot {path}: payload is {len(body)} byte(s), "
            f"header says {length}"
        )
    if zlib.crc32(body) & 0xFFFFFFFF != crc:
        raise WalCorruptionError(f"snapshot {path}: crc mismatch")
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WalCorruptionError(
            f"snapshot {path}: undecodable payload ({exc})"
        ) from exc
    return payload


def restore_into(manager, payload: dict) -> int:
    """Recreate the snapshot's tables through ``manager`` in one
    transaction (so a crash mid-restore leaves nothing behind); returns
    the number of tables restored. The WAL is detached for the duration
    — the snapshot's contents are already durable."""
    tables = payload.get("tables", {})
    txn = manager.begin()
    saved_wal, manager.wal = manager.wal, None
    try:
        for name, entry in tables.items():
            txn.create_table(name, _schema_from_json(entry["schema"]))
            if entry["rows"]:
                txn.insert_rows(name, entry["rows"])
        txn.commit()
    except BaseException:
        if txn.status == "active":
            txn.rollback()
        raise
    finally:
        manager.wal = saved_wal
    return len(tables)
