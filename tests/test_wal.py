"""The WAL: framing, delta records, corruption handling,
checkpoint/restore, recovery.

The durability contract under test (docs/durability.md): every
acknowledged commit survives, a torn tail is truncated and never an
error, mid-log corruption is either raised typed (strict) or
discarded-and-counted (tolerant), a delta is never applied to a table
of another size than it was logged against, checkpoints bound replay
via the snapshot's WAL sequence number, replay is atomic per original
transaction, and files of an earlier format version are refused
untouched.
"""

import os
import shutil
import struct
import zlib

import numpy as np
import pytest

import repro
from repro.errors import CatalogError, TransactionError, WalCorruptionError
from repro.storage import Catalog, TableData, TableSchema
from repro.storage.chunk import encode_chunk
from repro.txn import TransactionManager, WriteAheadLog
from repro.txn.wal import (
    MAGIC, _HEADER, describe, main, pack_head, scan_log,
)
from repro.txn.checkpoint import SNAP_MAGIC, load_snapshot, snapshot_path
from repro.types import INTEGER, VARCHAR


def simple_schema():
    return TableSchema.of(("id", INTEGER), ("name", VARCHAR))


def make_manager(wal=None):
    return TransactionManager(Catalog(), wal)


def append_op(table: str, rows_before: int, rows: list[tuple]) -> tuple:
    """An ``append`` as ``Transaction.append_columns`` logs it."""
    columns = TableData.from_rows(simple_schema(), rows).columns
    return ("append", table, rows_before, columns)


def write_small_log(path: str) -> int:
    """Two committed transactions; returns the committed row total."""
    wal = WriteAheadLog(path)
    wal.log_commit(
        1,
        [
            ("create_table", "t", simple_schema()),
            append_op("t", 0, [(1, "a"), (2, "b")]),
        ],
    )
    wal.log_commit(2, [append_op("t", 2, [(3, "c")])])
    wal.close()
    return 3


def frame(seq: int, payload: bytes) -> bytes:
    crc = zlib.crc32(struct.pack(">Q", seq) + payload) & 0xFFFFFFFF
    return _HEADER.pack(len(payload), crc, seq) + payload


def dump(db):
    from repro.testing.crash import dump_state

    return dump_state(db)


class TestFraming:
    def test_magic_and_monotonic_seqs(self, tmp_path):
        path = str(tmp_path / "t.wal")
        write_small_log(path)
        data = open(path, "rb").read()
        assert data.startswith(MAGIC)
        pos, seqs = len(MAGIC), []
        while pos < len(data):
            length, _, seq = _HEADER.unpack_from(data, pos)
            seqs.append(seq)
            pos += _HEADER.size + length
        assert seqs == list(range(1, len(seqs) + 1))

    def test_roundtrip_records(self, tmp_path):
        path = str(tmp_path / "t.wal")
        write_small_log(path)
        wal = WriteAheadLog(path)
        records = wal.records()
        assert [r["op"] for r in records] == [
            "create_table", "append", "commit", "append", "commit",
        ]
        assert wal.last_seq == 5
        # A record's head describes the delta; it never holds rows.
        assert records[1] == {
            "txn": 1, "op": "append", "name": "t",
            "rows_before": 0, "rows": 2,
        }
        wal.close()

    def test_replay_returns_operation_count(self, tmp_path):
        path = str(tmp_path / "t.wal")
        write_small_log(path)
        wal = WriteAheadLog(path)
        manager = make_manager()
        assert wal.replay_into(manager) == 3
        data = manager.catalog.data("t")
        assert list(data.rows()) == [(1, "a"), (2, "b"), (3, "c")]
        wal.close()

    def test_memory_mode_roundtrip(self):
        wal = WriteAheadLog()
        wal.log_commit(
            1,
            [
                ("create_table", "t", simple_schema()),
                append_op("t", 0, [(1, "a")]),
            ],
        )
        manager = make_manager()
        assert wal.replay_into(manager) == 2

    def test_reopen_continues_sequence(self, tmp_path):
        path = str(tmp_path / "t.wal")
        write_small_log(path)
        wal = WriteAheadLog(path)
        assert wal.last_seq == 5
        wal.log_commit(3, [append_op("t", 3, [(4, "d")])])
        assert wal.last_seq == 7
        records = wal.records()
        assert len(records) == 7
        wal.close()


    @pytest.mark.parametrize("on_disk", [False, True])
    def test_truncate_through_keeps_the_suffix(self, tmp_path, on_disk):
        path = str(tmp_path / "t.wal") if on_disk else None
        wal = WriteAheadLog(path)
        wal.log_commit(
            1,
            [
                ("create_table", "t", simple_schema()),
                append_op("t", 0, [(1, "a")]),
            ],
        )
        wal.log_commit(2, [append_op("t", 1, [(2, "b")])])
        wal.truncate_through(3)
        assert [(r["txn"], r["op"]) for r in wal.records()] == [
            (2, "append"), (2, "commit"),
        ]
        wal.log_commit(3, [append_op("t", 2, [(3, "c")])])
        assert wal.last_seq == 7
        wal.truncate_through(wal.last_seq)
        assert wal.records() == []
        assert wal.size_bytes() == len(MAGIC)
        wal.close()


class TestTornTail:
    def test_torn_tail_every_offset_is_a_prefix(self, tmp_path):
        """Truncating the log at *any* byte offset must recover a clean
        record prefix — never an error, never reordered data."""
        path = str(tmp_path / "t.wal")
        write_small_log(path)
        data = open(path, "rb").read()
        full = WriteAheadLog(path, recovery="strict")
        full_records = full.records()
        full.close()
        for cut in range(len(MAGIC), len(data)):
            probe = str(tmp_path / f"cut{cut}.wal")
            with open(probe, "wb") as fh:
                fh.write(data[:cut])
            wal = WriteAheadLog(probe, recovery="strict")
            records, info = wal.scan()
            assert not info.corrupt, f"cut at {cut} read as corruption"
            assert records == full_records[: len(records)]
            wal.close()
            os.unlink(probe)

    def test_append_after_torn_tail(self, tmp_path):
        """Open-time truncation: records appended after a torn tail
        must be readable (the tail cannot shadow them)."""
        path = str(tmp_path / "t.wal")
        write_small_log(path)
        with open(path, "ab") as fh:
            fh.write(b"\x00\x00\x01")  # half a header
        wal = WriteAheadLog(path)
        wal.log_commit(9, [append_op("t", 3, [(4, "d")])])
        wal.close()
        reader = WriteAheadLog(path, recovery="strict")
        assert [r["txn"] for r in reader.records()][-1] == 9
        reader.close()


class TestCorruption:
    def test_bit_flip_every_offset(self, tmp_path):
        """Flipping one bit at every byte offset: strict mode must
        either raise typed or land on a clean record prefix — silent
        reordering/corruption of surviving records is never allowed."""
        path = str(tmp_path / "t.wal")
        write_small_log(path)
        data = open(path, "rb").read()
        full = WriteAheadLog(path, recovery="strict")
        full_records = full.records()
        full.close()
        raised = 0
        for offset in range(len(MAGIC), len(data)):
            probe = str(tmp_path / "probe.wal")
            flipped = bytearray(data)
            flipped[offset] ^= 0x10
            with open(probe, "wb") as fh:
                fh.write(bytes(flipped))
            wal = WriteAheadLog(probe, recovery="strict")
            try:
                records = wal.records()
            except WalCorruptionError:
                raised += 1
            else:
                assert records == full_records[: len(records)], (
                    f"flip at {offset} silently altered records"
                )
            finally:
                wal.close()
                os.unlink(probe)
        # CRC must catch the vast majority (payload/seq/crc bytes).
        assert raised > (len(data) - len(MAGIC)) // 2

    def test_tolerant_mode_counts_discarded(self, tmp_path):
        path = str(tmp_path / "t.wal")
        write_small_log(path)
        data = bytearray(open(path, "rb").read())
        # Corrupt the first frame's payload: everything after is lost.
        data[len(MAGIC) + _HEADER.size + 2] ^= 0xFF
        with open(path, "wb") as fh:
            fh.write(bytes(data))
        wal = WriteAheadLog(path, recovery="tolerant")
        records, _ = wal.scan()
        assert records == []
        assert wal.open_scan.corrupt
        assert wal.open_scan.records_discarded >= 5
        assert wal.open_scan.bytes_discarded > 0
        wal.close()

    def test_strict_mode_raises_typed(self, tmp_path):
        path = str(tmp_path / "t.wal")
        write_small_log(path)
        data = bytearray(open(path, "rb").read())
        data[len(MAGIC) + _HEADER.size + 2] ^= 0xFF
        with open(path, "wb") as fh:
            fh.write(bytes(data))
        wal = WriteAheadLog(path, recovery="strict")
        with pytest.raises(WalCorruptionError) as excinfo:
            wal.records()
        assert excinfo.value.info["records_discarded"] >= 1
        # A poisoned log refuses appends rather than writing after rot.
        with pytest.raises(TransactionError):
            wal.log_commit(5, [append_op("t", 3, [(9, "z")])])
        wal.close()

    def test_sequence_break_is_corruption(self, tmp_path):
        path = str(tmp_path / "t.wal")
        write_small_log(path)
        data = open(path, "rb").read()
        # Drop the middle frame: seqs then jump 2 -> 4.
        pos = len(MAGIC)
        frames = []
        while pos < len(data):
            length, _, _ = _HEADER.unpack_from(data, pos)
            end = pos + _HEADER.size + length
            frames.append(data[pos:end])
            pos = end
        with open(path, "wb") as fh:
            fh.write(MAGIC + frames[0] + frames[2] + frames[3])
        wal = WriteAheadLog(path, recovery="strict")
        with pytest.raises(WalCorruptionError, match="sequence break"):
            wal.records()
        wal.close()

    def test_database_strict_raises_tolerant_counts(self, tmp_path):
        path = str(tmp_path / "db.wal")
        db = repro.Database(wal_path=path)
        db.execute("CREATE TABLE t (id INTEGER)")
        for i in range(5):
            db.insert_rows("t", [(i,)])
        db.close()
        data = bytearray(open(path, "rb").read())
        # Flip inside a mid-log frame's payload: a CRC-detectable hit
        # (a header flip can read as torn tail) placed late enough that
        # CREATE TABLE and some inserts survive in tolerant mode.
        pos = len(MAGIC)
        for _ in range(5):
            length, _, _ = _HEADER.unpack_from(data, pos)
            pos += _HEADER.size + length
        data[pos + _HEADER.size + 2] ^= 0xFF
        with open(path, "wb") as fh:
            fh.write(bytes(data))
        with pytest.raises(WalCorruptionError):
            repro.Database(
                wal_path=path, recovery="strict",
                flight_dir=str(tmp_path / "fr"),
            )
        # Strict left the file untouched: tolerant still recovers the
        # prefix, counts the damage, and exposes it on last_recovery.
        db2 = repro.Database(wal_path=path, recovery="tolerant")
        rec = db2.last_recovery
        assert rec["records_discarded"] >= 1 or rec["torn_bytes"] > 0
        assert db2.execute("SELECT COUNT(*) FROM t").rows[0][0] < 5
        snap = db2.metrics.snapshot()["counters"]
        assert (
            snap.get("wal_records_discarded_total", 0) >= 1
            or rec["torn_bytes"] > 0
        )
        db2.close()

    def test_recovery_failure_dumps_flight_bundle(self, tmp_path):
        from repro.obs.flight import load_bundle

        path = str(tmp_path / "db.wal")
        db = repro.Database(wal_path=path)
        db.execute("CREATE TABLE t (id INTEGER)")
        db.insert_rows("t", [(1,)])
        db.checkpoint()
        db.close()
        snap = snapshot_path(path)
        data = bytearray(open(snap, "rb").read())
        data[-2] ^= 0xFF
        with open(snap, "wb") as fh:
            fh.write(bytes(data))
        flight_dir = tmp_path / "fr"
        with pytest.raises(WalCorruptionError):
            repro.Database(wal_path=path, flight_dir=str(flight_dir))
        bundles = list(flight_dir.glob("*.json"))
        assert bundles, "recovery failure left no flight bundle"
        load_bundle(str(bundles[0]))


class TestGroupedReplay:
    def test_replay_is_atomic_per_transaction(self, tmp_path):
        """Regression (seed-era bug): replay used to commit each op in
        its own transaction, so a failure mid-group left earlier ops of
        the same transaction committed. Grouped replay must leave *no
        trace* of a transaction it cannot finish."""
        path = str(tmp_path / "t.wal")
        wal = WriteAheadLog(path)
        wal.log_commit(1, [("create_table", "t", simple_schema())])
        wal.log_commit(
            2,
            [
                append_op("t", 0, [(1, "a")]),
                append_op("missing", 0, [(2, "b")]),  # fails on replay
            ],
        )
        wal.close()
        reader = WriteAheadLog(path)
        manager = make_manager()
        with pytest.raises(CatalogError):
            reader.replay_into(manager)
        # txn 1 committed, txn 2 vanished whole: t exists and is empty.
        assert manager.catalog.data("t").row_count == 0
        reader.close()

    def test_uncommitted_group_not_replayed(self, tmp_path):
        path = str(tmp_path / "t.wal")
        wal = WriteAheadLog(path)
        wal.log_commit(1, [("create_table", "t", simple_schema())])
        wal.close()
        # Frames without a commit marker: an interrupted transaction.
        head = {
            "txn": 9, "op": "append", "name": "t",
            "rows_before": 0, "rows": 1,
        }
        chunk = encode_chunk(append_op("t", 0, [(7, "x")])[3])
        with open(path, "ab") as fh:
            fh.write(frame(3, pack_head(head) + chunk))
        reader = WriteAheadLog(path)
        manager = make_manager()
        stats = reader.replay_stats(manager)
        assert stats["transactions"] == 1
        assert stats["incomplete_transactions"] == 1
        assert manager.catalog.data("t").row_count == 0
        reader.close()


class TestCheckpoint:
    def test_checkpoint_truncates_and_recovers(self, tmp_path):
        path = str(tmp_path / "db.wal")
        db = repro.Database(wal_path=path)
        db.execute("CREATE TABLE t (id INTEGER, name VARCHAR)")
        db.insert_rows("t", [(i, f"r{i}") for i in range(20)])
        size_before = db.txns.wal.size_bytes()
        info = db.checkpoint()
        assert info["wal_bytes_after"] < size_before
        assert os.path.exists(snapshot_path(path))
        db.insert_rows("t", [(20, "r20")])
        db.close()
        db2 = repro.Database(wal_path=path)
        assert db2.last_recovery["snapshot_used"]
        assert db2.last_recovery["operations_replayed"] == 1
        assert db2.execute("SELECT COUNT(*) FROM t").rows[0][0] == 21
        counters = db2.metrics.snapshot()["counters"]
        assert "wal_recovery_seconds" not in counters  # histogram, not counter
        db2.close()

    def test_auto_checkpoint_from_commit_path(self, tmp_path):
        path = str(tmp_path / "db.wal")
        db = repro.Database(wal_path=path, checkpoint_bytes=400)
        db.execute("CREATE TABLE t (id INTEGER, name VARCHAR)")
        for i in range(30):
            db.insert_rows("t", [(i, "x" * 20)])
        assert os.path.exists(snapshot_path(path))
        assert (
            db.metrics.snapshot()["counters"]["wal_checkpoints_total"] >= 1
        )
        # The log stays bounded around the threshold, not cumulative.
        assert db.txns.wal.size_bytes() < 4 * 400 + 200
        db.close()
        db2 = repro.Database(wal_path=path)
        assert db2.execute("SELECT COUNT(*) FROM t").rows[0][0] == 30
        db2.close()

    def test_env_checkpoint_bytes(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CHECKPOINT_BYTES", "300")
        path = str(tmp_path / "db.wal")
        db = repro.Database(wal_path=path)
        assert db.checkpoint_bytes == 300
        db.execute("CREATE TABLE t (id INTEGER)")
        for i in range(25):
            db.insert_rows("t", [(i,)])
        assert os.path.exists(snapshot_path(path))
        db.close()

    def test_crash_between_rename_and_truncate_dedups(self, tmp_path):
        """Simulate dying after the snapshot rename but before the WAL
        truncation: the stale prefix must be seq-filtered, not applied
        on top of the snapshot (replay idempotence)."""
        path = str(tmp_path / "db.wal")
        db = repro.Database(wal_path=path)
        db.execute("CREATE TABLE t (id INTEGER)")
        db.insert_rows("t", [(1,), (2,), (3,)])
        pre_truncate = str(tmp_path / "saved.wal")
        db.close()
        shutil.copy(path, pre_truncate)
        db = repro.Database(wal_path=path)
        db.checkpoint()
        db.close()
        # Restore the untruncated log beside the new snapshot.
        shutil.copy(pre_truncate, path)
        db2 = repro.Database(wal_path=path)
        assert db2.last_recovery["snapshot_used"]
        assert db2.last_recovery["operations_replayed"] == 0
        assert db2.execute("SELECT COUNT(*) FROM t").rows[0][0] == 3
        db2.close()

    def test_commits_after_snapshot_recovery_keep_their_seqs(self, tmp_path):
        """Regression (crash-battery seed 54): a checkpoint can leave an
        *empty* WAL suffix, so a later session has no frame to carry the
        sequence numbering forward. Its commits must still land above
        the snapshot's ``wal_seq`` — restarting at 1 would make the
        *next* recovery's min-seq filter silently drop them."""
        path = str(tmp_path / "db.wal")
        db = repro.Database(wal_path=path)
        db.execute("CREATE TABLE t (id INTEGER)")
        db.insert_rows("t", [(i,) for i in range(10)])
        info = db.checkpoint()
        db.close()
        assert info["wal_seq"] > 0

        db2 = repro.Database(wal_path=path)
        assert db2.last_recovery["snapshot_used"]
        db2.execute("CREATE TABLE probe (id INTEGER)")
        db2.insert_rows("probe", [(99,)])
        assert db2.txns.wal.last_seq > info["wal_seq"]
        db2.close()

        db3 = repro.Database(wal_path=path)
        assert db3.last_recovery["transactions_replayed"] == 2
        assert db3.execute("SELECT id FROM probe").rows == [(99,)]
        assert db3.execute("SELECT COUNT(*) FROM t").rows[0][0] == 10
        db3.close()

    def test_torn_snapshot_tmp_is_ignored(self, tmp_path):
        path = str(tmp_path / "db.wal")
        db = repro.Database(wal_path=path)
        db.execute("CREATE TABLE t (id INTEGER)")
        db.insert_rows("t", [(1,)])
        db.close()
        # A checkpoint that died mid-write leaves only a .tmp behind.
        with open(snapshot_path(path) + ".tmp", "wb") as fh:
            fh.write(b"RPSNAPv1\n\x00\x00")
        db2 = repro.Database(wal_path=path)
        assert not db2.last_recovery["snapshot_used"]
        assert db2.execute("SELECT COUNT(*) FROM t").rows[0][0] == 1
        assert not os.path.exists(snapshot_path(path) + ".tmp")
        db2.close()

    def test_checkpoint_requires_file_wal(self):
        db = repro.Database()
        with pytest.raises(TransactionError):
            db.checkpoint()

    def test_snapshot_loadable(self, tmp_path):
        path = str(tmp_path / "db.wal")
        db = repro.Database(wal_path=path)
        db.execute("CREATE TABLE t (id INTEGER, name VARCHAR)")
        db.insert_rows("t", [(1, "a")])
        db.checkpoint()
        db.close()
        snapshot = load_snapshot(snapshot_path(path))
        assert snapshot["wal_seq"] >= 1
        (table,) = snapshot["tables"]
        assert (table["name"], table["rows"]) == ("t", 1)
        assert [c.to_pylist() for c in table["columns"]] == [[1], ["a"]]


class TestForeignFile:
    """A non-empty file without the magic is not a repro WAL: it is
    rejected in both recovery modes and never modified. (The seed-era
    JSON-lines "v1" format is such a file now — before, *any* foreign
    file was sniffed as v1 and tolerant recovery truncated it to zero
    bytes.) A file of an earlier *binary* format version is refused the
    same way, with a message that names its version."""

    @pytest.mark.parametrize("recovery", ["strict", "tolerant"])
    @pytest.mark.parametrize(
        "content",
        [
            b"shopping list:\n- eggs\n- milk\n",
            b'{"txn": 1, "op": "commit"}\n',
            MAGIC[:-1] + b"X" + b"\x00" * 32,
        ],
    )
    def test_non_wal_file_is_rejected_untouched(
        self, tmp_path, recovery, content
    ):
        from repro.obs.flight import load_bundle

        path = tmp_path / "notes.txt"
        path.write_bytes(content)
        flight_dir = tmp_path / "fr"
        with pytest.raises(WalCorruptionError, match="not a repro WAL"):
            repro.Database(
                wal_path=str(path), recovery=recovery,
                flight_dir=str(flight_dir),
            )
        assert path.read_bytes() == content
        assert not os.path.exists(snapshot_path(str(path)))
        bundles = list(flight_dir.glob("*.json"))
        assert bundles, "rejected open left no flight bundle"
        load_bundle(str(bundles[0]))

    @pytest.mark.parametrize("content", [b"", MAGIC[:3]])
    def test_empty_or_torn_magic_is_stamped(self, tmp_path, content):
        path = tmp_path / "db.wal"
        path.write_bytes(content)
        db = repro.Database(wal_path=str(path))
        db.execute("CREATE TABLE t (id INTEGER)")
        db.close()
        assert path.read_bytes().startswith(MAGIC)
        db2 = repro.Database(wal_path=str(path))
        assert db2.table_names() == ["t"]
        db2.close()


class TestModesMatrix:
    @pytest.mark.parametrize("encoding", ["raw", "auto"])
    @pytest.mark.parametrize("workers", [1, 4])
    def test_recovery_twin_equivalence(self, tmp_path, encoding, workers):
        """WAL round-trip under every storage-encoding × worker-count
        combination: the recovered twin must match the live database
        exactly."""
        path = str(tmp_path / "db.wal")
        db = repro.Database(
            wal_path=path, encoding=encoding, workers=workers,
        )
        db.execute(
            "CREATE TABLE t (id INTEGER, word VARCHAR, score INTEGER)"
        )
        db.insert_rows(
            "t", [(i, f"w{i % 5}", i * 3 % 17) for i in range(50)]
        )
        db.execute("UPDATE t SET word = 'hot' WHERE score < 5")
        db.execute("DELETE FROM t WHERE score > 14")
        live = dump(db)
        rows_live = db.execute("SELECT * FROM t ORDER BY id").rows
        db.close()
        twin = repro.Database(
            wal_path=path, encoding=encoding, workers=workers,
        )
        assert dump(twin) == live
        assert twin.execute("SELECT * FROM t ORDER BY id").rows == rows_live
        twin.close()

    def test_reopen_is_idempotent(self, tmp_path):
        """Recovering the same log repeatedly always lands on the same
        state (recovery itself never mutates what replay sees)."""
        path = str(tmp_path / "db.wal")
        db = repro.Database(wal_path=path)
        db.execute("CREATE TABLE t (id INTEGER)")
        db.insert_rows("t", [(i,) for i in range(7)])
        db.close()
        states = []
        for _ in range(3):
            probe = repro.Database(wal_path=path)
            states.append(dump(probe))
            probe.close()
        assert states[0] == states[1] == states[2]


class TestFsyncDurability:
    def test_failed_fsync_poisons_the_log(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_WAL_FSYNC_FAIL", "2")
        path = str(tmp_path / "db.wal")
        db = repro.Database(wal_path=path)
        db.execute("CREATE TABLE t (id INTEGER)")  # fsync 1: ok
        with pytest.raises(TransactionError):
            db.insert_rows("t", [(1,)])  # fsync 2: injected failure
        # The unfsynced commit must not be acknowledged later either.
        with pytest.raises(TransactionError):
            db.insert_rows("t", [(2,)])
        db.close()

    def test_wal_file_exists_immediately(self, tmp_path):
        path = str(tmp_path / "db.wal")
        repro.Database(wal_path=path).close()
        assert os.path.exists(path)
        assert open(path, "rb").read() == MAGIC

    def test_export_surface(self):
        assert repro.WalCorruptionError is WalCorruptionError


def durable_db(tmp_path, **kwargs):
    return repro.Database(wal_path=str(tmp_path / "db.wal"), **kwargs)


def load_numbered(db, table: str, n: int) -> None:
    db.execute(f"CREATE TABLE {table} (id INTEGER, bal INTEGER, owner VARCHAR)")
    db.load_columns(
        table,
        {
            "id": np.arange(n),
            "bal": np.arange(n) * 7 % 1000,
            "owner": np.array([f"own{i % 50:02d}" for i in range(n)], dtype=object),
        },
    )


class TestDeltaRecords:
    def test_update_and_delete_log_positions_not_tables(self, tmp_path):
        db = durable_db(tmp_path)
        load_numbered(db, "t", 1000)
        db.execute("UPDATE t SET bal = bal + 1, owner = 'new' WHERE id = 17")
        db.execute("DELETE FROM t WHERE id IN (3, 5)")
        heads = [
            r for r in db.txns.wal.records()
            if r["op"] in ("update", "delete")
        ]
        assert heads == [
            {
                "txn": heads[0]["txn"], "op": "update", "name": "t",
                "rows_before": 1000, "rows": 1, "ordinals": [1, 2],
            },
            {
                "txn": heads[1]["txn"], "op": "delete", "name": "t",
                "rows_before": 1000, "rows": 2,
            },
        ]
        live = dump(db)
        db.close()
        assert dump(durable_db(tmp_path)) == live

    def test_one_row_update_bytes_do_not_depend_on_table_size(self, tmp_path):
        """Same bytes on a 1,000-row and a 50,000-row table — but for
        ``rows_before`` in the JSON head (and the frame CRC over it),
        which is the table size by definition."""
        appended = []
        for n in (1_000, 50_000):
            path = tmp_path / f"n{n}.wal"
            db = repro.Database(wal_path=str(path))
            load_numbered(db, "t", n)
            before = path.read_bytes()
            db.execute("UPDATE t SET bal = bal + 1 WHERE id = 500")
            after = path.read_bytes()
            db.close()
            assert after.startswith(before)
            frames, _ = scan_log(MAGIC + after[len(before):])
            update, commit = frames
            assert update.head.pop("rows_before") == n
            appended.append(
                (
                    len(after) - len(before),
                    update.head,
                    after[len(before):][update.chunk - 8 : update.end - 8],
                    commit.head,
                )
            )
        assert appended[0] == appended[1]
        assert appended[0][0] <= 512

    def test_statement_that_changes_nothing_logs_nothing(self, tmp_path):
        db = durable_db(tmp_path)
        load_numbered(db, "t", 100)
        db.execute("CREATE TABLE u (id INTEGER, bal INTEGER, owner VARCHAR)")
        size = db.txns.wal.size_bytes()
        counters = db.metrics.snapshot()["counters"]
        assert db.execute("UPDATE t SET bal = 0 WHERE id = -1").rowcount == 0
        assert db.execute("DELETE FROM t WHERE id = -1").rowcount == 0
        assert db.execute(
            "INSERT INTO u SELECT * FROM t WHERE id < 0"
        ).rowcount == 0
        assert db.insert_rows("u", []) == 0
        assert db.txns.wal.size_bytes() == size
        after = db.metrics.snapshot()["counters"]
        for name in (
            "storage_rows_updated_total", "storage_rows_deleted_total",
            "storage_rows_inserted_total", "wal_records_total",
        ):
            assert after.get(name, 0) == counters.get(name, 0)
        # Inside a transaction that also writes, only the write is logged.
        with db.transaction():
            db.execute("DELETE FROM t WHERE id = -1")
            db.execute("DELETE FROM t WHERE id = 1")
        ops = [r["op"] for r in db.txns.wal.records()]
        assert ops[-2:] == ["delete", "commit"]
        db.close()

    def test_oversized_record_is_refused_before_it_is_written(
        self, tmp_path, monkeypatch
    ):
        """A frame longer than the reader's cap would read back as a
        torn tail and be dropped: the writer refuses it instead."""
        import repro.txn.wal as wal_module

        db = durable_db(tmp_path)
        load_numbered(db, "t", 10)
        size = db.txns.wal.size_bytes()
        seq = db.txns.wal.last_seq
        monkeypatch.setattr(wal_module, "MAX_RECORD_BYTES", 1024)
        with pytest.raises(TransactionError, match="smaller batches"):
            db.insert_rows("t", [(i, i, "x" * 40) for i in range(100)])
        monkeypatch.undo()
        assert db.txns.wal.size_bytes() == size
        assert db.txns.wal.last_seq == seq
        # Nothing of the refused transaction happened, the log goes on.
        assert db.row_count("t") == 10
        db.execute("DELETE FROM t WHERE id = 1")
        db.close()
        again = durable_db(tmp_path, recovery="strict")
        assert again.row_count("t") == 9
        again.close()

    def test_rows_before_mismatch_is_corruption(self, tmp_path):
        path = str(tmp_path / "t.wal")
        wal = WriteAheadLog(path)
        wal.log_commit(
            1,
            [
                ("create_table", "t", simple_schema()),
                append_op("t", 0, [(1, "a"), (2, "b")]),
            ],
        )
        # Logged against 5 rows; the table it meets on replay has 2.
        wal.log_commit(2, [("delete", "t", 5, np.asarray([4]))])
        wal.close()
        for recovery in ("strict", "tolerant"):
            reader = WriteAheadLog(path, recovery=recovery)
            manager = make_manager()
            with pytest.raises(WalCorruptionError, match="5 row"):
                reader.replay_into(manager)
            # Atomic per transaction: txn 1 stands, txn 2 left no trace.
            assert manager.catalog.data("t").row_count == 2
            reader.close()

    def test_position_outside_the_table_is_corruption(self, tmp_path):
        path = str(tmp_path / "t.wal")
        wal = WriteAheadLog(path)
        wal.log_commit(
            1,
            [
                ("create_table", "t", simple_schema()),
                append_op("t", 0, [(1, "a"), (2, "b")]),
                ("delete", "t", 2, np.asarray([2])),
            ],
        )
        wal.close()
        reader = WriteAheadLog(path)
        with pytest.raises(WalCorruptionError, match="outside the table"):
            reader.replay_into(make_manager())
        reader.close()

    def test_bit_flip_inside_a_chunk_body(self, tmp_path):
        path = tmp_path / "db.wal"
        db = repro.Database(wal_path=str(path))
        db.execute("CREATE TABLE t (id INTEGER, name VARCHAR)")
        db.insert_rows("t", [(1, "a")])
        size = db.txns.wal.size_bytes()
        db.insert_rows("t", [(i, "b" * 40) for i in range(2, 40)])
        db.close()
        data = bytearray(path.read_bytes())
        # The last append's chunk sits well inside the final frames:
        # flip a value byte, far from every frame header and JSON head.
        data[size + (len(data) - size) // 2] ^= 0x04
        path.write_bytes(bytes(data))
        with pytest.raises(WalCorruptionError, match="crc mismatch"):
            repro.Database(
                wal_path=str(path), recovery="strict",
                flight_dir=str(tmp_path / "fr"),
            )
        assert path.read_bytes() == bytes(data)
        db2 = repro.Database(wal_path=str(path), recovery="tolerant")
        assert db2.last_recovery["records_discarded"] >= 1
        assert db2.last_recovery["bytes_discarded"] > 0
        assert db2.execute("SELECT id, name FROM t").rows == [(1, "a")]
        assert os.path.getsize(path) == size
        db2.close()


class TestOlderFormats:
    """One reader, one writer: a log or a snapshot of an earlier format
    version is refused with a message naming the version, and not a
    byte of it changes."""

    V2_LOG = b"RPWALv2\n" + frame(
        1, b'{"txn": 1, "op": "create_table", "name": "t", "schema": []}'
    ) + frame(2, b'{"txn": 1, "op": "commit"}')

    @pytest.mark.parametrize("recovery", ["strict", "tolerant"])
    def test_v2_log_is_refused_untouched(self, tmp_path, recovery):
        path = tmp_path / "old.wal"
        path.write_bytes(self.V2_LOG)
        with pytest.raises(WalCorruptionError, match="format version 2"):
            repro.Database(
                wal_path=str(path), recovery=recovery,
                flight_dir=str(tmp_path / "fr"),
            )
        assert path.read_bytes() == self.V2_LOG
        assert not os.path.exists(snapshot_path(str(path)))

    @pytest.mark.parametrize("recovery", ["strict", "tolerant"])
    def test_v1_snapshot_is_refused_untouched(self, tmp_path, recovery):
        path = tmp_path / "db.wal"
        repro.Database(wal_path=str(path)).close()
        body = b'{"wal_seq": 0, "commit_ts": 0, "tables": {}}'
        old = (
            b"RPSNAPv1\n"
            + struct.pack(">IQ", zlib.crc32(body), len(body))
            + body
        )
        snap = tmp_path / "db.wal.ckpt"
        snap.write_bytes(old)
        log_before = path.read_bytes()
        with pytest.raises(WalCorruptionError, match="format version 1"):
            repro.Database(
                wal_path=str(path), recovery=recovery,
                flight_dir=str(tmp_path / "fr"),
            )
        assert snap.read_bytes() == old
        assert path.read_bytes() == log_before

    def test_current_magics(self):
        assert MAGIC == b"RPWALv3\n"
        assert SNAP_MAGIC == b"RPSNAPv2\n"


class TestLoadColumnsIsDurable:
    """``load_columns`` logs its batch like any append. (It used to
    bypass the WAL: after load + INSERT a reopen kept 1 row of 4, and
    positional deltas logged after an unlogged load could not be
    replayed at all.)"""

    @pytest.mark.parametrize(
        "statement",
        [
            "INSERT INTO t VALUES (9, 9, 'w')",
            "UPDATE t SET owner = 'w' WHERE id = 1",
            "DELETE FROM t WHERE id = 1",
        ],
    )
    @pytest.mark.parametrize("checkpoint", [False, True])
    def test_load_then_statement_survives_reopen(
        self, tmp_path, statement, checkpoint
    ):
        db = durable_db(tmp_path)
        load_numbered(db, "t", 3)
        if checkpoint:
            db.checkpoint()
        db.execute(statement)
        rows = db.execute("SELECT * FROM t").rows
        assert len(rows) in (2, 3, 4)
        db.close()
        again = durable_db(tmp_path)
        assert again.execute("SELECT * FROM t").rows == rows
        again.close()


class TestTelemetry:
    def test_commit_and_recovery_are_timed(self, tmp_path):
        db = durable_db(tmp_path)
        load_numbered(db, "t", 100)
        db.execute("UPDATE t SET bal = 1 WHERE id = 1")
        histograms = db.metrics.snapshot()["histograms"]
        commits = db.metrics.snapshot()["counters"]["txn_commits_total"]
        for name in ("wal_serialize_seconds", "wal_fsync_seconds"):
            assert histograms[name]["count"] == commits
            assert histograms[name]["sum"] > 0
        info = db.checkpoint()
        assert 0 < info["duration_seconds"] < 60
        db.execute("UPDATE t SET bal = 2 WHERE id = 2")
        db.close()
        again = durable_db(tmp_path)
        rec = again.last_recovery
        assert rec["snapshot_seconds"] > 0 and rec["replay_seconds"] > 0
        assert rec["snapshot_seconds"] + rec["replay_seconds"] == pytest.approx(
            rec["duration_seconds"]
        )
        again.close()

    def test_describe_lists_records_read_only(self, tmp_path, capsys):
        path = tmp_path / "db.wal"
        db = repro.Database(wal_path=str(path))
        load_numbered(db, "t", 10)
        db.execute("DELETE FROM t WHERE id < 3")
        db.close()
        with open(path, "ab") as fh:
            fh.write(b"\x00\x00\x01")  # a torn tail stays where it is
        before = path.read_bytes()
        lines = describe(str(path))
        assert lines[0] == "seq txn op table rows bytes"
        assert [line.split()[2] for line in lines[1:-1]] == [
            "create_table", "commit", "append", "commit", "delete", "commit",
        ]
        seq, _txn, op, table, rows, nbytes = lines[5].split()
        assert (seq, op, table, rows) == ("5", "delete", "t", "3")
        assert int(nbytes) > 0
        assert lines[-1] == "torn tail: 3 byte(s)"
        assert main([str(path)]) == 0
        assert capsys.readouterr().out.splitlines() == lines
        assert path.read_bytes() == before
        assert main([str(tmp_path / "missing.wal")]) == 1
        assert main([]) == 2
