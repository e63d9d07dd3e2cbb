"""Snapshot-isolation transaction manager.

Transactions read from the catalog version current at their start
timestamp; writes are buffered as transaction-local copy-on-write
:class:`~repro.storage.table.TableData` working copies. Commit uses
first-committer-wins: if any table this transaction wrote has been
committed by someone else since our snapshot, we abort with
:class:`~repro.errors.SerializationConflict`.

This gives the property the paper leans on (section 3): a long-running
analytical query sees one consistent snapshot while OLTP writes continue
to commit concurrently.
"""

from __future__ import annotations

import threading
from typing import Iterable, Sequence

import numpy as np

from ..errors import CatalogError, SerializationConflict, TransactionError
from ..obs.metrics import MetricsRegistry
from ..storage.catalog import Catalog
from ..storage.column import Column
from ..storage.encoding import encode_table_data, stored_form
from ..storage.schema import TableSchema
from ..storage.table import TableData
from .wal import WriteAheadLog


def _conform(column: Column, col_schema) -> Column:
    """``column`` in the form a table column is staged and logged in."""
    if column.sql_type.kind is not col_schema.sql_type.kind:
        raise CatalogError(
            f"column {col_schema.name!r} is {col_schema.sql_type}, "
            f"got {column.sql_type} values"
        )
    return stored_form(column, col_schema.sql_type)


class Transaction:
    """One transaction: a snapshot timestamp plus a private write set."""

    def __init__(self, manager: "TransactionManager", txn_id: int, start_ts: int):
        self._manager = manager
        self.txn_id = txn_id
        self.start_ts = start_ts
        self.write_set: dict[str, TableData] = {}
        self.created_tables: dict[str, TableSchema] = {}
        self.dropped_tables: set[str] = set()
        self.status = "active"
        self._log: list[tuple] = []

    # -- reads ---------------------------------------------------------------

    def read(self, name: str) -> TableData:
        """The contents of ``name`` as this transaction sees them: its own
        uncommitted writes, else the snapshot version."""
        self._check_active()
        key = name.lower()
        if key in self.dropped_tables:
            raise CatalogError(f"no such table: {name!r}")
        if key in self.write_set:
            return self.write_set[key]
        if key in self.created_tables:
            return TableData.empty(self.created_tables[key])
        return self._manager.catalog.data(key, self.start_ts)

    def table_exists(self, name: str) -> bool:
        self._check_active()
        key = name.lower()
        if key in self.dropped_tables:
            return False
        if key in self.created_tables or key in self.write_set:
            return True
        return self._manager.catalog.has_table(key, self.start_ts)

    def schema_of(self, name: str) -> TableSchema:
        return self.read(name).schema

    def visible_tables(self) -> list[str]:
        self._check_active()
        names = set(self._manager.catalog.table_names(self.start_ts))
        names |= set(self.created_tables)
        names -= self.dropped_tables
        return sorted(names)

    # -- writes ----------------------------------------------------------------

    def create_table(
        self, name: str, schema: TableSchema, if_not_exists: bool = False
    ) -> None:
        self._check_active()
        key = name.lower()
        if self.table_exists(key):
            if if_not_exists:
                return
            raise CatalogError(f"table already exists: {name!r}")
        self.dropped_tables.discard(key)
        self.created_tables[key] = schema
        self._log.append(("create_table", key, schema))

    def drop_table(self, name: str, if_exists: bool = False) -> None:
        self._check_active()
        key = name.lower()
        if not self.table_exists(key):
            if if_exists:
                return
            raise CatalogError(f"no such table: {name!r}")
        self.write_set.pop(key, None)
        if key in self.created_tables:
            del self.created_tables[key]
        else:
            self.dropped_tables.add(key)
        self._log.append(("drop_table", key))

    def _stage(self, key: str, data: TableData) -> None:
        """Install a full new version of table ``key`` in the write set.

        Every mutation funnels through here (by way of
        :meth:`append_columns`, :meth:`delete_rows` and
        :meth:`update_rows`, which also log the delta), so the session's
        column-encoding policy is applied here: the staged version is
        re-encoded before it can be read back or committed. Rollback
        needs no special handling — versions are immutable and an
        aborted transaction simply drops its staged ones."""
        self.write_set[key] = encode_table_data(
            data, self._manager.encoding
        )

    def _writable(self, name: str) -> tuple[str, TableData]:
        self._check_active()
        return name.lower(), self.read(name)

    def append_columns(self, name: str, columns: Sequence[Column]) -> int:
        """Append a batch of rows given as one column per schema column,
        already of the table's types; returns the number appended.

        Like :meth:`delete_rows` and :meth:`update_rows` this stages
        the new version *and* logs the delta that produced it, together
        with the row count it was computed against; a batch, position
        set or update that changes no row stages and logs nothing."""
        key, current = self._writable(name)
        schema = current.schema
        if len(columns) != len(schema):
            raise CatalogError(
                f"{name!r} has {len(schema)} columns, got {len(columns)}"
            )
        addition = TableData(
            schema, [_conform(c, s) for c, s in zip(columns, schema)]
        )
        schema.check_not_null(addition.columns)
        if addition.row_count:
            self._stage(key, current.append_data(addition))
            self._log.append(
                ("append", key, current.row_count, addition.columns)
            )
        self._manager.metrics.counter(
            "storage_rows_inserted_total"
        ).inc(addition.row_count)
        return addition.row_count

    def insert_rows(
        self, name: str, rows: Iterable[Sequence[object]]
    ) -> int:
        """Append Python rows to a table; returns the number inserted."""
        addition = TableData.from_rows(self.schema_of(name), rows)
        return self.append_columns(name, addition.columns)

    def delete_rows(self, name: str, positions: np.ndarray) -> int:
        """Delete the rows at ``positions`` (distinct row numbers of
        the version this transaction sees); returns how many."""
        key, current = self._writable(name)
        if len(positions):
            keep = np.ones(current.row_count, dtype=np.bool_)
            keep[positions] = False
            self._stage(key, current.delete_where(keep))
            self._log.append(
                ("delete", key, current.row_count, positions)
            )
        return len(positions)

    def update_rows(
        self,
        name: str,
        positions: np.ndarray,
        replacements: dict[int, Column],
    ) -> int:
        """Give the rows at ``positions`` new values in the columns
        whose ordinals key ``replacements`` (one value per position,
        already of the column's type); returns how many rows."""
        key, current = self._writable(name)
        schema = current.schema
        replacements = {
            i: _conform(col, schema.columns[i])
            for i, col in replacements.items()
        }
        schema.check_not_null(replacements.values(), replacements)
        if len(positions) and replacements:
            self._stage(key, current.update_rows(positions, replacements))
            self._log.append(
                ("update", key, current.row_count, positions, replacements)
            )
        return len(positions)

    # -- savepoints --------------------------------------------------------------

    def savepoint(self) -> tuple:
        """A snapshot of this transaction's buffered state.

        Write-set entries are immutable :class:`TableData` versions, so a
        shallow copy of the dicts is a complete snapshot; the log is
        append-only, so its length suffices."""
        self._check_active()
        return (
            dict(self.write_set),
            dict(self.created_tables),
            set(self.dropped_tables),
            len(self._log),
        )

    def rollback_to(self, sp: tuple) -> None:
        """Restore buffered state to a :meth:`savepoint`, discarding any
        writes staged after it. The transaction stays active."""
        self._check_active()
        write_set, created, dropped, log_len = sp
        self.write_set.clear()
        self.write_set.update(write_set)
        self.created_tables.clear()
        self.created_tables.update(created)
        self.dropped_tables.clear()
        self.dropped_tables.update(dropped)
        del self._log[log_len:]

    # -- lifecycle ----------------------------------------------------------------

    def commit(self) -> int:
        """Atomically publish the write set; returns the commit timestamp
        (or the start timestamp for read-only transactions)."""
        self._check_active()
        ts = self._manager.commit(self)
        self.status = "committed"
        self._release()
        return ts

    def rollback(self) -> None:
        self._check_active()
        self._manager.metrics.counter("txn_rollbacks_total").inc()
        self._manager.finish(self)
        self.status = "aborted"
        self._release()

    def _release(self) -> None:
        """A finished transaction lets go of its staged versions and of
        the engine. Whatever still refers to it (a binder's closures,
        until the cyclic collector gets to them) then pins neither
        superseded table versions nor a dropped database's catalog."""
        self.write_set.clear()
        self.created_tables.clear()
        self.dropped_tables.clear()
        self._log.clear()
        self._manager = None

    def _check_active(self) -> None:
        if self.status != "active":
            raise TransactionError(
                f"transaction {self.txn_id} is {self.status}"
            )

    def __enter__(self) -> "Transaction":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self.status != "active":
            return
        if exc_type is None:
            self.commit()
        else:
            self.rollback()


class TransactionManager:
    """Hands out transactions and arbitrates commits."""

    def __init__(
        self,
        catalog: Catalog,
        wal: WriteAheadLog | None = None,
        metrics: MetricsRegistry | None = None,
        encoding: str = "raw",
    ):
        self.catalog = catalog
        self.wal = wal
        #: Column-encoding policy applied to every staged table version
        #: (see :mod:`repro.storage.encoding`). A standalone manager
        #: defaults to raw storage; :class:`~repro.api.database.Database`
        #: passes its resolved session policy.
        self.encoding = encoding
        #: Session metrics; a standalone manager gets its own registry.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._lock = threading.RLock()
        self._next_txn_id = 1
        self._active: dict[int, Transaction] = {}
        #: Called (with no arguments) after every durable non-read-only
        #: commit, while the manager lock is still held (it is
        #: re-entrant). :class:`~repro.api.database.Database` installs
        #: its auto-checkpoint policy here (docs/durability.md).
        self.after_commit = None

    def begin(self) -> Transaction:
        with self._lock:
            txn = Transaction(
                self, self._next_txn_id, self.catalog.current_ts
            )
            self._next_txn_id += 1
            self._active[txn.txn_id] = txn
            self.metrics.counter("txn_begun_total").inc()
            self.metrics.gauge("txn_active").set(len(self._active))
            return txn

    def active_count(self) -> int:
        return len(self._active)

    def oldest_active_ts(self) -> int:
        """Oldest snapshot still in use (vacuum horizon)."""
        with self._lock:
            if not self._active:
                return self.catalog.current_ts
            return min(t.start_ts for t in self._active.values())

    def finish(self, txn: Transaction) -> None:
        with self._lock:
            self._active.pop(txn.txn_id, None)
            self.metrics.gauge("txn_active").set(len(self._active))

    def commit(self, txn: Transaction) -> int:
        """Validate and install a transaction's write set.

        First-committer-wins: any table written by ``txn`` whose newest
        committed version postdates the snapshot causes an abort.
        """
        with self._lock:
            try:
                read_only = (
                    not txn.write_set
                    and not txn.created_tables
                    and not txn.dropped_tables
                )
                if read_only:
                    self.metrics.counter("txn_commits_total").inc()
                    return txn.start_ts

                try:
                    for name in txn.write_set:
                        if name in txn.created_tables:
                            continue
                        latest = self.catalog.latest_commit_ts_of(name)
                        if latest > txn.start_ts:
                            raise SerializationConflict(
                                f"table {name!r} was modified by a "
                                f"concurrent transaction (committed at "
                                f"{latest}, snapshot is {txn.start_ts})"
                            )
                    for name in txn.dropped_tables:
                        latest = self.catalog.latest_commit_ts_of(name)
                        if latest > txn.start_ts:
                            raise SerializationConflict(
                                f"table {name!r} was modified by a "
                                "concurrent transaction; cannot drop"
                            )
                except SerializationConflict:
                    self.metrics.counter("txn_conflicts_total").inc()
                    raise

                if self.wal is not None:
                    written = self.wal.log_commit(txn.txn_id, txn._log)
                    self.metrics.counter(
                        "wal_bytes_written_total"
                    ).inc(written)

                # Install DDL first so created tables exist for writes.
                for name, schema in txn.created_tables.items():
                    self.catalog.create_table(name, schema)
                for name in txn.dropped_tables:
                    self.catalog.drop_table(name)
                updates = [
                    (name, data)
                    for name, data in txn.write_set.items()
                ]
                if updates:
                    ts = self.catalog.install(updates)
                    # The versions this commit superseded go as soon as
                    # no other snapshot can see them, or a stream of
                    # point updates holds one table copy per statement.
                    horizon = min(
                        (
                            other.start_ts
                            for other in self._active.values()
                            if other is not txn
                        ),
                        default=ts,
                    )
                    self.metrics.counter(
                        "storage_versions_vacuumed_total"
                    ).inc(self.catalog.vacuum(horizon, txn.write_set))
                else:
                    ts = self.catalog.current_ts
                self.metrics.counter("txn_commits_total").inc()
                if self.after_commit is not None and self.wal is not None:
                    self.after_commit()
                return ts
            finally:
                self.finish(txn)

    def vacuum(self) -> int:
        """Free table versions no active snapshot can reach."""
        freed = self.catalog.vacuum(self.oldest_active_ts())
        self.metrics.counter("storage_versions_vacuumed_total").inc(
            freed
        )
        return freed
