"""The catalog: the authoritative registry of tables.

The catalog owns the global commit timestamp. Snapshot reads resolve
``(name, ts)`` to a :class:`~repro.storage.table.TableData`; the
transaction manager installs new versions through :meth:`Catalog.install`.
"""

from __future__ import annotations

import threading
from typing import Iterable

from ..errors import CatalogError
from .schema import TableSchema
from .table import Table, TableData


class Catalog:
    """Thread-safe registry of versioned tables."""

    def __init__(self) -> None:
        self._tables: dict[str, Table] = {}
        self._commit_ts = 0
        self._ddl_version = 0
        self._lock = threading.RLock()

    # -- timestamps --------------------------------------------------------

    @property
    def current_ts(self) -> int:
        """The timestamp of the most recent commit."""
        return self._commit_ts

    @property
    def ddl_version(self) -> int:
        """Monotonic counter bumped by every CREATE/DROP TABLE; cached
        plans are valid only for the version they were built under."""
        return self._ddl_version

    def next_commit_ts(self) -> int:
        """Advance and return the global commit timestamp."""
        with self._lock:
            self._commit_ts += 1
            return self._commit_ts

    # -- DDL ----------------------------------------------------------------

    def create_table(
        self, name: str, schema: TableSchema, if_not_exists: bool = False
    ) -> Table:
        """Register a new empty table; its creation commits immediately."""
        key = name.lower()
        with self._lock:
            existing = self._tables.get(key)
            if existing is not None and existing.dropped_ts is None:
                if if_not_exists:
                    return existing
                raise CatalogError(f"table already exists: {name!r}")
            ts = self.next_commit_ts()
            table = Table(key, schema, ts)
            self._tables[key] = table
            self._ddl_version += 1
            return table

    def drop_table(self, name: str, if_exists: bool = False) -> None:
        """Drop a table; visibility ends at the drop commit timestamp."""
        key = name.lower()
        with self._lock:
            table = self._tables.get(key)
            if table is None or table.dropped_ts is not None:
                if if_exists:
                    return
                raise CatalogError(f"no such table: {name!r}")
            table.dropped_ts = self.next_commit_ts()
            self._ddl_version += 1

    # -- lookup --------------------------------------------------------------

    def has_table(self, name: str, ts: int | None = None) -> bool:
        ts = self._commit_ts if ts is None else ts
        table = self._tables.get(name.lower())
        return table is not None and table.visible_at(ts)

    def table(self, name: str, ts: int | None = None) -> Table:
        """Resolve a table visible at snapshot ``ts`` (default: latest)."""
        ts = self._commit_ts if ts is None else ts
        table = self._tables.get(name.lower())
        if table is None or not table.visible_at(ts):
            raise CatalogError(f"no such table: {name!r}")
        return table

    def data(self, name: str, ts: int | None = None) -> TableData:
        """The table contents visible at snapshot ``ts``."""
        ts = self._commit_ts if ts is None else ts
        return self.table(name, ts).data_at(ts)

    def table_names(self, ts: int | None = None) -> list[str]:
        """Names of all tables visible at ``ts``, sorted."""
        ts = self._commit_ts if ts is None else ts
        return sorted(
            name
            for name, table in self._tables.items()
            if table.visible_at(ts)
        )

    # -- writes ---------------------------------------------------------------

    def install(
        self, updates: Iterable[tuple[str, TableData]]
    ) -> int:
        """Atomically install new versions for several tables under one
        commit timestamp. Returns the commit timestamp used."""
        with self._lock:
            ts = self.next_commit_ts()
            for name, data in updates:
                self.table(name, ts).install(ts, data)
            return ts

    def latest_commit_ts_of(self, name: str) -> int:
        """Commit timestamp of the latest version of ``name`` (conflict
        detection for first-committer-wins)."""
        with self._lock:
            return self.table(name).latest_commit_ts()

    def vacuum(
        self, oldest_active_ts: int, names: Iterable[str] | None = None
    ) -> int:
        """Drop versions invisible to every snapshot at or newer than
        ``oldest_active_ts`` — of every table, or of ``names`` only (a
        commit prunes the tables it wrote). Returns the number of
        versions freed."""
        with self._lock:
            if names is not None:
                return sum(
                    self._tables[name].truncate_history(oldest_active_ts)
                    for name in names
                )
            freed = 0
            for table in self._tables.values():
                freed += table.truncate_history(oldest_active_ts)
            # Fully remove dropped tables no active snapshot can see.
            dead = [
                name
                for name, t in self._tables.items()
                if t.dropped_ts is not None
                and t.dropped_ts <= oldest_active_ts
            ]
            for name in dead:
                del self._tables[name]
                freed += 1
            return freed
