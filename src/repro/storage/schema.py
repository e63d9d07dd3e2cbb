"""Table schemas: ordered, typed, named column descriptors."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import CatalogError
from ..types import SQLType


@dataclass(frozen=True)
class ColumnSchema:
    """One column: a case-insensitively matched name and a SQL type."""

    name: str
    sql_type: SQLType
    not_null: bool = False

    def __str__(self) -> str:
        suffix = " NOT NULL" if self.not_null else ""
        return f"{self.name} {self.sql_type}{suffix}"


@dataclass(frozen=True)
class TableSchema:
    """An ordered collection of :class:`ColumnSchema`.

    Column lookup is case-insensitive, matching the engine's SQL dialect
    (identifiers are folded to lower case unless quoted).
    """

    columns: tuple[ColumnSchema, ...]
    _index: dict[str, int] = field(
        default_factory=dict, compare=False, repr=False, hash=False
    )

    def __post_init__(self) -> None:
        index: dict[str, int] = {}
        for i, col in enumerate(self.columns):
            key = col.name.lower()
            if key in index:
                raise CatalogError(f"duplicate column name: {col.name!r}")
            index[key] = i
        object.__setattr__(self, "_index", index)

    @classmethod
    def of(cls, *pairs: tuple[str, SQLType]) -> "TableSchema":
        """Convenience constructor from (name, type) pairs."""
        return cls(tuple(ColumnSchema(n, t) for n, t in pairs))

    def __len__(self) -> int:
        return len(self.columns)

    def __iter__(self):
        return iter(self.columns)

    def names(self) -> list[str]:
        return [c.name for c in self.columns]

    def types(self) -> list[SQLType]:
        return [c.sql_type for c in self.columns]

    def has_column(self, name: str) -> bool:
        return name.lower() in self._index

    def index_of(self, name: str) -> int:
        """Ordinal position of ``name``; raises CatalogError if absent."""
        try:
            return self._index[name.lower()]
        except KeyError:
            raise CatalogError(f"no such column: {name!r}") from None

    def column(self, name: str) -> ColumnSchema:
        return self.columns[self.index_of(name)]

    def check_not_null(self, columns, ordinals=None) -> None:
        """Raise CatalogError if one of ``columns`` — the schema's
        columns in order, or those at ``ordinals`` — holds a NULL its
        NOT NULL constraint forbids."""
        if ordinals is None:
            ordinals = range(len(self.columns))
        for i, column in zip(ordinals, columns):
            if self.columns[i].not_null and column.valid is not None:
                raise CatalogError(
                    f"NULL in NOT NULL column {self.columns[i].name!r}"
                )

    def __str__(self) -> str:
        return "(" + ", ".join(str(c) for c in self.columns) + ")"
