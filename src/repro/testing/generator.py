"""Deterministic schema-aware SQL workload generator.

One :class:`QueryGenerator` is seeded with an integer; everything it
emits — schemas, data, queries — is a pure function of that seed, so a
divergence found anywhere reproduces from two numbers (seed, query
index).

The generated dialect is the *intersection* of our engine's and
SQLite's, with documented dodges around genuine dialect differences
(see docs/testing.md):

* ``ORDER BY`` always spells ``NULLS FIRST/LAST`` explicitly — the
  engines disagree on the default (PostgreSQL-style "NULLs largest"
  vs SQLite's "NULLs smallest").
* Division only ever has a non-zero literal divisor — SQLite yields
  NULL on division by zero where we raise.
* String data, literals, and LIKE patterns are lowercase ASCII —
  SQLite's LIKE is case-insensitive for ASCII, ours is not.
* Integer arithmetic is bounded well inside int32 — our INTEGER
  columns are 32-bit, SQLite's are 64-bit.
* ``LIMIT`` appears only under a total ORDER BY (all output columns),
  otherwise the selected rows are legitimately engine-dependent.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Optional

from ..sql import ast

# ---------------------------------------------------------------------------
# Schemas and data
# ---------------------------------------------------------------------------

#: Type categories the generator reasons about (maps 1:1 onto both
#: engines' column types).
INTEGER = "INTEGER"
FLOAT = "FLOAT"
VARCHAR = "VARCHAR"
BOOLEAN = "BOOLEAN"

_WORDS = [
    "alder", "birch", "cedar", "dahlia", "elm", "fir",
    "ginkgo", "hazel", "iris", "juniper", "karri", "larch",
]

#: ``"strings"`` skews schemas toward wide, low-cardinality VARCHAR
#: columns — the shape dictionary encoding targets.
SCHEMA_PROFILES = ("default", "strings")


@dataclass(frozen=True)
class GenColumn:
    name: str
    sql_type: str  # one of INTEGER/FLOAT/VARCHAR/BOOLEAN


@dataclass
class GenTable:
    name: str
    columns: list[GenColumn]
    rows: list[tuple]

    def ddl(self) -> str:
        cols = ", ".join(
            f"{c.name} {c.sql_type}" for c in self.columns
        )
        return f"CREATE TABLE {self.name} ({cols})"

    def insert_statements(self) -> list[str]:
        """INSERT statements reproducing the data (for reports)."""
        out = []
        for row in self.rows:
            values = ", ".join(_render_literal(v) for v in row)
            out.append(f"INSERT INTO {self.name} VALUES ({values})")
        return out


def _render_literal(value: object) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, str):
        escaped = value.replace("'", "''")
        return f"'{escaped}'"
    return str(value)


# ---------------------------------------------------------------------------
# Query spec
# ---------------------------------------------------------------------------


@dataclass
class GenExpr:
    """A rendered scalar expression plus the metadata the minimizer
    needs: its type category and the FROM aliases it references."""

    sql: str
    sql_type: str
    aliases: frozenset = frozenset()


@dataclass
class JoinSpec:
    """One FROM element after the first.

    ``kind`` is ``comma`` (cross join; the equi predicate lives in
    WHERE), ``inner``, or ``left`` (predicate in ON).
    """

    kind: str
    table: str
    alias: str
    on: Optional[GenExpr] = None

    def render(self) -> str:
        if self.kind == "comma":
            return f", {self.table} {self.alias}"
        keyword = "LEFT JOIN" if self.kind == "left" else "JOIN"
        return f" {keyword} {self.table} {self.alias} ON {self.on.sql}"


@dataclass
class GenQuery:
    """A structured SELECT the minimizer can shrink part by part."""

    items: list[GenExpr]
    base_table: str
    base_alias: str
    joins: list[JoinSpec] = field(default_factory=list)
    where: list[GenExpr] = field(default_factory=list)
    group_by: list[GenExpr] = field(default_factory=list)
    having: Optional[GenExpr] = None
    distinct: bool = False
    set_op: Optional[tuple[str, "GenQuery"]] = None
    #: (1-based ordinal, descending, nulls_last) per sort key.
    order_by: list[tuple[int, bool, bool]] = field(default_factory=list)
    limit: Optional[int] = None
    offset: Optional[int] = None

    @property
    def ordered(self) -> bool:
        """True when the ORDER BY pins a total order over the output
        (every column is a key), so results compare as lists."""
        return len(self.order_by) >= len(self.items)

    @property
    def has_float(self) -> bool:
        return any(item.sql_type == FLOAT for item in self.items)

    def core_sql(self) -> str:
        parts = ["SELECT "]
        if self.distinct:
            parts.append("DISTINCT ")
        parts.append(
            ", ".join(
                f"{item.sql} AS c{i}"
                for i, item in enumerate(self.items)
            )
        )
        parts.append(f" FROM {self.base_table} {self.base_alias}")
        for join in self.joins:
            parts.append(join.render())
        if self.where:
            parts.append(
                " WHERE " + " AND ".join(p.sql for p in self.where)
            )
        if self.group_by:
            parts.append(
                " GROUP BY " + ", ".join(g.sql for g in self.group_by)
            )
        if self.having is not None:
            parts.append(f" HAVING {self.having.sql}")
        return "".join(parts)

    def to_sql(self) -> str:
        parts = [self.core_sql()]
        if self.set_op is not None:
            op, arm = self.set_op
            parts.append(f" {op} {arm.core_sql()}")
        if self.order_by:
            keys = []
            for ordinal, descending, nulls_last in self.order_by:
                direction = "DESC" if descending else "ASC"
                nulls = "LAST" if nulls_last else "FIRST"
                keys.append(f"{ordinal} {direction} NULLS {nulls}")
            parts.append(" ORDER BY " + ", ".join(keys))
        if self.limit is not None:
            parts.append(f" LIMIT {self.limit}")
            if self.offset:
                parts.append(f" OFFSET {self.offset}")
        return "".join(parts)


# ---------------------------------------------------------------------------
# The generator
# ---------------------------------------------------------------------------


class QueryGenerator:
    """Seeded source of schemas, data, and queries.

    Typical use::

        gen = QueryGenerator(seed)
        tables = gen.schema()
        for _ in range(3):
            query = gen.query(tables)

    The same seed always yields the same schema and query sequence.
    """

    def __init__(self, seed: int, schema_profile: str = "default"):
        if schema_profile not in SCHEMA_PROFILES:
            raise ValueError(
                f"unknown schema profile {schema_profile!r}; "
                f"expected one of {', '.join(SCHEMA_PROFILES)}"
            )
        self.seed = seed
        self.rng = random.Random(seed)
        #: A stream of its own for the second join key
        #: (:meth:`_second_equi_key`), so drawing it leaves every other
        #: choice of the seed as it was.
        self._key_rng = random.Random(f"{seed}:join-keys")
        self.schema_profile = schema_profile
        self._alias_counter = 0

    # -- schema / data -----------------------------------------------------

    def schema(self) -> list[GenTable]:
        rng = self.rng
        strings = self.schema_profile == "strings"
        if strings:
            type_pool = [VARCHAR] * 4 + [INTEGER, BOOLEAN]
        else:
            type_pool = [INTEGER, INTEGER, FLOAT, VARCHAR, BOOLEAN]
        tables = []
        for t in range(rng.randint(2, 3)):
            columns = [GenColumn("k", INTEGER)]
            n_extra = rng.randint(3, 5) if strings else rng.randint(2, 4)
            for c in range(n_extra):
                sql_type = rng.choice(type_pool)
                columns.append(GenColumn(f"c{c}", sql_type))
            if strings:
                n_rows = rng.choice([0] + [rng.randint(20, 120)] * 9)
            else:
                n_rows = rng.choice([0] + [rng.randint(1, 60)] * 9)
            rows = [
                tuple(self._cell(col) for col in columns)
                for _ in range(n_rows)
            ]
            tables.append(GenTable(f"t{t}", columns, rows))
        return tables

    def _cell(self, col: GenColumn) -> object:
        rng = self.rng
        if rng.random() < 0.12:
            return None
        if col.sql_type == INTEGER:
            return rng.randint(-9, 30)
        if col.sql_type == FLOAT:
            return round(rng.uniform(-50.0, 50.0), 2)
        if col.sql_type == VARCHAR:
            if self.schema_profile == "strings":
                # Low cardinality on purpose: repeated words make the
                # dictionary path dominant and its codes dense.
                return rng.choice(_WORDS[:5])
            word = rng.choice(_WORDS)
            if rng.random() < 0.3:
                word += str(rng.randint(0, 9))
            return word
        return rng.random() < 0.5

    # -- queries -----------------------------------------------------------

    def query(self, tables: list[GenTable]) -> GenQuery:
        rng = self.rng
        shape = rng.random()
        if shape < 0.45:
            query = self._plain_query(tables)
        elif shape < 0.75:
            query = self._group_query(tables)
        else:
            query = self._setop_query(tables)
        self._attach_order(query)
        return query

    # Each alias is unique within the generator so reproducers stay
    # readable when queries are concatenated into one report.
    def _next_alias(self) -> str:
        alias = f"a{self._alias_counter}"
        self._alias_counter += 1
        return alias

    def _pick_from(
        self, tables: list[GenTable], max_joins: int = 2
    ) -> tuple[str, str, list[JoinSpec], list[GenExpr], list]:
        """Choose a FROM clause; returns (base table, base alias,
        joins, extra WHERE conjuncts, visible columns)."""
        rng = self.rng
        base = rng.choice(tables)
        base_alias = self._next_alias()
        scope = [(base_alias, col) for col in base.columns]
        # An ON clause may only reference its own join-chain arms
        # (PostgreSQL scoping): a comma starts a fresh arm, so track
        # the current arm's aliases separately from the full scope.
        arm_scope = list(scope)
        joins: list[JoinSpec] = []
        where: list[GenExpr] = []
        n_joins = rng.choice([0, 0, 1, 1, 1, 2])
        n_joins = min(n_joins, max_joins)
        for _ in range(n_joins):
            other = rng.choice(tables)
            alias = self._next_alias()
            kind = rng.choice(["comma", "inner", "left"])
            # Join on a same-typed column pair (prefer the integer key).
            # Comma-join equi predicates live in WHERE, where the whole
            # scope is visible; ON predicates see only the current arm.
            pred_scope = scope if kind == "comma" else arm_scope
            left_alias, left_col = rng.choice(
                [
                    (a, c)
                    for a, c in pred_scope
                    if c.sql_type in (INTEGER, VARCHAR)
                ]
            )
            candidates = [
                c for c in other.columns
                if c.sql_type == left_col.sql_type
            ]
            right_col = rng.choice(candidates) if candidates else None
            if right_col is None:
                cond = None
            else:
                cond = GenExpr(
                    f"{left_alias}.{left_col.name} = "
                    f"{alias}.{right_col.name}",
                    BOOLEAN,
                    frozenset({left_alias, alias}),
                )
            if cond is None:
                kind = "comma"  # no equi key: plain cross join
            else:
                cond = self._second_equi_key(cond, pred_scope, other, alias)
            if kind == "comma":
                joins.append(JoinSpec("comma", other.name, alias))
                if cond is not None:
                    where.append(cond)
                arm_scope = [
                    (alias, col) for col in other.columns
                ]
            else:
                joins.append(JoinSpec(kind, other.name, alias, cond))
                arm_scope.extend(
                    (alias, col) for col in other.columns
                )
            scope.extend((alias, col) for col in other.columns)
        return base.name, base_alias, joins, where, scope

    def _second_equi_key(
        self,
        cond: GenExpr,
        pred_scope: list,
        other: GenTable,
        alias: str,
    ) -> GenExpr:
        """Now and then, AND an equality on a same-typed FLOAT or
        VARCHAR column pair onto a join's equi-key: a two-key hash join
        whose second key would have to be sorted, or compared on the
        candidates of the first."""
        rng = self._key_rng
        if rng.random() >= 0.3:
            return cond
        pairs = [
            ((left_alias, col), right)
            for left_alias, col in pred_scope
            if col.sql_type in (FLOAT, VARCHAR)
            for right in other.columns
            if right.sql_type == col.sql_type
        ]
        if not pairs:
            return cond
        (left_alias, col), right = rng.choice(pairs)
        return GenExpr(
            f"{cond.sql} AND {left_alias}.{col.name} = {alias}.{right.name}",
            BOOLEAN,
            cond.aliases | {left_alias},
        )

    def _plain_query(self, tables: list[GenTable]) -> GenQuery:
        rng = self.rng
        base, base_alias, joins, where, scope = self._pick_from(tables)
        exprs = _ExprGen(rng, scope, tables)
        items = [
            exprs.scalar() for _ in range(rng.randint(1, 4))
        ]
        for _ in range(rng.randint(0, 2)):
            where.append(exprs.boolean(depth=2))
        return GenQuery(
            items=items,
            base_table=base,
            base_alias=base_alias,
            joins=joins,
            where=where,
            distinct=rng.random() < 0.2,
        )

    def _group_query(self, tables: list[GenTable]) -> GenQuery:
        rng = self.rng
        base, base_alias, joins, where, scope = self._pick_from(
            tables, max_joins=1
        )
        exprs = _ExprGen(rng, scope, tables)
        if rng.random() < 0.2:
            # Global aggregation: one row, aggregates only.
            keys: list[GenExpr] = []
        else:
            keys = [
                exprs.column_ref()
                for _ in range(rng.randint(1, 2))
            ]
        aggs = [exprs.aggregate() for _ in range(rng.randint(1, 3))]
        having = None
        if keys and rng.random() < 0.4:
            having = exprs.having_predicate()
        if rng.random() < 0.5:
            where.append(exprs.boolean(depth=1))
        return GenQuery(
            items=keys + aggs,
            base_table=base,
            base_alias=base_alias,
            joins=joins,
            where=where,
            group_by=list(keys),
            having=having,
        )

    def _setop_query(self, tables: list[GenTable]) -> GenQuery:
        rng = self.rng
        left = self._setop_arm(tables, None)
        signature = [item.sql_type for item in left.items]
        right = self._setop_arm(tables, signature)
        op = rng.choice(
            ["UNION", "UNION ALL", "INTERSECT", "EXCEPT"]
        )
        left.set_op = (op, right)
        return left

    def _setop_arm(
        self, tables: list[GenTable], signature: Optional[list[str]]
    ) -> GenQuery:
        """One set-operation arm. Arms avoid FLOAT items: set semantics
        compare values exactly, and only integer/string/boolean scalar
        expressions are bit-stable across both engines."""
        rng = self.rng
        base, base_alias, joins, where, scope = self._pick_from(
            tables, max_joins=1
        )
        exprs = _ExprGen(rng, scope, tables)
        if signature is None:
            signature = [
                rng.choice([INTEGER, INTEGER, VARCHAR, BOOLEAN])
                for _ in range(rng.randint(1, 3))
            ]
        items = [exprs.scalar_of(t) for t in signature]
        if rng.random() < 0.5:
            where.append(exprs.boolean(depth=1))
        return GenQuery(
            items=items,
            base_table=base,
            base_alias=base_alias,
            joins=joins,
            where=where,
        )

    def _attach_order(self, query: GenQuery) -> None:
        rng = self.rng
        if rng.random() < 0.35:
            return
        n = len(query.items)
        keys = []
        for ordinal in range(1, n + 1):
            keys.append(
                (ordinal, rng.random() < 0.5, rng.random() < 0.5)
            )
        rng.shuffle(keys)
        query.order_by = keys
        # LIMIT only under a deterministic total order on exact types.
        if query.ordered and not query.has_float and rng.random() < 0.4:
            query.limit = rng.randint(1, 20)
            if rng.random() < 0.5:
                query.offset = rng.randint(1, 3)


# ---------------------------------------------------------------------------
# Expression generation (rendered SQL, type- and NULL-aware)
# ---------------------------------------------------------------------------


class _ExprGen:
    """Generates scalar/boolean/aggregate expressions over a scope of
    (alias, column) pairs, staying inside both engines' dialects."""

    def __init__(
        self,
        rng: random.Random,
        scope: list[tuple[str, GenColumn]],
        tables: list[GenTable],
    ):
        self.rng = rng
        self.scope = scope
        self.tables = tables

    def _cols(self, *types: str) -> list[tuple[str, GenColumn]]:
        return [
            (a, c) for a, c in self.scope if c.sql_type in types
        ]

    def column_ref(self, *types: str) -> GenExpr:
        pool = self._cols(*types) if types else self.scope
        alias, col = self.rng.choice(pool)
        return GenExpr(
            f"{alias}.{col.name}", col.sql_type, frozenset({alias})
        )

    # -- leaf literals -----------------------------------------------------

    def _int_literal(self) -> str:
        return str(self.rng.randint(-20, 40))

    def _float_literal(self) -> str:
        return repr(round(self.rng.uniform(-40.0, 40.0), 2))

    def _string_literal(self) -> str:
        word = self.rng.choice(_WORDS)
        return f"'{word}'"

    # -- scalar expressions ------------------------------------------------

    def scalar(self) -> GenExpr:
        pick = self.rng.random()
        if pick < 0.45:
            return self.numeric(depth=2)
        if pick < 0.7:
            return self.string(depth=1)
        if pick < 0.85:
            pred = self.boolean(depth=1)
            return GenExpr(f"({pred.sql})", BOOLEAN, pred.aliases)
        return self.column_ref()

    def scalar_of(self, sql_type: str) -> GenExpr:
        if sql_type == INTEGER:
            return self.numeric(depth=2, force_int=True)
        if sql_type == FLOAT:
            return self.numeric(depth=2, force_float=True)
        if sql_type == VARCHAR:
            return self.string(depth=1)
        pred = self.boolean(depth=1)
        return GenExpr(f"({pred.sql})", BOOLEAN, pred.aliases)

    def numeric(
        self,
        depth: int,
        force_int: bool = False,
        force_float: bool = False,
    ) -> GenExpr:
        rng = self.rng
        if depth <= 0:
            return self._numeric_leaf(force_int, force_float)
        choice = rng.random()
        if choice < 0.3:
            return self._numeric_leaf(force_int, force_float)
        if choice < 0.55:
            left = self.numeric(depth - 1, force_int, force_float)
            right = self.numeric(depth - 1, force_int, force_float)
            op = rng.choice(["+", "-"])
            out_type = (
                FLOAT
                if FLOAT in (left.sql_type, right.sql_type)
                else INTEGER
            )
            return GenExpr(
                f"({left.sql} {op} {right.sql})",
                out_type,
                left.aliases | right.aliases,
            )
        if choice < 0.65:
            # Multiplication only by a small literal: keeps everything
            # far inside int32 (our INTEGER storage width).
            operand = self.numeric(depth - 1, force_int, force_float)
            factor = rng.randint(0, 8)
            return GenExpr(
                f"({operand.sql} * {factor})",
                operand.sql_type,
                operand.aliases,
            )
        if choice < 0.72:
            # Division by a non-zero literal only (SQLite returns NULL
            # on division by zero; we raise).
            operand = self.numeric(depth - 1, force_int, force_float)
            if operand.sql_type == INTEGER:
                divisor = str(rng.choice([1, 2, 3, 4, 5, 7]))
            else:
                divisor = repr(
                    rng.choice([1.5, 2.0, 2.5, 4.0, 8.0])
                )
            return GenExpr(
                f"({operand.sql} / {divisor})",
                operand.sql_type,
                operand.aliases,
            )
        if choice < 0.8:
            operand = self.numeric(depth - 1, force_int, force_float)
            return GenExpr(
                f"abs({operand.sql})",
                operand.sql_type,
                operand.aliases,
            )
        if choice < 0.88:
            condition = self.boolean(depth - 1)
            then = self.numeric(depth - 1, force_int, force_float)
            otherwise = self.numeric(0, force_int, force_float)
            then, otherwise = self._promote(then, otherwise)
            return GenExpr(
                f"(CASE WHEN {condition.sql} THEN {then.sql} "
                f"ELSE {otherwise.sql} END)",
                then.sql_type,
                condition.aliases | then.aliases | otherwise.aliases,
            )
        if choice < 0.94:
            operand = self.numeric(depth - 1, force_int, force_float)
            fallback = self._numeric_leaf(
                force_int or operand.sql_type == INTEGER,
                force_float or operand.sql_type == FLOAT,
                literal_only=True,
            )
            operand2, fallback = self._promote(operand, fallback)
            return GenExpr(
                f"coalesce({operand2.sql}, {fallback.sql})",
                operand2.sql_type,
                operand2.aliases,
            )
        operand = self.numeric(depth - 1, force_int, force_float)
        probe = self._numeric_leaf(
            operand.sql_type == INTEGER,
            operand.sql_type == FLOAT,
            literal_only=True,
        )
        return GenExpr(
            f"nullif({operand.sql}, {probe.sql})",
            operand.sql_type,
            operand.aliases,
        )

    def _promote(
        self, left: GenExpr, right: GenExpr
    ) -> tuple[GenExpr, GenExpr]:
        """Give both expressions the same type category (CAST the
        integer side when one is FLOAT)."""
        if left.sql_type == right.sql_type:
            return left, right
        if left.sql_type == INTEGER:
            left = GenExpr(
                f"CAST({left.sql} AS FLOAT)", FLOAT, left.aliases
            )
        else:
            right = GenExpr(
                f"CAST({right.sql} AS FLOAT)", FLOAT, right.aliases
            )
        return left, right

    def _numeric_leaf(
        self,
        force_int: bool = False,
        force_float: bool = False,
        literal_only: bool = False,
    ) -> GenExpr:
        rng = self.rng
        want_float = force_float or (
            not force_int and rng.random() < 0.35
        )
        wanted = FLOAT if want_float else INTEGER
        pool = [] if literal_only else self._cols(wanted)
        if pool and rng.random() < 0.7:
            alias, col = rng.choice(pool)
            return GenExpr(
                f"{alias}.{col.name}", wanted, frozenset({alias})
            )
        literal = (
            self._float_literal() if want_float else self._int_literal()
        )
        return GenExpr(literal, wanted)

    def string(self, depth: int) -> GenExpr:
        rng = self.rng
        pool = self._cols(VARCHAR)
        if not pool or depth <= 0:
            if pool and rng.random() < 0.7:
                alias, col = rng.choice(pool)
                return GenExpr(
                    f"{alias}.{col.name}", VARCHAR, frozenset({alias})
                )
            return GenExpr(self._string_literal(), VARCHAR)
        choice = rng.random()
        base = self.string(depth - 1)
        if choice < 0.4:
            return base
        if choice < 0.6:
            other = self.string(0)
            return GenExpr(
                f"({base.sql} || {other.sql})",
                VARCHAR,
                base.aliases | other.aliases,
            )
        if choice < 0.8:
            start = rng.randint(1, 3)
            length = rng.randint(1, 4)
            return GenExpr(
                f"substr({base.sql}, {start}, {length})",
                VARCHAR,
                base.aliases,
            )
        return GenExpr(
            f"coalesce({base.sql}, {self._string_literal()})",
            VARCHAR,
            base.aliases,
        )

    # -- predicates --------------------------------------------------------

    def boolean(self, depth: int) -> GenExpr:
        rng = self.rng
        if depth > 0 and rng.random() < 0.35:
            left = self.boolean(depth - 1)
            choice = rng.random()
            if choice < 0.4:
                right = self.boolean(depth - 1)
                op = rng.choice(["AND", "OR"])
                return GenExpr(
                    f"({left.sql} {op} {right.sql})",
                    BOOLEAN,
                    left.aliases | right.aliases,
                )
            return GenExpr(
                f"(NOT {left.sql})", BOOLEAN, left.aliases
            )
        return self._simple_predicate(depth)

    def _simple_predicate(self, depth: int) -> GenExpr:
        rng = self.rng
        choice = rng.random()
        if choice < 0.35:
            left = self.numeric(max(depth - 1, 0))
            right = self.numeric(max(depth - 1, 0))
            op = rng.choice(["=", "<>", "<", "<=", ">", ">="])
            return GenExpr(
                f"({left.sql} {op} {right.sql})",
                BOOLEAN,
                left.aliases | right.aliases,
            )
        if choice < 0.45:
            operand = self.column_ref()
            negated = "NOT " if rng.random() < 0.5 else ""
            return GenExpr(
                f"({operand.sql} IS {negated}NULL)",
                BOOLEAN,
                operand.aliases,
            )
        if choice < 0.55:
            operand = self.numeric(0)
            low, high = sorted(
                [rng.randint(-20, 40), rng.randint(-20, 40)]
            )
            negated = "NOT " if rng.random() < 0.3 else ""
            return GenExpr(
                f"({operand.sql} {negated}BETWEEN {low} AND {high})",
                BOOLEAN,
                operand.aliases,
            )
        if choice < 0.68:
            operand = self.column_ref(INTEGER, VARCHAR)
            if operand.sql_type == INTEGER:
                values = ", ".join(
                    str(rng.randint(-9, 30)) for _ in range(3)
                )
            else:
                values = ", ".join(
                    self._string_literal() for _ in range(3)
                )
            negated = "NOT " if rng.random() < 0.3 else ""
            return GenExpr(
                f"({operand.sql} {negated}IN ({values}))",
                BOOLEAN,
                operand.aliases,
            )
        if choice < 0.78:
            operand = self.string(0)
            fragment = rng.choice(_WORDS)[: rng.randint(1, 3)]
            pattern = rng.choice(
                [f"{fragment}%", f"%{fragment}%", f"%{fragment}",
                 f"{fragment}_%"]
            )
            negated = "NOT " if rng.random() < 0.3 else ""
            return GenExpr(
                f"({operand.sql} {negated}LIKE '{pattern}')",
                BOOLEAN,
                operand.aliases,
            )
        if choice < 0.85:
            pool = self._cols(BOOLEAN)
            if pool:
                alias, col = rng.choice(pool)
                return GenExpr(
                    f"{alias}.{col.name}",
                    BOOLEAN,
                    frozenset({alias}),
                )
            # fall through to a string comparison below
        if choice < 0.93:
            left = self.string(0)
            right = self.string(0)
            op = rng.choice(["=", "<>", "<", ">"])
            return GenExpr(
                f"({left.sql} {op} {right.sql})",
                BOOLEAN,
                left.aliases | right.aliases,
            )
        return self._subquery_predicate()

    def _typed_columns(self, sql_type: str) -> list:
        return [
            (t, c) for t in self.tables for c in t.columns
            if c.sql_type == sql_type
        ]

    def _inner_filter(self, table: GenTable, qualifier: str) -> str:
        """A simple predicate over one column of a subquery's table: it
        may keep no row, and keeps NULLs unless it tests for them."""
        rng = self.rng
        col = rng.choice(table.columns)
        ref = f"{qualifier}.{col.name}"
        choice = rng.random()
        if choice < 0.2:
            negated = "NOT " if rng.random() < 0.5 else ""
            return f"{ref} IS {negated}NULL"
        if col.sql_type == INTEGER:
            op = rng.choice(["<", ">", "<>"])
            return f"coalesce({ref}, 0) {op} {self._int_literal()}"
        if col.sql_type == FLOAT:
            return f"{ref} > {self._float_literal()}"
        if col.sql_type == VARCHAR:
            op = rng.choice(["=", "<>", "<"])
            return f"{ref} {op} {self._string_literal()}"
        return ref if choice < 0.6 else f"NOT {ref}"

    def _subquery_predicate(self) -> GenExpr:
        """A predicate holding a subquery, every operand pair same-typed
        (SQLite's affinity rules make VARCHAR-vs-number membership
        differ; unit tests cover it). Shapes: [NOT] IN over a plain, a
        filtered (possibly empty, possibly NULL-holding) or a derived
        table; uncorrelated [NOT] EXISTS; a comparison with a scalar
        aggregate; and EXISTS / a scalar aggregate correlated on an
        equality with an outer column."""
        rng = self.rng
        shape = rng.random()
        negated = "NOT " if rng.random() < 0.3 else ""
        if shape < 0.45:
            operand = self.column_ref(INTEGER, VARCHAR)
            table, col = rng.choice(self._typed_columns(operand.sql_type))
            form = rng.random()
            if form < 0.35:
                sub = f"SELECT {col.name} FROM {table.name}"
            elif form < 0.7:
                sub = (
                    f"SELECT {col.name} FROM {table.name} WHERE "
                    f"{self._inner_filter(table, table.name)}"
                )
            else:
                sub = (
                    f"SELECT d.{col.name} FROM (SELECT * FROM "
                    f"{table.name} WHERE "
                    f"{self._inner_filter(table, table.name)}) d"
                )
            return GenExpr(
                f"({operand.sql} {negated}IN ({sub}))",
                BOOLEAN,
                operand.aliases,
            )
        if shape < 0.6:
            table = rng.choice(self.tables)
            return GenExpr(
                f"({negated}EXISTS (SELECT 1 FROM {table.name} WHERE "
                f"{self._inner_filter(table, table.name)}))",
                BOOLEAN,
            )
        op = rng.choice(["=", "<>", "<", ">="])
        if shape < 0.75:
            operand = self.numeric(0, force_int=True)
            table, col = rng.choice(self._typed_columns(INTEGER))
            agg = rng.choice(
                [f"max({col.name})", f"min({col.name})", "count(*)"]
            )
            return GenExpr(
                f"({operand.sql} {op} (SELECT {agg} FROM {table.name} "
                f"WHERE {self._inner_filter(table, table.name)}))",
                BOOLEAN,
                operand.aliases,
            )
        # Correlated on an equality with an outer column.
        outer = self.column_ref(INTEGER, VARCHAR)
        table, col = rng.choice(self._typed_columns(outer.sql_type))
        where = f"sq.{col.name} = {outer.sql}"
        if shape < 0.88:
            return GenExpr(
                f"({negated}EXISTS (SELECT 1 FROM {table.name} sq "
                f"WHERE {where}))",
                BOOLEAN,
                outer.aliases,
            )
        operand = self.numeric(0, force_int=True)
        agg = rng.choice(["max(sq.k)", "min(sq.k)", "count(*)"])
        return GenExpr(
            f"({operand.sql} {op} (SELECT {agg} FROM {table.name} sq "
            f"WHERE {where}))",
            BOOLEAN,
            outer.aliases | operand.aliases,
        )

    # -- aggregates --------------------------------------------------------

    def aggregate(self) -> GenExpr:
        rng = self.rng
        choice = rng.random()
        if choice < 0.2:
            return GenExpr("count(*)", INTEGER)
        if choice < 0.35:
            operand = self.column_ref()
            distinct = "DISTINCT " if rng.random() < 0.3 else ""
            return GenExpr(
                f"count({distinct}{operand.sql})",
                INTEGER,
                operand.aliases,
            )
        if choice < 0.55:
            operand = self.column_ref(INTEGER)
            distinct = "DISTINCT " if rng.random() < 0.2 else ""
            return GenExpr(
                f"sum({distinct}{operand.sql})",
                INTEGER,
                operand.aliases,
            )
        if choice < 0.7:
            operand = self.numeric(1)
            return GenExpr(
                f"avg({operand.sql})", FLOAT, operand.aliases
            )
        if choice < 0.8:
            operand = self.numeric(1, force_float=True)
            return GenExpr(
                f"sum({operand.sql})", FLOAT, operand.aliases
            )
        func = rng.choice(["min", "max"])
        operand = self.column_ref(INTEGER, VARCHAR, FLOAT)
        return GenExpr(
            f"{func}({operand.sql})",
            operand.sql_type,
            operand.aliases,
        )

    def having_predicate(self) -> GenExpr:
        rng = self.rng
        agg = rng.choice(
            ["count(*)", "min(1)", None]
        )
        if agg is None:
            inner = self.column_ref(INTEGER)
            agg = f"max({inner.sql})"
            aliases = inner.aliases
        else:
            aliases = frozenset()
        op = rng.choice([">", ">=", "<", "<=", "=", "<>"])
        return GenExpr(
            f"({agg} {op} {rng.randint(0, 5)})", BOOLEAN, aliases
        )


# ---------------------------------------------------------------------------
# AST-level expression grammar (round-trip testing)
# ---------------------------------------------------------------------------

#: Columns assumed by :func:`random_ast_expr` (names only; round-trip
#: testing never binds them against a catalog).
_AST_COLUMNS = ["a", "b", "c", "val", "name"]
_AST_TABLES = [None, "t", "u"]


def random_ast_expr(rng: random.Random, depth: int = 3) -> ast.Expr:
    """A random expression AST from the generator's grammar, built from
    the same node constructors the parser uses — so rendering it with
    :func:`expr_to_sql` and reparsing must reproduce it exactly."""
    if depth <= 0:
        return _ast_leaf(rng)
    choice = rng.randrange(10)
    if choice == 0:
        return _ast_leaf(rng)
    if choice == 1:
        op = rng.choice(["+", "-", "*", "/", "%", "^", "||"])
        return ast.Binary(
            op,
            random_ast_expr(rng, depth - 1),
            random_ast_expr(rng, depth - 1),
        )
    if choice == 2:
        op = rng.choice(["=", "<>", "<", "<=", ">", ">=", "and", "or"])
        return ast.Binary(
            op,
            random_ast_expr(rng, depth - 1),
            random_ast_expr(rng, depth - 1),
        )
    if choice == 3:
        return ast.Unary("not", random_ast_expr(rng, depth - 1))
    if choice == 4:
        name = rng.choice(
            ["abs", "coalesce", "nullif", "least", "length", "lower"]
        )
        n_args = 1 if name in ("abs", "length", "lower") else 2
        return ast.FunctionCall(
            name,
            [random_ast_expr(rng, depth - 1) for _ in range(n_args)],
        )
    if choice == 5:
        return ast.Cast(
            random_ast_expr(rng, depth - 1),
            rng.choice(["integer", "float", "varchar", "boolean"]),
        )
    if choice == 6:
        whens = [
            (
                random_ast_expr(rng, depth - 1),
                random_ast_expr(rng, depth - 1),
            )
            for _ in range(rng.randint(1, 2))
        ]
        else_result = (
            random_ast_expr(rng, depth - 1)
            if rng.random() < 0.7
            else None
        )
        return ast.Case(None, whens, else_result)
    if choice == 7:
        return ast.IsNull(
            random_ast_expr(rng, depth - 1),
            negated=rng.random() < 0.5,
        )
    if choice == 8:
        return ast.Between(
            random_ast_expr(rng, depth - 1),
            _ast_leaf(rng),
            _ast_leaf(rng),
            negated=rng.random() < 0.5,
        )
    return ast.InList(
        random_ast_expr(rng, depth - 1),
        [_ast_leaf(rng) for _ in range(rng.randint(1, 3))],
        negated=rng.random() < 0.5,
    )


def _ast_leaf(rng: random.Random) -> ast.Expr:
    choice = rng.randrange(6)
    if choice == 0:
        return ast.Literal(rng.randint(-99, 99))
    if choice == 1:
        return ast.Literal(round(rng.uniform(0.1, 99.9), 3))
    if choice == 2:
        return ast.Literal(rng.choice(_WORDS))
    if choice == 3:
        return ast.Literal(rng.choice([None, True, False]))
    name = rng.choice(_AST_COLUMNS)
    table = rng.choice(_AST_TABLES)
    return ast.ColumnRef(name=name, table=table)


def expr_to_sql(expr: ast.Expr) -> str:
    """Render an expression AST back to parseable SQL text.

    Fully parenthesized, so rendering is precedence-independent; the
    parser drops the parentheses again (grouping has no AST node),
    which is exactly what makes the round-trip equality exact.
    """
    if isinstance(expr, ast.Literal):
        return _render_literal(expr.value)
    if isinstance(expr, ast.ColumnRef):
        return (
            f"{expr.table}.{expr.name}" if expr.table else expr.name
        )
    if isinstance(expr, ast.Unary):
        op = "NOT" if expr.op == "not" else expr.op
        return f"({op} {expr_to_sql(expr.operand)})"
    if isinstance(expr, ast.Binary):
        op = expr.op.upper() if expr.op in ("and", "or") else expr.op
        return (
            f"({expr_to_sql(expr.left)} {op} "
            f"{expr_to_sql(expr.right)})"
        )
    if isinstance(expr, ast.FunctionCall):
        args = ", ".join(expr_to_sql(a) for a in expr.args)
        distinct = "DISTINCT " if expr.distinct else ""
        return f"{expr.name}({distinct}{args})"
    if isinstance(expr, ast.Cast):
        width = f"({expr.width})" if expr.width is not None else ""
        return (
            f"CAST({expr_to_sql(expr.operand)} AS "
            f"{expr.type_name}{width})"
        )
    if isinstance(expr, ast.Case):
        parts = ["CASE"]
        if expr.operand is not None:
            parts.append(expr_to_sql(expr.operand))
        for condition, result in expr.whens:
            parts.append(
                f"WHEN {expr_to_sql(condition)} "
                f"THEN {expr_to_sql(result)}"
            )
        if expr.else_result is not None:
            parts.append(f"ELSE {expr_to_sql(expr.else_result)}")
        parts.append("END")
        return "(" + " ".join(parts) + ")"
    if isinstance(expr, ast.IsNull):
        negated = "NOT " if expr.negated else ""
        return f"({expr_to_sql(expr.operand)} IS {negated}NULL)"
    if isinstance(expr, ast.Between):
        negated = "NOT " if expr.negated else ""
        return (
            f"({expr_to_sql(expr.operand)} {negated}BETWEEN "
            f"{expr_to_sql(expr.low)} AND {expr_to_sql(expr.high)})"
        )
    if isinstance(expr, ast.Like):
        negated = "NOT " if expr.negated else ""
        return (
            f"({expr_to_sql(expr.operand)} {negated}LIKE "
            f"{expr_to_sql(expr.pattern)})"
        )
    if isinstance(expr, ast.InList):
        items = ", ".join(expr_to_sql(i) for i in expr.items)
        negated = "NOT " if expr.negated else ""
        return f"({expr_to_sql(expr.operand)} {negated}IN ({items}))"
    raise TypeError(
        f"expr_to_sql: unsupported node {type(expr).__name__}"
    )
