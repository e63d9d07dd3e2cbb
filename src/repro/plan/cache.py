"""Statement/plan cache.

Caches the bound+optimized *logical* plan of a SELECT statement, keyed
on a normalized SQL fingerprint plus the SQL types of the supplied
parameters. Physical operators are built per execution (they capture
the transaction snapshot), so a cached plan is reusable across
``execute``/``executemany`` calls and across ITERATE / recursive-CTE
rounds: a hit skips tokenize→parse→bind→optimize entirely.

Invalidation is epoch-based: each entry remembers the ``(catalog DDL
version, session registration epoch)`` pair it was built under and is
discarded on mismatch — CREATE/DROP TABLE bump the former, UDF /
analytics-operator registration bumps the latter (bound plans embed the
registered callables).

Statements that *cannot* be cached (multi-statement scripts, DDL/DML,
constructs that need parameter values at bind time such as ``LIMIT ?``)
store a *negative* entry so repeated executions skip the failed
parameterized attempt and go straight to the literal-substitution path.

The whole hot-path stack (plan cache, expression-kernel cache, zone-map
pruning, CSR cache) is gated by one setting, ``plan_cache``
(:mod:`repro.config`); off disables everything at once.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Optional

#: Plan-cache entries kept per Database (LRU beyond this).
DEFAULT_CAPACITY = 256

#: Raw SQL text -> fingerprint memo. The fingerprint is a pure function
#: of the text (no catalog state), so entries never need invalidating —
#: the bound LRU only guards memory. This keeps re-tokenization off the
#: per-statement hot path: key computation was ~30% of a cached
#: point-query execution before the memo.
_FINGERPRINT_MEMO_CAPACITY = 1024
_fingerprint_memo: "OrderedDict[str, Optional[str]]" = OrderedDict()
_fingerprint_lock = threading.Lock()


def sql_fingerprint(text: str) -> Optional[str]:
    """A normalized fingerprint of ``text``: the lexer's token stream
    joined back together. The lexer uppercases keywords, lowercases
    identifiers, and strips comments/whitespace, so formatting variants
    of the same statement share a fingerprint while ``?`` placeholders
    keep their positions. Returns None when the text does not lex
    (the literal path will raise the real error)."""
    with _fingerprint_lock:
        if text in _fingerprint_memo:
            _fingerprint_memo.move_to_end(text)
            return _fingerprint_memo[text]
    fingerprint = _sql_fingerprint_uncached(text)
    with _fingerprint_lock:
        _fingerprint_memo[text] = fingerprint
        _fingerprint_memo.move_to_end(text)
        while len(_fingerprint_memo) > _FINGERPRINT_MEMO_CAPACITY:
            _fingerprint_memo.popitem(last=False)
    return fingerprint


def _sql_fingerprint_uncached(text: str) -> Optional[str]:
    from ..errors import ParseError
    from ..sql.lexer import tokenize
    from ..sql.tokens import TokenKind

    try:
        tokens = tokenize(text)
    except ParseError:
        return None
    parts: list[str] = []
    for token in tokens:
        if token.kind is TokenKind.EOF:
            break
        if token.kind is TokenKind.STRING:
            escaped = str(token.value).replace("'", "''")
            parts.append(f"'{escaped}'")
        elif token.kind is TokenKind.PARAM:
            parts.append("?")
        else:
            parts.append(token.text)
    return " ".join(parts)


class CachedPlan:
    """A positive entry: the optimized logical plan plus everything
    needed to re-instantiate physical operators."""

    __slots__ = ("plan", "epoch")

    def __init__(self, plan: object, epoch: tuple):
        self.plan = plan
        self.epoch = epoch


class NegativePlan:
    """A negative entry: this fingerprint cannot use the cache (until
    the epoch changes — e.g. the referenced table gets created)."""

    __slots__ = ("epoch",)

    def __init__(self, epoch: tuple):
        self.epoch = epoch


class PlanCache:
    """Thread-safe LRU of :class:`CachedPlan` / :class:`NegativePlan`
    entries keyed on ``(fingerprint, param-type names)``."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        self.capacity = capacity
        self._entries: OrderedDict[tuple, object] = OrderedDict()
        self._lock = threading.Lock()

    def lookup(self, key: tuple, epoch: tuple):
        """The live entry for ``key``, or None. Entries built under a
        different epoch are dropped on sight."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None
            if entry.epoch != epoch:
                del self._entries[key]
                return None
            self._entries.move_to_end(key)
            return entry

    def store(self, key: tuple, entry: object) -> None:
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
