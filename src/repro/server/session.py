"""Per-session state over the shared engine.

A :class:`Session` is what one connected client owns: an engine
:class:`~repro.api.session.Session` of its own (``db.session()`` — its
own transaction slot, so concurrent clients' ``BEGIN``/``COMMIT``/
``ROLLBACK`` never collide with each other or with embedded use of the
same ``Database``), the tenant it authenticated as, and the cancel
token of its in-flight statement.

Tenant budgets compose with per-request overrides by *clamping*: a
request may only tighten the tenant's ``timeout_ms`` /
``memory_budget_mb`` caps, never widen them — multi-tenant fairness
must not be client-opt-in (docs/server.md).
"""

from __future__ import annotations

import threading
from typing import Optional

from ..governor import CancelToken


def clamp_budget(
    requested: Optional[float], cap: Optional[float]
) -> Optional[float]:
    """The effective per-statement budget: the tenant cap bounds any
    per-request override (None = unlimited on that side)."""
    if cap is None or cap <= 0:
        return requested
    if requested is None or requested <= 0:
        return cap
    return min(float(requested), float(cap))


class TenantBudget:
    """Per-tenant governor defaults, applied to every statement the
    tenant's sessions run (per-request overrides clamp against them)."""

    __slots__ = ("name", "timeout_ms", "memory_budget_mb")

    def __init__(
        self,
        name: str,
        timeout_ms: Optional[float] = None,
        memory_budget_mb: Optional[float] = None,
    ):
        self.name = name
        self.timeout_ms = timeout_ms
        self.memory_budget_mb = memory_budget_mb

    def __repr__(self) -> str:
        return (
            f"TenantBudget({self.name!r}, timeout_ms={self.timeout_ms}, "
            f"memory_budget_mb={self.memory_budget_mb})"
        )


class Session:
    """One client session multiplexed over the shared Database: the
    server's executor runs every statement of this client through
    ``self.engine.execute(...)``."""

    def __init__(self, db, session_id: str, tenant: TenantBudget):
        self.id = session_id
        self.tenant = tenant
        #: This client's engine session (transaction slot, statements).
        self.engine = db.session()
        self.closed = False
        self._lock = threading.Lock()
        self._active_token: Optional[CancelToken] = None
        #: Statements this session has run (connect response echoes 0).
        self.statements = 0

    # -- cancellation ------------------------------------------------------

    def new_cancel_token(self) -> CancelToken:
        """A fresh token for the next statement; installed as the
        session's active token so :meth:`cancel` reaches exactly this
        session's in-flight work."""
        token = CancelToken()
        with self._lock:
            self._active_token = token
        return token

    def clear_cancel_token(self) -> None:
        with self._lock:
            self._active_token = None

    def cancel(self) -> bool:
        """Cancel this session's in-flight (or about-to-run) statement;
        True when a token was signalled. Safe from any thread — this is
        what the out-of-band ``cancel`` op calls."""
        with self._lock:
            token = self._active_token
        if token is None:
            return False
        token.cancel()
        return True

    # -- budgets -----------------------------------------------------------

    def effective_budgets(
        self,
        timeout_ms: Optional[float],
        memory_budget_mb: Optional[float],
    ) -> tuple[Optional[float], Optional[float]]:
        """Per-request overrides clamped to the tenant caps."""
        return (
            clamp_budget(timeout_ms, self.tenant.timeout_ms),
            clamp_budget(memory_budget_mb, self.tenant.memory_budget_mb),
        )

    # -- lifecycle ---------------------------------------------------------

    def release(self) -> None:
        """End the session: cancel any in-flight statement and roll
        back an open transaction (per-session rollback on disconnect —
        a dropped connection must never leak uncommitted writes or pin
        the vacuum horizon). Idempotent."""
        with self._lock:
            if self.closed:
                return
            self.closed = True
            token = self._active_token
        if token is not None:
            token.cancel()
        self.engine.release()

    def __repr__(self) -> str:
        state = "closed" if self.closed else (
            "in-txn" if self.engine.in_transaction else "idle"
        )
        return (
            f"Session({self.id!r}, tenant={self.tenant.name!r}, "
            f"{state})"
        )
