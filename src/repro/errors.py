"""Exception hierarchy for the repro database engine.

Every error raised by the engine derives from :class:`ReproError`, so
applications can catch a single base class. The sub-hierarchy mirrors the
query lifecycle: lexing/parsing -> binding -> planning -> execution, plus
storage/transaction errors raised by the substrate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro engine."""


class ParseError(ReproError):
    """Raised by the lexer or parser for malformed SQL.

    Carries the source position to make error messages actionable.
    """

    def __init__(self, message: str, line: int = 0, column: int = 0):
        self.line = line
        self.column = column
        if line:
            message = f"{message} (at line {line}, column {column})"
        super().__init__(message)


class BindError(ReproError):
    """Raised during semantic analysis: unknown names, type mismatches,
    ambiguous references, arity errors, malformed lambdas."""


class PlanError(ReproError):
    """Raised when a bound query cannot be turned into an executable plan."""


class ExecutionError(ReproError):
    """Raised while executing a physical plan (overflow, division,
    cast failures, operator contract violations)."""


class IterationLimitError(ExecutionError):
    """Raised when ITERATE or WITH RECURSIVE exceeds the configured
    maximum number of iterations (infinite-loop guard, paper section 5.1)."""


class ResourceGovernorError(ExecutionError):
    """Base of the resource-governor error family (docs/robustness.md).

    The engine guarantees *statement atomicity* for these: the statement
    that exceeded its budget is rolled back (or, inside an explicit
    transaction, unwound to the statement's savepoint) and the session
    stays fully usable. ``report`` carries the governor's final state —
    verdict, checkpoints passed, elapsed time, peak accounted bytes."""

    def __init__(self, message: str, report: dict | None = None):
        super().__init__(message)
        self.report: dict = report or {}


class QueryCancelled(ResourceGovernorError):
    """The statement was cancelled cooperatively (``Database.cancel()``
    from another thread, or a chaos-injected cancel). Raised at the next
    morsel or iteration-round checkpoint."""


class QueryTimeout(ResourceGovernorError):
    """The statement exceeded its deadline (``timeout_ms``). Raised at
    the next morsel or iteration-round checkpoint."""


class MemoryBudgetExceeded(ResourceGovernorError):
    """The statement's accounted operator memory (numpy array bytes of
    materialised state) exceeded its budget (``memory_budget_mb``), or a
    chaos-injected allocation failure fired."""


class InjectedFault(ExecutionError):
    """A deterministic fault injected by the chaos harness
    (:mod:`repro.testing.chaos`) at an operator checkpoint. Typed so the
    chaos oracle can assert that injected failures surface as ordinary
    engine errors, never as partial state."""


class WorkerCrashError(ExecutionError):
    """A morsel task died on a worker thread (infrastructure failure,
    not a query error). The worker pool retries such morsels serially on
    the coordinator thread before failing the query."""

    #: Consulted by :meth:`repro.exec.parallel.WorkerPool.map_ordered`.
    retry_serial = True


class AdmissionRejected(ReproError):
    """The server's bounded admission queue was full: the request was
    rejected *before* any work happened (backpressure, never blocking).
    Surfaces over the wire as an ``ADMISSION_REJECTED`` error frame;
    clients should back off and retry (docs/server.md)."""


class ProtocolError(ReproError):
    """A wire-protocol violation on the server connection: malformed or
    oversized frame, unknown operation, or a message sent out of order
    (e.g. ``query`` before ``connect``). See docs/server.md."""


class CatalogError(ReproError):
    """Raised for catalog violations: duplicate table, unknown table,
    schema mismatch on insert, dropping a missing object."""


class TransactionError(ReproError):
    """Raised for transaction protocol violations and serialization
    conflicts (first-committer-wins aborts)."""


class SerializationConflict(TransactionError):
    """A concurrent committed transaction wrote a table this transaction
    also wrote; the later committer must abort (snapshot isolation)."""


class WalCorruptionError(TransactionError):
    """The write-ahead log (or a checkpoint snapshot) holds a *complete*
    but invalid record — CRC mismatch, undecodable payload, or a broken
    sequence chain. Unlike a torn tail (a normal crash signature that is
    silently truncated), this means bit rot or an external overwrite.
    Raised during recovery in ``recovery='strict'`` mode; in
    ``'tolerant'`` mode the corrupt suffix is discarded and counted
    instead (docs/durability.md). ``info`` carries the scan telemetry
    (offset, records/bytes discarded)."""

    def __init__(self, message: str, info: dict | None = None):
        super().__init__(message)
        self.info = info or {}


class ChunkError(ReproError):
    """A binary column chunk (:mod:`repro.storage.chunk`) is truncated,
    fails its checksum or does not describe the columns it claims to.
    The WAL and the checkpoint reader turn it into
    :class:`WalCorruptionError`."""


class UDFError(ReproError):
    """Raised when a user-defined function misbehaves: wrong arity,
    unregistered name, or an exception escaping the UDF body."""


class AnalyticsError(ExecutionError):
    """Raised by analytics operators for invalid parameters, e.g. k < 1,
    non-numeric inputs, empty training sets, or mismatched center arity."""
