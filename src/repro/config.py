"""Engine settings: one frozen :class:`EngineConfig`, resolved once.

Every setting follows the same rule — *argument beats environment beats
default* — and this module is the only place that rule is written down
and the only module that reads a ``REPRO_*`` setting. ``Database(...)``
resolves its keyword arguments here at construction and exposes the
result read-only as ``db.config``; flight-recorder bundles embed
``dataclasses.asdict(db.config)`` verbatim. The reference table of
fields, environment variables and defaults is in ``docs/api.md``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields
from typing import Callable, Optional

from .exec.physical import DEFAULT_PARALLEL_THRESHOLD
from .obs.flight import DEFAULT_DIR as DEFAULT_FLIGHT_DIR
from .storage.encoding import ENCODING_POLICIES
from .storage.table import DEFAULT_MORSEL_ROWS
from .txn.wal import RECOVERY_MODES

_TRUE = ("1", "true", "on", "yes")
_FALSE = ("0", "false", "off", "no")


# -- parsers: environment text -> value (one per type) ------------------


def _parse_bool(raw: str) -> bool:
    folded = raw.lower()
    if folded in _TRUE:
        return True
    if folded in _FALSE:
        return False
    raise ValueError(
        f"expected one of {', '.join(_TRUE + _FALSE)}, got {raw!r}"
    )


def _parse_int(raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"expected an integer, got {raw!r}") from None


def _parse_float(raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"expected a number, got {raw!r}") from None


def _parse_chaos(raw: str) -> Optional[str]:
    return None if raw == "0" else raw


# -- validators: applied to arguments and parsed values alike -----------


def _one_of(choices: tuple) -> Callable[[str], str]:
    def check(value: str) -> str:
        folded = str(value).strip().lower()
        if folded not in choices:
            raise ValueError(
                f"expected one of {', '.join(choices)}, got {value!r}"
            )
        return folded

    return check


def _at_least_one(value: int) -> int:
    value = int(value)
    if value < 1:
        raise ValueError(f"must be >= 1, got {value}")
    return value


def _positive_or_none(value):
    """Zero or a negative number switches the feature off."""
    return value if value > 0 else None


def _chaos_spec(value) -> str:
    """A live injector (argument form) is recorded by its spec; a spec
    string (environment form) must name a known fault."""
    if not isinstance(value, str):
        return value.spec
    from .testing.chaos import ChaosInjector

    ChaosInjector.from_spec(value)
    return value


#: field -> (environment variable, parser, validator). A field without a
#: row is set by argument only and taken as given.
_SETTINGS: dict[str, tuple] = {
    "workers": ("REPRO_WORKERS", _parse_int, _at_least_one),
    "plan_cache": ("REPRO_PLAN_CACHE", _parse_bool, bool),
    "chaos": ("REPRO_CHAOS", _parse_chaos, _chaos_spec),
    "encoding": ("REPRO_ENCODING", str, _one_of(ENCODING_POLICIES)),
    "history": ("REPRO_HISTORY", str, lambda path: path or None),
    "slow_ms": ("REPRO_SLOW_MS", _parse_float, _positive_or_none),
    "flight_dir": ("REPRO_FLIGHTREC", str, lambda path: path or None),
    "checkpoint_bytes": (
        "REPRO_CHECKPOINT_BYTES", _parse_int, _positive_or_none,
    ),
    "recovery": ("REPRO_RECOVERY", str, _one_of(RECOVERY_MODES)),
    "topn": (None, None, bool),
}


@dataclass(frozen=True)
class EngineConfig:
    """Every engine setting, after resolution (``docs/api.md`` has the
    table). ``chaos`` holds the injector's *spec* (``kind:nth`` or a
    seed), not the live object, so the config stays plain data."""

    wal_path: Optional[str] = None
    optimize: bool = True
    morsel_rows: int = DEFAULT_MORSEL_ROWS
    max_iterations: int = 10_000
    profile_operators: bool = True
    workers: int = 1
    parallel_threshold: int = DEFAULT_PARALLEL_THRESHOLD
    plan_cache: bool = True
    timeout_ms: Optional[float] = None
    memory_budget_mb: Optional[float] = None
    chaos: Optional[str] = None
    encoding: str = "auto"
    history: Optional[str] = None
    slow_ms: Optional[float] = None
    flight_dir: str = DEFAULT_FLIGHT_DIR
    topn: bool = True
    checkpoint_bytes: Optional[int] = None
    recovery: str = "tolerant"

    @classmethod
    def resolve(cls, **arguments) -> "EngineConfig":
        """Resolve every field: the argument if given (not ``None``),
        else the field's environment variable if set and non-empty,
        else the default. A value that does not parse or validate
        raises ``ValueError`` naming the variable (or the argument)."""
        values = {}
        for field in fields(cls):
            name = field.name
            env, parse, check = _SETTINGS.get(name, (None, None, None))
            value = arguments.pop(name, None)
            source = name
            try:
                if value is None and env is not None:
                    raw = os.environ.get(env, "").strip()
                    if raw:
                        source = env
                        value = parse(raw)
                if value is not None and check is not None:
                    value = check(value)
            except ValueError as exc:
                raise ValueError(f"{source}: {exc}") from None
            values[name] = field.default if value is None else value
        if arguments:
            raise TypeError(
                f"unknown engine setting(s): {', '.join(sorted(arguments))}"
            )
        return cls(**values)

    @classmethod
    def env_names(cls) -> dict[str, str]:
        """field -> environment variable, for the fields that have one."""
        return {
            name: env for name, (env, _p, _c) in _SETTINGS.items() if env
        }
