"""EngineConfig: one resolution rule (argument > environment > default)
for every setting, uniform errors, and the guards that keep it the only
reader of ``REPRO_*`` settings and keep ``docs/api.md`` in step."""

import dataclasses
import inspect
import os
import re

import pytest

import repro
from repro.config import EngineConfig
from repro.errors import QueryTimeout
from repro.obs.flight import load_bundle

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIELDS = [f.name for f in dataclasses.fields(EngineConfig)]

#: field, env text, value the env text resolves to, an argument,
#: value the argument resolves to — one row per env-backed field.
ENV_BACKED = [
    ("workers", "3", 3, 2, 2),
    ("plan_cache", "off", False, True, True),
    ("chaos", "cancel:3", "cancel:3", "alloc_fail:2", "alloc_fail:2"),
    ("encoding", "raw", "raw", "dict", "dict"),
    ("history", "/tmp/h.jsonl", "/tmp/h.jsonl", "mine.jsonl", "mine.jsonl"),
    ("slow_ms", "250", 250.0, 1.5, 1.5),
    ("flight_dir", "/tmp/fr", "/tmp/fr", "bundles", "bundles"),
    ("checkpoint_bytes", "65536", 65536, 4096, 4096),
    ("recovery", "strict", "strict", "tolerant", "tolerant"),
]

#: Settings with no environment variable: argument, else default.
ARGUMENT_ONLY = [
    ("wal_path", "x.wal"), ("optimize", False), ("morsel_rows", 128),
    ("max_iterations", 7), ("profile_operators", False),
    ("parallel_threshold", 0), ("timeout_ms", 50.0),
    ("memory_budget_mb", 8.0), ("topn", False),
]


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    for env in EngineConfig.env_names().values():
        monkeypatch.delenv(env, raising=False)


def test_the_two_tables_cover_every_field():
    covered = [row[0] for row in ENV_BACKED + ARGUMENT_ONLY]
    assert sorted(covered) == sorted(FIELDS)
    assert sorted(EngineConfig.env_names()) == sorted(
        row[0] for row in ENV_BACKED
    )


@pytest.mark.parametrize("field,text,from_env,argument,from_arg", ENV_BACKED)
def test_argument_beats_environment_beats_default(
    monkeypatch, field, text, from_env, argument, from_arg
):
    env = EngineConfig.env_names()[field]
    default = getattr(EngineConfig(), field)
    assert getattr(EngineConfig.resolve(), field) == default
    monkeypatch.setenv(env, f"  {text} ")  # every setting strips
    assert getattr(EngineConfig.resolve(), field) == from_env
    resolved = EngineConfig.resolve(**{field: argument})
    assert getattr(resolved, field) == from_arg
    monkeypatch.setenv(env, "")  # empty means unset
    assert getattr(EngineConfig.resolve(), field) == default


@pytest.mark.parametrize("field,argument", ARGUMENT_ONLY)
def test_argument_only_settings(field, argument):
    assert getattr(EngineConfig.resolve(), field) == getattr(
        EngineConfig(), field
    )
    assert getattr(
        EngineConfig.resolve(**{field: argument}), field
    ) == argument


@pytest.mark.parametrize(
    "field,text",
    [
        ("workers", "lots"), ("workers", "0"),
        ("plan_cache", "maybe"),
        ("chaos", "nonsense:2"), ("chaos", "cancel:soon"),
        ("encoding", "zip"),
        ("slow_ms", "fast"),
        ("checkpoint_bytes", "64k"),
        ("recovery", "lenient"),
    ],
)
def test_malformed_environment_raises_naming_the_variable(
    monkeypatch, field, text
):
    env = EngineConfig.env_names()[field]
    monkeypatch.setenv(env, text)
    with pytest.raises(ValueError, match=env):
        EngineConfig.resolve()
    with pytest.raises(ValueError, match=env):
        repro.Database()


@pytest.mark.parametrize(
    "field,argument",
    [("workers", 0), ("encoding", "zip"), ("recovery", "lenient")],
)
def test_malformed_argument_raises_naming_the_field(field, argument):
    with pytest.raises(ValueError, match=field):
        EngineConfig.resolve(**{field: argument})


def test_choices_fold_case_and_off_values_disable(monkeypatch):
    monkeypatch.setenv("REPRO_RECOVERY", "Strict")
    monkeypatch.setenv("REPRO_ENCODING", "RAW")
    config = EngineConfig.resolve()
    assert (config.recovery, config.encoding) == ("strict", "raw")
    assert EngineConfig.resolve(encoding="Dict").encoding == "dict"
    # Zero / negative thresholds mean "off", from either source.
    monkeypatch.setenv("REPRO_CHECKPOINT_BYTES", "0")
    monkeypatch.setenv("REPRO_SLOW_MS", "-1")
    monkeypatch.setenv("REPRO_CHAOS", "0")
    config = EngineConfig.resolve()
    assert config.checkpoint_bytes is None
    assert config.slow_ms is None and config.chaos is None
    assert EngineConfig.resolve(checkpoint_bytes=-5).checkpoint_bytes is None
    assert EngineConfig.resolve(slow_ms=0).slow_ms is None


def test_unknown_setting_is_rejected():
    with pytest.raises(TypeError, match="wrokers"):
        EngineConfig.resolve(wrokers=2)


def test_database_takes_exactly_the_config_fields():
    params = list(inspect.signature(repro.Database.__init__).parameters)
    assert params[1:] == FIELDS and len(FIELDS) == 18
    assert "config" not in params
    with pytest.raises(TypeError):
        repro.Database(feedback=False)


def test_database_config_is_frozen_and_resolved_once(monkeypatch):
    monkeypatch.setenv("REPRO_WORKERS", "3")
    monkeypatch.setenv("REPRO_PLAN_CACHE", "0")
    db = repro.Database(encoding="raw", topn=False)
    assert db.config == EngineConfig.resolve(encoding="raw", topn=False)
    with pytest.raises(dataclasses.FrozenInstanceError):
        db.config.workers = 8
    with pytest.raises(AttributeError):
        db.topn_enabled = True
    # Later changes of the environment do not reach an open database.
    monkeypatch.setenv("REPRO_WORKERS", "5")
    monkeypatch.setenv("REPRO_PLAN_CACHE", "1")
    assert (db.workers, db.pool.workers) == (3, 3)
    assert db.plan_cache_active() is False
    db.execute("CREATE TABLE t (a INTEGER)")
    db.execute("SELECT a FROM t WHERE a = ?", [1])
    db.execute("SELECT a FROM t WHERE a = ?", [2])
    counters = db.metrics.snapshot()["counters"]
    assert counters.get("exec_plan_cache_misses_total", 0) == 0
    # The read-only views are the config, not copies of it.
    assert (db.encoding, db.topn_enabled) == ("raw", False)


def test_feedback_enabled_is_a_read_only_false():
    # perf/harness.py::engine_config still reports this view.
    db = repro.Database()
    assert db.feedback_enabled is False
    with pytest.raises(AttributeError):
        db.feedback_enabled = True


def test_chaos_argument_is_recorded_by_its_spec():
    from repro.testing.chaos import ChaosInjector

    injector = ChaosInjector("cancel", 3)
    db = repro.Database(chaos=injector)
    assert db.chaos is injector and not injector.armed
    assert db.config.chaos == "cancel:3"


def test_flight_bundle_embeds_the_whole_config(tmp_path):
    db = repro.Database(
        flight_dir=str(tmp_path), slow_ms=5.0, topn=False,
        max_iterations=77,
    )
    db.execute("CREATE TABLE t (v INTEGER)")
    db.insert_rows("t", [(i,) for i in range(5000)])
    with pytest.raises(QueryTimeout):
        db.execute(
            "SELECT sum(v) FROM t WHERE v % 3 = 1", timeout_ms=0.001
        )
    bundle = load_bundle(db.flight.last_bundle_path)
    assert bundle["config"] == dataclasses.asdict(db.config)
    assert set(bundle["config"]) == set(FIELDS)
    assert bundle["config"]["max_iterations"] == 77


# -- guards ------------------------------------------------------------

#: Modules other than config.py that may touch the process environment,
#: each with the reason it is not an engine setting.
ENVIRON_ALLOWED = {
    # Crash-injection hooks of the kill-point battery: they make *this
    # process* die or fail an fsync mid-commit, set only by crash.py
    # for the child it spawns — a fault, not a configuration.
    "txn/wal.py",
    # Builds that child's environment (copy + the two hooks above).
    "testing/crash.py",
    # glibc's own malloc variables: set by the user, the engine leaves
    # the allocator policy to them — a glibc setting, not the engine's.
    "storage/allocator.py",
}


def test_only_config_reads_the_environment():
    src = os.path.join(ROOT, "src", "repro")
    offenders = []
    for folder, _dirs, files in os.walk(src):
        for name in files:
            if not name.endswith(".py"):
                continue
            path = os.path.join(folder, name)
            relative = os.path.relpath(path, src).replace(os.sep, "/")
            with open(path, encoding="utf-8") as handle:
                text = handle.read()
            if re.search(r"os\.environ|os\.getenv|\bgetenv\(", text):
                offenders.append(relative)
    assert sorted(offenders) == sorted(ENVIRON_ALLOWED | {"config.py"})


def test_settings_table_in_docs_lists_every_field_and_variable():
    with open(os.path.join(ROOT, "docs", "api.md"), encoding="utf-8") as fh:
        text = fh.read()
    start = text.index("## Settings")
    table = text[start:text.index("\n## ", start + 1)]
    rows = [line for line in table.splitlines() if line.startswith("| `")]
    documented = {re.match(r"\| `(\w+)`", row).group(1): row for row in rows}
    assert sorted(documented) == sorted(FIELDS)
    for field, env in EngineConfig.env_names().items():
        assert f"`{env}`" in documented[field], (field, env)
    # ... and no variable the table names has stopped existing.
    named = {re.search(r"`(REPRO_[A-Z_]+)`", row) for row in rows}
    assert {m.group(1) for m in named if m} == set(
        EngineConfig.env_names().values()
    )
