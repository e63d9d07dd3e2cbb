"""Tests for the flight recorder (src/repro/obs/flight.py) and its
CLI renderer (python -m repro.obs.dump).

A bundle must appear — and be loadable — for every way a statement can
die under the governor, for chaos-injected faults, and for worker
crashes survived by serial retry.
"""

import json
import os

import pytest

import repro
from repro.errors import (
    InjectedFault,
    MemoryBudgetExceeded,
    QueryCancelled,
    QueryTimeout,
)
from repro.obs.dump import main as dump_main
from repro.obs.flight import (
    BUNDLE_SCHEMA,
    FlightRecorder,
    format_bundle,
    load_bundle,
    validate_bundle,
)
from repro.testing.chaos import ChaosInjector

SLOW_ITERATE = (
    "SELECT * FROM ITERATE((SELECT 1 AS n),"
    " (SELECT n + 1 FROM iterate),"
    " (SELECT n FROM iterate WHERE n >= 1000000))"
)


def _bundles(directory):
    return sorted(
        os.path.join(directory, n)
        for n in os.listdir(directory)
        if n.startswith("flightrec-") and n.endswith(".json")
    )


class TestGovernorDumps:
    def test_timeout_dumps_loadable_bundle(self, tmp_path):
        db = repro.Database(timeout_ms=0.01, flight_dir=str(tmp_path))
        with pytest.raises(QueryTimeout):
            db.execute(SLOW_ITERATE)
        paths = _bundles(str(tmp_path))
        assert len(paths) == 1
        bundle = load_bundle(paths[0])
        assert bundle["reason"] == "timeout"
        assert bundle["error"]["type"] == "QueryTimeout"
        assert bundle["governor"]["verdict"] == "timeout"
        # The failing statement's own span tree is embedded...
        assert bundle["trace"]["name"] == "statement"
        assert bundle["trace"]["attributes"]["sql"] == SLOW_ITERATE
        # ...and the history tail already includes the dying statement.
        assert bundle["history"][-1]["verdict"] == "timeout"
        assert db.flight.bundles_written == 1
        assert db.flight.last_bundle_path == paths[0]

    def test_memory_budget_dumps_oom_bundle(self, tmp_path):
        db = repro.Database(
            memory_budget_mb=0.0001, flight_dir=str(tmp_path)
        )
        db.execute("CREATE TABLE t (v INTEGER)")
        db.insert_rows("t", [(i,) for i in range(5000)])
        with pytest.raises(MemoryBudgetExceeded):
            db.execute("SELECT count(*) FROM t t1, t t2 WHERE t1.v = t2.v")
        bundle = load_bundle(_bundles(str(tmp_path))[-1])
        assert bundle["reason"] == "oom"
        assert bundle["governor"]["verdict"] == "oom"

    def test_injected_fault_dumps_bundle(self, tmp_path):
        injector = ChaosInjector("operator_raise", 1)
        db = repro.Database(chaos=injector, flight_dir=str(tmp_path))
        db.execute("CREATE TABLE t (v INTEGER)")
        db.insert_rows("t", [(1,), (2,)])
        injector.arm()
        with pytest.raises(InjectedFault):
            db.execute("SELECT sum(v) FROM t")
        bundle = load_bundle(_bundles(str(tmp_path))[-1])
        assert bundle["reason"] == "injected_fault"
        assert bundle["error"]["type"] == "InjectedFault"

    def test_injected_cancel_dumps_bundle(self, tmp_path):
        injector = ChaosInjector("cancel", 1)
        db = repro.Database(chaos=injector, flight_dir=str(tmp_path))
        db.execute("CREATE TABLE t (v INTEGER)")
        db.insert_rows("t", [(i,) for i in range(10)])
        injector.arm()
        with pytest.raises(QueryCancelled):
            db.execute("SELECT sum(v) FROM t")
        bundle = load_bundle(_bundles(str(tmp_path))[-1])
        assert bundle["reason"] == "cancelled"

    def test_worker_crash_dumps_bundle(self, tmp_path):
        injector = ChaosInjector("worker_crash", 1)
        db = repro.Database(
            chaos=injector,
            flight_dir=str(tmp_path),
            workers=2,
            parallel_threshold=0,
            morsel_rows=16,
        )
        db.execute("CREATE TABLE t (v INTEGER)")
        db.insert_rows("t", [(i,) for i in range(100)])
        injector.arm()
        # The statement *succeeds* (serial retry) — the bundle is the
        # only evidence the crash happened.
        result = db.execute("SELECT sum(v) FROM t WHERE v >= 0")
        assert result.rows[0][0] == 4950
        assert injector.fired
        bundle = load_bundle(_bundles(str(tmp_path))[-1])
        assert bundle["reason"] == "worker_crash"
        assert bundle["error"] is not None

    def test_ok_statements_dump_nothing(self, tmp_path):
        db = repro.Database(flight_dir=str(tmp_path))
        db.execute("CREATE TABLE t (v INTEGER)")
        db.execute("SELECT count(*) FROM t")
        assert _bundles(str(tmp_path)) == []
        # Plain execution errors are not post-mortem events either.
        with pytest.raises(Exception):
            db.execute("SELECT * FROM no_such_table")
        assert _bundles(str(tmp_path)) == []

    def test_bundle_counter_labels_reason(self, tmp_path):
        db = repro.Database(timeout_ms=0.01, flight_dir=str(tmp_path))
        with pytest.raises(QueryTimeout):
            db.execute(SLOW_ITERATE)
        counter = db.metrics.counter(
            "flightrec_bundles_total", reason="timeout"
        )
        assert counter.value == 1


class TestRecorderUnit:
    def test_bundle_shape_and_validation(self):
        recorder = FlightRecorder(config={"workers": 2})
        bundle = recorder.build_bundle(
            "timeout", error=QueryTimeout("too slow")
        )
        assert validate_bundle(bundle) == []
        assert bundle["schema"] == BUNDLE_SCHEMA
        assert bundle["config"] == {"workers": 2}
        assert bundle["error"] == {
            "type": "QueryTimeout", "message": "too slow",
        }

    def test_validate_flags_problems(self):
        assert validate_bundle([]) == ["bundle is not a JSON object"]
        problems = validate_bundle({"schema": "other"})
        assert any("missing key" in p for p in problems)
        assert any("unknown schema" in p for p in problems)
        bad_trace = FlightRecorder().build_bundle("x")
        bad_trace["trace"] = {"not": "a span"}
        assert validate_bundle(bad_trace) == ["trace is not a span tree"]

    def test_load_bundle_rejects_non_bundle(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text(json.dumps({"schema": "nope"}))
        with pytest.raises(ValueError):
            load_bundle(str(path))

    def test_dump_never_raises_on_bad_directory(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file where the directory should go")
        recorder = FlightRecorder(directory=str(blocker))
        path = recorder.dump("timeout")
        assert path is None
        assert recorder.last_write_error is not None
        assert recorder.bundles_written == 0
        # The bundle is still retained for in-memory post-mortems.
        assert recorder.last_bundle["reason"] == "timeout"

    def test_prune_keeps_newest(self, tmp_path):
        recorder = FlightRecorder(directory=str(tmp_path), keep=3)
        for _ in range(6):
            recorder.dump("timeout")
        names = [os.path.basename(p) for p in _bundles(str(tmp_path))]
        assert len(names) == 3
        # Sequence numbers embed write order: the newest three survive.
        assert [n.split("-")[3] for n in names] == [
            "0004", "0005", "0006"
        ]

    def test_format_bundle_renders_sections(self, tmp_path):
        db = repro.Database(timeout_ms=0.01, flight_dir=str(tmp_path))
        with pytest.raises(QueryTimeout):
            db.execute(SLOW_ITERATE)
        text = format_bundle(load_bundle(_bundles(str(tmp_path))[0]))
        assert "reason='timeout'" in text
        assert "governor: verdict=timeout" in text
        assert "failing statement trace:" in text
        assert "statement" in text
        assert "history tail" in text


class TestDumpCli:
    def _make_bundle_dir(self, tmp_path):
        db = repro.Database(timeout_ms=0.01, flight_dir=str(tmp_path))
        with pytest.raises(QueryTimeout):
            db.execute(SLOW_ITERATE)
        return str(tmp_path)

    def test_renders_newest_by_default(self, tmp_path, capsys):
        directory = self._make_bundle_dir(tmp_path)
        assert dump_main(["--dir", directory]) == 0
        out = capsys.readouterr().out
        assert "flight-recorder bundle" in out
        assert "reason='timeout'" in out

    def test_renders_explicit_paths(self, tmp_path, capsys):
        directory = self._make_bundle_dir(tmp_path)
        path = _bundles(directory)[0]
        assert dump_main([path]) == 0
        assert path in capsys.readouterr().out

    def test_list_mode(self, tmp_path, capsys):
        directory = self._make_bundle_dir(tmp_path)
        assert dump_main(["--dir", directory, "--list"]) == 0
        assert _bundles(directory)[0] in capsys.readouterr().out

    def test_empty_directory_fails(self, tmp_path, capsys):
        assert dump_main(["--dir", str(tmp_path)]) == 1
        assert "no bundles" in capsys.readouterr().err

    def test_broken_bundle_fails(self, tmp_path, capsys):
        path = tmp_path / "flightrec-1-1-0001-x.json"
        path.write_text("{not json")
        assert dump_main([str(path)]) == 1
