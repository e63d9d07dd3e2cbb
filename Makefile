# Convenience targets; everything assumes PYTHONPATH=src.

PY := PYTHONPATH=src python
N ?= 500
START ?= 0

.PHONY: test test-all fuzz bench obs-smoke perf-smoke chaos battery server-smoke crash-battery

# The tier-1 suite runs three times: fully serial, with a 4-worker
# pool (the serial-equivalence contract of the morsel-driven executor,
# docs/parallelism.md), and with caches and encodings off — plan cache,
# kernel cache, zone maps and CSR cache disabled (docs/performance.md)
# and raw storage forced (docs/storage.md). All three legs run the same
# operators; the third is a configuration, not a second code path, and
# proves the caches and encodings never change results. Around them
# run the seven batteries described at their own targets: obs-smoke
# (first, as a prerequisite), fuzz, battery, chaos, crash-battery,
# server-smoke and perf-smoke.
test: obs-smoke
	REPRO_WORKERS=1 $(PY) -m pytest -x -q
	REPRO_WORKERS=4 $(PY) -m pytest -x -q
	REPRO_PLAN_CACHE=0 REPRO_ENCODING=raw REPRO_WORKERS=1 $(PY) -m pytest -x -q
	$(MAKE) fuzz
	$(MAKE) battery
	$(MAKE) chaos
	$(MAKE) crash-battery
	$(MAKE) server-smoke
	$(MAKE) perf-smoke

# TPC-H-shaped SQL battery (tests/sql_battery/) under raw and encoded
# storage, serial and 4 workers, vs the SQLite oracle.
battery:
	$(PY) -m pytest -x -q -m battery

# Seeded fault-injection battery (docs/robustness.md): every injected
# fault must be tolerated or fail typed with statement atomicity
# (checked against an uninjected twin).
chaos:
	$(PY) -m repro.testing.chaos --seeds 260 --start 1

# Kill-point crash-recovery battery (docs/durability.md): 200 seeded
# scenarios — SIGKILL mid-append, kill mid-commit-stream, torn-write
# truncation, injected fsync failure, bit rot in log and snapshot —
# each recovered and diffed against an acknowledged-prefix twin; plus
# the crash-marked pytest slice (server restart cycle included).
crash-battery:
	$(PY) -m repro.testing.crash --seeds 200 --jobs 8
	$(PY) -m pytest -x -q -m crash

# Multi-session server battery (docs/server.md): a live server on an
# ephemeral port, 8 concurrent client sessions of mixed DML / query /
# analytics checked against a serial twin, a forced typed
# ADMISSION_REJECTED under a wedged executor, an HTTP /metrics scrape,
# and clean shutdown — all under a hard watchdog (exit 2 on overrun,
# so a hung server can never hang CI).
server-smoke:
	$(PY) -m repro.server.smoke

# Observability smoke battery: runs a tiny end-to-end workload,
# validates the Prometheus exposition (format, TYPE lines, histogram
# and quantile-summary series), round-trips a Chrome-trace export
# through json.loads plus a schema check, checks the query history
# store recorded the workload, and forces a statement timeout to
# verify the flight recorder dumps a loadable bundle.
obs-smoke:
	$(PY) -m repro.obs.export --check

# Quick run of every BENCHMARK.json workload, traced and untraced:
# zero failures and every declared metric name printed exactly once.
perf-smoke:
	$(PY) -m pytest -q perf/test_smoke.py

test-all:
	$(PY) -m pytest -q -m ""

# Configuration-sampling differential fuzzer (docs/testing.md): each
# seed draws workers, morsel size, plan cache, encoding, top-N,
# WAL/checkpoint/recovery, fault injection and schema profile; its
# answers, cold and cached, must match a plain reference engine's and
# SQLite's. A failing seed S reproduces exactly with
# `make fuzz N=1 START=S`.
fuzz:
	$(PY) -m repro.testing.fuzz --seeds $(N) --start $(START) -v

bench:
	$(PY) -m repro.bench all --scale 0.001
