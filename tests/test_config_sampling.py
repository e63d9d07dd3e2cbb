"""The configuration-sampling oracle (repro.testing.oracle).

Every seed draws one engine configuration; its answers must match the
plain reference engine's and SQLite's. These tests check the draw
itself (determinism, coverage, pinning) and that planted defects — one
per switch family — are caught and minimized to exactly the switch
responsible, with a reproducer that reproduces.
"""

from dataclasses import replace

import pytest

import repro
import repro.api.database as database_mod
import repro.exec.parallel as parallel_mod
import repro.txn.wal as wal_mod
from repro.exec.sort import TopNSortOp
from repro.plan.cache import CachedPlan, PlanCache
from repro.plan.logical import LogicalFilter
from repro.storage.encoding import DictionaryColumn
from repro.testing import QueryGenerator, fuzz
from repro.testing.oracle import (
    CONFIG_SPACE,
    REFERENCE,
    TINY_CHECKPOINT_BYTES,
    DifferentialOracle,
    FuzzConfig,
    draw_config,
    run_seed,
)

# ---------------------------------------------------------------------------
# The draw
# ---------------------------------------------------------------------------


def test_tier1_seeds_draw_every_value_of_every_field():
    # tests/test_differential.py runs seeds 0-99 on their drawn configs.
    configs = [draw_config(seed) for seed in range(100)]
    for name, values in CONFIG_SPACE.items():
        drawn = {getattr(config, name) for config in configs}
        assert drawn == set(values), name


def test_draw_is_deterministic_and_leaves_the_sql_alone():
    assert draw_config(17) == draw_config(17)
    assert len({draw_config(seed) for seed in range(20)}) > 1
    # The draw has its own stream: a seed's SQL is what it always was.
    draw_config(0)
    generator = QueryGenerator(0)
    tables = generator.schema()
    assert generator.query(tables).to_sql() == (
        "SELECT a0.c1 AS c0, sum(a0.k) AS c1, sum(a0.c0) AS c2 "
        "FROM t0 a0 GROUP BY a0.c1"
    )


def test_reference_is_pinned_against_the_environment(monkeypatch):
    monkeypatch.setenv("REPRO_WORKERS", "4")
    monkeypatch.setenv("REPRO_PLAN_CACHE", "1")
    monkeypatch.setenv("REPRO_ENCODING", "dict")
    monkeypatch.setenv("REPRO_CHECKPOINT_BYTES", "1")
    subject = replace(REFERENCE, plan_cache=True, encoding="auto")
    generator = QueryGenerator(0)
    oracle = DifferentialOracle(generator.schema(), subject)
    try:
        reference = oracle.reference.config
        assert (reference.workers, reference.plan_cache) == (1, False)
        assert (reference.encoding, reference.topn) == ("raw", False)
        assert reference.wal_path is None
        assert reference.checkpoint_bytes is None
        assert oracle.subject.config.workers == 1
        assert oracle.subject.config.encoding == "auto"
    finally:
        oracle.close()


def test_fuzz_cli_has_six_options(capsys):
    with pytest.raises(SystemExit):
        fuzz.main(["--help"])
    usage = capsys.readouterr().out
    options = {
        "--seeds", "--start", "--queries-per-seed", "--no-minimize",
        "--verbose", "--profile",
    }
    listed = {
        word.rstrip(",")
        for word in usage.split()
        if word.startswith("--") and word.rstrip(",") != "--help"
    }
    assert listed == options


# ---------------------------------------------------------------------------
# Planted defects
# ---------------------------------------------------------------------------


def _topn_drops_last_tie(monkeypatch):
    """Top-N loses the last output row when it ties its predecessor on
    the primary sort key."""
    execute = TopNSortOp.execute

    def lossy(self, eval_ctx):
        for batch in execute(self, eval_ctx):
            n = len(batch)
            if n > 1:
                key = self._key_fns[0](batch, eval_ctx)
                if key.value_at(n - 1) == key.value_at(n - 2):
                    batch = batch.slice(0, n - 1)
            yield batch

    monkeypatch.setattr(TopNSortOp, "execute", lossy)


def _dictionary_bound_off_by_one(monkeypatch):
    """A comparison on dictionary codes looks one code too far."""
    code_bound = DictionaryColumn.code_bound

    def shifted(self, value):
        index, present = code_bound(self, value)
        return index + 1, present

    monkeypatch.setattr(DictionaryColumn, "code_bound", shifted)


def _without_filters(plan):
    if isinstance(plan, LogicalFilter):
        return _without_filters(plan.child)
    return plan.replace_children(
        [_without_filters(child) for child in plan.children()]
    )


def _cache_hit_serves_stale_plan(monkeypatch):
    """A plan-cache hit serves a stale plan, one from before the
    statement's filters were attached."""
    lookup = PlanCache.lookup

    def stale(self, key, epoch):
        entry = lookup(self, key, epoch)
        if isinstance(entry, CachedPlan):
            return CachedPlan(_without_filters(entry.plan), entry.epoch)
        return entry

    monkeypatch.setattr(PlanCache, "lookup", stale)


def _replay_skips_one_record(monkeypatch):
    """WAL replay skips the first table-data record it meets."""
    replay_stats = wal_mod.WriteAheadLog.replay_stats
    apply_record = wal_mod.apply_record
    pending = []

    def replay(self, manager, min_seq=0):
        pending[:] = [True]
        return replay_stats(self, manager, min_seq)

    def apply(txn, head, chunk):
        if pending and head["op"] == "append":
            pending.clear()
            return
        apply_record(txn, head, chunk)

    monkeypatch.setattr(wal_mod.WriteAheadLog, "replay_stats", replay)
    monkeypatch.setattr(wal_mod, "apply_record", apply)


def _restore_forgets_a_table(monkeypatch):
    """Checkpoint restore drops the snapshot's last table."""
    restore_into = database_mod.restore_into

    def forgetful(manager, snapshot):
        tables = snapshot["tables"][:-1]
        return restore_into(manager, {**snapshot, "tables": tables})

    monkeypatch.setattr(database_mod, "restore_into", forgetful)


def _parallel_merge_drops_a_morsel(monkeypatch):
    """A parallel partial aggregate (split into 4-row morsels) merges
    every partial but the last."""
    partial_grouped_aggregate = parallel_mod.partial_grouped_aggregate

    class DropLast:
        def __init__(self, pool):
            self.pool = pool

        def map_ordered(self, fn, items, label="task"):
            return self.pool.map_ordered(fn, items, label)[:-1]

    def lossy(func_name, col, codes, n_groups, pool, chunk_rows=None):
        if not pool.is_parallel:
            return partial_grouped_aggregate(
                func_name, col, codes, n_groups, pool
            )
        return partial_grouped_aggregate(
            func_name, col, codes, n_groups, DropLast(pool), chunk_rows=4
        )

    monkeypatch.setattr(parallel_mod, "partial_grouped_aggregate", lossy)


#: Switches no planted defect depends on: minimization must drop them.
NOISE = replace(
    REFERENCE, recovery="strict", morsel_rows=7, encoding="for",
)

#: defect -> (plant, seed, responsible switches, divergence kind)
PLANTED = {
    "topn": (_topn_drops_last_tie, 3, {"topn": True}, "config"),
    "dictionary": (
        _dictionary_bound_off_by_one, 42, {"encoding": "dict"}, "config",
    ),
    "plan_cache": (
        _cache_hit_serves_stale_plan, 3, {"plan_cache": True}, "config",
    ),
    "wal_replay": (_replay_skips_one_record, 2, {"wal": True}, "durability"),
    "checkpoint": (
        _restore_forgets_a_table, 2,
        {"wal": True, "checkpoint_bytes": TINY_CHECKPOINT_BYTES},
        "durability",
    ),
    "parallel": (
        _parallel_merge_drops_a_morsel, 5, {"workers": 4}, "config",
    ),
}


@pytest.mark.parametrize("defect", sorted(PLANTED))
def test_planted_defect_minimizes_to_its_switch(monkeypatch, defect):
    plant, seed, switches, kind = PLANTED[defect]
    config = replace(NOISE, **switches)
    assert run_seed(seed, config=config) == []  # healthy engine
    plant(monkeypatch)
    divergences = run_seed(seed, config=config)
    assert divergences, f"{defect} defect went unnoticed"
    divergence = divergences[0]
    assert divergence.kind == kind, divergence.report()
    assert divergence.switches == switches, divergence.report()
    # A forced config prints the run_seed call that reproduces it.
    again = eval(
        divergence.reproducer(), {"repro": repro, "FuzzConfig": FuzzConfig}
    )
    assert again and again[0].kind == kind


#: A seed whose drawn config enables top-N and meets a tie at the cut.
TOPN_DRAWN_SEED = 11


def test_printed_command_reproduces_a_drawn_divergence(
    monkeypatch, capsys
):
    assert draw_config(TOPN_DRAWN_SEED).topn
    _topn_drops_last_tie(monkeypatch)
    (divergence,) = run_seed(TOPN_DRAWN_SEED)
    prefix = "-- reproduce: python -m repro.testing.fuzz "
    (line,) = [
        line for line in divergence.report().splitlines()
        if line.startswith(prefix)
    ]
    assert fuzz.main(line[len(prefix):].split()) == 1
    out = capsys.readouterr().out
    assert f"kind={divergence.kind})" in out
    assert "-- failing switches: topn=True" in out
