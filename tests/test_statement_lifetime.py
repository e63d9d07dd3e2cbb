"""A finished statement leaves no reference cycle behind that holds its
transaction. A transaction in a cycle keeps its snapshot's table
versions alive until the cycle collector runs, which undercuts
"commits prune superseded versions" and the governor's view of what
is held."""

import gc

import pytest

from repro.testing import tpch
from repro.testing.oracle import build_repro_db
from repro.txn.manager import Transaction

from .test_effects import BATTERY


@pytest.fixture(scope="module")
def tables():
    return tpch.generate(scale=0.2, seed=7)


def live_transactions() -> list:
    return [obj for obj in gc.get_objects() if isinstance(obj, Transaction)]


@pytest.mark.parametrize(
    "plan_cache", [False, True], ids=["cache-off", "cache-on"]
)
def test_no_transaction_outlives_a_battery_query(tables, plan_cache):
    """Each query runs twice, so with the cache on both the miss that
    plans it and the hit that reuses the plan are checked."""
    db = build_repro_db(tables, plan_cache=plan_cache)
    gc.collect()
    assert live_transactions() == []
    gc.disable()
    try:
        for path in BATTERY:
            for run in ("first", "second"):
                db.execute(path.read_text())
                assert live_transactions() == [], (path.stem, run)
    finally:
        gc.enable()
