"""The allocator policy (``repro.storage.allocator``): when it pins
glibc's malloc thresholds, and the fresh pages it saves a statement."""

import os
import platform

import pytest

from repro.storage.allocator import minor_faults, should_pin
from repro.testing import tpch
from repro.testing.oracle import build_repro_db

BATTERY = os.path.join(os.path.dirname(__file__), "sql_battery")


class TestShouldPin:
    def test_an_unset_policy_is_pinned(self):
        assert should_pin({})
        assert should_pin({"PATH": "/bin", "MALLOC_ARENA_MAX": "2"})
        assert should_pin({"GLIBC_TUNABLES": "glibc.pthread.rseq=0"})

    @pytest.mark.parametrize(
        "name",
        [
            "MALLOC_MMAP_THRESHOLD_",
            "MALLOC_TRIM_THRESHOLD_",
            "MALLOC_TOP_PAD_",
        ],
    )
    def test_a_user_set_threshold_is_left_alone(self, name):
        assert not should_pin({name: "131072"})
        assert not should_pin({name: "0", "MALLOC_ARENA_MAX": "2"})

    @pytest.mark.parametrize(
        "tunables",
        [
            "glibc.malloc.mmap_threshold=65536",
            "glibc.malloc.trim_threshold=0",
            "glibc.pthread.rseq=0:glibc.malloc.top_pad=4096",
            "glibc.malloc.arena_max=1",
        ],
    )
    def test_a_malloc_tunable_is_left_alone(self, tunables):
        assert not should_pin({"GLIBC_TUNABLES": tunables})


#: 10 executions of q07 over this data took 12,161 minor faults under
#: glibc's default policy (glibc 2.36, x86-64).
DEFAULT_POLICY_FAULTS = 12_161


@pytest.mark.skipif(
    platform.libc_ver()[0] != "glibc" or not should_pin(os.environ)
    or minor_faults() is None,
    reason="the policy is pinned on glibc only, and not over the user's",
)
def test_a_five_way_join_reuses_its_temporaries():
    """q07 joins lineitem, supplier, orders, customer and two nations.
    After warm-up its temporaries come back from the heap, not as
    fresh zero-filled pages."""
    db = build_repro_db(
        tpch.generate(scale=30.0, seed=7),
        workers=1, morsel_rows=None, parallel_threshold=None,
    )
    with open(os.path.join(BATTERY, "q07_volume_shipping.sql")) as fh:
        sql = fh.read()
    expected = db.execute(sql).rows
    for _ in range(3):
        db.execute(sql)
    before = minor_faults()
    for _ in range(10):
        assert db.execute(sql).rows == expected
    assert minor_faults() - before < DEFAULT_POLICY_FAULTS / 100
