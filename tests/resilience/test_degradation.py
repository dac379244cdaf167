"""Executor graceful degradation: corrupted index → seq scan + quarantine."""

import pytest

from repro.core.node import LeafNode
from repro.engine.catalog import default_catalog
from repro.engine.executor import execute_plan
from repro.engine.planner import (
    IndexScanPlan,
    Predicate,
    SeqScanPlan,
    plan_query,
)
from repro.engine.table import Column, Table
from repro.resilience import INCIDENTS, corrupt_page
from repro.workloads import random_words


@pytest.fixture(autouse=True)
def clean_incident_log():
    INCIDENTS.reset()
    yield
    INCIDENTS.reset()


@pytest.fixture
def word_table(buffer):
    table = Table(
        "words",
        [Column("name", "varchar"), Column("id", "int")],
        buffer,
        default_catalog(),
    )
    for i, w in enumerate(random_words(2000, seed=61)):
        table.insert((w, i))
    table.create_index("trie", "name", "SP_GiST", "SP_GiST_trie")
    table.analyze()
    return table


def corrupt_index(table: Table, index_name: str) -> None:
    """Flip bits in every node page of the index (heap pages untouched)."""
    index = table.indexes[index_name]
    table.buffer.clear()
    for page_id in index.structure.store.page_ids:
        corrupt_page(table.buffer.disk, page_id, seed=page_id)


class TestDegradation:
    def test_corrupted_scan_falls_back_to_seq_scan(self, word_table):
        target = random_words(2000, seed=61)[7]
        predicate = Predicate("name", "=", target)
        expected = sorted(
            row for _tid, row in word_table.scan() if row[0] == target
        )
        plan = plan_query(word_table, predicate)
        assert isinstance(plan, IndexScanPlan)
        corrupt_index(word_table, "trie")
        rows = sorted(execute_plan(plan))
        assert rows == expected  # complete, correct answer despite the index
        assert INCIDENTS.count == 1
        incident = INCIDENTS.of_kind("index-scan-degraded")[0]
        assert incident.subject == "trie"
        assert word_table.indexes["trie"].quarantined

    def test_quarantined_index_not_planned_again(self, word_table):
        predicate = Predicate("name", "=", "anything")
        plan = plan_query(word_table, predicate)
        assert isinstance(plan, IndexScanPlan)
        corrupt_index(word_table, "trie")
        list(execute_plan(plan))  # triggers the quarantine
        replanned = plan_query(word_table, predicate)
        assert isinstance(replanned, SeqScanPlan)

    def test_planner_quarantines_index_it_cannot_cost(self, word_table):
        # Costing walks the index (page height), so corruption can surface
        # during planning, before any scan exists. The planner must skip
        # the index, not crash the query.
        corrupt_index(word_table, "trie")
        # corrupt_index emptied the pool (and with it the node cache);
        # plant a node so the planner-side purge is observable.
        cache = word_table.indexes["trie"].structure.store.cache
        cache.put(999_999, 0, LeafNode(items=[("stale", 0)]))
        target = random_words(2000, seed=61)[3]
        plan = plan_query(word_table, Predicate("name", "=", target))
        assert isinstance(plan, SeqScanPlan)
        assert len(cache) == 0  # costing quarantines exactly like scanning
        expected = sorted(
            row for _tid, row in word_table.scan() if row[0] == target
        )
        assert sorted(execute_plan(plan)) == expected
        assert INCIDENTS.of_kind("index-cost-degraded")
        assert word_table.indexes["trie"].quarantined

    def test_sql_select_survives_corrupted_index(self, word_table):
        from repro.engine.sql import Database

        db = Database(buffer=word_table.buffer, catalog=word_table.catalog)
        db.tables["words"] = word_table
        target = random_words(2000, seed=61)[11]
        before = db.execute(f"SELECT * FROM words WHERE name = '{target}'")
        corrupt_index(word_table, "trie")
        after = db.execute(f"SELECT * FROM words WHERE name = '{target}'")
        assert sorted(after) == sorted(before)
        assert INCIDENTS.count >= 1

    def test_healthy_scan_records_nothing(self, word_table):
        predicate = Predicate("name", "=", random_words(2000, seed=61)[0])
        plan = plan_query(word_table, predicate)
        list(execute_plan(plan))
        assert INCIDENTS.count == 0
        assert not word_table.indexes["trie"].quarantined
