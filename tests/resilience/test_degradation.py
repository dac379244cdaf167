"""Executor graceful degradation: corrupted index → seq scan + quarantine."""

import pytest

from repro.engine.catalog import default_catalog
from repro.engine.cost import seqscan_cost
from repro.engine.executor import execute_plan
from repro.engine.planner import (
    IndexScanPlan,
    Predicate,
    SeqScanPlan,
    plan_query,
)
from repro.engine.table import Column, Table
from repro.errors import PageChecksumError
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

    def test_corruption_met_mid_scan_degrades_to_the_heap_rows(
        self, word_table
    ):
        # The root page stays intact and every second other node page is
        # corrupted, so a prefix scan emits rows from good pages before it
        # reaches a bad one. A one-letter prefix plans as a Seq Scan on
        # this table, so the index plan is built directly.
        target = random_words(2000, seed=61)[5][:1]
        expected = sorted(
            row for _tid, row in word_table.scan() if row[0].startswith(target)
        )
        index = word_table.indexes["trie"]
        cost = seqscan_cost(word_table.heap_pages, len(word_table))
        plan = IndexScanPlan(
            word_table, Predicate("name", "#=", target), cost, index=index
        )
        word_table.buffer.clear()
        root_page = index.structure.root.page_id
        bad = [p for p in index.structure.store.page_ids if p != root_page][1::2]
        for page_id in bad:
            corrupt_page(word_table.buffer.disk, page_id, seed=page_id)
        emitted = []
        with pytest.raises(PageChecksumError):
            for tid in index.scan("#=", target):
                emitted.append(tid)
        assert 0 < len(emitted) < len(expected)  # it really died mid-way
        assert sorted(execute_plan(plan)) == expected  # every row, none twice
        assert index.quarantined
        assert INCIDENTS.of_kind("index-scan-degraded")[0].subject == "trie"
        resident = set(word_table.buffer.resident_page_ids())
        assert not resident & set(bad)  # no failed read admitted a frame

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
        target = random_words(2000, seed=61)[3]
        plan = plan_query(word_table, Predicate("name", "=", target))
        assert isinstance(plan, SeqScanPlan)
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
