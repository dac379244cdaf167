"""The access-method interface: a ``pg_am`` row picks the structure and the
cost estimator, and the engine calls the structure without knowing its class.

A fifth access method, registered in a fresh catalog, serves CREATE INDEX,
SELECT, EXPLAIN and DELETE + VACUUM with nothing but its registrations.
"""

from __future__ import annotations

import pytest

from repro.engine.catalog import (
    AccessMethodEntry,
    SystemCatalog,
    default_catalog,
)
from repro.engine.opclass import OperatorClass
from repro.engine.operators import builtin_operators
from repro.engine.sql import Database
from repro.engine.table import Column, Table
from repro.errors import CatalogError, PlannerError, SQLError
from repro.geometry import Point


class SortedKeysIndex:
    """A test-only structure: in-memory entries grouped by key."""

    supports_nn = False
    page_height = 1

    def __init__(self, buffer, opclass, name):
        self.name = name
        self.items: dict = {}
        self.scans: list[tuple[str, object]] = []

    def insert(self, key, value):
        self.items.setdefault(key, []).append(value)

    def insert_many(self, items):
        for key, value in items:
            self.insert(key, value)

    build = insert_many

    def delete_entries(self, entries):
        for key, value in entries:
            self.items[key].remove(value)
        return len(entries)

    def scan(self, op, operand):
        self.scans.append((op, operand))
        for key in sorted(self.items):
            if key == operand if op == "=" else key < operand:
                yield from self.items[key]

    @property
    def num_pages(self):
        return 1 + sum(map(len, self.items.values())) // 100


def _catalog_with_fifth_access_method() -> SystemCatalog:
    catalog = SystemCatalog()
    for operator in builtin_operators():
        catalog.register_operator(operator)
    catalog.register_access_method(
        AccessMethodEntry(amname="sorted_keys", amcostestimate="btcostestimate"),
        structure=SortedKeysIndex,
    )
    catalog.register_opclass(
        OperatorClass(
            name="sorted_keys_int",
            access_method="sorted_keys",
            for_type="int",
            operators={1: "=", 2: "<"},
        )
    )
    return catalog


class TestFifthAccessMethod:
    def test_registered_access_method_serves_sql(self):
        db = Database(catalog=_catalog_with_fifth_access_method())
        db.execute("CREATE TABLE t (name VARCHAR(20), id INT);")
        values = ", ".join(f"('w{i}', {i})" for i in range(2000))
        db.execute(f"INSERT INTO t VALUES {values};")
        assert db.execute(
            "CREATE INDEX t_sorted ON t USING sorted_keys (id sorted_keys_int);"
        ) == "CREATE INDEX t_sorted"
        db.execute("ANALYZE t;")
        structure = db.table("t").indexes["t_sorted"].structure
        assert isinstance(structure, SortedKeysIndex)

        assert db.execute("SELECT * FROM t WHERE id = 7;") == [("w7", 7)]
        assert structure.scans == [("=", 7)]
        plan = db.execute("EXPLAIN SELECT * FROM t WHERE id = 7;")
        assert plan.startswith("Index Scan using t_sorted on t where id = 7")

        assert db.execute("DELETE FROM t WHERE id = 7;") == "DELETE 1"
        db.execute("VACUUM t;")
        assert 7 not in {k for k, tids in structure.items.items() if tids}
        assert db.execute("SELECT * FROM t WHERE id = 7;") == []
        with pytest.raises(SQLError):
            db.execute("CHECK INDEX t_sorted;")

    def test_access_method_without_structure_cannot_back_an_index(self):
        db = Database()
        db.catalog.register_opclass(
            OperatorClass(name="heap_int", access_method="heap", for_type="int",
                          operators={1: "="})
        )
        db.execute("CREATE TABLE t (id INT);")
        with pytest.raises(CatalogError, match="cannot back an index"):
            db.execute("CREATE INDEX t_heap ON t USING heap (id heap_int);")


class TestUnsupportedOperator:
    @pytest.mark.parametrize(
        ("using", "opclass", "column", "op", "operand"),
        [
            ("SP_GiST", "SP_GiST_trie", "name", "@", Point(0, 0)),
            ("btree", "btree_varchar", "name", "@", Point(0, 0)),
            ("hash", "hash_varchar", "name", "<", "w1"),
            ("rtree", "rtree_point", "p", "#=", "w"),
        ],
    )
    def test_scan_with_an_operator_the_index_lacks_is_a_planner_error(
        self, buffer, using, opclass, column, op, operand
    ):
        table = Table(
            "t",
            [Column("name", "varchar"), Column("p", "point")],
            buffer,
            default_catalog(),
        )
        for i in range(20):
            table.insert((f"w{i}", Point(i, i)))
        index = table.create_index("idx", column, using, opclass)
        with pytest.raises(PlannerError):
            list(index.scan(op, operand))
