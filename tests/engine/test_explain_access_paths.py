"""EXPLAIN access paths, pinned literally.

For every built-in access method and every operator its operator classes
serve, the plan-tree lines of ``EXPLAIN`` and ``EXPLAIN ANALYZE`` (wall
times masked) over a fixed 1,500-row table. Which path the planner picks,
its estimated costs and its actual row and batch counts all show here, so
a change to how an access method is built, scanned or costed surfaces as a
text difference.
"""

from __future__ import annotations

import re
from functools import lru_cache

import pytest

from repro.engine.sql import Database
from repro.workloads import random_points, random_segments, random_words

_WORDS = random_words(1500, seed=331)
_POINTS = random_points(1500, seed=332)
_SEGMENTS = random_segments(1500, seed=333)
_WORD = next(w for w in _WORDS if len(w) >= 7)
_POINT = _POINTS[17]
_SEGMENT = _SEGMENTS[17]


@lru_cache(maxsize=None)
def _db(using: str, opclass: str, column: str) -> Database:
    """One table with one index over ``column``, analyzed."""
    db = Database(buffer_capacity=512)
    if column in ("name", "id"):
        db.execute("CREATE TABLE t (name VARCHAR(50), id INT);")
        rows = [(w, i) for i, w in enumerate(_WORDS)]
    elif column == "p":
        db.execute("CREATE TABLE t (p POINT, id INT);")
        rows = [(p, i) for i, p in enumerate(_POINTS)]
    else:
        db.execute("CREATE TABLE t (s LSEG, id INT);")
        rows = [(s, i) for i, s in enumerate(_SEGMENTS)]
    db.table("t").insert_many(rows)
    db.execute(f"CREATE INDEX t_idx ON t USING {using} ({column} {opclass});")
    db.execute("ANALYZE t;")
    return db


_NAME_OPS = [("=", _WORD), ("#=", _WORD[:4]), ("?=", _WORD[:2] + "?" + _WORD[3:]),
             ("*=", _WORD[:4] + "*")]
_POINT_OPS = [("@", f"({_POINT.x},{_POINT.y})"), ("^", "(10,10,25,25)")]
_CASES = (
    [("SP_GiST", "SP_GiST_trie", "name", op, v) for op, v in _NAME_OPS]
    + [("SP_GiST", "SP_GiST_trie", "name", "@@", "hello")]
    + [("SP_GiST", "SP_GiST_suffix", "name", "@=", "ana"),
       ("SP_GiST", "SP_GiST_suffix", "name", "@@", "hello")]
    + [("SP_GiST", opclass, "p", op, v)
       for opclass in ("SP_GiST_kdtree", "SP_GiST_pquadtree",
                       "SP_GiST_prquadtree")
       for op, v in _POINT_OPS + [("@@", "(50,50)")]]
    + [("SP_GiST", "SP_GiST_pmr", "s", "=", str(_SEGMENT)),
       ("SP_GiST", "SP_GiST_pmr", "s", "&&", "(10,10,20,20)"),
       ("SP_GiST", "SP_GiST_pmr", "s", "@@", "(50,50)")]
    + [("btree", "btree_varchar", "name", op, v)
       for op, v in [("<", "b"), ("<=", "b"), (">=", "x"), (">", "x")]
       + _NAME_OPS + [("?=", "?" + _WORD[1:])]]
    + [("btree", "btree_int", "id", op, "20")
       for op in ("<", "<=", "=", ">=", ">")]
    + [("hash", "hash_varchar", "name", "=", _WORD),
       ("hash", "hash_varchar", "name", "#=", _WORD[:4]),
       ("hash", "hash_int", "id", "=", "42")]
    + [("rtree", "rtree_point", "p", op, v) for op, v in _POINT_OPS]
    + [("rtree", "rtree_lseg", "s", "=", str(_SEGMENT)),
       ("rtree", "rtree_lseg", "s", "&&", "(10,10,20,20)")]
)


def _plan_text(using, opclass, column, op, operand, analyze) -> list[str]:
    """The plan-tree lines of EXPLAIN [ANALYZE], wall times masked."""
    literal = operand if column == "id" else f"'{operand}'"
    limit = " LIMIT 5" if op == "@@" else ""
    text = _db(using, opclass, column).execute(
        f"EXPLAIN {'ANALYZE ' if analyze else ''}SELECT * FROM t "
        f"WHERE {column} {op} {literal}{limit};"
    )
    lines = [
        line for line in text.splitlines()
        if "Scan" in line or line.startswith("Limit")
    ]
    return [re.sub(r"time=[0-9.]+ms", "time=*", line) for line in lines]


def _case_id(case) -> str:
    _using, opclass, _column, op, operand = case
    return f"{opclass}-{op}-{operand[:12]}"


@pytest.mark.parametrize("analyze", [False, True], ids=["plain", "analyze"])
@pytest.mark.parametrize("case", _CASES, ids=[_case_id(c) for c in _CASES])
def test_explain_access_path_is_pinned(case, analyze):
    assert _plan_text(*case, analyze) == _EXPECTED[_case_id(case), analyze]


_EXPECTED: dict[tuple[str, bool], list[str]] = {
    ('SP_GiST_trie-=-twgvcmqyiszk', False): [
        "Index Scan using t_idx on t where name = 'twgvcmqyiszkrl' (cost=12.00..16.27 sel=0.0007 est rows=1)",
    ],
    ('SP_GiST_trie-=-twgvcmqyiszk', True): [
        "Index Scan using t_idx on t where name = 'twgvcmqyiszkrl' (cost=12.00..16.27 sel=0.0007 est rows=1) (actual rows=1 batches=1 time=*)",
    ],
    ('SP_GiST_trie-#=-twgv', False): [
        "Index Scan using t_idx on t where name #= 'twgv' (cost=12.00..15.09 sel=0.0005 est rows=1)",
    ],
    ('SP_GiST_trie-#=-twgv', True): [
        "Index Scan using t_idx on t where name #= 'twgv' (cost=12.00..15.09 sel=0.0005 est rows=1) (actual rows=1 batches=1 time=*)",
    ],
    ('SP_GiST_trie-?=-tw?vcmqyiszk', False): [
        "Index Scan using t_idx on t where name ?= 'tw?vcmqyiszkrl' (cost=12.00..12.01 sel=0.0000 est rows=1)",
    ],
    ('SP_GiST_trie-?=-tw?vcmqyiszk', True): [
        "Index Scan using t_idx on t where name ?= 'tw?vcmqyiszkrl' (cost=12.00..12.01 sel=0.0000 est rows=1) (actual rows=1 batches=1 time=*)",
    ],
    ('SP_GiST_trie-*=-twgv*', False): [
        "Index Scan using t_idx on t where name *= 'twgv*' (cost=12.00..12.46 sel=0.0001 est rows=1)",
    ],
    ('SP_GiST_trie-*=-twgv*', True): [
        "Index Scan using t_idx on t where name *= 'twgv*' (cost=12.00..12.46 sel=0.0001 est rows=1) (actual rows=1 batches=1 time=*)",
    ],
    ('SP_GiST_trie-@@-hello', False): [
        'Limit (rows=5)',
        "  -> NN Index Scan using t_idx on t where name @@ 'hello' (cost=12.00..18.11 sel=0.0010 est rows=2)",
    ],
    ('SP_GiST_trie-@@-hello', True): [
        'Limit (rows=5) (actual rows=5 batches=1 time=*)',
        "  -> NN Index Scan using t_idx on t where name @@ 'hello' (cost=12.00..18.11 sel=0.0010 est rows=2) (actual rows=5 batches=1 time=*)",
    ],
    ('SP_GiST_suffix-@=-ana', False): [
        "Seq Scan on t where name @= 'ana' (cost=0.00..27.75 sel=1.0000 est rows=1500)",
    ],
    ('SP_GiST_suffix-@=-ana', True): [
        "Seq Scan on t where name @= 'ana' (cost=0.00..27.75 sel=1.0000 est rows=1500) (actual rows=0 batches=0 time=*)",
    ],
    ('SP_GiST_suffix-@@-hello', False): [
        'Limit (rows=5)',
        "  -> NN Index Scan using t_idx on t where name @@ 'hello' (cost=12.00..18.62 sel=0.0010 est rows=2)",
    ],
    ('SP_GiST_suffix-@@-hello', True): [
        'Limit (rows=5) (actual rows=5 batches=1 time=*)',
        "  -> NN Index Scan using t_idx on t where name @@ 'hello' (cost=12.00..18.62 sel=0.0010 est rows=2) (actual rows=5 batches=1 time=*)",
    ],
    ('SP_GiST_kdtree-@-(61.376,96.6', False): [
        'Index Scan using t_idx on t where p @ Point(x=61.376, y=96.638) (cost=20.00..24.12 sel=0.0007 est rows=1)',
    ],
    ('SP_GiST_kdtree-@-(61.376,96.6', True): [
        'Index Scan using t_idx on t where p @ Point(x=61.376, y=96.638) (cost=20.00..24.12 sel=0.0007 est rows=1) (actual rows=1 batches=1 time=*)',
    ],
    ('SP_GiST_kdtree-^-(10,10,25,25', False): [
        'Index Scan using t_idx on t where p ^ Box(xmin=10.0, ymin=10.0, xmax=25.0, ymax=25.0) (cost=20.00..26.17 sel=0.0010 est rows=2)',
    ],
    ('SP_GiST_kdtree-^-(10,10,25,25', True): [
        'Index Scan using t_idx on t where p ^ Box(xmin=10.0, ymin=10.0, xmax=25.0, ymax=25.0) (cost=20.00..26.17 sel=0.0010 est rows=2) (actual rows=22 batches=1 time=*)',
    ],
    ('SP_GiST_kdtree-@@-(50,50)', False): [
        'Limit (rows=5)',
        '  -> NN Index Scan using t_idx on t where p @@ Point(x=50.0, y=50.0) (cost=20.00..26.17 sel=0.0010 est rows=2)',
    ],
    ('SP_GiST_kdtree-@@-(50,50)', True): [
        'Limit (rows=5) (actual rows=5 batches=1 time=*)',
        '  -> NN Index Scan using t_idx on t where p @@ Point(x=50.0, y=50.0) (cost=20.00..26.17 sel=0.0010 est rows=2) (actual rows=5 batches=1 time=*)',
    ],
    ('SP_GiST_pquadtree-@-(61.376,96.6', False): [
        'Index Scan using t_idx on t where p @ Point(x=61.376, y=96.638) (cost=16.00..20.10 sel=0.0007 est rows=1)',
    ],
    ('SP_GiST_pquadtree-@-(61.376,96.6', True): [
        'Index Scan using t_idx on t where p @ Point(x=61.376, y=96.638) (cost=16.00..20.10 sel=0.0007 est rows=1) (actual rows=1 batches=1 time=*)',
    ],
    ('SP_GiST_pquadtree-^-(10,10,25,25', False): [
        'Index Scan using t_idx on t where p ^ Box(xmin=10.0, ymin=10.0, xmax=25.0, ymax=25.0) (cost=16.00..22.15 sel=0.0010 est rows=2)',
    ],
    ('SP_GiST_pquadtree-^-(10,10,25,25', True): [
        'Index Scan using t_idx on t where p ^ Box(xmin=10.0, ymin=10.0, xmax=25.0, ymax=25.0) (cost=16.00..22.15 sel=0.0010 est rows=2) (actual rows=22 batches=1 time=*)',
    ],
    ('SP_GiST_pquadtree-@@-(50,50)', False): [
        'Limit (rows=5)',
        '  -> NN Index Scan using t_idx on t where p @@ Point(x=50.0, y=50.0) (cost=16.00..22.15 sel=0.0010 est rows=2)',
    ],
    ('SP_GiST_pquadtree-@@-(50,50)', True): [
        'Limit (rows=5) (actual rows=5 batches=1 time=*)',
        '  -> NN Index Scan using t_idx on t where p @@ Point(x=50.0, y=50.0) (cost=16.00..22.15 sel=0.0010 est rows=2) (actual rows=5 batches=1 time=*)',
    ],
    ('SP_GiST_prquadtree-@-(61.376,96.6', False): [
        'Index Scan using t_idx on t where p @ Point(x=61.376, y=96.638) (cost=12.00..16.08 sel=0.0007 est rows=1)',
    ],
    ('SP_GiST_prquadtree-@-(61.376,96.6', True): [
        'Index Scan using t_idx on t where p @ Point(x=61.376, y=96.638) (cost=12.00..16.08 sel=0.0007 est rows=1) (actual rows=1 batches=1 time=*)',
    ],
    ('SP_GiST_prquadtree-^-(10,10,25,25', False): [
        'Index Scan using t_idx on t where p ^ Box(xmin=10.0, ymin=10.0, xmax=25.0, ymax=25.0) (cost=12.00..18.12 sel=0.0010 est rows=2)',
    ],
    ('SP_GiST_prquadtree-^-(10,10,25,25', True): [
        'Index Scan using t_idx on t where p ^ Box(xmin=10.0, ymin=10.0, xmax=25.0, ymax=25.0) (cost=12.00..18.12 sel=0.0010 est rows=2) (actual rows=22 batches=1 time=*)',
    ],
    ('SP_GiST_prquadtree-@@-(50,50)', False): [
        'Limit (rows=5)',
        '  -> NN Index Scan using t_idx on t where p @@ Point(x=50.0, y=50.0) (cost=12.00..18.12 sel=0.0010 est rows=2)',
    ],
    ('SP_GiST_prquadtree-@@-(50,50)', True): [
        'Limit (rows=5) (actual rows=5 batches=1 time=*)',
        '  -> NN Index Scan using t_idx on t where p @@ Point(x=50.0, y=50.0) (cost=12.00..18.12 sel=0.0010 est rows=2) (actual rows=5 batches=1 time=*)',
    ],
    ('SP_GiST_pmr-=-[(64.778,65.', False): [
        'Index Scan using t_idx on t where s = LineSegment(a=Point(x=64.778, y=65.515), b=Point(x=65.094, y=66.367)) (cost=16.00..20.15 sel=0.0007 est rows=1)',
    ],
    ('SP_GiST_pmr-=-[(64.778,65.', True): [
        'Index Scan using t_idx on t where s = LineSegment(a=Point(x=64.778, y=65.515), b=Point(x=65.094, y=66.367)) (cost=16.00..20.15 sel=0.0007 est rows=1) (actual rows=1 batches=1 time=*)',
    ],
    ('SP_GiST_pmr-&&-(10,10,20,20', False): [
        'Index Scan using t_idx on t where s && Box(xmin=10.0, ymin=10.0, xmax=20.0, ymax=20.0) (cost=16.00..22.22 sel=0.0010 est rows=2)',
    ],
    ('SP_GiST_pmr-&&-(10,10,20,20', True): [
        'Index Scan using t_idx on t where s && Box(xmin=10.0, ymin=10.0, xmax=20.0, ymax=20.0) (cost=16.00..22.22 sel=0.0010 est rows=2) (actual rows=20 batches=1 time=*)',
    ],
    ('SP_GiST_pmr-@@-(50,50)', False): [
        'Limit (rows=5)',
        '  -> NN Index Scan using t_idx on t where s @@ Point(x=50.0, y=50.0) (cost=16.00..22.22 sel=0.0010 est rows=2)',
    ],
    ('SP_GiST_pmr-@@-(50,50)', True): [
        'Limit (rows=5) (actual rows=5 batches=1 time=*)',
        '  -> NN Index Scan using t_idx on t where s @@ Point(x=50.0, y=50.0) (cost=16.00..22.22 sel=0.0010 est rows=2) (actual rows=5 batches=1 time=*)',
    ],
    ('btree_varchar-<-b', False): [
        "Seq Scan on t where name < 'b' (cost=0.00..27.75 sel=1.0000 est rows=1500)",
    ],
    ('btree_varchar-<-b', True): [
        "Seq Scan on t where name < 'b' (cost=0.00..27.75 sel=1.0000 est rows=1500) (actual rows=58 batches=1 time=*)",
    ],
    ('btree_varchar-<=-b', False): [
        "Seq Scan on t where name <= 'b' (cost=0.00..27.75 sel=1.0000 est rows=1500)",
    ],
    ('btree_varchar-<=-b', True): [
        "Seq Scan on t where name <= 'b' (cost=0.00..27.75 sel=1.0000 est rows=1500) (actual rows=63 batches=1 time=*)",
    ],
    ('btree_varchar->=-x', False): [
        "Seq Scan on t where name >= 'x' (cost=0.00..27.75 sel=1.0000 est rows=1500)",
    ],
    ('btree_varchar->=-x', True): [
        "Seq Scan on t where name >= 'x' (cost=0.00..27.75 sel=1.0000 est rows=1500) (actual rows=162 batches=1 time=*)",
    ],
    ('btree_varchar->-x', False): [
        "Seq Scan on t where name > 'x' (cost=0.00..27.75 sel=1.0000 est rows=1500)",
    ],
    ('btree_varchar->-x', True): [
        "Seq Scan on t where name > 'x' (cost=0.00..27.75 sel=1.0000 est rows=1500) (actual rows=159 batches=1 time=*)",
    ],
    ('btree_varchar-=-twgvcmqyiszk', False): [
        "Index Scan using t_idx on t where name = 'twgvcmqyiszkrl' (cost=8.00..12.23 sel=0.0007 est rows=1)",
    ],
    ('btree_varchar-=-twgvcmqyiszk', True): [
        "Index Scan using t_idx on t where name = 'twgvcmqyiszkrl' (cost=8.00..12.23 sel=0.0007 est rows=1) (actual rows=1 batches=1 time=*)",
    ],
    ('btree_varchar-#=-twgv', False): [
        "Index Scan using t_idx on t where name #= 'twgv' (cost=8.00..11.06 sel=0.0005 est rows=1)",
    ],
    ('btree_varchar-#=-twgv', True): [
        "Index Scan using t_idx on t where name #= 'twgv' (cost=8.00..11.06 sel=0.0005 est rows=1) (actual rows=1 batches=1 time=*)",
    ],
    ('btree_varchar-?=-tw?vcmqyiszk', False): [
        "Index Scan using t_idx on t where name ?= 'tw?vcmqyiszkrl' (cost=8.00..8.01 sel=0.0000 est rows=1)",
    ],
    ('btree_varchar-?=-tw?vcmqyiszk', True): [
        "Index Scan using t_idx on t where name ?= 'tw?vcmqyiszkrl' (cost=8.00..8.01 sel=0.0000 est rows=1) (actual rows=1 batches=1 time=*)",
    ],
    ('btree_varchar-*=-twgv*', False): [
        "Index Scan using t_idx on t where name *= 'twgv*' (cost=8.00..8.46 sel=0.0001 est rows=1)",
    ],
    ('btree_varchar-*=-twgv*', True): [
        "Index Scan using t_idx on t where name *= 'twgv*' (cost=8.00..8.46 sel=0.0001 est rows=1) (actual rows=1 batches=1 time=*)",
    ],
    ('btree_varchar-?=-?wgvcmqyiszk', False): [
        "Seq Scan on t where name ?= '?wgvcmqyiszkrl' (cost=0.00..27.75 sel=1.0000 est rows=1500)",
    ],
    ('btree_varchar-?=-?wgvcmqyiszk', True): [
        "Seq Scan on t where name ?= '?wgvcmqyiszkrl' (cost=0.00..27.75 sel=1.0000 est rows=1500) (actual rows=1 batches=1 time=*)",
    ],
    ('btree_int-<-20', False): [
        'Seq Scan on t where id < 20 (cost=0.00..27.75 sel=1.0000 est rows=1500)',
    ],
    ('btree_int-<-20', True): [
        'Seq Scan on t where id < 20 (cost=0.00..27.75 sel=1.0000 est rows=1500) (actual rows=20 batches=1 time=*)',
    ],
    ('btree_int-<=-20', False): [
        'Seq Scan on t where id <= 20 (cost=0.00..27.75 sel=1.0000 est rows=1500)',
    ],
    ('btree_int-<=-20', True): [
        'Seq Scan on t where id <= 20 (cost=0.00..27.75 sel=1.0000 est rows=1500) (actual rows=21 batches=1 time=*)',
    ],
    ('btree_int-=-20', False): [
        'Index Scan using t_idx on t where id = 20 (cost=8.00..12.04 sel=0.0007 est rows=1)',
    ],
    ('btree_int-=-20', True): [
        'Index Scan using t_idx on t where id = 20 (cost=8.00..12.04 sel=0.0007 est rows=1) (actual rows=1 batches=1 time=*)',
    ],
    ('btree_int->=-20', False): [
        'Seq Scan on t where id >= 20 (cost=0.00..27.75 sel=1.0000 est rows=1500)',
    ],
    ('btree_int->=-20', True): [
        'Seq Scan on t where id >= 20 (cost=0.00..27.75 sel=1.0000 est rows=1500) (actual rows=1480 batches=6 time=*)',
    ],
    ('btree_int->-20', False): [
        'Seq Scan on t where id > 20 (cost=0.00..27.75 sel=1.0000 est rows=1500)',
    ],
    ('btree_int->-20', True): [
        'Seq Scan on t where id > 20 (cost=0.00..27.75 sel=1.0000 est rows=1500) (actual rows=1479 batches=6 time=*)',
    ],
    ('hash_varchar-=-twgvcmqyiszk', False): [
        "Index Scan using t_idx on t where name = 'twgvcmqyiszkrl' (cost=4.00..8.28 sel=0.0007 est rows=1)",
    ],
    ('hash_varchar-=-twgvcmqyiszk', True): [
        "Index Scan using t_idx on t where name = 'twgvcmqyiszkrl' (cost=4.00..8.28 sel=0.0007 est rows=1) (actual rows=1 batches=1 time=*)",
    ],
    ('hash_varchar-#=-twgv', False): [
        "Seq Scan on t where name #= 'twgv' (cost=0.00..27.75 sel=1.0000 est rows=1500)",
    ],
    ('hash_varchar-#=-twgv', True): [
        "Seq Scan on t where name #= 'twgv' (cost=0.00..27.75 sel=1.0000 est rows=1500) (actual rows=1 batches=1 time=*)",
    ],
    ('hash_int-=-42', False): [
        'Index Scan using t_idx on t where id = 42 (cost=4.00..8.08 sel=0.0007 est rows=1)',
    ],
    ('hash_int-=-42', True): [
        'Index Scan using t_idx on t where id = 42 (cost=4.00..8.08 sel=0.0007 est rows=1) (actual rows=1 batches=1 time=*)',
    ],
    ('rtree_point-@-(61.376,96.6', False): [
        'Index Scan using t_idx on t where p @ Point(x=61.376, y=96.638) (cost=8.00..12.12 sel=0.0007 est rows=1)',
    ],
    ('rtree_point-@-(61.376,96.6', True): [
        'Index Scan using t_idx on t where p @ Point(x=61.376, y=96.638) (cost=8.00..12.12 sel=0.0007 est rows=1) (actual rows=1 batches=1 time=*)',
    ],
    ('rtree_point-^-(10,10,25,25', False): [
        'Index Scan using t_idx on t where p ^ Box(xmin=10.0, ymin=10.0, xmax=25.0, ymax=25.0) (cost=8.00..14.18 sel=0.0010 est rows=2)',
    ],
    ('rtree_point-^-(10,10,25,25', True): [
        'Index Scan using t_idx on t where p ^ Box(xmin=10.0, ymin=10.0, xmax=25.0, ymax=25.0) (cost=8.00..14.18 sel=0.0010 est rows=2) (actual rows=22 batches=1 time=*)',
    ],
    ('rtree_lseg-=-[(64.778,65.', False): [
        'Index Scan using t_idx on t where s = LineSegment(a=Point(x=64.778, y=65.515), b=Point(x=65.094, y=66.367)) (cost=8.00..12.12 sel=0.0007 est rows=1)',
    ],
    ('rtree_lseg-=-[(64.778,65.', True): [
        'Index Scan using t_idx on t where s = LineSegment(a=Point(x=64.778, y=65.515), b=Point(x=65.094, y=66.367)) (cost=8.00..12.12 sel=0.0007 est rows=1) (actual rows=1 batches=1 time=*)',
    ],
    ('rtree_lseg-&&-(10,10,20,20', False): [
        'Index Scan using t_idx on t where s && Box(xmin=10.0, ymin=10.0, xmax=20.0, ymax=20.0) (cost=8.00..14.19 sel=0.0010 est rows=2)',
    ],
    ('rtree_lseg-&&-(10,10,20,20', True): [
        'Index Scan using t_idx on t where s && Box(xmin=10.0, ymin=10.0, xmax=20.0, ymax=20.0) (cost=8.00..14.19 sel=0.0010 est rows=2) (actual rows=20 batches=1 time=*)',
    ],
}
