"""Property tests: the SQL front end.

Two contracts of :func:`repro.engine.parse.parse`:

- **Round trip.** Any statement of the dialect, written out with
  randomly cased keywords and random whitespace between its tokens, parses
  back to an equal :class:`~repro.engine.parse.Statement`.
- **Error typing.** Any other text — a statement cut short, or junk —
  either parses or raises :class:`~repro.errors.SQLError`, never another
  exception.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from tests import hypothesis_max_examples

from repro.engine.parse import Literal, Statement, parse
from repro.errors import SQLError

SETTINGS = settings(max_examples=hypothesis_max_examples(200), deadline=None)

_KEYWORDS = frozenset(
    "select from where limit insert into values update set delete create "
    "table index on using drop fetch all declare cursor for explain analyze "
    "begin commit end rollback transaction close vacuum check repack count "
    "repro_incidents repro_heap_stats".split()
)
_OPERATORS = ("=", "<", "<=", ">", ">=", "<>", "#=", "?=", "*=", "@", "^",
              "&&", "@=", "@@")
_TYPES = ("varchar", "int", "float", "point", "lseg")

names = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,7}", fullmatch=True).filter(
    lambda name: name.lower() not in _KEYWORDS
)
numbers = st.from_regex(r"[0-9]{1,5}(\.[0-9]{1,3})?", fullmatch=True)
literals = st.one_of(
    st.builds(Literal, st.text(max_size=12), st.just(True)),
    st.builds(Literal, numbers),
    st.builds(Literal, numbers.map(lambda n: "-" + n)),
    st.builds(Literal, names),
)
predicates = st.tuples(names, st.sampled_from(_OPERATORS), literals)


def _select(table: str, columns: tuple, predicate, limit) -> Statement:
    return Statement("select", table=table, columns=columns,
                     predicate=predicate, limit=limit)


selects = st.builds(
    _select,
    names,
    st.one_of(st.just(("*",)), st.just(("count(*)",)),
              st.lists(names, min_size=1, max_size=3).map(tuple)),
    st.none() | predicates,
    st.none() | st.integers(0, 10_000),
)

statements = st.one_of(
    selects,
    st.builds(lambda inner, analyze: Statement("explain", inner=inner,
                                               analyze=analyze),
              selects, st.booleans()),
    st.builds(lambda cursor, inner: Statement("declare", cursor=cursor,
                                              inner=inner),
              names, selects),
    st.builds(lambda table, rows: Statement("insert", table=table, rows=rows),
              names,
              st.lists(st.lists(literals, min_size=1, max_size=3).map(tuple),
                       min_size=1, max_size=3).map(tuple)),
    st.builds(lambda table, column, value, predicate: Statement(
        "update", table=table, columns=(column,), rows=((value,),),
        predicate=predicate), names, names, literals, predicates),
    st.builds(lambda table, predicate: Statement(
        "delete", table=table, predicate=predicate), names, predicates),
    st.builds(lambda table, columns: Statement(
        "create_table", table=table, columns=columns),
        names,
        st.lists(st.tuples(names, st.sampled_from(_TYPES)), min_size=1,
                 max_size=3).map(tuple)),
    st.builds(lambda index, table, using, column, opclass: Statement(
        "create_index", table=table, index=index, columns=(column,),
        using=using, opclass=opclass),
        names, names, names, names, st.none() | names),
    st.builds(lambda table: Statement("drop_table", table=table), names),
    st.builds(lambda index, table: Statement(
        "drop_index", index=index, table=table), names, names),
    st.builds(lambda cursor, count: Statement(
        "fetch", cursor=cursor, count=count),
        names, st.none() | st.just(-1) | st.integers(0, 500)),
    st.sampled_from(("begin", "commit", "rollback")).map(Statement),
    st.builds(lambda kind, name: Statement(kind, cursor=name),
              st.just("close"), names),
    st.builds(lambda kind, table: Statement(kind, table=table),
              st.sampled_from(("vacuum", "analyze")), names),
    st.builds(lambda kind, index: Statement(kind, index=index),
              st.sampled_from(("check_index", "repack_index")), names),
    st.just(Statement("incidents")),
    st.builds(lambda table: Statement("heap_stats", table=table), names),
)


class _Writer:
    """Writes a statement out as tokens in random case, randomly spaced."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.tokens: list[str] = []

    def kw(self, *words: str) -> None:
        for word in words:
            self.tokens.append("".join(
                c.upper() if self.rng.random() < 0.5 else c for c in word
            ))

    def raw(self, *tokens: str) -> None:
        self.tokens.extend(tokens)

    def literal(self, literal: Literal) -> None:
        if literal.quoted:
            self.raw("'" + literal.text.replace("'", "''") + "'")
        elif literal.text.startswith("-"):
            self.raw("-", literal.text[1:])
        else:
            self.raw(literal.text)

    def listed(self, items, item) -> None:
        for i, value in enumerate(items):
            if i:
                self.raw(",")
            item(value)

    def text(self) -> str:
        out = [self.tokens[0]]
        for before, after in zip(self.tokens, self.tokens[1:]):
            glued = before in "(),;" or after in "(),;"
            gaps = ("", " ", "\t", "\n  ") if glued else (" ", "  ", "\t", "\n")
            out.append(self.rng.choice(gaps))
            out.append(after)
        return "".join(out)


def _write(w: _Writer, s: Statement) -> None:
    kind = s.kind
    if kind == "select":
        w.kw("select")
        if s.columns == ("count(*)",):
            w.kw("count")
            w.raw("(", "*", ")")
        else:
            w.listed(s.columns, w.raw)
        w.kw("from")
        w.raw(s.table)
        if s.predicate is not None:
            column, op, literal = s.predicate
            w.kw("where")
            w.raw(column, op)
            w.literal(literal)
        if s.limit is not None:
            w.kw("limit")
            w.raw(str(s.limit))
    elif kind == "explain":
        w.kw("explain", *(("analyze",) if s.analyze else ()))
        _write(w, s.inner)
    elif kind == "declare":
        w.kw("declare")
        w.raw(s.cursor)
        w.kw("cursor", "for")
        _write(w, s.inner)
    elif kind == "insert":
        w.kw("insert", "into")
        w.raw(s.table)
        w.kw("values")

        def row(values: tuple) -> None:
            w.raw("(")
            w.listed(values, w.literal)
            w.raw(")")

        w.listed(s.rows, row)
    elif kind == "update":
        w.kw("update")
        w.raw(s.table)
        w.kw("set")
        w.raw(s.columns[0], "=")
        w.literal(s.rows[0][0])
        column, op, literal = s.predicate
        w.kw("where")
        w.raw(column, op)
        w.literal(literal)
    elif kind == "delete":
        w.kw("delete", "from")
        w.raw(s.table)
        column, op, literal = s.predicate
        w.kw("where")
        w.raw(column, op)
        w.literal(literal)
    elif kind == "create_table":
        w.kw("create", "table")
        w.raw(s.table, "(")

        def column_definition(pair: tuple) -> None:
            name, type_name = pair
            w.raw(name)
            w.kw(type_name)
            if type_name == "varchar":
                w.raw("(", "50", ")")

        w.listed(s.columns, column_definition)
        w.raw(")")
    elif kind == "create_index":
        w.kw("create", "index")
        w.raw(s.index)
        w.kw("on")
        w.raw(s.table)
        w.kw("using")
        w.raw(s.using, "(", s.columns[0])
        if s.opclass is not None:
            w.raw(s.opclass)
        w.raw(")")
    elif kind == "drop_table":
        w.kw("drop", "table")
        w.raw(s.table)
    elif kind == "drop_index":
        w.kw("drop", "index")
        w.raw(s.index)
        w.kw("on")
        w.raw(s.table)
    elif kind == "fetch":
        w.kw("fetch")
        if s.count == -1:
            w.kw("all")
        elif s.count is not None:
            w.raw(str(s.count))
        if w.rng.random() < 0.5:
            w.kw("from")
        w.raw(s.cursor)
    elif kind in ("begin", "rollback"):
        w.kw(kind, *(("transaction",) if w.rng.random() < 0.5 else ()))
    elif kind == "commit":
        w.kw(w.rng.choice(("commit", "end")))
    elif kind == "close":
        w.kw("close")
        w.raw(s.cursor)
    elif kind in ("vacuum", "analyze"):
        w.kw(kind)
        w.raw(s.table)
    elif kind in ("check_index", "repack_index"):
        w.kw(kind.split("_")[0], "index")
        w.raw(s.index)
    elif kind == "incidents":
        w.kw("select")
        w.raw("*")
        w.kw("from", "repro_incidents")
        w.raw("(", ")")
    elif kind == "heap_stats":
        w.kw("select")
        w.raw("*")
        w.kw("from", "repro_heap_stats")
        w.raw("(")
        w.literal(Literal(s.table, True))
        w.raw(")")
    else:  # pragma: no cover - every generated kind is handled above
        raise AssertionError(kind)


def render(statement: Statement, rng: random.Random) -> str:
    writer = _Writer(rng)
    _write(writer, statement)
    if rng.random() < 0.5:
        writer.raw(";")
    return writer.text()


@SETTINGS
@given(statement=statements, rng=st.randoms(use_true_random=False))
def test_rendered_statement_parses_back_equal(statement, rng):
    assert parse(render(statement, rng)) == statement


@SETTINGS
@given(statement=statements, rng=st.randoms(use_true_random=False),
       cut=st.floats(0.0, 1.0))
def test_truncated_statement_raises_only_sql_error(statement, rng, cut):
    text = render(statement, rng)
    try:
        parse(text[:int(len(text) * cut)])
    except SQLError:
        pass


@SETTINGS
@given(text=st.text(max_size=60)
       | st.lists(st.sampled_from(sorted(_KEYWORDS) + list(_OPERATORS)
                                  + ["(", ")", ",", ";", "'", "''", "1", "-",
                                     "*", "x", "'a'"]),
                  max_size=12).map(" ".join))
def test_junk_raises_only_sql_error(text):
    try:
        parse(text)
    except SQLError:
        pass
