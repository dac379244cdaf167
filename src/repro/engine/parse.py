"""The SQL front end: one streaming tokenizer, one grammar, one value.

:func:`parse` turns one statement of the dialect documented in
:mod:`repro.engine.sql` into a :class:`Statement`. Every layer that needs
to know what a statement *is* — the engine's dispatch, the server's table
locks, standby shedding, EXPLAIN — reads that value instead of the text.

The tokenizer is one compiled pattern pulled a token at a time with
``pattern.match(text, pos)``; the recursive-descent parser holds one
token of lookahead, so a 5,000-row ``VALUES`` list is never materialised
as a token list. :func:`leading_class` reads only the first token.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, Callable, NoReturn

from repro.errors import SQLError

#: One token after optional whitespace; ``lastindex`` is the token kind.
#: A string may not run straight into a word or another quote
#: (``'O'Brien'``): that is a malformed literal, not two tokens.
_TOKEN = re.compile(
    r"\s*(?:([^\W\d]\w*)"  # 1: keyword or identifier
    r"|((?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)"  # 2: unsigned number
    r"|('(?:[^']|'')*')(?![\w'])"  # 3: string with '' escapes
    r"|([-+*/<>=~!@#%^&|`?]+)"  # 4: operator characters
    r"|([(),;\[\]])"  # 5: punctuation
    r"|\Z)"  # end of text: no group
)
_END, _WORD, _NUMBER, _STRING, _OP, _PUNCT = range(6)

#: PostgreSQL's lexer rule: a multi-character operator may end in ``+`` or
#: ``-`` only if it holds one of these; otherwise the sign splits off, so
#: ``id=-10`` is ``=`` followed by ``-10``.
_KEEPS_TRAILING_SIGN = frozenset("~!@#%^&|`?")

#: What a statement's first keyword alone says, for callers that must not
#: parse it: ``"read"`` statements may be shed to a standby and re-sent
#: freely; ``"write"`` ones are the DML a client stamps with an
#: idempotency key when it autocommits.
LEADING = {
    **dict.fromkeys(("select", "explain"), "read"),
    **dict.fromkeys(("insert", "update", "delete"), "write"),
}

_READ_ONLY_KINDS = frozenset({"select", "explain", "incidents", "heap_stats"})


@dataclass(frozen=True, slots=True)
class Literal:
    """A literal as written: strings unescaped, anything else verbatim.

    The engine binds it against the column's or the operator's catalog
    type; ``quoted`` is what lets it refuse an unquoted varchar and still
    accept ``'7'`` for an int.
    """

    text: str
    quoted: bool = False


@dataclass(frozen=True, slots=True)
class Statement:
    """One parsed statement; the fields a kind does not use stay empty.

    ``columns`` is the SELECT list (``("*",)``, ``("count(*)",)`` or
    names), the CREATE TABLE ``(name, type)`` pairs, the CREATE INDEX
    column, or the UPDATE's SET column, whose value is ``rows[0][0]``.
    ``count`` is FETCH's row count: None for one executor batch, -1 for
    ALL. ``inner`` is the SELECT under EXPLAIN or DECLARE.
    """

    kind: str
    table: str | None = None
    index: str | None = None
    columns: tuple = ()
    using: str | None = None
    opclass: str | None = None
    predicate: tuple[str, str, Literal] | None = None
    rows: tuple[tuple[Literal, ...], ...] = ()
    limit: int | None = None
    cursor: str | None = None
    count: int | None = None
    inner: Statement | None = None
    analyze: bool = False

    @property
    def read_only(self) -> bool:
        """True for statements that only read (SELECT, EXPLAIN)."""
        return self.kind in _READ_ONLY_KINDS


def leading_class(text: str) -> str | None:
    """The :data:`LEADING` class of the first keyword; reads one token."""
    match = _TOKEN.match(text)
    if match is None or match.lastindex != _WORD:
        return None
    return LEADING.get(match.group(_WORD).lower())


def parse(text: str) -> Statement:
    """Parse one statement (an optional trailing ``;`` is allowed).

    Raises :class:`~repro.errors.SQLError`, and nothing else, on any text
    outside the dialect.
    """
    parser = _Parser(text)
    word = parser.value.lower() if parser.kind == _WORD else ""
    if word not in _STATEMENTS:
        raise SQLError(f"cannot parse statement: {text[:60]!r}")
    parser.advance()
    statement = _STATEMENTS[word](parser)
    parser.accept(";")
    if parser.kind != _END:
        parser.fail("end of statement")
    return statement


class _Parser:
    """Recursive descent over the token stream, one token of lookahead."""

    __slots__ = ("text", "kind", "value", "start", "end")

    def __init__(self, text: str) -> None:
        self.text = text
        self.end = 0
        self.advance()

    def advance(self) -> None:
        """Step to the next token: ``kind``, ``value``, ``start``/``end``."""
        match = _TOKEN.match(self.text, self.end)
        if match is None:
            rest = self.text[self.end:].lstrip()
            if rest.startswith("'"):
                raise SQLError(f"unterminated string literal: {rest[:40]!r}")
            raise SQLError(f"syntax error at or near {rest[:20]!r}")
        kind = match.lastindex or _END
        value = match.group(kind) if kind else ""
        if (
            kind == _OP
            and len(value) > 1
            and value[-1] in "+-"
            and _KEEPS_TRAILING_SIGN.isdisjoint(value)
        ):
            value = value.rstrip("+-") or value[0]
        self.kind, self.value = kind, value
        self.start = match.start(kind) if kind else match.end()
        self.end = self.start + len(value)

    def fail(self, expected: str) -> NoReturn:
        near = self.text[self.start:self.start + 20] or "end of input"
        raise SQLError(f"syntax error at or near {near!r}: expected {expected}")

    def at(self, word: str) -> bool:
        return self.kind == _WORD and self.value.lower() == word

    def accept(self, value: str) -> bool:
        """Consume the punctuation, operator or keyword ``value`` if next."""
        if self.kind in (_PUNCT, _OP) and self.value == value or self.at(value):
            self.advance()
            return True
        return False

    def expect(self, *choices: str) -> str:
        """Consume one of ``choices``; returns it."""
        for choice in choices:
            if self.accept(choice):
                return choice
        self.fail(" or ".join(c.upper() for c in choices))

    def take(self, kind: int, expected: str) -> str:
        if self.kind != kind:
            self.fail(expected)
        value = self.value
        self.advance()
        return value

    def name(self) -> str:
        return self.take(_WORD, "a name")

    def integer(self) -> int:
        if not self.value.isdecimal():
            self.fail("an integer")
        return int(self.take(_NUMBER, "an integer"))

    def listed(self, item: Callable[[], Any]) -> tuple:
        """``item {',' item}``."""
        items = [item()]
        while self.accept(","):
            items.append(item())
        return tuple(items)

    def parenthesized(self, item: Callable[[], Any]) -> tuple:
        self.expect("(")
        items = self.listed(item)
        self.expect(")")
        return items

    def literal(self) -> Literal:
        """A string, a (signed) number, a bare word, or a group."""
        kind, value = self.kind, self.value
        if kind == _STRING:
            self.advance()
            return Literal(value[1:-1].replace("''", "'"), True)
        if kind in (_NUMBER, _WORD):
            self.advance()
            return Literal(value)
        if kind == _OP and value == "-":
            self.advance()
            return Literal("-" + self.take(_NUMBER, "a number"))
        if kind != _PUNCT or value not in "([":
            self.fail("a literal")
        # An unquoted nested literal, e.g. the point in ((1.0, 2.0), 1):
        # balanced brackets, kept verbatim for the type's own parser.
        start, depth = self.start, 0
        while True:
            if self.kind == _END:
                self.fail("a closing parenthesis")
            if self.kind == _PUNCT:
                depth += (self.value in "([") - (self.value in ")]")
            end = self.end
            self.advance()
            if depth == 0:
                return Literal(self.text[start:end])

    # -- statements (the leading keyword is already consumed) -----------------

    def select(self) -> Statement:
        columns = ("*",) if self.accept("*") else self.select_list()
        self.expect("from")
        table = self.name()
        if self.accept("("):  # a table function
            function = table.lower()
            if columns != ("*",) or function not in (
                "repro_incidents", "repro_heap_stats"
            ):
                raise SQLError(f"unknown table function {table!r}")
            if function == "repro_incidents":
                self.expect(")")
                return Statement("incidents")
            argument = self.literal()
            self.expect(")")
            if not argument.quoted:
                raise SQLError("repro_heap_stats takes a quoted table name")
            return Statement("heap_stats", table=argument.text)
        predicate = self.where() if self.at("where") else None
        limit = self.integer() if self.accept("limit") else None
        return Statement(
            "select", table=table, columns=columns, predicate=predicate,
            limit=limit,
        )

    def select_list(self) -> tuple:
        first = self.name()
        if first.lower() == "count" and self.accept("("):
            self.expect("*")
            self.expect(")")
            return ("count(*)",)
        return (first,) + (self.listed(self.name) if self.accept(",") else ())

    def inner_select(self, what: str) -> Statement:
        """The plain SELECT under EXPLAIN or DECLARE ... CURSOR FOR."""
        self.expect("select")
        inner = self.select()
        if inner.kind != "select":
            raise SQLError(f"{what} supports only SELECT over a table")
        return inner

    def where(self) -> tuple[str, str, Literal]:
        self.expect("where")
        column = self.name()
        return column, self.take(_OP, "an operator"), self.literal()

    def insert(self) -> Statement:
        self.expect("into")
        table = self.name()
        self.expect("values")
        rows = self.listed(lambda: self.parenthesized(self.literal))
        return Statement("insert", table=table, rows=rows)

    def update(self) -> Statement:
        table = self.name()
        self.expect("set")
        column = self.name()
        self.expect("=")
        value = self.literal()
        return Statement(
            "update", table=table, columns=(column,), rows=((value,),),
            predicate=self.where(),
        )

    def delete(self) -> Statement:
        self.expect("from")
        table = self.name()
        return Statement("delete", table=table, predicate=self.where())

    def create(self) -> Statement:
        if self.expect("table", "index") == "table":
            table = self.name()
            columns = self.parenthesized(self.column_definition)
            return Statement("create_table", table=table, columns=columns)
        index = self.name()
        self.expect("on")
        table = self.name()
        self.expect("using")
        using = self.name()
        self.expect("(")
        column = self.name()
        opclass = self.name() if self.kind == _WORD else None
        self.expect(")")
        return Statement(
            "create_index", table=table, index=index, columns=(column,),
            using=using, opclass=opclass,
        )

    def column_definition(self) -> tuple[str, str]:
        """``name type`` with an ignored modifier: ``name VARCHAR(50)``."""
        name, type_name = self.name(), self.name().lower()
        if self.kind == _PUNCT and self.value == "(":
            self.parenthesized(self.integer)
        return name, type_name

    def drop(self) -> Statement:
        if self.expect("table", "index") == "table":
            return Statement("drop_table", table=self.name())
        index = self.name()
        self.expect("on")
        return Statement("drop_index", index=index, table=self.name())

    def fetch(self) -> Statement:
        count = None
        if self.accept("all"):
            count = -1
        elif self.kind == _NUMBER:
            count = self.integer()
        self.accept("from")
        return Statement("fetch", cursor=self.name(), count=count)

    def declare(self) -> Statement:
        cursor = self.name()
        self.expect("cursor")
        self.expect("for")
        inner = self.inner_select("DECLARE CURSOR")
        return Statement("declare", cursor=cursor, inner=inner)

    def explain(self) -> Statement:
        analyze = self.accept("analyze")
        inner = self.inner_select("EXPLAIN")
        return Statement("explain", inner=inner, analyze=analyze)

    def block(self, kind: str) -> Statement:
        """BEGIN / COMMIT / END / ROLLBACK ``[TRANSACTION]``."""
        self.accept("transaction")
        return Statement(kind)

    def on_index(self, kind: str) -> Statement:
        """CHECK / REPACK ``INDEX name``."""
        self.expect("index")
        return Statement(kind, index=self.name())


_STATEMENTS: dict[str, Callable[[_Parser], Statement]] = {
    "select": _Parser.select,
    "insert": _Parser.insert,
    "update": _Parser.update,
    "delete": _Parser.delete,
    "begin": lambda p: p.block("begin"),
    "commit": lambda p: p.block("commit"),
    "end": lambda p: p.block("commit"),
    "rollback": lambda p: p.block("rollback"),
    "explain": _Parser.explain,
    "declare": _Parser.declare,
    "fetch": _Parser.fetch,
    "close": lambda p: Statement("close", cursor=p.name()),
    "create": _Parser.create,
    "drop": _Parser.drop,
    "vacuum": lambda p: Statement("vacuum", table=p.name()),
    "analyze": lambda p: Statement("analyze", table=p.name()),
    "check": lambda p: p.on_index("check_index"),
    "repack": lambda p: p.on_index("repack_index"),
}
