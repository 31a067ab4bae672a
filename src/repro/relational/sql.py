"""A small SQL parser for the query access mode.

Grammar (case-insensitive keywords)::

    SELECT [DISTINCT] column_list
    FROM table
    [JOIN table ON col = col | LEFT JOIN table ON col = col]*
    [WHERE condition]
    [ORDER BY col [ASC|DESC] [, ...]]
    [LIMIT n]

Conditions support ``= != < <= > >= AND OR NOT LIKE IN (...)``,
``IS [NOT] NULL``, ``BETWEEN x AND y``, and parentheses. This is the
"simple enough to allow even novice users to formulate meaningful queries"
SQL interface of Section 4.6.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

from repro.relational.database import Database
from repro.relational.expressions import (
    Between,
    Comparison,
    Expression,
    InList,
    IsNull,
    Like,
    Not,
    col,
)
from repro.relational.query import Query, ResultSet


class SqlError(ValueError):
    """Raised for unparsable or unsupported SQL."""


@dataclass(frozen=True)
class JoinSpec:
    """One parsed ``[LEFT] JOIN table ON left = right`` clause."""

    table: str
    left_column: str
    right_column: str
    left: bool


@dataclass
class SelectPlan:
    """A parsed SELECT held as plain data, unbound to any database.

    The plan is the seam between parsing and execution: the in-memory
    engine lowers it onto a :class:`Query` (:func:`plan_to_query`), while
    the snapshot pushdown executor reads the same plan to run
    single-table scans directly against SQLite without hydrating the
    source. ``columns`` is the raw select list (``"*"`` entries
    included), ``order_by`` pairs are ``(column, descending)``.
    """

    columns: List[str]
    table: str
    joins: List[JoinSpec]
    where: Optional[Expression]
    order_by: List[Tuple[str, bool]]
    limit: Optional[int]
    distinct: bool


_TOKEN_RE = re.compile(
    r"""
    \s*(?:
        (?P<string>'(?:[^']|'')*')
      | (?P<number>-?\d+(?:\.\d+)?)
      | (?P<ident>[A-Za-z_][A-Za-z_0-9]*(?:\.[A-Za-z_][A-Za-z_0-9]*)?)
      | (?P<op><=|>=|!=|<>|=|<|>)
      | (?P<punct>[(),*])
    )
    """,
    re.VERBOSE,
)

_KEYWORDS = {
    "select", "distinct", "from", "join", "left", "on", "where", "and", "or",
    "not", "like", "in", "is", "null", "between", "order", "by", "asc",
    "desc", "limit",
}


@dataclass(frozen=True)
class _Token:
    kind: str  # "string" | "number" | "ident" | "keyword" | "op" | "punct"
    value: Any
    text: str


def _tokenize(sql: str) -> List[_Token]:
    tokens: List[_Token] = []
    pos = 0
    while pos < len(sql):
        match = _TOKEN_RE.match(sql, pos)
        if match is None:
            rest = sql[pos:].strip()
            if not rest:
                break
            raise SqlError(f"cannot tokenize SQL near {rest[:20]!r}")
        pos = match.end()
        if match.lastgroup == "string":
            raw = match.group("string")
            tokens.append(_Token("string", raw[1:-1].replace("''", "'"), raw))
        elif match.lastgroup == "number":
            raw = match.group("number")
            value = float(raw) if "." in raw else int(raw)
            tokens.append(_Token("number", value, raw))
        elif match.lastgroup == "ident":
            raw = match.group("ident")
            lowered = raw.lower()
            if lowered in _KEYWORDS:
                tokens.append(_Token("keyword", lowered, raw))
            else:
                tokens.append(_Token("ident", lowered, raw))
        elif match.lastgroup == "op":
            raw = match.group("op")
            tokens.append(_Token("op", "!=" if raw == "<>" else raw, raw))
        else:
            raw = match.group("punct")
            tokens.append(_Token("punct", raw, raw))
    return tokens


class _Parser:
    def __init__(self, tokens: List[_Token]):
        self._tokens = tokens
        self._pos = 0

    # ------------------------------------------------------------------
    # token helpers
    # ------------------------------------------------------------------
    def _peek(self) -> Optional[_Token]:
        if self._pos < len(self._tokens):
            return self._tokens[self._pos]
        return None

    def _next(self) -> _Token:
        token = self._peek()
        if token is None:
            raise SqlError("unexpected end of SQL")
        self._pos += 1
        return token

    def _accept_keyword(self, *words: str) -> Optional[str]:
        token = self._peek()
        if token is not None and token.kind == "keyword" and token.value in words:
            self._pos += 1
            return token.value
        return None

    def _expect_keyword(self, word: str) -> None:
        if self._accept_keyword(word) is None:
            got = self._peek()
            raise SqlError(f"expected {word.upper()}, got {got.text if got else 'EOF'}")

    def _accept_punct(self, char: str) -> bool:
        token = self._peek()
        if token is not None and token.kind == "punct" and token.value == char:
            self._pos += 1
            return True
        return False

    def _expect_punct(self, char: str) -> None:
        if not self._accept_punct(char):
            got = self._peek()
            raise SqlError(f"expected {char!r}, got {got.text if got else 'EOF'}")

    def _expect_ident(self) -> str:
        token = self._next()
        if token.kind != "ident":
            raise SqlError(f"expected identifier, got {token.text!r}")
        return token.value

    # ------------------------------------------------------------------
    # grammar
    # ------------------------------------------------------------------
    def parse_plan(self) -> SelectPlan:
        self._expect_keyword("select")
        distinct = self._accept_keyword("distinct") is not None
        columns = self._parse_select_list()
        self._expect_keyword("from")
        table = self._expect_ident()
        joins: List[JoinSpec] = []
        while True:
            if self._accept_keyword("join"):
                joins.append(self._parse_join(left=False))
            elif self._accept_keyword("left"):
                self._expect_keyword("join")
                joins.append(self._parse_join(left=True))
            else:
                break
        where = self._parse_or() if self._accept_keyword("where") else None
        order_by: List[Tuple[str, bool]] = []
        if self._accept_keyword("order"):
            self._expect_keyword("by")
            while True:
                column = self._expect_ident()
                descending = False
                if self._accept_keyword("desc"):
                    descending = True
                else:
                    self._accept_keyword("asc")
                order_by.append((column, descending))
                if not self._accept_punct(","):
                    break
        limit: Optional[int] = None
        if self._accept_keyword("limit"):
            token = self._next()
            if token.kind != "number" or not isinstance(token.value, int):
                raise SqlError("LIMIT expects an integer")
            limit = token.value
        leftover = self._peek()
        if leftover is not None:
            raise SqlError(f"unexpected trailing token {leftover.text!r}")
        return SelectPlan(
            columns=columns,
            table=table,
            joins=joins,
            where=where,
            order_by=order_by,
            limit=limit,
            distinct=distinct,
        )

    def _parse_select_list(self) -> List[str]:
        columns: List[str] = []
        while True:
            if self._accept_punct("*"):
                columns.append("*")
            else:
                columns.append(self._expect_ident())
            if not self._accept_punct(","):
                break
        return columns

    def _parse_join(self, left: bool) -> JoinSpec:
        table = self._expect_ident()
        self._expect_keyword("on")
        left_col = self._expect_ident()
        token = self._next()
        if token.kind != "op" or token.value != "=":
            raise SqlError("JOIN ... ON expects an equality")
        right_col = self._expect_ident()
        return JoinSpec(
            table=table, left_column=left_col, right_column=right_col, left=left
        )

    # condition grammar: or -> and -> not -> primary
    def _parse_or(self) -> Expression:
        expr = self._parse_and()
        while self._accept_keyword("or"):
            expr = expr | self._parse_and()
        return expr

    def _parse_and(self) -> Expression:
        expr = self._parse_not()
        while self._accept_keyword("and"):
            expr = expr & self._parse_not()
        return expr

    def _parse_not(self) -> Expression:
        if self._accept_keyword("not"):
            return ~self._parse_not()
        return self._parse_primary()

    def _parse_primary(self) -> Expression:
        if self._accept_punct("("):
            expr = self._parse_or()
            self._expect_punct(")")
            return expr
        operand = self._parse_operand()
        token = self._peek()
        if token is None:
            raise SqlError("dangling operand in WHERE clause")
        if token.kind == "op":
            self._next()
            right = self._parse_operand()
            return Comparison(operand, token.value, right)
        if token.kind == "keyword" and token.value == "like":
            self._next()
            pattern = self._next()
            if pattern.kind != "string":
                raise SqlError("LIKE expects a string pattern")
            return Like(operand, pattern.value)
        if token.kind == "keyword" and token.value == "is":
            self._next()
            negated = self._accept_keyword("not") is not None
            self._expect_keyword("null")
            return IsNull(operand, negated=negated)
        if token.kind == "keyword" and token.value == "in":
            self._next()
            self._expect_punct("(")
            choices: List[Any] = []
            while True:
                value = self._next()
                if value.kind not in ("string", "number"):
                    raise SqlError("IN list expects literals")
                choices.append(value.value)
                if not self._accept_punct(","):
                    break
            self._expect_punct(")")
            return InList(operand, tuple(choices))
        if token.kind == "keyword" and token.value == "between":
            self._next()
            low = self._parse_operand()
            self._expect_keyword("and")
            high = self._parse_operand()
            return Between(operand, low, high)
        raise SqlError(f"unexpected token {token.text!r} in condition")

    def _parse_operand(self):
        token = self._next()
        if token.kind == "ident":
            return col(token.value)
        if token.kind in ("string", "number"):
            from repro.relational.expressions import lit

            return lit(token.value)
        raise SqlError(f"expected column or literal, got {token.text!r}")


def plan_select(sql: str) -> SelectPlan:
    """Parse a SELECT statement into an unbound :class:`SelectPlan`."""
    return _Parser(_tokenize(sql)).parse_plan()


def plan_to_query(database: Database, plan: SelectPlan) -> Query:
    """Lower a :class:`SelectPlan` onto the in-memory query engine."""
    query = Query(database)
    if plan.distinct:
        query.distinct()
    query.from_(plan.table)
    for join in plan.joins:
        if join.left:
            query.left_join(join.table, join.left_column, join.right_column)
        else:
            query.join(join.table, join.left_column, join.right_column)
    if plan.where is not None:
        query.where(plan.where)
    for column, descending in plan.order_by:
        query.order_by(column, descending)
    if plan.limit is not None:
        query.limit(plan.limit)
    if plan.columns != ["*"]:
        query.select(*plan.columns)
    return query


def parse_sql(database: Database, sql: str) -> Query:
    """Parse a SELECT statement into an executable :class:`Query`."""
    return plan_to_query(database, plan_select(sql))


def execute_sql(database: Database, sql: str) -> ResultSet:
    """Parse and execute a SELECT statement."""
    return parse_sql(database, sql).execute()
