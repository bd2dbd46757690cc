"""Recursive-descent parser for the SQL subset.

The grammar (roughly)::

    query      := SELECT [DISTINCT] select_list FROM from_clause
                  [WHERE expr] [GROUP BY expr_list] [HAVING expr]
                  [ORDER BY order_list] [LIMIT number]
    from_clause:= table_ref ((',' | [INNER] JOIN) table_ref [ON expr])*
    expr       := or_expr
    or_expr    := and_expr (OR and_expr)*
    and_expr   := not_expr (AND not_expr)*
    not_expr   := NOT not_expr | predicate
    predicate  := additive [comparison | BETWEEN | IN | LIKE | IS NULL]
    additive   := multiplicative (('+'|'-') multiplicative)*
    multiplicative := unary (('*'|'/'|'%') unary)*
    unary      := '-' unary | primary
    primary    := literal | column | function | '(' expr ')' |
                  '(' query ')' | CASE ... END | EXISTS '(' query ')'

Explicit ``JOIN ... ON`` clauses are desugared into the canonical form of a
table list plus WHERE conjuncts (inner joins only), which is the only form
the optimizer consumes.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ParseError
from repro.sql.ast import (
    Between,
    BinaryOp,
    CaseWhen,
    ColumnRef,
    Exists,
    Expr,
    FuncCall,
    InList,
    InSubquery,
    IsNull,
    Like,
    Literal,
    OrderItem,
    Query,
    SelectItem,
    Star,
    TableRef,
    UnaryOp,
)
from repro.sql.tokens import Token, number_value, tokenize

__all__ = ["parse", "parse_tokens"]

#: comparison operator -> the operator stored in the AST
_COMPARISONS = {
    "=": "=",
    "<": "<",
    ">": ">",
    "<=": "<=",
    ">=": ">=",
    "<>": "<>",
    "!=": "<>",
}
_ADDITIVE_OPS = frozenset("+-")
_MULTIPLICATIVE_OPS = frozenset("*/%")
_PREDICATE_KEYWORDS = frozenset({"NOT", "BETWEEN", "IN", "LIKE", "IS"})
_KEYWORD_LITERALS = {"NULL": None, "TRUE": True, "FALSE": False}


def parse(text: str) -> Query:
    """Parse ``text`` into a :class:`~repro.sql.ast.Query`.

    Raises:
        ParseError: when the text is not a valid query in the subset.
        TokenizeError: when the text cannot even be tokenized.
    """
    return parse_tokens(tokenize(text))[0]


def parse_tokens(tokens: list[Token]) -> tuple[Query, dict[int, Literal]]:
    """:func:`parse` a token list; also return the ``Literal`` nodes made
    from its NUMBER and STRING tokens, by token index in token order."""
    parser = _Parser(tokens)
    try:
        query = parser.parse_query()
    except RecursionError:
        # The productions recurse once per nesting level; a statement
        # deeper than the interpreter's stack is the sender's error.
        raise parser._error("statement nests too deeply") from None
    parser.expect_eof()
    return query, parser.literals


class _Parser:
    """Token-stream cursor with one-token lookahead.

    ``kind`` and ``value`` mirror the current token, so a production
    looks at them once and dispatches instead of trying one ``accept``
    after another.
    """

    def __init__(self, tokens: list[Token]) -> None:
        self._tokens = tokens
        self._pos = 0
        self.kind, self.value, _ = tokens[0]
        self.literals: dict[int, Literal] = {}

    # ------------------------------------------------------------------
    # Token-stream helpers
    # ------------------------------------------------------------------

    def advance(self) -> None:
        """Step past the current token; the cursor stays on EOF."""
        if self.kind != "EOF":
            self._pos += 1
            self.kind, self.value, _ = self._tokens[self._pos]

    def _error(self, message: str) -> ParseError:
        return ParseError(message, self._tokens[self._pos].position)

    def accept_keyword(self, word: str) -> bool:
        """Consume the current token if it is the keyword ``word``."""
        if self.value == word and self.kind == "KEYWORD":
            self.advance()
            return True
        return False

    def expect_keyword(self, word: str) -> None:
        if not self.accept_keyword(word):
            raise self._error(f"expected {word!r}, found {self.value!r}")

    def accept_op(self, op: str) -> bool:
        if self.value == op and self.kind == "OP":
            self.advance()
            return True
        return False

    def expect_op(self, op: str) -> None:
        if not self.accept_op(op):
            raise self._error(f"expected {op!r}, found {self.value!r}")

    def expect_ident(self) -> str:
        """Consume an identifier and return its name."""
        if self.kind != "IDENT":
            raise self._error(f"expected identifier, found {self.value!r}")
        name = self.value
        self.advance()
        return name

    def expect_eof(self) -> None:
        if self.kind != "EOF":
            raise self._error(f"unexpected trailing input {self.value!r}")

    def take_value(self) -> int | float | str:
        """Consume a NUMBER or STRING token and return its value."""
        value = self.value
        if self.kind == "NUMBER":
            value = number_value(value)
            if value is None:
                raise self._error("number is too large for a float")
        self.advance()
        return value

    # ------------------------------------------------------------------
    # Grammar productions
    # ------------------------------------------------------------------

    def parse_query(self) -> Query:
        self.expect_keyword("SELECT")
        distinct = self.accept_keyword("DISTINCT")
        select = self._parse_select_list()
        self.expect_keyword("FROM")
        tables, join_conditions = self._parse_from_clause()

        where: Optional[Expr] = None
        if self.accept_keyword("WHERE"):
            where = self.parse_expr()
        where = _conjoin([*join_conditions, where])

        group_by: tuple[Expr, ...] = ()
        if self.accept_keyword("GROUP"):
            self.expect_keyword("BY")
            group_by = tuple(self._parse_expr_list())

        having: Optional[Expr] = None
        if self.accept_keyword("HAVING"):
            having = self.parse_expr()

        order_by: tuple[OrderItem, ...] = ()
        if self.accept_keyword("ORDER"):
            self.expect_keyword("BY")
            order_by = tuple(self._parse_order_list())

        limit: Optional[int] = None
        if self.accept_keyword("LIMIT"):
            if self.kind != "NUMBER" or "." in self.value:
                raise self._error("LIMIT requires an integer")
            limit = self.take_value()

        return Query(
            select=tuple(select),
            tables=tuple(tables),
            where=where,
            group_by=group_by,
            having=having,
            order_by=order_by,
            limit=limit,
            distinct=distinct,
        )

    def _parse_select_list(self) -> list[SelectItem]:
        items = [self._parse_select_item()]
        while self.accept_op(","):
            items.append(self._parse_select_item())
        return items

    def _parse_select_item(self) -> SelectItem:
        if self.accept_op("*"):
            return SelectItem(Star())
        return SelectItem(self.parse_expr(), self._parse_alias())

    def _parse_alias(self) -> Optional[str]:
        """``[AS] name`` after a select item or a table name."""
        if self.kind == "IDENT":
            alias = self.value
            self.advance()
            return alias
        if self.accept_keyword("AS"):
            return self.expect_ident()
        return None

    def _parse_from_clause(self) -> tuple[list[TableRef], list[Expr]]:
        tables = [self._parse_table_ref()]
        conditions: list[Expr] = []
        while True:
            if self.accept_op(","):
                tables.append(self._parse_table_ref())
            elif self.kind == "KEYWORD" and self.value in ("INNER", "JOIN"):
                self.accept_keyword("INNER")
                self.expect_keyword("JOIN")
                tables.append(self._parse_table_ref())
                if self.accept_keyword("ON"):
                    conditions.append(self.parse_expr())
            else:
                return tables, conditions

    def _parse_table_ref(self) -> TableRef:
        return TableRef(self.expect_ident(), self._parse_alias())

    def _parse_expr_list(self) -> list[Expr]:
        exprs = [self.parse_expr()]
        while self.accept_op(","):
            exprs.append(self.parse_expr())
        return exprs

    def _parse_order_list(self) -> list[OrderItem]:
        items = []
        while True:
            expr = self.parse_expr()
            descending = self.accept_keyword("DESC")
            if not descending:
                self.accept_keyword("ASC")
            items.append(OrderItem(expr, descending))
            if not self.accept_op(","):
                return items

    # -- expressions ----------------------------------------------------

    def parse_expr(self) -> Expr:
        left = self._parse_and()
        while self.value == "OR" and self.kind == "KEYWORD":
            self.advance()
            left = BinaryOp("OR", left, self._parse_and())
        return left

    def _parse_and(self) -> Expr:
        left = self._parse_not()
        while self.value == "AND" and self.kind == "KEYWORD":
            self.advance()
            left = BinaryOp("AND", left, self._parse_not())
        return left

    def _parse_not(self) -> Expr:
        if self.value == "NOT" and self.kind == "KEYWORD":
            self.advance()
            return UnaryOp("NOT", self._parse_not())
        return self._parse_predicate()

    def _parse_predicate(self) -> Expr:
        left = self._parse_additive()
        if self.kind == "OP":
            op = _COMPARISONS.get(self.value)
            if op is None:
                return left
            self.advance()
            return BinaryOp(op, left, self._parse_additive())
        if self.kind != "KEYWORD" or self.value not in _PREDICATE_KEYWORDS:
            return left
        negated = self.accept_keyword("NOT")
        if self.accept_keyword("BETWEEN"):
            low = self._parse_additive()
            self.expect_keyword("AND")
            high = self._parse_additive()
            return Between(left, low, high, negated=negated)
        if self.accept_keyword("IN"):
            return self._parse_in(left, negated)
        if self.accept_keyword("LIKE"):
            if self.kind != "STRING":
                raise self._error("LIKE requires a string pattern")
            pattern = self.value
            self.advance()
            return Like(left, pattern, negated=negated)
        if negated:
            raise self._error("expected BETWEEN, IN or LIKE after NOT")
        if self.accept_keyword("IS"):
            is_negated = self.accept_keyword("NOT")
            self.expect_keyword("NULL")
            return IsNull(left, negated=is_negated)
        return left

    def _parse_in(self, left: Expr, negated: bool) -> Expr:
        self.expect_op("(")
        if self.value == "SELECT" and self.kind == "KEYWORD":
            query = self.parse_query()
            self.expect_op(")")
            return InSubquery(left, query, negated=negated)
        values = [self._parse_additive()]
        while self.accept_op(","):
            values.append(self._parse_additive())
        self.expect_op(")")
        return InList(left, tuple(values), negated=negated)

    def _parse_additive(self) -> Expr:
        left = self._parse_multiplicative()
        while self.kind == "OP" and self.value in _ADDITIVE_OPS:
            op = self.value
            self.advance()
            left = BinaryOp(op, left, self._parse_multiplicative())
        return left

    def _parse_multiplicative(self) -> Expr:
        left = self._parse_unary()
        while self.kind == "OP" and self.value in _MULTIPLICATIVE_OPS:
            op = self.value
            self.advance()
            left = BinaryOp(op, left, self._parse_unary())
        return left

    def _parse_unary(self) -> Expr:
        if self.kind == "IDENT":
            return self._parse_ident_expr()
        if self.accept_op("-"):
            return UnaryOp("-", self._parse_unary())
        return self._parse_primary()

    def _parse_primary(self) -> Expr:
        """A literal, ``EXISTS``, ``CASE`` or a parenthesised expression
        (identifiers never get here: ``_parse_unary`` takes them)."""
        kind, value = self.kind, self.value
        if kind == "NUMBER" or kind == "STRING":
            at = self._pos
            literal = self.literals[at] = Literal(self.take_value())
            return literal
        if kind == "KEYWORD":
            if value in _KEYWORD_LITERALS:
                self.advance()
                return Literal(_KEYWORD_LITERALS[value])
            if value == "EXISTS":
                self.advance()
                self.expect_op("(")
                query = self.parse_query()
                self.expect_op(")")
                return Exists(query)
            if value == "CASE":
                return self._parse_case()
        elif kind == "OP" and value == "(":
            self.advance()
            expr = self.parse_expr()
            self.expect_op(")")
            return expr
        raise self._error(f"unexpected token {value!r} in expression")

    def _parse_case(self) -> Expr:
        self.expect_keyword("CASE")
        branches: list[tuple[Expr, Expr]] = []
        while self.accept_keyword("WHEN"):
            cond = self.parse_expr()
            self.expect_keyword("THEN")
            value = self.parse_expr()
            branches.append((cond, value))
        if not branches:
            raise self._error("CASE requires at least one WHEN")
        default: Optional[Expr] = None
        if self.accept_keyword("ELSE"):
            default = self.parse_expr()
        self.expect_keyword("END")
        return CaseWhen(tuple(branches), default)

    def _parse_ident_expr(self) -> Expr:
        name = self.value
        self.advance()
        if self.kind == "OP":
            if self.value == ".":
                self.advance()
                return ColumnRef(self.expect_ident(), table=name)
            if self.value == "(":
                self.advance()
                return self._parse_call(name)
        return ColumnRef(name)

    def _parse_call(self, name: str) -> Expr:
        distinct = self.accept_keyword("DISTINCT")
        if self.accept_op("*"):
            self.expect_op(")")
            return FuncCall(name, (Star(),), distinct=distinct)
        if self.accept_op(")"):
            return FuncCall(name, (), distinct=distinct)
        args = self._parse_expr_list()
        self.expect_op(")")
        return FuncCall(name, tuple(args), distinct=distinct)


def _conjoin(exprs: list[Optional[Expr]]) -> Optional[Expr]:
    """AND together the non-None expressions, or return None."""
    present = [e for e in exprs if e is not None]
    if not present:
        return None
    result = present[0]
    for expr in present[1:]:
        result = BinaryOp("AND", result, expr)
    return result
