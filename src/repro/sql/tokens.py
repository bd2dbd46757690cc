"""SQL tokenizer.

Splits SQL text into a flat list of :class:`Token` objects.  The tokenizer
is deliberately small: it recognises identifiers, keywords, numeric and
string literals, operators and punctuation — enough for the SQL subset used
by the workload generators and examples.

The whole text is scanned by one compiled pattern; each match is the
whitespace and ``--`` comments before a token plus the token itself, so
offsets are running sums of match lengths.  :func:`shape` reads the same
matches for a statement's template key; :func:`tokens_of` tokenizes them.
"""

from __future__ import annotations

import re
from typing import NamedTuple, Optional, Union

from repro.errors import TokenizeError

__all__ = ["Token", "tokenize", "shape", "tokens_of", "number_value", "KEYWORDS"]

#: Reserved words, upper-cased.  Identifiers matching these become KEYWORD
#: tokens; everything else becomes IDENT.
KEYWORDS = frozenset(
    {
        "SELECT",
        "DISTINCT",
        "FROM",
        "WHERE",
        "GROUP",
        "ORDER",
        "BY",
        "HAVING",
        "LIMIT",
        "AS",
        "AND",
        "OR",
        "NOT",
        "IN",
        "EXISTS",
        "BETWEEN",
        "LIKE",
        "IS",
        "NULL",
        "ASC",
        "DESC",
        "JOIN",
        "INNER",
        "ON",
        "CASE",
        "WHEN",
        "THEN",
        "ELSE",
        "END",
        "TRUE",
        "FALSE",
    }
)

_OPERATORS = frozenset(
    ["<=", ">=", "<>", "!=", *"<>=!+-*/,().%"]
)

#: One match per token: (skipped text, token text).  The alternatives are
#: tried in order — number, word, string, operator — and the last two
#: never fail: the empty match at the end of the text, which ends the
#: scan, and any single character no other alternative accepts, which
#: :func:`tokenize` reports.  Numbers are ASCII digits only; ``\w`` and
#: ``\s`` are the Unicode classes, so identifiers in any alphabet and any
#: Unicode whitespace go through the same pattern.  A string literal's
#: closing quote must not be followed by another quote, otherwise a
#: dangling ``''`` escape would be re-read as an end of string.
_SCAN = re.compile(
    r"(\s*(?:--[^\n]*\s*)*)"
    r"([0-9]+\.?[0-9]*|\.[0-9]+"
    r"|\w+"
    r"|'[^']*(?:''[^']*)*'(?!')"
    r"|[<>!]=|<>|[<>=!+\-*/,().%]"
    r"|\Z"
    r"|.)",
    re.DOTALL,
).findall

_ASCII_WORD_START = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_"
)
_NUMBER_START = frozenset("0123456789.")
#: A lexeme starting with one of these, other than the operator ``.`` and
#: an unterminated quote, is a NUMBER or STRING token.
_LITERAL_START = _NUMBER_START | {"'"}


class Token(NamedTuple):
    """One lexical token.

    Attributes:
        kind: one of ``KEYWORD``, ``IDENT``, ``NUMBER``, ``STRING``, ``OP``
            and ``EOF``.
        value: the token text.  Keywords and identifiers are upper-cased /
            lower-cased respectively; numbers keep their literal text.
        position: character offset of the token start in the source text.
    """

    kind: str
    value: str
    position: int

    def is_keyword(self, word: str) -> bool:
        """Return True when this token is the keyword ``word``."""
        return self.kind == "KEYWORD" and self.value == word.upper()


#: ``Token(kind, value, position)`` without the Python-level ``__new__``
#: that ``NamedTuple`` generates — half the cost of building a token, and
#: the scan builds one per lexeme.
_new_token = tuple.__new__


_INF = float("inf")


def number_value(lexeme: str) -> Optional[Union[int, float]]:
    """A NUMBER token's value (a float when it has a decimal point), or
    None when its float64 value is not finite: no statement may hold one."""
    as_float = float(lexeme)
    if as_float == _INF:
        return None
    return as_float if "." in lexeme else int(lexeme)


def shape(text: str) -> tuple[Optional[tuple], list, list]:
    """``text``'s template key, its literals' values in token order, and
    its scanned lexemes (for :func:`tokens_of`).

    The key is the lexemes, with each literal that becomes a ``Literal``
    node — a NUMBER or STRING token but a ``LIKE`` pattern or ``LIMIT``
    count — replaced by its type (``int``, ``float``, ``str``).  Two
    statements with one key parse alike but for those values.  A number
    that is not finite makes the key None: parsing says where it fails.
    """
    pairs = _SCAN(text)
    key, values, previous = [], [], ""
    for _skipped, lexeme in pairs:
        part = lexeme
        if (
            lexeme[:1] in _LITERAL_START
            and lexeme not in ("'", ".")
            and previous.upper() not in ("LIKE", "LIMIT")
        ):
            if lexeme[0] == "'":
                value = lexeme[1:-1].replace("''", "'")
            else:
                value = number_value(lexeme)
                if value is None:
                    return None, values, pairs
            values.append(value)
            part = type(value)
        key.append(part)
        previous = lexeme
    return tuple(key), values, pairs


def tokenize(text: str) -> list[Token]:
    """Tokenize ``text`` into a list of tokens terminated by an EOF token.

    Raises:
        TokenizeError: on an unterminated string literal or an unexpected
            character.
    """
    return tokens_of(_SCAN(text))


def tokens_of(pairs: list[tuple[str, str]]) -> list[Token]:
    """The tokens of a text :func:`shape` scanned; raises as :func:`tokenize`."""
    tokens: list[Token] = []
    append = tokens.append
    position = 0
    for skipped, lexeme in pairs:
        if skipped:
            position += len(skipped)
        first = lexeme[:1]
        if first in _ASCII_WORD_START or (first > "\x7f" and first.isalpha()):
            upper = lexeme.upper()
            if upper in KEYWORDS:
                append(_new_token(Token, ("KEYWORD", upper, position)))
            else:
                append(_new_token(Token, ("IDENT", lexeme.lower(), position)))
        elif lexeme in _OPERATORS:
            append(_new_token(Token, ("OP", lexeme, position)))
        elif first in _LITERAL_START and lexeme != "'":
            if first == "'":
                # Doubled quote is an escaped quote inside the literal.
                body = lexeme[1:-1].replace("''", "'")
                append(_new_token(Token, ("STRING", body, position)))
            else:
                append(_new_token(Token, ("NUMBER", lexeme, position)))
        elif not lexeme:
            break
        elif first == "'":
            raise TokenizeError("unterminated string literal", position)
        else:
            raise TokenizeError(f"unexpected character {first!r}", position)
        position += len(lexeme)
    append(_new_token(Token, ("EOF", "", position)))
    return tokens
