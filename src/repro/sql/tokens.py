"""SQL tokenizer.

Splits SQL text into a flat list of :class:`Token` objects.  The tokenizer
is deliberately small: it recognises identifiers, keywords, numeric and
string literals, operators and punctuation — enough for the SQL subset used
by the workload generators and examples.

The whole text is scanned by one compiled pattern; each match is the
whitespace and ``--`` comments before a token plus the token itself, so
offsets are running sums of match lengths.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from repro.errors import TokenizeError

__all__ = ["Token", "tokenize", "KEYWORDS"]

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


def tokenize(text: str) -> list[Token]:
    """Tokenize ``text`` into a list of tokens terminated by an EOF token.

    Raises:
        TokenizeError: on an unterminated string literal or an unexpected
            character.
    """
    tokens: list[Token] = []
    append = tokens.append
    position = 0
    for skipped, lexeme in _SCAN(text):
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
        elif first in _NUMBER_START:
            append(_new_token(Token, ("NUMBER", lexeme, position)))
        elif first == "'" and lexeme != "'":
            # Doubled quote is an escaped quote inside the literal.
            body = lexeme[1:-1].replace("''", "'")
            append(_new_token(Token, ("STRING", body, position)))
        elif not lexeme:
            break
        elif first == "'":
            raise TokenizeError("unterminated string literal", position)
        else:
            raise TokenizeError(f"unexpected character {first!r}", position)
        position += len(lexeme)
    append(_new_token(Token, ("EOF", "", position)))
    return tokens
