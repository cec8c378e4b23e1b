"""Tokeniser for the CSRL concrete syntax.

The token stream feeds the recursive-descent parser in
:mod:`repro.logic.parser`.  Reserved words are the operator letters
``P S X U F G``, the constants ``true``/``false`` and ``inf``; all
other identifiers are atomic propositions.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List

from repro.errors import ParseError

#: Token kinds produced by the lexer.
KINDS = ("NUMBER", "IDENT", "KEYWORD", "CMP", "EQ", "LPAREN", "RPAREN",
         "LBRACKET", "RBRACKET", "COMMA", "AND", "OR", "NOT", "IMPLIES",
         "EOF")

KEYWORDS = {"P", "S", "X", "U", "F", "G", "R", "I", "C",
            "true", "false", "inf"}

_TOKEN_RE = re.compile(r"""
    (?P<WS>\s+)
  | (?P<NUMBER>\d+(\.\d*)?([eE][+-]?\d+)?|\.\d+([eE][+-]?\d+)?)
  | (?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<IMPLIES>=>)
  | (?P<CMP><=|>=|<|>)
  | (?P<EQ>=)
  | (?P<AND>&&|&)
  | (?P<OR>\|\||\|)
  | (?P<NOT>!|~)
  | (?P<LPAREN>\()
  | (?P<RPAREN>\))
  | (?P<LBRACKET>\[)
  | (?P<RBRACKET>\])
  | (?P<COMMA>,)
""", re.VERBOSE)


@dataclass(frozen=True)
class Token:
    """A single lexeme with its source position."""
    kind: str
    text: str
    position: int

    def __str__(self) -> str:
        return f"{self.kind}({self.text!r})@{self.position}"


def tokenize(source: str) -> List[Token]:
    """Tokenise *source*; raises :class:`ParseError` on illegal input."""
    tokens: List[Token] = []
    position = 0
    length = len(source)
    while position < length:
        match = _TOKEN_RE.match(source, position)
        if match is None:
            raise ParseError(
                f"unexpected character {source[position]!r}",
                position=position)
        kind = match.lastgroup
        text = match.group()
        if kind != "WS":
            if kind == "IDENT" and text in KEYWORDS:
                kind = "KEYWORD"
            tokens.append(Token(kind, text, position))
        position = match.end()
    tokens.append(Token("EOF", "", length))
    return tokens
