"""Lexer for MiniC, the paper-reproduction source language.

MiniC is a small C-like language: one data type (the machine word),
global scalars and arrays, procedures with value parameters, recursion,
and function pointers (``&name`` / calls through variables).  It is rich
enough to express the paper's 13 benchmark programs while keeping the
compiler focused on the register-allocation work the paper studies.
"""

from __future__ import annotations

import enum
import re
from typing import List, NamedTuple

from repro.frontend.errors import LexError


class TokKind(enum.Enum):
    INT = "int"
    IDENT = "ident"
    KEYWORD = "keyword"
    PUNCT = "punct"
    EOF = "eof"


KEYWORDS = frozenset(
    {
        "var", "array", "func", "extern", "if", "else", "while", "for",
        "return", "print", "break", "continue",
    }
)

# Longest first: the lexer's alternation takes the first that matches.
PUNCTUATION = (
    "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
    "+", "-", "*", "/", "%", "<", ">", "=", "!", "&", "|", "^", "~",
    "(", ")", "{", "}", "[", "]", ",", ";",
)


class Token(NamedTuple):
    kind: TokKind
    text: str
    value: int
    line: int
    col: int

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Token({self.kind.value}, {self.text!r} @{self.line}:{self.col})"


_ESCAPES = {"n": 10, "t": 9, "0": 0, "'": 39, "\\": 92, '"': 34, "r": 13}

# One match per token: leading blanks, then one alternation tried in order.
# A newline is its own match so lines are counted without rescanning.  A
# block comment only matches its opener; ``str.find`` locates the close, so
# an unterminated one is reported where the scan gives up.  ``\w`` is exactly
# ``str.isalnum()`` plus ``_``; an identifier must also *start* with a letter
# or ``_``, which the IDENT branch checks.  A character literal holds any one
# character (a raw newline too) or a backslash escape; anything else after a
# quote, like any other unmatched character, falls to the error path.
_MASTER = re.compile(
    r"[ \t\r]*(?:"
    r"(?P<nl>\n)"
    r"|(?P<ident>[^\W\d]\w*)"
    r"|(?P<lc>//[^\n]*)"
    r"|(?P<bc>/\*)"
    r"|(?P<punct>" + "|".join(map(re.escape, PUNCTUATION)) + ")"
    r"|(?P<int>\d+)"
    r"|(?P<chr>'(?:\\(?P<esc>.)|(?P<lit>[^\\]))')"
    r")",
    re.DOTALL,
)


def tokenize(source: str) -> List[Token]:
    """Tokenize ``source`` into a list ending with an EOF token.

    Columns count characters from the start of the line (1-based).  Two
    quirks are kept because diagnostics depend on them: a line comment
    running to end of input does not advance the column (EOF sits where
    the comment starts), and a raw newline inside a character literal does
    not start a new line.
    """
    toks: List[Token] = []
    append = toks.append
    match = _MASTER.match
    INT, IDENT, KEYWORD, PUNCT = (
        TokKind.INT, TokKind.IDENT, TokKind.KEYWORD, TokKind.PUNCT,
    )
    n = len(source)
    pos = 0
    line = 1
    line_start = 0  # index of the current line's first character
    while True:
        m = match(source, pos)
        if m is None:
            break
        group = m.lastgroup
        start, pos = m.span(group)
        if group == "ident":
            text = source[start:pos]
            c = text[0]
            if not (c.isalpha() or c == "_"):
                raise LexError(
                    f"unexpected character {c!r}", line, start - line_start + 1
                )
            kind = KEYWORD if text in KEYWORDS else IDENT
            append(Token(kind, text, 0, line, start - line_start + 1))
        elif group == "punct":
            append(Token(PUNCT, source[start:pos], 0, line, start - line_start + 1))
        elif group == "nl":
            line += 1
            line_start = pos
        elif group == "int":
            text = source[start:pos]
            append(Token(INT, text, int(text), line, start - line_start + 1))
        elif group == "chr":
            esc = m.group("esc")
            if esc is None:
                value = ord(m.group("lit"))
            elif esc in _ESCAPES:
                value = _ESCAPES[esc]
            else:
                raise LexError(
                    f"unknown escape '\\{esc}'", line, start - line_start + 1
                )
            append(Token(INT, source[start:pos], value, line, start - line_start + 1))
        elif group == "lc":
            if pos == n:
                line_start += pos - start  # EOF keeps the comment's column
        else:  # "bc"
            close = source.find("*/", pos)
            stop = close if close >= 0 else max(n - 1, pos)
            newlines = source.count("\n", pos, stop)
            if newlines:
                line += newlines
                line_start = source.rindex("\n", pos, stop) + 1
            if close < 0:
                raise LexError(
                    "unterminated block comment", line, stop - line_start + 1
                )
            pos = close + 2
    # No token matched: skip the blanks the pattern consumed, then it is
    # either the end of input or a character no token starts with.
    while pos < n and source[pos] in " \t\r":
        pos += 1
    col = pos - line_start + 1
    if pos < n:
        if source[pos] == "'":
            raise LexError(_char_literal_error(source, pos), line, col)
        raise LexError(f"unexpected character {source[pos]!r}", line, col)
    append(Token(TokKind.EOF, "", 0, line, col))
    return toks


def _char_literal_error(source: str, i: int) -> str:
    """The diagnostic for a quote at ``i`` that starts no valid literal."""
    n = len(source)
    if i + 1 < n and source[i + 1] == "\\":
        if i + 3 >= n or source[i + 3] != "'":
            return "malformed character escape"
    return "unterminated character literal"
