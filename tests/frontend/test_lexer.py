"""Lexer unit tests."""

import pytest

from repro.frontend import LexError, TokKind, tokenize


def kinds(src):
    return [t.kind for t in tokenize(src)]


def texts(src):
    return [t.text for t in tokenize(src)[:-1]]


def test_empty_source_yields_only_eof():
    toks = tokenize("")
    assert len(toks) == 1
    assert toks[0].kind is TokKind.EOF


def test_integer_literal_value():
    tok = tokenize("12345")[0]
    assert tok.kind is TokKind.INT
    assert tok.value == 12345


def test_identifier_and_keyword_distinction():
    toks = tokenize("var variable whileish while")
    assert toks[0].kind is TokKind.KEYWORD
    assert toks[1].kind is TokKind.IDENT
    assert toks[2].kind is TokKind.IDENT  # prefix of keyword is an ident
    assert toks[3].kind is TokKind.KEYWORD


def test_underscore_identifiers():
    toks = tokenize("_x x_1 __foo__")
    assert all(t.kind is TokKind.IDENT for t in toks[:-1])


def test_two_char_operators_lex_greedily():
    assert texts("a<=b") == ["a", "<=", "b"]
    assert texts("a< =b") == ["a", "<", "=", "b"]
    assert texts("x<<2>>1") == ["x", "<<", "2", ">>", "1"]
    assert texts("a&&b||!c") == ["a", "&&", "b", "||", "!", "c"]
    assert texts("a != b == c") == ["a", "!=", "b", "==", "c"]


def test_char_literals():
    toks = tokenize("'a' '0' 'Z'")
    assert [t.value for t in toks[:-1]] == [ord("a"), ord("0"), ord("Z")]


def test_char_escapes():
    toks = tokenize(r"'\n' '\t' '\0' '\\' '\''")
    assert [t.value for t in toks[:-1]] == [10, 9, 0, 92, 39]


def test_unknown_escape_rejected():
    with pytest.raises(LexError):
        tokenize(r"'\q'")


def test_unterminated_char_literal_rejected():
    with pytest.raises(LexError):
        tokenize("'ab'")
    with pytest.raises(LexError):
        tokenize("'")


def test_line_comments_are_skipped():
    assert texts("a // comment here\nb") == ["a", "b"]


def test_block_comments_are_skipped():
    assert texts("a /* multi\nline */ b") == ["a", "b"]


def test_unterminated_block_comment_rejected():
    with pytest.raises(LexError):
        tokenize("/* never ends")


def test_line_and_column_tracking():
    toks = tokenize("ab\n  cd")
    assert (toks[0].line, toks[0].col) == (1, 1)
    assert (toks[1].line, toks[1].col) == (2, 3)


def test_column_tracking_after_block_comment():
    toks = tokenize("/* x */ y")
    assert toks[0].text == "y"
    assert toks[0].line == 1


def test_unexpected_character_rejected():
    with pytest.raises(LexError):
        tokenize("a $ b")


def test_error_carries_location():
    try:
        tokenize("ok\n  @")
    except LexError as e:
        assert e.line == 2
    else:  # pragma: no cover
        raise AssertionError("expected LexError")


def test_all_punctuation_tokens():
    src = "+ - * / % < > = ! & | ^ ~ ( ) { } [ ] , ;"
    toks = tokenize(src)[:-1]
    assert len(toks) == len(src.split())
    assert all(t.kind is TokKind.PUNCT for t in toks)


# -- exact token streams and diagnostics --------------------------------------
#
# (kind, text, value, line, col) for every token, EOF included, and the exact
# LexError message and location: any rewrite of the lexer must reproduce
# these bit for bit, because positions reach every later diagnostic.

STREAM_PINS = [
    (
        "var x = 1; /* one\n   two\n\tthree */ y=x<<2 >>1;\n"
        "/**/z/* a */w // tail",
        [
            ("KEYWORD", "var", 0, 1, 1), ("IDENT", "x", 0, 1, 5),
            ("PUNCT", "=", 0, 1, 7), ("INT", "1", 1, 1, 9),
            ("PUNCT", ";", 0, 1, 10), ("IDENT", "y", 0, 3, 11),
            ("PUNCT", "=", 0, 3, 12), ("IDENT", "x", 0, 3, 13),
            ("PUNCT", "<<", 0, 3, 14), ("INT", "2", 2, 3, 16),
            ("PUNCT", ">>", 0, 3, 18), ("INT", "1", 1, 3, 20),
            ("PUNCT", ";", 0, 3, 21), ("IDENT", "z", 0, 4, 5),
            ("IDENT", "w", 0, 4, 13), ("EOF", "", 0, 4, 15),
        ],
    ),
    # a trailing line comment leaves EOF at the comment's start column
    ("a // only comment", [("IDENT", "a", 0, 1, 1), ("EOF", "", 0, 1, 3)]),
    ("  \t\r\n\n  q", [("IDENT", "q", 0, 3, 3), ("EOF", "", 0, 3, 4)]),
    (
        r"""'\n' '\t' '\0' '\'' '\\' '\"' '\r' 'a' '''""",
        [
            ("INT", r"'\n'", 10, 1, 1), ("INT", r"'\t'", 9, 1, 6),
            ("INT", r"'\0'", 0, 1, 11), ("INT", r"'\''", 39, 1, 16),
            ("INT", r"'\\'", 92, 1, 21), ("INT", r"""'\"'""", 34, 1, 26),
            ("INT", r"'\r'", 13, 1, 31), ("INT", "'a'", 97, 1, 36),
            ("INT", "'''", 39, 1, 40), ("EOF", "", 0, 1, 43),
        ],
    ),
    # a raw newline inside a character literal does not start a new line
    ("'\n' x", [("INT", "'\n'", 10, 1, 1), ("IDENT", "x", 0, 1, 5),
                ("EOF", "", 0, 1, 6)]),
    (
        "12ab _x1 __ while whilex",
        [
            ("INT", "12", 12, 1, 1), ("IDENT", "ab", 0, 1, 3),
            ("IDENT", "_x1", 0, 1, 6), ("IDENT", "__", 0, 1, 10),
            ("KEYWORD", "while", 0, 1, 13), ("IDENT", "whilex", 0, 1, 19),
            ("EOF", "", 0, 1, 25),
        ],
    ),
    (
        "a<=b>=c==d!=e&&f||g<<h>>i+-*/%<>=!&|^~(){}[],;",
        [("IDENT", "a", 0, 1, 1)]
        + [
            (kind, text, 0, 1, col)
            for kind, text, col in [
                ("PUNCT", "<=", 2), ("IDENT", "b", 4), ("PUNCT", ">=", 5),
                ("IDENT", "c", 7), ("PUNCT", "==", 8), ("IDENT", "d", 10),
                ("PUNCT", "!=", 11), ("IDENT", "e", 13), ("PUNCT", "&&", 14),
                ("IDENT", "f", 16), ("PUNCT", "||", 17), ("IDENT", "g", 19),
                ("PUNCT", "<<", 20), ("IDENT", "h", 22), ("PUNCT", ">>", 23),
                ("IDENT", "i", 25), ("PUNCT", "+", 26), ("PUNCT", "-", 27),
                ("PUNCT", "*", 28), ("PUNCT", "/", 29), ("PUNCT", "%", 30),
                ("PUNCT", "<", 31), ("PUNCT", ">=", 32), ("PUNCT", "!", 34),
                ("PUNCT", "&", 35), ("PUNCT", "|", 36), ("PUNCT", "^", 37),
                ("PUNCT", "~", 38), ("PUNCT", "(", 39), ("PUNCT", ")", 40),
                ("PUNCT", "{", 41), ("PUNCT", "}", 42), ("PUNCT", "[", 43),
                ("PUNCT", "]", 44), ("PUNCT", ",", 45), ("PUNCT", ";", 46),
                ("EOF", "", 47),
            ]
        ],
    ),
]


@pytest.mark.parametrize("src,expected", STREAM_PINS)
def test_token_stream_is_pinned(src, expected):
    got = [(t.kind.name, t.text, t.value, t.line, t.col) for t in tokenize(src)]
    assert got == expected


ERROR_PINS = [
    ("/* never ends", "unterminated block comment", 1, 13),
    ("x\n /* a\nb", "unterminated block comment", 3, 1),
    ("/*", "unterminated block comment", 1, 3),
    ("/*\n", "unterminated block comment", 1, 3),
    ("/*/", "unterminated block comment", 1, 3),
    ("a $ b", "unexpected character '$'", 1, 3),
    ("ok\n  @", "unexpected character '@'", 2, 3),
    ("#", "unexpected character '#'", 1, 1),
    ("b /* c */ `", "unexpected character '`'", 1, 11),
    (r"'\q'", r"unknown escape '\q'", 1, 1),
    (r"x = '\z'", r"unknown escape '\z'", 1, 5),
    (r"'\n", "malformed character escape", 1, 1),
    (r"'\nx'", "malformed character escape", 1, 1),
    ("a\n'\\", "malformed character escape", 2, 1),
    ("'", "unterminated character literal", 1, 1),
    ("'ab'", "unterminated character literal", 1, 1),
    ("'a", "unterminated character literal", 1, 1),
    ("  '", "unterminated character literal", 1, 3),
]


@pytest.mark.parametrize("src,message,line,col", ERROR_PINS)
def test_lex_error_is_pinned(src, message, line, col):
    with pytest.raises(LexError) as info:
        tokenize(src)
    assert (info.value.message, info.value.line, info.value.col) == (
        message, line, col,
    )
