"""Front-end diagnostics keep the user's line and column.

The incremental front end compiles a *reduced* source (header, ``extern``
lines for cached siblings, then the missing chunks); an error found
there must still be reported at its place in the original text, the
same ``line:col`` that :func:`repro.frontend.parse` gives.
"""

import asyncio

import pytest

from repro import Compiler, O2, compile_program
from repro.frontend import analyze, parse
from repro.frontend.errors import CompileError, ParseError, SemanticError
from repro.service import CompileService

GOOD = """var g = 2;
func helper(a) { return a + g; }

func main() {
    print helper(5);
    return 0;
}
"""

#: (label, broken source) -- every one breaks a different region
BROKEN = [
    ("first function", "func main() { print 1 +; }\n"),
    ("later function", GOOD.replace("print helper(5);", "print helper(5) *;")),
    ("header", GOOD.replace("var g = 2;", "var g = ;")),
    ("header between functions",
     GOOD.replace("\nfunc main", "var h = ;\nfunc main")),
]


def _coords(exc: CompileError):
    return type(exc), exc.line, exc.col


def _expected(text: str):
    with pytest.raises(ParseError) as info:
        parse(text)
    return _coords(info.value)


def _service_error(*texts):
    async def scenario():
        svc = CompileService(O2)
        for text in texts[:-1]:
            await svc.compile(text)
        try:
            await svc.compile(texts[-1])
        finally:
            await svc.join()

    with pytest.raises(CompileError) as info:
        asyncio.run(scenario())
    return info.value


@pytest.mark.parametrize("label,text", BROKEN, ids=[b[0] for b in BROKEN])
def test_cold_compiles_report_the_parse_coordinates(label, text):
    want = _expected(text)
    with pytest.raises(CompileError) as info:
        compile_program(text, O2)
    assert _coords(info.value) == want
    with pytest.raises(CompileError) as info:
        Compiler(O2).add_sources(text).compile()
    assert _coords(info.value) == want
    assert _coords(_service_error(text)) == want


@pytest.mark.parametrize("label,text", BROKEN[1:],
                         ids=[b[0] for b in BROKEN[1:]])
def test_warm_edits_report_the_parse_coordinates(label, text):
    """After a good compile every unedited chunk is cached, so the
    reduced source differs most from the original here."""
    want = _expected(text)
    session = Compiler(O2).add_sources(GOOD)
    session.compile()
    session.add_source(("main", text))
    with pytest.raises(CompileError) as info:
        session.compile()
    assert _coords(info.value) == want
    assert info.value.source == "main"
    assert _coords(_service_error(GOOD, text)) == want


def test_semantic_errors_report_the_whole_source_coordinates():
    text = GOOD.replace("print helper(5);", "print nothere;")
    with pytest.raises(SemanticError) as info:
        analyze(parse(text))
    want = _coords(info.value)
    session = Compiler(O2).add_sources(GOOD)
    session.compile()
    session.add_source(("main", text))
    with pytest.raises(SemanticError) as info:
        session.compile()
    assert _coords(info.value) == want
