"""CLI smoke tests (python -m repro)."""

import argparse
from pathlib import Path

import pytest

from repro.__main__ import _options, main
from repro.target.registers import (
    CALLEE_ONLY_7,
    CALLER_ONLY_7,
    DEFAULT_CONVENTION,
)

PROGRAMS = Path(__file__).resolve().parents[2] / "examples" / "programs"


@pytest.fixture
def src_file(tmp_path):
    f = tmp_path / "prog.mc"
    f.write_text("func main() { print 6 * 7; }")
    return str(f)


def test_run_command(capsys, src_file):
    assert main(["run", src_file]) == 0
    assert capsys.readouterr().out.strip() == "42"


def test_run_with_all_opt_levels(capsys, src_file):
    for level in "0123":
        assert main(["run", src_file, "-O", level, "--check"]) == 0
        assert capsys.readouterr().out.strip() == "42"


def test_stats_command(capsys, src_file):
    assert main(["stats", src_file]) == 0
    out = capsys.readouterr().out
    assert "cycles" in out
    assert "scalar_loads" in out


def test_asm_command(capsys, src_file):
    assert main(["asm", src_file]) == 0
    out = capsys.readouterr().out
    assert "main:" in out
    assert "jr $ra" in out


def test_ir_command(capsys, src_file):
    assert main(["ir", src_file]) == 0
    assert "func main" in capsys.readouterr().out


def test_report_command(capsys, src_file):
    assert main(["report", src_file, "-O", "3"]) == 0
    out = capsys.readouterr().out
    assert "procedure main" in out


def test_dot_command(capsys, src_file):
    assert main(["dot", src_file, "-O", "3"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph")


def test_register_restriction_flags(capsys, src_file):
    assert main(["run", src_file, "-O", "3", "--shrink-wrap",
                 "--callers", "7", "--check"]) == 0
    assert capsys.readouterr().out.strip() == "42"
    # the bounds are inclusive
    for flags in (["--callees", "7"], ["--callers", "11"],
                  ["--callees", "9"]):
        assert main(["run", src_file, "-O", "3", *flags, "--check"]) == 0
        assert capsys.readouterr().out.strip() == "42"
    # no allocation below -O2, so an empty pool is fine there
    assert main(["run", src_file, "-O", "1", "--callers", "0"]) == 0
    assert capsys.readouterr().out.strip() == "42"


@pytest.mark.parametrize("flags", [
    ["--callers", "-1"],
    ["--callers", "50"],
    ["--callers", "12"],
    ["--callees", "10"],
    ["--callers", "0"],     # -O 3 allocates: an empty pool is an error
])
def test_bad_register_counts_exit_cleanly(capsys, src_file, flags):
    with pytest.raises(SystemExit) as exc:
        main(["run", src_file, "-O", "3", *flags])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "repro: error:" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("text,where", [
    ("func main() { print 1 +; }\n", ":1:24: expected an expression"),
    ("func main() {\n  print 1 @ 2;\n}\n", ":2:11: unexpected character"),
    ("func main() { print nothere; }\n", ":1:0: in func main: undefined"),
])
def test_compile_errors_print_one_line(capsys, tmp_path, text, where):
    bad = tmp_path / "bad.mc"
    bad.write_text(text)
    for command in ("run", "asm", "stats"):
        assert main([command, str(bad), "-O", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"{bad}{where}")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err


def test_errors_without_a_source_print_one_line(capsys, tmp_path):
    f = tmp_path / "lib.mc"
    f.write_text("func notmain() { return 1; }\n")
    assert main(["run", str(f)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("repro: entry point 'main'")
    assert captured.err.count("\n") == 1


def test_compile_errors_name_the_file_at_fault(capsys, tmp_path):
    good = tmp_path / "good.mc"
    good.write_text("extern func h(1); func main() { print h(20); }")
    bad = tmp_path / "lib.mc"
    bad.write_text("func h(x) {\n  return x *;\n}\n")
    assert main(["run", str(good), str(bad)]) == 2
    assert capsys.readouterr().err.startswith(f"{bad}:2:")


def test_register_flags_build_the_paper_presets():
    def options(callers=None, callees=None):
        return _options(argparse.Namespace(
            opt=3, shrink_wrap=True, no_combine=False, entry="main",
            ipra_globals=False, callers=callers, callees=callees,
        ))

    assert options(callers=7).convention == CALLER_ONLY_7
    assert options(callers=7).convention.name == CALLER_ONLY_7.name
    assert options(callees=7).convention == CALLEE_ONLY_7
    assert options().convention == DEFAULT_CONVENTION


def test_multi_module_cli(capsys, tmp_path):
    m1 = tmp_path / "m1.mc"
    m1.write_text("extern func h(1); func main() { print h(20); }")
    m2 = tmp_path / "m2.mc"
    m2.write_text("func h(x) { return x * 2 + 2; }")
    assert main(["run", str(m1), str(m2), "-O", "3"]) == 0
    assert capsys.readouterr().out.strip() == "42"


@pytest.mark.parametrize("name", ["primes.mc", "sort.mc"])
def test_example_programs(capsys, name):
    path = PROGRAMS / name
    assert path.exists()
    assert main(["run", str(path), "-O", "3", "--shrink-wrap",
                 "--check"]) == 0
    base = capsys.readouterr().out
    assert main(["run", str(path), "-O", "0"]) == 0
    assert capsys.readouterr().out == base
