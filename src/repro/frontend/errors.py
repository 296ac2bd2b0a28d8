"""Diagnostics for the MiniC front end."""

from __future__ import annotations


class CompileError(Exception):
    """Base class for all user-facing compilation errors."""

    #: the source (module name) at fault, set by the engine's front end
    source = None

    def __init__(self, message: str, line: int = 0, col: int = 0):
        self.message = message
        self.line = line
        self.col = col
        loc = f"{line}:{col}: " if line else ""
        super().__init__(f"{loc}{message}")


class LexError(CompileError):
    """Invalid character or malformed token."""


class ParseError(CompileError):
    """Syntactically invalid program."""


class SemanticError(CompileError):
    """Well-formed syntax with an invalid meaning (undefined names, arity
    mismatches, duplicate definitions, ...)."""


class LinkError(CompileError):
    """Unresolved or duplicate symbols when linking modules."""


class OptionsError(CompileError):
    """Invalid :class:`~repro.pipeline.options.CompilerOptions` (bad opt
    level, empty register file at an allocating opt level, unknown entry
    point, malformed block weights, ...) caught eagerly instead of
    surfacing as a ``KeyError`` deep inside planning."""
