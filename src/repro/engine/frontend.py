"""Incremental front end: per-procedure parse/lower/optimise caching.

MiniC lowering is a pure function of one procedure's text plus the
module-level symbol table (global/array/extern declarations and the
(name, arity) set of sibling procedures) -- temp and label counters are
per-function, and the IR optimiser is strictly local.  The front-end
cache exploits that:

1. a lexical scanner splits a source into top-level ``func`` chunks and
   the header (everything else, order preserved);
2. each chunk keys a cached lowered-and-optimised
   :class:`~repro.ir.function.IRFunction` by
   ``(symbol-table hash, chunk text hash, optimise flag)``;
3. chunks missing from the cache are compiled through the real front end
   on a *reduced source* -- the header, ``extern func`` declarations for
   every cached sibling, and the missing chunks -- which type-checks and
   lowers exactly like the full module does (name classification and
   arity checking only consult the symbol table, never sibling bodies);
4. the module is assembled from header declarations plus cached
   functions in source order, so data layout and code layout match a
   cold compile bit for bit.

Address-taken procedures are recorded per chunk at analysis time (the
paper's Section 3 needs ``&f`` occurrences *before* dead-code
elimination), so the assembled module's ``address_taken`` set equals the
cold compile's.

The scanner is conservative: any construct it cannot segment confidently
(unterminated comment, unbalanced braces, a stray quote) falls back to a
whole-module parse, which also produces the exact diagnostics; so does
an error in the reduced source, whose line and column are not the
user's.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.engine.fingerprint import function_fingerprint, text_digest
from repro.store.store import NS_FRONTEND as _NS_FRONTEND
from repro.frontend import analyze, parse
from repro.frontend import ast_nodes as ast
from repro.frontend.errors import CompileError
from repro.ir.function import IRFunction, IRModule
from repro.ir.lowering import lower_module
from repro.ir.optimize import optimize_function
from repro.ir.verify import verify_module

#: one alternation over everything that can confuse brace counting; the
#: trailing ``/\*`` and ``'`` alternatives catch unterminated forms so the
#: scanner can bail out to a full parse (which raises the proper error)
_SCAN_RE = re.compile(
    r"//[^\n]*"
    r"|/\*.*?\*/"
    r"|'(?:\\.|[^'\\])'"
    r"|[{};]"
    r"|\bfunc\b"
    r"|\bextern\b"
    r"|/\*"
    r"|'",
    re.S,
)

_FUNC_HEAD_RE = re.compile(r"\s*([A-Za-z_]\w*)\s*\(([^)]*)\)")


@dataclass(frozen=True)
class Chunk:
    """One top-level ``func`` declaration's text span."""

    name: str
    arity: int
    text: str


def split_chunks(source: str) -> Optional[Tuple[str, List[Chunk]]]:
    """Split ``source`` into (header text, function chunks), or ``None``
    when the source cannot be segmented confidently."""
    chunks: List[Chunk] = []
    header_parts: List[str] = []
    depth = 0
    in_extern = False
    func_start = -1        # start offset of the current func chunk
    header_pos = 0         # start of the pending header segment
    for m in _SCAN_RE.finditer(source):
        tok = m.group(0)
        if tok.startswith("//") or (tok.startswith("/*") and len(tok) > 2):
            continue
        if tok == "/*" or tok == "'":
            return None  # unterminated comment / stray quote
        if tok.startswith("'"):
            continue
        if tok == "{":
            depth += 1
            continue
        if tok == "}":
            depth -= 1
            if depth < 0:
                return None
            if depth == 0 and func_start >= 0:
                head = _FUNC_HEAD_RE.match(source, func_start + len("func"))
                if head is None:
                    return None
                params = head.group(2).strip()
                arity = len(params.split(",")) if params else 0
                chunks.append(
                    Chunk(head.group(1), arity, source[func_start:m.end()])
                )
                func_start = -1
                header_pos = m.end()
            continue
        if depth > 0:
            continue
        if tok == ";":
            in_extern = False
        elif tok == "extern":
            in_extern = True
        elif tok == "func" and not in_extern:
            if func_start >= 0:
                return None  # previous func never closed its brace
            func_start = m.start()
            header_parts.append(source[header_pos:func_start])
    if depth != 0 or func_start >= 0:
        return None
    header_parts.append(source[header_pos:])
    names = [c.name for c in chunks]
    if len(set(names)) != len(names):
        return None  # duplicate definitions: let the full parse diagnose
    return "".join(header_parts), chunks


def _funcrefs(node, out: set) -> None:
    """Collect ``&name`` occurrences from an AST subtree (analysis-time
    address-taken semantics, before dead code is dropped)."""
    if isinstance(node, ast.FuncRef):
        out.add(node.name)
    for value in vars(node).values():
        if isinstance(value, ast.Node):
            _funcrefs(value, out)
        elif isinstance(value, (list, tuple)):
            for item in value:
                if isinstance(item, ast.Node):
                    _funcrefs(item, out)


@dataclass
class _FnEntry:
    fn: IRFunction
    address_taken: FrozenSet[str]


class FrontendCache:
    """Session-lifetime parse/lower/optimise caches.

    With an :class:`~repro.store.ArtifactStore` attached, per-function
    entries are additionally shared across sessions and processes: a
    chunk missing from the in-memory cache is looked up on disk (under
    the same content key) before the real front end runs, and freshly
    lowered chunks are written through.  Restored functions went through
    ``remove_unreachable_blocks`` before they were first published, so
    they splice into a module exactly like in-memory entries.
    """

    def __init__(self, store=None) -> None:
        #: (module name, source sha, optimise) -> assembled IRModule
        self._modules: Dict[Tuple[str, str, bool], IRModule] = {}
        #: (symtab sha, chunk sha, optimise) -> lowered function
        self._functions: Dict[Tuple[str, str, bool], _FnEntry] = {}
        self._store = store
        self.hits = 0
        self.misses = 0
        self.fn_hits = 0
        self.fn_misses = 0

    # -- the one public operation -------------------------------------------

    def lower_source(self, name: str, text: str, optimize: bool) -> IRModule:
        """Parse/analyze/lower (and optionally optimise) one source,
        reusing per-procedure work from previous compiles of the session.
        """
        key = (name, text_digest(text), optimize)
        module = self._modules.get(key)
        if module is not None:
            self.hits += 1
            self.fn_hits += len(module.functions)
            return module
        self.misses += 1
        split = split_chunks(text)
        try:
            if split is None:
                module = self._full_front(name, text, optimize)
                self.fn_misses += len(module.functions)
            else:
                module = self._chunked_front(name, text, split, optimize)
        except CompileError as exc:
            exc.source = name
            raise
        self._modules[key] = module
        return module

    # -- internals ----------------------------------------------------------

    def _full_front(self, name: str, text: str, optimize: bool) -> IRModule:
        module = lower_module(analyze(parse(text, name)))
        verify_module(module)
        if optimize:
            for fn in module.functions.values():
                optimize_function(fn)
            verify_module(module)
        return module

    def _chunked_front(
        self, name: str, text: str, split: Tuple[str, List[Chunk]],
        optimize: bool,
    ) -> IRModule:
        header_text, chunks = split
        symtab = text_digest(
            header_text
            + "\x00"
            + "\x00".join(f"{c.name},{c.arity}" for c in chunks)
        )
        entries: Dict[str, _FnEntry] = {}
        missing: List[Chunk] = []
        for chunk in chunks:
            fkey = (symtab, text_digest(chunk.text), optimize)
            entry = self._functions.get(fkey)
            if entry is None and self._store is not None:
                restored = self._store.get(_NS_FRONTEND, fkey)
                if isinstance(restored, _FnEntry):
                    self._functions[fkey] = restored
                    entry = restored
            if entry is not None:
                self.fn_hits += 1
                entries[chunk.name] = entry
            else:
                self.fn_misses += 1
                missing.append(chunk)

        cached_names = {c.name for c in chunks if c.name in entries}
        reduced = "".join(
            [header_text]
            + [
                f"\nextern func {c.name}({c.arity});"
                for c in chunks
                if c.name in cached_names
            ]
            + ["\n" + c.text for c in missing]
        )
        try:
            ast_module = parse(reduced, name)
            lowered = lower_module(analyze(ast_module))
        except CompileError:
            # report the whole source's error, at the user's line:col
            try:
                self._full_front(name, text, optimize)
            except CompileError as whole:
                raise whole from None
            raise
        verify_module(lowered)

        decl_by_name = {f.name: f for f in ast_module.functions}
        for chunk in missing:
            fn = lowered.functions[chunk.name]
            if optimize:
                optimize_function(fn)
            # fix the CFG point before publishing: later pipeline stages
            # may call remove_unreachable_blocks, which must be a no-op
            fn.remove_unreachable_blocks()
            refs: set = set()
            _funcrefs(decl_by_name[chunk.name], refs)
            entry = _FnEntry(fn=fn, address_taken=frozenset(refs))
            fkey = (symtab, text_digest(chunk.text), optimize)
            self._functions[fkey] = entry
            entries[chunk.name] = entry
            if self._store is not None:
                # memoise the content fingerprint on ``fn`` first, so the
                # stored copy carries it and a warm process does not
                # re-encode the function to build its plan key
                function_fingerprint(fn)
                self._store.put(_NS_FRONTEND, fkey, entry)
        if optimize and missing:
            verify_module(lowered)

        module = IRModule(
            name=name,
            globals=dict(lowered.globals),
            arrays=dict(lowered.arrays),
            externs={
                ename: arity
                for ename, arity in lowered.externs.items()
                if ename not in cached_names
            },
        )
        for chunk in chunks:
            module.add_function(entries[chunk.name].fn)
            module.address_taken.update(entries[chunk.name].address_taken)
        return module
