"""Recursive-descent parser for MiniC.

Grammar (EBNF):

    module      := item*
    item        := "var" IDENT ("=" ("-")? INT)? ";"
                 | "array" IDENT "[" INT "]" ";"
                 | "extern" "func" IDENT "(" INT ")" ";"
                 | "func" IDENT "(" params? ")" block
    params      := IDENT ("," IDENT)*
    block       := "{" stmt* "}"
    stmt        := "var" IDENT ("=" expr)? ";"
                 | "array" IDENT "[" INT "]" ";"
                 | "if" "(" expr ")" block ("else" (block | ifstmt))?
                 | "while" "(" expr ")" block
                 | "for" "(" simple? ";" expr? ";" simple? ")" block
                 | "return" expr? ";"
                 | "print" expr ";"
                 | "break" ";" | "continue" ";"
                 | simple ";"
    simple      := IDENT "=" expr
                 | IDENT "[" expr "]" "=" expr
                 | expr                       (call statements)
    expr        := binary expression with C precedence, "&&"/"||" lowest
    primary     := INT | IDENT | IDENT "(" args? ")" | IDENT "[" expr "]"
                 | "&" IDENT | "(" expr ")" | ("-"|"!"|"~") primary
"""

from __future__ import annotations

from typing import List, Optional

from repro.frontend import ast_nodes as ast
from repro.frontend.errors import ParseError
from repro.frontend.lexer import Token, TokKind, tokenize

# precedence table: higher binds tighter
_PRECEDENCE = {
    "||": 1,
    "&&": 2,
    "|": 3,
    "^": 4,
    "&": 5,
    "==": 6, "!=": 6,
    "<": 7, "<=": 7, ">": 7, ">=": 7,
    "<<": 8, ">>": 8,
    "+": 9, "-": 9,
    "*": 10, "/": 10, "%": 10,
}


class Parser:
    def __init__(self, tokens: List[Token]):
        self._toks = tokens
        self._seek(0)

    # -- token helpers ------------------------------------------------------

    def _seek(self, pos: int) -> None:
        """Move to token ``pos``; ``_cur`` always holds that token."""
        self._pos = pos
        self._cur = self._toks[pos]

    def _peek(self, ahead: int = 1) -> Token:
        return self._toks[min(self._pos + ahead, len(self._toks) - 1)]

    def _advance(self) -> Token:
        tok = self._cur
        if tok.kind is not TokKind.EOF:
            self._seek(self._pos + 1)
        return tok

    def _error(self, msg: str) -> ParseError:
        tok = self._cur
        return ParseError(msg, tok.line, tok.col)

    def _check(self, text: str) -> bool:
        """Is the current token the punctuation or keyword ``text``?  Only
        PUNCT and KEYWORD tokens can be spelled like one: an IDENT is never
        a keyword, an INT starts with a digit or a quote, EOF is empty."""
        return self._cur.text == text

    def _accept(self, text: str) -> bool:
        if self._check(text):
            self._advance()
            return True
        return False

    def _expect(self, text: str) -> Token:
        if not self._check(text):
            raise self._error(f"expected {text!r}, found {self._cur.text!r}")
        return self._advance()

    def _expect_ident(self) -> Token:
        if self._cur.kind is not TokKind.IDENT:
            raise self._error(f"expected identifier, found {self._cur.text!r}")
        return self._advance()

    def _expect_int(self) -> Token:
        if self._cur.kind is not TokKind.INT:
            raise self._error(f"expected integer, found {self._cur.text!r}")
        return self._advance()

    # -- top level -----------------------------------------------------------

    def parse_module(self, name: str = "module") -> ast.Module:
        mod = ast.Module(name=name)
        while self._cur.kind is not TokKind.EOF:
            if self._check("var"):
                mod.globals.append(self._global_var())
            elif self._check("array"):
                mod.arrays.append(self._array_decl())
            elif self._check("extern"):
                mod.externs.append(self._extern())
            elif self._check("func"):
                mod.functions.append(self._func())
            else:
                raise self._error(
                    f"expected a declaration, found {self._cur.text!r}"
                )
        return mod

    def _global_var(self) -> ast.GlobalVar:
        line = self._expect("var").line
        name = self._expect_ident().text
        init = 0
        if self._accept("="):
            neg = self._accept("-")
            init = self._expect_int().value
            if neg:
                init = -init
        self._expect(";")
        return ast.GlobalVar(line=line, name=name, init=init)

    def _array_decl(self) -> ast.ArrayDecl:
        line = self._expect("array").line
        name = self._expect_ident().text
        self._expect("[")
        size = self._expect_int().value
        self._expect("]")
        self._expect(";")
        return ast.ArrayDecl(line=line, name=name, size=size)

    def _extern(self) -> ast.ExternFunc:
        line = self._expect("extern").line
        self._expect("func")
        name = self._expect_ident().text
        self._expect("(")
        arity = self._expect_int().value
        self._expect(")")
        self._expect(";")
        return ast.ExternFunc(line=line, name=name, arity=arity)

    def _func(self) -> ast.FuncDecl:
        line = self._expect("func").line
        name = self._expect_ident().text
        self._expect("(")
        params: List[str] = []
        if not self._check(")"):
            params.append(self._expect_ident().text)
            while self._accept(","):
                params.append(self._expect_ident().text)
        self._expect(")")
        body = self._block()
        return ast.FuncDecl(line=line, name=name, params=params, body=body)

    # -- statements ----------------------------------------------------------

    def _block(self) -> ast.Block:
        line = self._expect("{").line
        stmts: List[ast.Stmt] = []
        while not self._check("}"):
            if self._cur.kind is TokKind.EOF:
                raise self._error("unterminated block")
            stmts.append(self._stmt())
        self._expect("}")
        return ast.Block(line=line, stmts=stmts)

    def _stmt(self) -> ast.Stmt:
        if self._check("var"):
            line = self._advance().line
            name = self._expect_ident().text
            init = None
            if self._accept("="):
                init = self._expr()
            self._expect(";")
            return ast.LocalVar(line=line, name=name, init=init)
        if self._check("array"):
            line = self._advance().line
            name = self._expect_ident().text
            self._expect("[")
            size = self._expect_int().value
            self._expect("]")
            self._expect(";")
            return ast.LocalArray(line=line, name=name, size=size)
        if self._check("if"):
            return self._if_stmt()
        if self._check("while"):
            line = self._advance().line
            self._expect("(")
            cond = self._expr()
            self._expect(")")
            body = self._block()
            return ast.While(line=line, cond=cond, body=body)
        if self._check("for"):
            return self._for_stmt()
        if self._check("return"):
            line = self._advance().line
            value = None
            if not self._check(";"):
                value = self._expr()
            self._expect(";")
            return ast.Return(line=line, value=value)
        if self._check("print"):
            line = self._advance().line
            value = self._expr()
            self._expect(";")
            return ast.Print(line=line, value=value)
        if self._check("break"):
            line = self._advance().line
            self._expect(";")
            return ast.Break(line=line)
        if self._check("continue"):
            line = self._advance().line
            self._expect(";")
            return ast.Continue(line=line)
        stmt = self._simple_stmt()
        self._expect(";")
        return stmt

    def _if_stmt(self) -> ast.If:
        line = self._expect("if").line
        self._expect("(")
        cond = self._expr()
        self._expect(")")
        then = self._block()
        orelse: Optional[ast.Stmt] = None
        if self._accept("else"):
            if self._check("if"):
                orelse = self._if_stmt()
            else:
                orelse = self._block()
        return ast.If(line=line, cond=cond, then=then, orelse=orelse)

    def _for_stmt(self) -> ast.For:
        line = self._expect("for").line
        self._expect("(")
        init: Optional[ast.Stmt] = None
        if not self._check(";"):
            if self._check("var"):
                self._advance()
                name = self._expect_ident().text
                self._expect("=")
                init = ast.LocalVar(line=line, name=name, init=self._expr())
            else:
                init = self._simple_stmt()
        self._expect(";")
        cond: Optional[ast.Expr] = None
        if not self._check(";"):
            cond = self._expr()
        self._expect(";")
        step: Optional[ast.Stmt] = None
        if not self._check(")"):
            step = self._simple_stmt()
        self._expect(")")
        body = self._block()
        return ast.For(line=line, init=init, cond=cond, step=step, body=body)

    def _simple_stmt(self) -> ast.Stmt:
        """Assignment, array assignment, or bare (call) expression."""
        if self._cur.kind is TokKind.IDENT:
            nxt = self._peek()
            if nxt.kind is TokKind.PUNCT and nxt.text == "=":
                tok = self._advance()
                self._advance()  # '='
                return ast.Assign(line=tok.line, name=tok.text, value=self._expr())
            if nxt.kind is TokKind.PUNCT and nxt.text == "[":
                # Could be `a[i] = e` or the expression `a[i]` used as a
                # statement; look for the '=' after the matching ']'.
                save = self._pos
                tok = self._advance()
                self._advance()  # '['
                index = self._expr()
                self._expect("]")
                if self._accept("="):
                    return ast.ArrayAssign(
                        line=tok.line, name=tok.text, index=index,
                        value=self._expr(),
                    )
                self._seek(save)  # bare expression: re-parse as expr
        expr = self._expr()
        return ast.ExprStmt(line=expr.line, expr=expr)

    # -- expressions ---------------------------------------------------------

    def _expr(self) -> ast.Expr:
        return self._binary(1)

    def _binary(self, min_prec: int) -> ast.Expr:
        left = self._unary()
        while True:
            tok = self._cur
            if tok.kind is not TokKind.PUNCT:
                return left
            prec = _PRECEDENCE.get(tok.text)
            if prec is None or prec < min_prec:
                return left
            self._advance()
            right = self._binary(prec + 1)
            left = ast.BinOp(line=tok.line, op=tok.text, left=left, right=right)

    def _unary(self) -> ast.Expr:
        tok = self._cur
        if tok.kind is TokKind.PUNCT and tok.text in ("-", "!", "~"):
            self._advance()
            operand = self._unary()
            return ast.UnOp(line=tok.line, op=tok.text, operand=operand)
        if tok.kind is TokKind.PUNCT and tok.text == "&":
            self._advance()
            name = self._expect_ident()
            return ast.FuncRef(line=tok.line, name=name.text)
        return self._primary()

    def _primary(self) -> ast.Expr:
        tok = self._cur
        if tok.kind is TokKind.INT:
            self._advance()
            return ast.IntLit(line=tok.line, value=tok.value)
        if tok.kind is TokKind.IDENT:
            self._advance()
            if self._accept("("):
                args: List[ast.Expr] = []
                if not self._check(")"):
                    args.append(self._expr())
                    while self._accept(","):
                        args.append(self._expr())
                self._expect(")")
                return ast.Call(line=tok.line, callee=tok.text, args=args)
            if self._accept("["):
                index = self._expr()
                self._expect("]")
                return ast.Index(line=tok.line, name=tok.text, index=index)
            return ast.VarRef(line=tok.line, name=tok.text)
        if self._accept("("):
            expr = self._expr()
            self._expect(")")
            return expr
        raise self._error(f"expected an expression, found {tok.text!r}")


def parse(source: str, name: str = "module") -> ast.Module:
    """Parse MiniC ``source`` into a :class:`~repro.frontend.ast_nodes.Module`."""
    return Parser(tokenize(source)).parse_module(name)
