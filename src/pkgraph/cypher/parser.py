"""Parser for the supported Cypher subset.

Grammar (EBNF in docs/query-grammar.md): MATCH / OPTIONAL MATCH with
directed patterns and variable-length relationships, WITH projections,
WHERE, UNWIND, and a final RETURN. Keywords are case-insensitive;
backtick-quoted identifiers are allowed wherever an identifier may
appear. Only right-pointing relationship arrows are supported.
"""

from __future__ import annotations

import functools
import re

from ..cparse import _position
from ..graph import FrozenRecord
from .ast import (
    Binary,
    Func,
    Literal,
    MatchClause,
    NodePattern,
    Not,
    Pattern,
    Prop,
    Query,
    RelPattern,
    ReturnClause,
    UnwindClause,
    Var,
    WhereClause,
    WithClause,
)

KEYWORDS = {"MATCH", "OPTIONAL", "WITH", "WHERE", "UNWIND", "RETURN", "AS", "AND", "OR", "NOT"}
FUNCTIONS = {"COLLECT", "COUNT", "SIZE"}

#: Binding strength of each binary operator; all are left-associative.
#: Prefix NOT binds at 3: looser than a comparison, tighter than AND.
_COMPARISONS = ("=", "<>", "<", "<=", ">", ">=")
_BINARY = {"OR": 1, "AND": 2, **dict.fromkeys(_COMPARISONS, 4)}
_STRENGTH = {**_BINARY, "NOT": 3}

# One match per token: leading whitespace and comments, then one
# alternative per token kind, any other character, which is an error, or
# the end of the text. Some alternative matches wherever the skip stops,
# so the skip is never backtracked into.
_TOKEN_RE = re.compile(
    r"""
    (?:\s|//[^\n]*)*(?:
    (?P<num>[0-9]+(?:\.[0-9]+)?)
  | (?P<str>"(?:[^"\\]|\\.)*"|'(?:[^'\\]|\\.)*')
  | (?P<backtick>`[^`]*`)
  | (?P<id>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<punct><>|<=|>=|\.\.|->|[=<>(){}\[\]:,.*\-])
  | (?P<bad>.)
  | (?P<eof>\Z)
    )
    """,
    re.VERBOSE,
)

_ESCAPE_RE = re.compile(r"\\(.)", re.DOTALL)
_ESCAPES = {"\\": "\\", '"': '"', "'": "'", "n": "\n", "t": "\t", "r": "\r"}


class QuerySyntaxError(Exception):
    def __init__(self, line: int, column: int, message: str):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column
        self.message = message


class _Tok(FrozenRecord):
    """A token; kind is num, str, backtick, id, punct or eof."""

    __slots__ = ("kind", "text", "offset")


def _unescape(body: str) -> str:
    return _ESCAPE_RE.sub(lambda m: _ESCAPES.get(m.group(1), m.group()), body)


def _lex(text: str) -> list:
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        offset = m.start(kind)
        if kind == "bad":
            message = f"unexpected character {text[offset]!r}"
            raise QuerySyntaxError(*_position(text, offset), message)
        tokens.append(_Tok(kind, m.group(kind), offset))
        if kind == "eof":
            return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _lex(text)
        self.pos = 0

    # -- cursor helpers ----------------------------------------------------

    @property
    def cur(self) -> _Tok:
        return self.tokens[self.pos]

    def fail(self, message: str) -> QuerySyntaxError:
        """A syntax error at the current token."""
        return QuerySyntaxError(*_position(self.text, self.cur.offset), message)

    def error(self, expected: str) -> QuerySyntaxError:
        found = self.cur.text or "end of input"
        return self.fail(f"expected {expected}, found {found!r}")

    def at_keyword(self, *words: str) -> bool:
        return self.cur.kind == "id" and self.cur.text.upper() in words

    def take_keyword(self, word: str) -> None:
        if not self.at_keyword(word):
            raise self.error(word)
        self.pos += 1

    def at_punct(self, text: str) -> bool:
        return self.cur.kind == "punct" and self.cur.text == text

    def take_punct(self, text: str) -> None:
        if not self.at_punct(text):
            raise self.error(repr(text))
        self.pos += 1

    def take_name(self, what: str = "identifier") -> str:
        tok = self.cur
        if tok.kind == "backtick":
            self.pos += 1
            return tok.text[1:-1]
        if tok.kind == "id" and tok.text.upper() not in KEYWORDS:
            self.pos += 1
            return tok.text
        raise self.error(what)

    # -- entry point -------------------------------------------------------

    def parse(self) -> Query:
        clauses = []
        while self.cur.kind != "eof":
            if self.at_keyword("MATCH", "OPTIONAL"):
                clauses.append(self.match_clause())
            elif self.at_keyword("WITH"):
                self.pos += 1
                clauses.append(WithClause(self.items(alias_required=True)))
            elif self.at_keyword("WHERE"):
                self.pos += 1
                clauses.append(WhereClause(self.expression()))
            elif self.at_keyword("UNWIND"):
                self.pos += 1
                expr = self.expression()
                self.take_keyword("AS")
                clauses.append(UnwindClause(expr, self.take_name()))
            elif self.at_keyword("RETURN"):
                self.pos += 1
                clauses.append(ReturnClause(self.items(alias_required=False)))
            else:
                raise self.error("a clause keyword")
        if not clauses or not isinstance(clauses[-1], ReturnClause):
            raise self.fail("query must end with RETURN")
        if sum(isinstance(c, ReturnClause) for c in clauses) > 1:
            raise self.fail("only one RETURN clause is allowed")
        return Query(tuple(clauses))

    # -- clauses -----------------------------------------------------------

    def match_clause(self) -> MatchClause:
        optional = False
        if self.at_keyword("OPTIONAL"):
            optional = True
            self.pos += 1
        self.take_keyword("MATCH")
        return MatchClause(self.pattern(), optional)

    def items(self, alias_required: bool) -> tuple:
        """A WITH or RETURN list of `expr [AS name]`. Where an alias is
        required, a bare variable carries its own name."""
        items = []
        while True:
            expr = self.expression()
            alias = None
            if self.at_keyword("AS"):
                self.pos += 1
                alias = self.take_name()
            elif alias_required:
                if not isinstance(expr, Var):
                    raise self.error("AS")
                alias = expr.name
            items.append((expr, alias))
            if not self.at_punct(","):
                return tuple(items)
            self.pos += 1

    # -- patterns ----------------------------------------------------------

    def pattern(self) -> Pattern:
        path_var = None
        if (
            self.cur.kind in ("id", "backtick")
            and not self.at_keyword(*KEYWORDS)
            and self.tokens[self.pos + 1].kind == "punct"
            and self.tokens[self.pos + 1].text == "="
        ):
            path_var = self.take_name()
            self.take_punct("=")
        nodes = [self.node_pattern()]
        rels = []
        while self.at_punct("-"):
            rels.append(self.rel_pattern())
            nodes.append(self.node_pattern())
        return Pattern(path_var, tuple(nodes), tuple(rels))

    def node_pattern(self) -> NodePattern:
        self.take_punct("(")
        var = None
        label = None
        props = ()
        if self.cur.kind in ("id", "backtick") and not self.at_punct(")"):
            var = self.take_name()
        if self.at_punct(":"):
            self.pos += 1
            label = self.take_name("label")
        if self.at_punct("{"):
            props = self.property_map()
        self.take_punct(")")
        return NodePattern(var, label, props)

    def property_map(self) -> tuple:
        self.take_punct("{")
        entries = []
        if not self.at_punct("}"):
            while True:
                key = self.take_name("property key")
                self.take_punct(":")
                entries.append((key, self.expression()))
                if not self.at_punct(","):
                    break
                self.pos += 1
        self.take_punct("}")
        return tuple(entries)

    def rel_pattern(self) -> RelPattern:
        self.take_punct("-")
        self.take_punct("[")
        rel_type = None
        var_length = None
        if self.at_punct(":"):
            self.pos += 1
            rel_type = self.take_name("relationship type")
        if self.at_punct("*"):
            self.pos += 1
            lo, hi = 1, None
            if self.cur.kind == "num":
                lo = int(self.cur.text)
                self.pos += 1
                if self.at_punct(".."):
                    self.pos += 1
                    if self.cur.kind == "num":
                        hi = int(self.cur.text)
                        self.pos += 1
                else:
                    hi = lo
            var_length = (lo, hi)
        self.take_punct("]")
        if not self.at_punct("->"):
            raise self.error("'->' (only directed right patterns are supported)")
        self.pos += 1
        return RelPattern(rel_type, var_length)

    # -- expressions -------------------------------------------------------

    def expression(self):
        """An expression, by operator precedence over an operand stack and
        an operator stack that also holds each open "(" or function name."""
        operands, ops = [], []
        while True:
            # Prefix NOTs and group openers, then an atom.
            while True:
                if self.at_keyword("NOT") and not (ops and ops[-1] in _COMPARISONS):
                    ops.append("NOT")
                elif self.at_punct("("):
                    ops.append("(")
                elif self.cur.kind == "id" and self.cur.text.upper() in FUNCTIONS:
                    ops.append(self.cur.text.upper())
                    self.pos += 1
                    self.take_punct("(")
                    continue
                else:
                    break
                self.pos += 1
            operands.append(self.atom())
            # Apply the pending operators that bind at least as tightly as
            # what follows: a group closer, a binary operator or the end.
            while True:
                op = self.cur.text.upper() if self.cur.kind in ("id", "punct") else ""
                strength = _BINARY.get(op, 1)
                while ops and _STRENGTH.get(ops[-1], 0) >= strength:
                    pending = ops.pop()
                    if pending == "NOT":
                        operands[-1] = Not(operands[-1])
                    else:
                        right = operands.pop()
                        operands[-1] = Binary(pending, operands[-1], right)
                if op in _BINARY:
                    break
                if not ops:
                    return operands.pop()
                if not self.at_punct(")"):
                    raise self.error("')'")
                self.pos += 1
                opener = ops.pop()
                if opener != "(":
                    operands[-1] = self.postfix(Func(opener, operands[-1]))
            ops.append(op)
            self.pos += 1

    def atom(self):
        tok = self.cur
        if tok.kind == "num":
            self.pos += 1
            value = float(tok.text) if "." in tok.text else int(tok.text)
            return Literal(value)
        if tok.kind == "str":
            self.pos += 1
            return Literal(_unescape(tok.text[1:-1]))
        if tok.kind in ("id", "backtick"):
            return self.postfix(Var(self.take_name()))
        raise self.error("an expression")

    def postfix(self, expr):
        while self.at_punct("."):
            self.pos += 1
            key = self.take_name("property name")
            if not isinstance(expr, Var):
                raise self.fail("property access is only supported on variables")
            expr = Prop(expr.name, key)
        return expr


@functools.lru_cache(maxsize=64)
def parse_query(text: str) -> Query:
    """Parse query text, raising QuerySyntaxError with 1-based line:column
    positions on malformed input.

    The last 64 distinct texts parsed keep their Query, so a text that runs
    again is not parsed again; a text that fails is never kept and raises
    the same error each time. Callers share the kept Query. That is safe
    because the tree is FrozenRecords and tuples, and the evaluator never
    writes to it: a fresh _Evaluator per run keys its caches by id() of
    the tree's nodes. parse_query.cache_clear() forgets every kept parse."""
    return _Parser(text).parse()
