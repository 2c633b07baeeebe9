"""Query AST for the supported Cypher subset.

A query is a clause pipeline ending in a single RETURN. Patterns are
chains of node patterns joined by directed (right-arrow) relationship
patterns, optionally bound to a path variable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple


# -- expressions -------------------------------------------------------------

@dataclass(frozen=True)
class Literal:
    value: object


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Prop:
    var: str
    key: str


@dataclass(frozen=True)
class Func:
    name: str  # COLLECT | COUNT | SIZE (upper-cased)
    arg: "Expr"


@dataclass(frozen=True)
class Binary:
    op: str  # AND OR > >= < <= = <>
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Not:
    operand: "Expr"


Expr = object

AGGREGATES = {"COLLECT", "COUNT"}


def walk(expr: Expr):
    """Depth-first events over expr, children left to right, without
    recursion: (True, node) on entering a node, (False, node) on leaving
    it. A node that is not a Func, Binary or Not is a leaf."""
    stack = [(True, expr)]
    while stack:
        entering, node = event = stack.pop()
        yield event
        if entering:
            stack.append((False, node))
            if isinstance(node, Binary):
                stack += (True, node.right), (True, node.left)
            elif isinstance(node, Func):
                stack.append((True, node.arg))
            elif isinstance(node, Not):
                stack.append((True, node.operand))


def has_aggregate(expr: Expr) -> bool:
    if not isinstance(expr, (Func, Binary, Not)):
        return False  # a leaf, as most projection items are: no walk needed
    return any(isinstance(node, Func) and node.name in AGGREGATES for _, node in walk(expr))


# -- patterns ----------------------------------------------------------------

@dataclass(frozen=True)
class NodePattern:
    var: Optional[str]
    label: Optional[str]
    props: Tuple  # of (key, Expr)


@dataclass(frozen=True)
class RelPattern:
    type: Optional[str]
    var_length: Optional[Tuple]  # None = single hop; else (min, max-or-None)


@dataclass(frozen=True)
class Pattern:
    path_var: Optional[str]
    nodes: Tuple  # NodePattern, len == len(rels) + 1
    rels: Tuple  # RelPattern


# -- clauses -----------------------------------------------------------------

@dataclass(frozen=True)
class MatchClause:
    pattern: Pattern
    optional: bool


@dataclass(frozen=True)
class WithClause:
    items: Tuple  # of (Expr, alias)


@dataclass(frozen=True)
class WhereClause:
    expr: Expr


@dataclass(frozen=True)
class UnwindClause:
    expr: Expr
    alias: str


@dataclass(frozen=True)
class ReturnClause:
    items: Tuple  # of (Expr, alias-or-None)


@dataclass(frozen=True)
class Query:
    clauses: Tuple


# -- pretty printing ---------------------------------------------------------

def _quote_ident(name: str) -> str:
    if name.isidentifier():
        return name
    return f"`{name}`"


def expr_text(expr: Expr) -> str:
    texts = []  # a stack: the text of each finished subexpression
    for entering, node in walk(expr):
        if entering:
            continue
        if isinstance(node, Literal):
            if isinstance(node.value, str):
                escaped = node.value.replace("\\", "\\\\").replace('"', '\\"')
                texts.append(f'"{escaped}"')
            else:
                texts.append(repr(node.value))
        elif isinstance(node, Var):
            texts.append(_quote_ident(node.name))
        elif isinstance(node, Prop):
            texts.append(f"{_quote_ident(node.var)}.{_quote_ident(node.key)}")
        elif isinstance(node, Func):
            texts[-1] = f"{node.name}({texts[-1]})"
        elif isinstance(node, Binary):
            right = texts.pop()
            texts[-1] = f"({texts[-1]} {node.op} {right})"
        elif isinstance(node, Not):
            texts[-1] = f"(NOT {texts[-1]})"
        else:
            raise TypeError(f"not an expression: {node!r}")
    return texts[0]


def _node_pattern_text(np: NodePattern) -> str:
    parts = np.var or ""
    if np.label:
        parts += f":{np.label}"
    if np.props:
        body = ", ".join(f"{_quote_ident(k)}: {expr_text(e)}" for k, e in np.props)
        parts += ("" if not parts else " ") + "{" + body + "}"
    return f"({parts})"


def _rel_pattern_text(rp: RelPattern) -> str:
    inner = f":{rp.type}" if rp.type else ""
    if rp.var_length is not None:
        lo, hi = rp.var_length
        if lo == 1 and hi is None:
            inner += "*"
        elif hi is None:
            inner += f"*{lo}.."
        else:
            inner += f"*{lo}..{hi}"
    return f"-[{inner}]->"


def pattern_text(pattern: Pattern) -> str:
    out = f"{pattern.path_var} = " if pattern.path_var else ""
    out += _node_pattern_text(pattern.nodes[0])
    for rel, node in zip(pattern.rels, pattern.nodes[1:]):
        out += _rel_pattern_text(rel) + _node_pattern_text(node)
    return out


def query_text(query: Query) -> str:
    """Canonical text form; parsing it reproduces an equal AST."""
    lines = []
    for clause in query.clauses:
        if isinstance(clause, MatchClause):
            keyword = "OPTIONAL MATCH" if clause.optional else "MATCH"
            lines.append(f"{keyword} {pattern_text(clause.pattern)}")
        elif isinstance(clause, WithClause):
            items = ", ".join(f"{expr_text(e)} AS {_quote_ident(a)}" for e, a in clause.items)
            lines.append(f"WITH {items}")
        elif isinstance(clause, WhereClause):
            lines.append(f"WHERE {expr_text(clause.expr)}")
        elif isinstance(clause, UnwindClause):
            lines.append(f"UNWIND {expr_text(clause.expr)} AS {_quote_ident(clause.alias)}")
        elif isinstance(clause, ReturnClause):
            items = ", ".join(
                expr_text(e) + (f" AS {_quote_ident(a)}" if a else "") for e, a in clause.items
            )
            lines.append(f"RETURN {items}")
        else:
            raise TypeError(f"not a clause: {clause!r}")
    return "\n".join(lines)
