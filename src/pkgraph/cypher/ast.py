"""Query AST for the supported Cypher subset.

A query is a clause pipeline ending in a single RETURN. Patterns are
chains of node patterns joined by directed (right-arrow) relationship
patterns, optionally bound to a path variable.
"""

from __future__ import annotations

from ..graph import FrozenRecord


# -- expressions -------------------------------------------------------------

class Literal(FrozenRecord):
    __slots__ = ("value",)


class Var(FrozenRecord):
    __slots__ = ("name",)


class Prop(FrozenRecord):
    __slots__ = ("var", "key")


class Func(FrozenRecord):
    __slots__ = (
        "name",  # COLLECT | COUNT | SIZE (upper-cased)
        "arg",
    )


class Binary(FrozenRecord):
    __slots__ = (
        "op",  # AND OR > >= < <= = <>
        "left",
        "right",
    )


class Not(FrozenRecord):
    __slots__ = ("operand",)


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

class NodePattern(FrozenRecord):
    __slots__ = (
        "var",
        "label",
        "props",  # of (key, Expr)
    )


class RelPattern(FrozenRecord):
    __slots__ = (
        "type",
        "var_length",  # None = single hop; else (min, max-or-None)
    )


class Pattern(FrozenRecord):
    __slots__ = (
        "path_var",
        "nodes",  # NodePattern, len == len(rels) + 1
        "rels",  # RelPattern
    )


# -- clauses -----------------------------------------------------------------

class MatchClause(FrozenRecord):
    __slots__ = ("pattern", "optional")


class WithClause(FrozenRecord):
    __slots__ = ("items",)  # of (Expr, alias)


class WhereClause(FrozenRecord):
    __slots__ = ("expr",)


class UnwindClause(FrozenRecord):
    __slots__ = ("expr", "alias")


class ReturnClause(FrozenRecord):
    __slots__ = ("items",)  # of (Expr, alias-or-None)


class Query(FrozenRecord):
    __slots__ = ("clauses",)


# -- pretty printing ---------------------------------------------------------

def _quote_ident(name: str) -> str:
    if name.isidentifier():
        return name
    return f"`{name}`"


def expr_text(expr: Expr) -> str:
    """The canonical text of expr, each compound fully parenthesized.
    Pieces go into one list, joined once: no level copies the text of
    the levels below it."""
    pieces = []
    stack = [(False, expr)]  # (True, text) to print as it is, (False, node) to expand
    while stack:
        is_text, node = stack.pop()
        if is_text:
            pieces.append(node)
        elif isinstance(node, Binary):
            pieces.append("(")
            stack += (True, ")"), (False, node.right), (True, f" {node.op} "), (False, node.left)
        elif isinstance(node, Func):
            pieces.append(f"{node.name}(")
            stack += (True, ")"), (False, node.arg)
        elif isinstance(node, Not):
            pieces.append("(NOT ")
            stack += (True, ")"), (False, node.operand)
        elif isinstance(node, Literal):
            if isinstance(node.value, str):
                escaped = node.value.replace("\\", "\\\\").replace('"', '\\"')
                pieces.append(f'"{escaped}"')
            else:
                pieces.append(repr(node.value))
        elif isinstance(node, Var):
            pieces.append(_quote_ident(node.name))
        elif isinstance(node, Prop):
            pieces.append(f"{_quote_ident(node.var)}.{_quote_ident(node.key)}")
        else:
            raise TypeError(f"not an expression: {node!r}")
    return "".join(pieces)


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
