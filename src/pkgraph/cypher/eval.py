"""Clause-pipeline evaluation of parsed queries over a sealed graph.

Evaluation threads a binding table (ordered columns, one dict per row)
through the clause list: MATCH joins rows with pattern matches, WITH
projects (grouping when an aggregate appears), WHERE filters, UNWIND
fans lists out into rows, RETURN renders the final table. Null follows
the usual rules: comparisons with null are false, aggregates skip
nulls, property access on null is null.
"""

from __future__ import annotations

import operator

from ..graph import Node, Path, PropertyGraph, Record, values_equal
from ..render import CellTooLong, render_value
from . import ast
from .ast import Binary, Func, Literal, Not, Prop, Var


_ORDERINGS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}


class EvalError(Exception):
    """Base class for query evaluation errors."""


class UnboundVariable(EvalError):
    pass


class TypeMismatch(EvalError):
    pass


class AlreadyBound(EvalError):
    """A path variable names a variable that is already bound."""


class DuplicateColumn(EvalError):
    """A WITH or RETURN list names one column twice."""


def _distinct_columns(items) -> list:
    """The column names of a WITH or RETURN list, which must differ."""
    columns = [alias for _, alias in items]
    seen = set()
    for column in columns:
        if column in seen:
            raise DuplicateColumn(f"column {column!r} is named more than once")
        seen.add(column)
    return columns


class ResultTable(Record):
    __slots__ = (
        "columns",
        "rows",  # tuples of rendered strings
    )


def _group_key(value, by_id: dict, by_items: dict):
    """value's grouping key: equal values get equal keys. by_id and
    by_items serve one projection. by_id maps id(list) -> (list, key) for
    each list keyed so far, so a list held many times is expanded once.
    by_items maps the element keys of each distinct list to its key,
    ("list", n) with n counting distinct lists, so hashing a key never
    walks into a nested list."""
    if isinstance(value, Node):
        return ("node", value.id)
    if isinstance(value, Path):
        return ("path", value.nodes, value.edges)
    if isinstance(value, list):
        kept = by_id.get(id(value))
        if kept is None:
            items = tuple(_group_key(v, by_id, by_items) for v in value)
            key = by_items.setdefault(items, ("list", len(by_items)))
            kept = by_id[id(value)] = (value, key)
        return kept[1]
    return (type(value).__name__, value)


def _bound_node(np, bound: dict):
    """The node np's variable is bound to, or None when it is bound to
    null. Any other value is an error."""
    node = bound[np.var]
    if node is not None and not isinstance(node, Node):
        raise TypeMismatch(f"pattern variable {np.var!r} is not bound to a node")
    return node


def _walk(trail: list, end: Node, hop) -> Path:
    """The path of a finished match: the nodes and hops of trail, then hop
    into end, each hop a Path. A match of one hop walks that hop's Path,
    which is handed on as it is."""
    if not trail:
        return Path((end.id,), ())
    if len(trail) == 1:
        return hop
    nodes, edges = [trail[0][1].id], []
    for step in [step for _, _, step in trail[1:]] + [hop]:
        nodes += step.nodes[1:]
        edges += step.edges
    return Path(tuple(nodes), tuple(edges))


#: How deep COLLECT may nest lists. Rendering, grouping and comparing a
#: list recurse once per level, so this keeps them far from the
#: interpreter's recursion limit.
MAX_LIST_DEPTH = 100


def _list_depth(value: list) -> int:
    """How deep lists nest in value, a list: 1 when no element is a list.
    Each level is a set of distinct lists, so shared sublists are not
    walked twice in it."""
    depth, level = 0, [value]
    while level:
        depth += 1
        level = list({id(v): v for x in level for v in x if isinstance(v, list)}.values())
    return depth


_ENTER = object()  # the kind of a step that enters a function other than SIZE


def _steps(expr) -> list:
    """The (kind, node) steps by which scalar folds expr: the exit event
    of each node of ast.walk(expr), kind being the node's type, and the
    entry of each function but SIZE, which raises. They are the same for
    every row, so the evaluator keeps them per query. The last step holds
    expr, so id(expr) is not reused while they are kept."""
    return [
        (_ENTER if entering else type(node), node)
        for entering, node in ast.walk(expr)
        if not entering or isinstance(node, Func) and node.name != "SIZE"
    ]


def _size(value, expr: Func) -> int:
    """SIZE(value): null counts as an empty list."""
    if value is None:
        return 0
    if not isinstance(value, list):
        raise TypeMismatch(f"SIZE of non-list: {ast.expr_text(expr)}")
    return len(value)


class _Evaluator:
    def __init__(self, graph: PropertyGraph):
        self.graph = graph
        # id(literal-only NodePattern) -> the nodes it matches. Not keyed
        # by the pattern itself: patterns compare equal when their literals
        # do, and 1, 1.0 and True are equal but match different nodes. The
        # query holds each pattern, so an id is not reused while it is kept.
        self._scans = {}
        self._step_lists = {}  # id(compound expression) -> _steps(expression)

    # -- scalar expressions ------------------------------------------------

    def scalar(self, expr, row: dict):
        """expr's value under row. A leaf is read here directly; a compound
        expression is folded over its walk with a stack of values, and an
        aggregate raises on entry, before its argument is evaluated."""
        if isinstance(expr, Literal):
            return expr.value
        if isinstance(expr, Var):
            if expr.name not in row:
                raise UnboundVariable(f"unbound variable {expr.name!r}")
            return row[expr.name]
        if isinstance(expr, Prop):
            if expr.var not in row:
                raise UnboundVariable(f"unbound variable {expr.var!r} in {expr.var}.{expr.key}")
            subject = row[expr.var]
            if subject is None:
                return None
            if not isinstance(subject, Node):
                raise TypeMismatch(f"{expr.var}.{expr.key}: {expr.var} is not a node")
            return subject.properties.get(expr.key)
        steps = self._step_lists.get(id(expr))
        if steps is None:
            steps = self._step_lists[id(expr)] = _steps(expr)
        values = []
        for kind, node in steps:
            if kind is Binary:
                right = values.pop()
                values[-1] = self._binary(node, values[-1], right)
            elif kind is Literal:
                values.append(node.value)
            elif kind is Var or kind is Prop:
                values.append(self.scalar(node, row))
            elif kind is Func:
                values[-1] = _size(values[-1], node)
            elif kind is Not:
                values[-1] = None if values[-1] is None else not values[-1]
            elif kind is _ENTER and node.name in ast.AGGREGATES:
                raise TypeMismatch(f"{node.name} is only allowed in WITH/RETURN projections")
            elif kind is _ENTER:
                raise TypeMismatch(f"unknown function {node.name}")
            else:
                raise TypeMismatch(f"cannot evaluate {node!r}")
        return values[0]

    def _binary(self, expr: Binary, left, right):
        if expr.op == "AND":
            if left is False or right is False:
                return False
            return None if left is None or right is None else bool(left and right)
        if expr.op == "OR":
            if left is True or right is True:
                return True
            return None if left is None or right is None else bool(left or right)
        if left is None or right is None:
            return None
        if expr.op == "=":
            return self._equal(left, right)
        if expr.op == "<>":
            return not self._equal(left, right)
        if not isinstance(left, (int, float)) or not isinstance(right, (int, float)):
            raise TypeMismatch(
                f"ordering comparison on non-numeric operands: {ast.expr_text(expr)}"
            )
        return _ORDERINGS[expr.op](left, right)

    @staticmethod
    def _equal(left, right) -> bool:
        """Two lists are equal when grouping would put them together:
        their keys, built with one shared numbering, are equal. Each
        distinct list is keyed once, however many times it is held."""
        if isinstance(left, Node) or isinstance(right, Node):
            return left is right
        if isinstance(left, list) and isinstance(right, list):
            by_id, by_items = {}, {}
            return _group_key(left, by_id, by_items) == _group_key(right, by_id, by_items)
        return values_equal(left, right)

    # -- pattern matching --------------------------------------------------

    def match_pattern(self, pattern, row: dict) -> list:
        """The rows by which the pattern extends row, each a new dict: row
        plus every variable the pattern binds, its path variable included.

        The search is depth-first over an explicit stack of lazy
        iterators, one per matched node, so a long pattern does not
        recurse. bound is the row plus the pattern's bindings so far, so
        a finished match is one copy of it."""
        results = []
        bound = dict(row)
        path_var = pattern.path_var
        last = len(pattern.rels)
        used = set()  # ids of the edges matched so far
        trail = []  # (newly bound var, node, hop into it) per node before the last
        stack = [((n, None) for n in self._candidates(pattern.nodes[0], bound))]
        while stack:
            for node, hop in stack[-1]:
                var = pattern.nodes[len(trail)].var
                var = var if var and var not in bound else None
                if len(trail) == last:
                    result = dict(bound)
                    if var:
                        result[var] = node
                    if path_var:
                        result[path_var] = _walk(trail, node, hop)
                    results.append(result)
                    continue
                if var:
                    bound[var] = node
                if hop is not None:  # the start node's; a zero-length Path is falsy
                    used.update(hop.edges)
                trail.append((var, node, hop))
                rel, np = pattern.rels[len(trail) - 1], pattern.nodes[len(trail)]
                stack.append(self._extend(rel, np, node, bound, used))
                break
            else:
                stack.pop()
                if trail:
                    var, _, hop = trail.pop()
                    if hop is not None:
                        used.difference_update(hop.edges)
                    if var:
                        del bound[var]
        return results

    def _extend(self, rel, np, node: Node, bound: dict, used: set):
        """Each (end, hop) by which a match at node goes on over rel to a
        node matching np, hop the Path from node to end. A single hop's
        Path is made only once the edge and its end have matched; a `*`
        hop's is the Path that enumerate_paths returned, which already
        ends only at np's candidates. No edge is used twice in the
        pattern. An end variable bound to null matches nothing."""
        pinned = np.var in bound
        if pinned and _bound_node(np, bound) is None:
            return
        if rel.var_length is None:
            _, targets, types = self.graph.edge_columns()
            for edge_id in self.graph.out_edges(node.id):
                if (rel.type is None or types[edge_id - 1] == rel.type) and edge_id not in used:
                    end = self.graph.node(targets[edge_id - 1])
                    if (not pinned or bound[np.var] is end) and self._node_matches(
                        np, end, bound
                    ):
                        yield end, Path((node.id, end.id), (edge_id,))
        else:
            ends = {n.id: n for n in self._candidates(np, bound)}
            for path in self.graph.enumerate_paths(node.id, ends, rel.type, *rel.var_length):
                if used.isdisjoint(path.edges):
                    yield ends[path.end], path

    def _candidates(self, np, bound: dict) -> list:
        """The nodes np matches under bound: its variable's node if bound,
        else a scan. A pattern whose property filters are all literals
        matches the same nodes on every row, so its scan runs once per
        query; with a label, and each key given once and not null, the
        graph's find_nodes does that scan. Otherwise the label's nodes
        are narrowed one filter at a time, each filter's value evaluated
        once against the row and only while some node is left, so a
        filter that cannot be evaluated raises only when a node would
        have been tested against it."""
        if np.var in bound:
            node = _bound_node(np, bound)
            return [node] if node is not None and self._node_matches(np, node, bound) else []
        cacheable = all(isinstance(expr, Literal) for _, expr in np.props)
        if cacheable and id(np) in self._scans:
            return self._scans[id(np)]
        filters = {key: expr.value for key, expr in np.props} if cacheable else {}
        if np.label is not None and cacheable and len(filters) == len(np.props) and (
            None not in filters.values()
        ):
            found = self.graph.find_nodes(np.label, filters)
        else:
            found = self.graph.find_nodes(np.label) if np.label is not None else list(
                self.graph.nodes()
            )
            for key, expr in np.props:
                if not found:
                    break
                want = self.scalar(expr, bound)
                found = [] if want is None else [
                    n for n in found if key in n.properties and values_equal(want, n.properties[key])
                ]
        if cacheable:
            self._scans[id(np)] = found
        return found

    def _node_matches(self, np, node: Node, row: dict) -> bool:
        if np.label is not None and node.label != np.label:
            return False
        for key, expr in np.props:
            want = self.scalar(expr, row)
            if want is None:
                return False
            if key not in node.properties or not values_equal(want, node.properties[key]):
                return False
        return True

    # -- clauses -----------------------------------------------------------

    def apply_match(self, clause, columns: list, rows: list):
        pattern = clause.pattern
        path_var = pattern.path_var
        if path_var and (path_var in columns or path_var in {np.var for np in pattern.nodes}):
            raise AlreadyBound(f"path variable {path_var!r} is already bound")
        new_vars = []
        for np in pattern.nodes:
            if np.var and np.var not in columns and np.var not in new_vars:
                new_vars.append(np.var)
        if path_var:
            new_vars.append(path_var)
        out = []
        for row in rows:
            matches = self.match_pattern(pattern, row)
            if matches:
                out += matches
            elif clause.optional:
                out.append({**row, **dict.fromkeys(new_vars)})
        return columns + new_vars, out

    def project(self, items, rows: list):
        """Shared WITH/RETURN projection with aggregate grouping. Without
        a grouping item, all rows form one group, which exists over zero
        rows too, so COUNT reads 0 and COLLECT [] there."""
        aggregated = [ast.has_aggregate(expr) for expr, _ in items]
        if not any(aggregated):
            return [
                {alias: self.scalar(expr, row) for expr, alias in items} for row in rows
            ]
        key_items = [item for item, agg in zip(items, aggregated) if not agg]
        agg_items = [item for item, agg in zip(items, aggregated) if agg]
        groups = {} if key_items else {(): ({}, [])}
        by_id, by_items = {}, {}
        for row in rows:
            key_values = {alias: self.scalar(expr, row) for expr, alias in key_items}
            key = tuple(_group_key(key_values[alias], by_id, by_items) for _, alias in key_items)
            if key not in groups:
                groups[key] = (key_values, [])
            groups[key][1].append(row)
        out = []
        for key_values, member_rows in groups.values():
            projected = dict(key_values)
            for expr, alias in agg_items:
                projected[alias] = self._aggregate(expr, member_rows)
            out.append(projected)
        return out

    def _aggregate(self, expr, rows: list):
        sizes = []  # the SIZE calls around the aggregate, outermost first
        while isinstance(expr, Func) and expr.name == "SIZE":
            sizes.append(expr)
            expr = expr.arg
        if not isinstance(expr, Func) or expr.name not in ast.AGGREGATES:
            raise TypeMismatch(f"unsupported aggregate expression: {ast.expr_text(expr)}")
        values = [self.scalar(expr.arg, row) for row in rows]
        value = [v for v in values if v is not None]
        if expr.name == "COUNT":
            value = len(value)
        elif _list_depth(value) > MAX_LIST_DEPTH:
            raise TypeMismatch(
                f"lists nested more than {MAX_LIST_DEPTH} deep: {ast.expr_text(expr)}"
            )
        for size in reversed(sizes):
            value = _size(value, size)
        return value

    # -- pipeline ----------------------------------------------------------

    def execute(self, query) -> ResultTable:
        columns = []
        rows = [{}]
        for clause in query.clauses:
            if isinstance(clause, ast.MatchClause):
                columns, rows = self.apply_match(clause, columns, rows)
            elif isinstance(clause, ast.WithClause):
                columns = _distinct_columns(clause.items)
                rows = self.project(clause.items, rows)
            elif isinstance(clause, ast.WhereClause):
                rows = [r for r in rows if self.scalar(clause.expr, r) is True]
            elif isinstance(clause, ast.UnwindClause):
                out = []
                for row in rows:
                    value = self.scalar(clause.expr, row)
                    if value is None:
                        continue
                    elements = value if isinstance(value, list) else [value]
                    for element in elements:
                        out.append({**row, clause.alias: element})
                rows = out
                if clause.alias not in columns:
                    columns = columns + [clause.alias]
            elif isinstance(clause, ast.ReturnClause):
                items = [
                    (expr, alias or ast.expr_text(expr)) for expr, alias in clause.items
                ]
                out_columns = _distinct_columns(items)
                # Every row is evaluated before any is rendered, so an
                # evaluation error comes before a rendering error.
                if any(ast.has_aggregate(expr) for expr, _ in items):
                    values = [
                        [row[c] for c in out_columns] for row in self.project(items, rows)
                    ]
                else:
                    values = [[self.scalar(expr, row) for expr, _ in items] for row in rows]
                try:
                    rendered = [
                        tuple(render_value(value, self.graph) for value in row)
                        for row in values
                    ]
                except CellTooLong as exc:
                    raise EvalError(str(exc)) from None
                rendered.sort()
                return ResultTable(out_columns, rendered)
        raise TypeMismatch("query has no RETURN clause")  # parser guarantees otherwise


def execute_query(query, graph: PropertyGraph) -> ResultTable:
    """Run a parsed query over a sealed graph; deterministic output
    (rows canonically sorted by their rendered tuples)."""
    return _Evaluator(graph).execute(query)


def format_result_table(table: ResultTable) -> str:
    """Pipe-delimited rendering: header row, then one line per row."""
    lines = [" | ".join(table.columns).rstrip()]
    for row in table.rows:
        lines.append(" | ".join(row).rstrip())
    lines.append("")  # the last line's newline, without copying the table again
    return "\n".join(lines)
