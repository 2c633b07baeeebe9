"""Clause-pipeline evaluation of parsed queries over a sealed graph.

Evaluation threads a binding table (ordered columns, one dict per row)
through the clause list: MATCH joins rows with pattern matches, WITH
projects (grouping when an aggregate appears), WHERE filters, UNWIND
fans lists out into rows, RETURN renders the final table. Null follows
the usual rules: comparisons with null are false, aggregates skip
nulls, property access on null is null.

What follows from the query alone is worked out once, into its plan
(_plan): each clause's columns and the error it raises when it runs
(a column named twice, a variable bound twice), which variable each
pattern level newly binds, which projection items aggregate, the step
lists of compound expressions and what each RETURN item reads. A plan
is made on its query's first run and kept with the parse
(parser._kept_plan), so a text run again pays none of it. It holds no
graph and no evaluator: an _Evaluator holds what depends on its graph,
the scans of literal-only node patterns, and is made per run.
"""

from __future__ import annotations

import operator
from functools import partial

from ..graph import Node, Path, PropertyGraph, Record, values_equal
from ..render import CellTooLong, _texts_of
from . import ast
from .ast import Binary, Func, Literal, MatchClause, Not, Prop, UnwindClause, Var, WhereClause
from .parser import _kept_plan


_ORDERINGS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}


class EvalError(Exception):
    """Base class for query evaluation errors."""


class UnboundVariable(EvalError):
    pass


class TypeMismatch(EvalError):
    pass


class AlreadyBound(EvalError):
    """A path variable or an UNWIND alias names a variable that is
    already bound."""


class DuplicateColumn(EvalError):
    """A WITH or RETURN list names one column twice."""


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


def _finish(level, trail: list, ends: dict, hops: list, bound: dict, path_var) -> list:
    """The results of a pattern's last level, one per hop into it: a copy
    of bound, with the level's new variable bound to the hop's end node
    (ends by id) and path_var to the walk over trail's nodes and then the
    hop. A pattern of one node or one hop binds each hop's Path as it
    is."""
    var = level.var
    paths = hops
    if path_var and len(trail) > 1:
        nodes, edges = [trail[0][1].id], []
        for _, _, step in trail[1:]:
            nodes += step.nodes[1:]
            edges += step.edges
        nodes, edges = tuple(nodes), tuple(edges)
        paths = [Path(nodes + hop.nodes[1:], edges + hop.edges) for hop in hops]
    results = []
    for hop, path in zip(hops, paths):
        result = bound.copy()
        if var:
            result[var] = ends[hop.end]
        if path_var:
            result[path_var] = path
        results.append(result)
    return results


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


# -- plans -------------------------------------------------------------------

class _Level(Record):
    """One node of a pattern and the relationship into it."""

    __slots__ = (
        "rel",  # None for the pattern's first node
        "np",
        "var",  # the variable the level newly binds; None when it binds none
    )


class _Match(Record):
    __slots__ = (
        "levels",
        "path_var",
        "optional",
        "nulls",  # each variable the clause binds, as null: an unmatched optional row's
    )


class _Projection(Record):
    """A WITH or RETURN list."""

    __slots__ = (
        "items",  # (expression, column)
        "aggregated",  # per item: whether it holds an aggregate
        "reads",  # per item: the input column a bare variable names, else None
    )


class _Plan(Record):
    __slots__ = (
        "clauses",  # (error, step) per clause before the RETURN
        "result",  # (error, _Projection) of the RETURN; None when there is none
        "step_lists",  # id(compound expression) -> _steps(expression)
    )


def _repeated(columns: list):
    """The first column named twice in columns, or None."""
    seen = set()
    for column in columns:
        if column in seen:
            return column
        seen.add(column)
    return None


def _plan(query) -> _Plan:
    """query's plan. Each step is the clause's _Match or _Projection, or
    the WHERE or UNWIND clause itself; its error, None or (class,
    message), is raised when the clause runs, before any row reaches it.
    The step lists are those of each compound expression the evaluator
    reads, whole: a WHERE, UNWIND, property filter or non-aggregate item,
    or the argument of an aggregate. The plan holds the query's nodes,
    so their ids are not reused while it is kept."""
    step_lists = {}

    def reads(expr):
        if isinstance(expr, (Binary, Func, Not)) and id(expr) not in step_lists:
            step_lists[id(expr)] = _steps(expr)

    def projection(items, known):
        """The columns and the (error, _Projection) of a WITH or RETURN
        list, known the columns it reads."""
        aggregated = tuple(ast.has_aggregate(expr) for expr, _ in items)
        for (expr, _), aggregate in zip(items, aggregated):
            if aggregate:  # _aggregate reads the aggregate's argument, inside any SIZEs
                while isinstance(expr, Func) and expr.name == "SIZE":
                    expr = expr.arg
                expr = expr.arg if isinstance(expr, Func) else expr
            reads(expr)
        columns = [alias for _, alias in items]
        name = _repeated(columns)
        error = None if name is None else (
            DuplicateColumn, f"column {name!r} is named more than once"
        )
        columns_read = tuple(
            expr.name if isinstance(expr, Var) and expr.name in known else None
            for expr, _ in items
        )
        return columns, (error, _Projection(items, aggregated, columns_read))

    clauses, columns = [], []
    for clause in query.clauses:
        known = set(columns)
        error = None
        if isinstance(clause, MatchClause):
            pattern = clause.pattern
            path_var = pattern.path_var
            if path_var and (path_var in known or path_var in {np.var for np in pattern.nodes}):
                error = (AlreadyBound, f"path variable {path_var!r} is already bound")
            levels, new_vars = [], []
            for rel, np in zip((None, *pattern.rels), pattern.nodes):
                var = np.var if np.var and np.var not in known and np.var not in new_vars else None
                if var:
                    new_vars.append(var)
                levels.append(_Level(rel, np, var))
                for _, expr in np.props:
                    reads(expr)
            if path_var:
                new_vars.append(path_var)
            step = _Match(tuple(levels), path_var, clause.optional, dict.fromkeys(new_vars))
            columns = columns + new_vars
        elif isinstance(clause, ast.WithClause):
            columns, (error, step) = projection(clause.items, known)
        elif isinstance(clause, WhereClause):
            reads(clause.expr)
            step = clause
        elif isinstance(clause, UnwindClause):
            if clause.alias in known:
                error = (AlreadyBound, f"variable {clause.alias!r} is already bound")
            reads(clause.expr)
            step = clause
            columns = columns + [clause.alias]
        elif isinstance(clause, ast.ReturnClause):
            items = tuple((expr, alias or ast.expr_text(expr)) for expr, alias in clause.items)
            return _Plan(tuple(clauses), projection(items, known)[1], step_lists)
        else:
            continue
        clauses.append((error, step))
    return _Plan(tuple(clauses), None, step_lists)


class _Evaluator:
    def __init__(self, graph: PropertyGraph):
        self.graph = graph
        # id(literal-only NodePattern) -> the nodes it matches. Not keyed
        # by the pattern itself: patterns compare equal when their literals
        # do, and 1, 1.0 and True are equal but match different nodes. The
        # query holds each pattern, so an id is not reused while it is kept.
        self._scans = {}
        # id(compound expression) -> _steps(expression): a copy of the
        # running query's plan's, plus any other expression folded.
        self._step_lists = {}

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

    def match_pattern(self, match: _Match, row: dict) -> list:
        """The rows by which match's pattern extends row, each a new dict:
        row plus every variable the pattern binds, its path variable
        included.

        The search is depth-first over an explicit stack of iterators,
        one per level entered, so a long pattern does not recurse. bound
        is the row plus the pattern's bindings so far. The last level is
        not entered: _finish makes one result per hop into it, and an
        empty iterator then takes the search back out of the level before
        it."""
        levels, path_var = match.levels, match.path_var
        bound = dict(row)
        starts = self._candidates(levels[0].np, bound)
        if len(levels) == 1:
            hops = [Path((node.id,), ()) for node in starts]
            return _finish(levels[0], [], {node.id: node for node in starts}, hops, bound, path_var)
        results = []
        last = len(levels) - 1
        used = set()  # ids of the edges matched so far
        trail = []  # (newly bound var, node, hop into it) per level entered
        stack = [((node, None) for node in starts)]
        while stack:
            for node, hop in stack[-1]:
                var = levels[len(trail)].var
                if var:
                    bound[var] = node
                if hop is not None:  # the start node's; a zero-length Path is falsy
                    used.update(hop.edges)
                trail.append((var, node, hop))
                level = levels[len(trail)]
                ends, hops = self._hops(level, node, bound, used)
                if len(trail) < last:
                    stack.append(zip([ends[hop.end] for hop in hops], hops))
                else:
                    results += _finish(level, trail, ends, hops, bound, path_var)
                    stack.append(())
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

    def _hops(self, level: _Level, node: Node, bound: dict, used: set):
        """(ends, hops): each Path by which a match at node goes on over
        level's relationship to a node matching its node pattern, and
        those nodes by id. A single hop's Path is made only once the edge
        and its end have matched; a `*` hop's are the Paths that
        enumerate_paths returned, which already end only at the node
        pattern's candidates. No edge is used twice in the pattern, so a
        `*` hop's Paths are filtered when edges are used already. An end
        variable bound to null matches nothing."""
        rel, np = level.rel, level.np
        if rel.var_length is not None:
            ends = {n.id: n for n in self._candidates(np, bound)}
            hops = self.graph.enumerate_paths(node.id, ends, rel.type, *rel.var_length)
            if used:
                hops = [hop for hop in hops if used.isdisjoint(hop.edges)]
            return ends, hops
        ends, hops = {}, []
        pinned = np.var in bound
        if pinned and _bound_node(np, bound) is None:
            return ends, hops
        _, targets, types = self.graph.edge_columns()
        for edge_id in self.graph.out_edges(node.id):
            if (rel.type is None or types[edge_id - 1] == rel.type) and edge_id not in used:
                end = self.graph.node(targets[edge_id - 1])
                if (not pinned or bound[np.var] is end) and self._node_matches(np, end, bound):
                    ends[end.id] = end
                    hops.append(Path((node.id, end.id), (edge_id,)))
        return ends, hops

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

    def apply_match(self, match: _Match, rows: list) -> list:
        out = []
        for row in rows:
            matches = self.match_pattern(match, row)
            if matches:
                out += matches
            elif match.optional:
                out.append({**row, **match.nulls})
        return out

    def project(self, projection: _Projection, rows: list) -> list:
        """Shared WITH/RETURN projection with aggregate grouping. Without
        a grouping item, all rows form one group, which exists over zero
        rows too, so COUNT reads 0 and COLLECT [] there."""
        items, aggregated = projection.items, projection.aggregated
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
        plan = _kept_plan(query, _plan)
        self._step_lists = dict(plan.step_lists)
        rows = [{}]
        for error, step in plan.clauses:
            if error is not None:
                raise error[0](error[1])
            if type(step) is _Match:
                rows = self.apply_match(step, rows)
            elif type(step) is _Projection:
                rows = self.project(step, rows)
            elif type(step) is WhereClause:
                rows = [r for r in rows if self.scalar(step.expr, r) is True]
            else:  # UNWIND
                out = []
                for row in rows:
                    value = self.scalar(step.expr, row)
                    if value is None:
                        continue
                    elements = value if isinstance(value, list) else [value]
                    for element in elements:
                        out.append({**row, step.alias: element})
                rows = out
        if plan.result is None:
            raise TypeMismatch("query has no RETURN clause")  # parser guarantees otherwise
        error, projection = plan.result
        if error is not None:
            raise error[0](error[1])
        return self.result_table(projection, rows)

    def result_table(self, projection: _Projection, rows: list) -> ResultTable:
        """The RETURN's table. Every row is evaluated before any is
        rendered, so an evaluation error comes before a rendering error;
        an item that reads an input column cannot fail, so when every
        item does, each row is read and rendered in one step. Every cell
        goes through one renderer, which fetched the graph's text table
        once."""
        columns = [alias for _, alias in projection.items]
        cell = _texts_of(self.graph).cell
        reads = projection.reads
        try:
            if any(projection.aggregated):
                rendered = [
                    tuple([cell(row[c]) for c in columns]) for row in self.project(projection, rows)
                ]
            elif None not in reads:
                rendered = [tuple([cell(row[c]) for c in reads]) for row in rows]
            else:
                readers = [
                    partial(self.scalar, expr) if column is None else operator.itemgetter(column)
                    for (expr, _), column in zip(projection.items, reads)
                ]
                values = [[read(row) for read in readers] for row in rows]
                rendered = [tuple(map(cell, row)) for row in values]
        except CellTooLong as exc:
            raise EvalError(str(exc)) from None
        rendered.sort()
        return ResultTable(columns, rendered)


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
