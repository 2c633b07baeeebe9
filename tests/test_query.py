import collections
import io
import itertools
import random
import sys
import threading

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (
    DATA,
    DOUBLE_FREE_INTERPROC_SRC,
    DOUBLE_FREE_SRC,
    call_graph_of,
    catalog_entry,
    edge_rows,
    merged_graph_of,
)
from pkgraph.cli import run_cli
from pkgraph.cypher import ast
from pkgraph.cypher.ast import Binary, Func, Literal, Not, Prop, Var
from pkgraph.cypher.eval import (
    MAX_LIST_DEPTH,
    AlreadyBound,
    DuplicateColumn,
    TypeMismatch,
    UnboundVariable,
    _Evaluator,
    _group_key,
    _list_depth,
    _plan,
    _size,
    execute_query,
    format_result_table,
)
from pkgraph.cypher.parser import FUNCTIONS, QuerySyntaxError, _Parser, _plans, parse_query
from pkgraph.detectors import generate_detection_query
from pkgraph.graph import Node, Path, PropertyGraph, values_equal
from pkgraph.render import MAX_CELL_CHARS, render_node, render_value
from pkgraph.vulndata import CweRecord
from test_acceptance import REFERENCE_DOUBLE_RELEASE_QUERY

DETECTION_QUERY = generate_detection_query(catalog_entry("CWE-415"), "foo")

TABLE3_PATH1 = (
    '(:CallGraph {ExecOrder: 1, Name: "foo"})'
    '-[:CALLS]->(:CallGraph {Argument1: "ptr", ExecOrder: 6, Name: "free"})'
)
TABLE3_PATH2 = (
    '(:CallGraph {ExecOrder: 1, Name: "foo"})'
    '-[:CALLS]->(:CallGraph {Argument1: "ptr", ExecOrder: 7, Name: "free"})'
)


class TestParseQuery:
    def test_detection_query_clause_shape(self):
        query = parse_query(DETECTION_QUERY)
        kinds = [type(c).__name__ for c in query.clauses]
        assert kinds == [
            "MatchClause",
            "MatchClause",
            "WithClause",
            "WithClause",
            "WhereClause",
            "UnwindClause",
            "MatchClause",
            "ReturnClause",
        ]
        assert query.clauses[1].optional
        final_match = query.clauses[6]
        assert final_match.pattern.path_var == "path"
        assert final_match.pattern.rels[0].var_length == (1, None)

    def test_minimal_query(self):
        query = parse_query("MATCH (n) RETURN n")
        assert len(query.clauses) == 2

    def test_unclosed_pattern(self):
        with pytest.raises(QuerySyntaxError):
            parse_query("MATCH (n RETURN n")

    def test_missing_return(self):
        with pytest.raises(QuerySyntaxError):
            parse_query("MATCH (n)")

    def test_two_returns_rejected(self):
        with pytest.raises(QuerySyntaxError):
            parse_query("MATCH (n) RETURN n RETURN n")

    def test_left_arrow_rejected(self):
        with pytest.raises(QuerySyntaxError):
            parse_query("MATCH (a)<-[:CALLS]-(b) RETURN a")

    def test_keywords_case_insensitive(self):
        query = parse_query("match (n:CWE) return n")
        assert query.clauses[0].pattern.nodes[0].label == "CWE"

    def test_backtick_identifiers(self):
        query = parse_query('MATCH (c:CWE {`CWE-ID`: "CWE-415"}) RETURN c.`Function Events`')
        assert query.clauses[0].pattern.nodes[0].props[0][0] == "CWE-ID"
        expr = query.clauses[1].items[0][0]
        assert expr == ast.Prop("c", "Function Events")

    def test_error_position_is_line_column(self):
        with pytest.raises(QuerySyntaxError) as exc:
            parse_query("MATCH (n)\nRETURN ,")
        assert exc.value.line == 2

    @pytest.mark.parametrize(
        "text, position",
        [
            ('RETURN "a\nb" x', (2, 4)),
            ("MATCH (`a\nb c`) WITH n.x RETURN n", (2, 16)),
            ("MATCH (n)\n  // note\n RETURN $", (3, 9)),
        ],
    )
    def test_error_position_counts_lines_in_tokens(self, text, position):
        with pytest.raises(QuerySyntaxError) as exc:
            parse_query(text)
        assert (exc.value.line, exc.value.column) == position

    @pytest.mark.parametrize(
        "text",
        [
            DETECTION_QUERY,
            "MATCH (n) RETURN n",
            "MATCH (n:CallGraph {ExecOrder: 3}) WHERE n.Name <> \"free\" RETURN n.Name AS nm",
            "MATCH (a)-[:CALLS*2..4]->(b) RETURN a, b",
            "UNWIND x AS y RETURN y",
            "MATCH (n) WITH COUNT(n) AS c WHERE c > 1 AND NOT c >= 10 RETURN c",
        ],
    )
    def test_pretty_print_round_trip(self, text):
        query = parse_query(text)
        printed = ast.query_text(query)
        assert parse_query(printed) == query


class TestKeptParse:
    """parse_query keeps the Query of each of the last 64 texts and hands
    the same tree to every caller, which must not change what it answers."""

    SHARED_TEXTS = [
        generate_detection_query(catalog_entry("CWE-242"), "main"),
        generate_detection_query(catalog_entry("CWE-415"), "main"),
        REFERENCE_DOUBLE_RELEASE_QUERY,
    ]

    def test_a_text_parsed_again_is_the_same_query(self):
        text = self.SHARED_TEXTS[1]
        assert parse_query(text) is parse_query(text)

    @pytest.mark.parametrize("text", SHARED_TEXTS, ids=["CWE-242", "CWE-415", "reference"])
    @pytest.mark.parametrize("order", [(0, 1, 2), (2, 1, 0)], ids=["forward", "backward"])
    def test_one_query_over_several_graphs(self, text, order):
        sources = [DOUBLE_FREE_SRC, DOUBLE_FREE_INTERPROC_SRC, GETS_SAMPLE.read_text()]
        graphs = [merged_graph_of(source)[0] for source in sources]
        parse_query.cache_clear()
        query = parse_query(text)
        tables = []
        for index in order:
            tables.append(execute_query(query, graphs[index]))
            assert tables[-1] == execute_query(_Parser(text).parse(), graphs[index])
        assert parse_query(text) is query
        assert any(table.rows for table in tables)

    def test_a_bad_text_raises_the_same_error_each_time(self):
        parse_query.cache_clear()
        errors = []
        for _ in range(2):
            with pytest.raises(QuerySyntaxError) as exc:
                parse_query("MATCH (n)\nRETURN ,")
            errors.append((exc.value.line, exc.value.column, exc.value.message))
        assert errors[0] == errors[1] == (2, 8, "expected an expression, found ','")
        assert parse_query.cache_info().currsize == 0

    @pytest.mark.parametrize("shouting_first", [True, False], ids=["subclass-first", "subclass-last"])
    def test_no_plan_holds_an_evaluator(self, shouting_first):
        """One Query run by an evaluator whose scalar differs and by
        _Evaluator, in either order, gives each its own table: the plan
        the first run keeps holds neither evaluator's scalar."""

        class Shouting(_Evaluator):
            def scalar(self, expr, row):
                value = super().scalar(expr, row)
                return value.upper() if isinstance(value, str) else value

        graph = merged_graph_of(GETS_SAMPLE.read_text())[0]
        parse_query.cache_clear()
        query = parse_query('MATCH (n:CallGraph) WHERE n.Name <> "GETS" RETURN n.Name, n')
        order = [Shouting, _Evaluator] if shouting_first else [_Evaluator, Shouting]
        tables = {cls: cls(graph).execute(query) for cls in order}
        plain = tables[_Evaluator].rows
        assert [name for name, _ in plain].count("gets") == 1
        assert tables[Shouting].rows == sorted(
            (name.upper(), node) for name, node in plain if name != "gets"
        )

    def test_threads_share_the_kept_plans(self):
        """Eight threads run 80 texts, more than the 64 plans kept, so
        plans are made, kept and dropped while other threads read them;
        every table is the one a lone run gives."""
        graph = merged_graph_of(GETS_SAMPLE.read_text())[0]
        texts = [f'MATCH (n:CallGraph) WHERE n.ExecOrder > {i} RETURN n.Name, {i} AS i'
                 for i in range(80)]
        want = {text: execute_query(_Parser(text).parse(), graph) for text in texts}
        parse_query.cache_clear()
        errors = []

        def run(offset):
            try:
                for _ in range(3):
                    for text in texts[offset:] + texts[:offset]:
                        assert execute_query(parse_query(text), graph) == want[text], text
            except Exception as exc:  # reported by the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(10 * k,)) for k in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(_plans) == 64

    def test_only_the_last_64_texts_are_kept(self):
        parse_query.cache_clear()
        texts = [f"RETURN {i} AS v" for i in range(65)]
        first = parse_query(texts[0])
        for text in texts[1:]:
            parse_query(text)
        assert parse_query.cache_info().currsize == 64
        again = parse_query(texts[0])
        assert again is not first and again == first


class TestExecuteQuery:
    def test_detection_query_returns_both_paths(self):
        graph, _, _ = merged_graph_of(DOUBLE_FREE_SRC)
        table = execute_query(parse_query(DETECTION_QUERY), graph)
        assert table.columns == ["path"]
        assert table.rows == [(TABLE3_PATH1,), (TABLE3_PATH2,)]

    def test_single_free_no_rows(self):
        graph, _, _ = merged_graph_of("void foo() { char* p; free(p); }")
        table = execute_query(parse_query(DETECTION_QUERY), graph)
        assert table.rows == []

    def test_zero_length_path_listed_once(self):
        graph, _ = call_graph_of("void main() { free(p); }")
        table = execute_query(
            parse_query('MATCH path=(a:CallGraph {Name: "main"})-[*0..1]->(b) RETURN path'),
            graph,
        )
        assert table.rows == [
            ('(:CallGraph {ExecOrder: 1, Name: "main"})',),
            (
                '(:CallGraph {ExecOrder: 1, Name: "main"})'
                '-[:CALLS]->(:CallGraph {Argument1: "p", ExecOrder: 2, Name: "free"})',
            ),
        ]

    def test_count_group_by(self):
        graph, _ = call_graph_of(DOUBLE_FREE_SRC)
        table = execute_query(
            parse_query("MATCH (n:CallGraph) WITH n.Name AS nm, COUNT(n) AS c RETURN nm, c"),
            graph,
        )
        assert len(table.rows) == 6  # distinct names: foo + 5 callees
        assert ("free", "2") in table.rows

    def test_optional_match_keeps_null_row(self):
        graph, _ = call_graph_of(DOUBLE_FREE_SRC)
        table = execute_query(
            parse_query('OPTIONAL MATCH (n:CallGraph {Name: "nothing"}) RETURN n'),
            graph,
        )
        assert table.rows == [("null",)]

    def test_null_comparison_filters_row(self):
        graph, _ = call_graph_of(DOUBLE_FREE_SRC)
        table = execute_query(
            parse_query(
                'OPTIONAL MATCH (n:CallGraph {Name: "nothing"}) '
                "WHERE n.ExecOrder > 0 RETURN n"
            ),
            graph,
        )
        assert table.rows == []

    def test_membership_filter_from_property(self):
        graph, _, _ = merged_graph_of(DOUBLE_FREE_SRC)
        table = execute_query(
            parse_query(
                'MATCH (cwe:CWE {`CWE-ID`: "CWE-242"}) '
                "MATCH (n:CallGraph {Name: cwe.`Function Events`}) RETURN n.Name AS nm"
            ),
            graph,
        )
        assert table.rows == [("gets",)]

    def test_unwind_drops_empty_list(self):
        graph, _ = call_graph_of(DOUBLE_FREE_SRC)
        table = execute_query(
            parse_query(
                'MATCH (n:CallGraph {Name: "nothing"}) '
                "WITH COLLECT(n) AS nodes UNWIND nodes AS x RETURN x"
            ),
            graph,
        )
        assert table.rows == []

    def test_missing_property_is_null_and_size_of_null_is_zero(self):
        graph, _ = call_graph_of(DOUBLE_FREE_SRC)
        table = execute_query(
            parse_query(
                'MATCH (n:CallGraph {Name: "foo"}) '
                "WITH n.Argument1 AS a WITH COLLECT(a) AS xs "
                "RETURN SIZE(xs) AS s"
            ),
            graph,
        )
        assert table.rows == [("0",)]

    def test_unbound_variable(self):
        graph, _ = call_graph_of(DOUBLE_FREE_SRC)
        with pytest.raises(UnboundVariable):
            execute_query(parse_query("MATCH (n) RETURN missing"), graph)

    @pytest.mark.parametrize("rel", ["-[]->", "-[*]->"])
    def test_end_bound_to_non_node_is_an_error(self, rel):
        graph, _ = call_graph_of(DOUBLE_FREE_INTERPROC_SRC)
        query = parse_query(f"MATCH (a:CallGraph) WITH a.Name AS x MATCH (b){rel}(x) RETURN b")
        with pytest.raises(TypeMismatch, match=r"^pattern variable 'x' is not bound to a node$"):
            execute_query(query, graph)

    @pytest.mark.parametrize("rel", ["-[]->", "-[*]->"])
    def test_end_bound_to_null_matches_nothing(self, rel):
        graph, _ = call_graph_of(DOUBLE_FREE_INTERPROC_SRC)
        query = parse_query(f"OPTIONAL MATCH (x:Nope) MATCH (b){rel}(x) RETURN b")
        assert execute_query(query, graph).rows == []

    @pytest.mark.parametrize(
        "text",
        [
            "MATCH (a:CallGraph) MATCH p=(a)-[]->(b) MATCH p=(b)-[]->(c) RETURN p",
            "MATCH (a:CallGraph) WITH a.Name AS p MATCH p=(b)-[*]->(c) RETURN p",
            "MATCH p=(p)-[]->(b) RETURN p",
            "MATCH p=(a)-[*]->(p) RETURN p",
        ],
    )
    def test_path_variable_already_bound(self, text):
        graph, _ = call_graph_of(DOUBLE_FREE_INTERPROC_SRC)
        with pytest.raises(AlreadyBound, match=r"^path variable 'p' is already bound$"):
            execute_query(parse_query(text), graph)

    @pytest.mark.parametrize(
        "text, column",
        [
            ("MATCH (n:CallGraph) RETURN n.Name AS x, COUNT(n) AS x", "x"),
            ("MATCH (n:CallGraph) WITH n.Name AS a, n.ExecOrder AS a RETURN a", "a"),
            ("MATCH (n:Nope) WITH n AS a, n AS a RETURN a", "a"),
            ("MATCH (n:Nope) RETURN n.Name, n.Name", "n.Name"),
            ("MATCH (n:Nope) RETURN n.Name AS n, n", "n"),
        ],
    )
    def test_column_named_twice(self, text, column):
        """As openCypher does, whether or not any row reaches the list."""
        graph, _ = call_graph_of(DOUBLE_FREE_INTERPROC_SRC)
        with pytest.raises(DuplicateColumn, match=rf"^column '{column}' is named more than once$"):
            execute_query(parse_query(text), graph)

    def test_size_of_non_list(self):
        graph, _ = call_graph_of(DOUBLE_FREE_SRC)
        with pytest.raises(TypeMismatch):
            execute_query(
                parse_query('MATCH (n:CallGraph {Name: "foo"}) RETURN SIZE(n.Name)'),
                graph,
            )

    @pytest.mark.parametrize(
        "item, want",
        [
            ("SIZE(n.Missing)", "0"),
            ("SIZE(COLLECT(n.Name))", "1"),
            ("SIZE(COLLECT(n.Missing))", "0"),
        ],
    )
    def test_size_in_scalar_and_aggregate_items(self, item, want):
        graph, _ = call_graph_of(DOUBLE_FREE_SRC)
        query = parse_query(f'MATCH (n:CallGraph {{Name: "foo"}}) RETURN {item} AS s')
        assert execute_query(query, graph).rows == [(want,)]

    def test_size_of_aggregate_non_list(self):
        graph, _ = call_graph_of(DOUBLE_FREE_SRC)
        with pytest.raises(TypeMismatch, match=r"^SIZE of non-list: SIZE\(COUNT\(n\)\)$"):
            execute_query(parse_query("MATCH (n:CallGraph) RETURN SIZE(COUNT(n))"), graph)

    def test_grouping_row_count_equals_distinct_keys(self):
        graph, _ = call_graph_of(DOUBLE_FREE_SRC)
        table = execute_query(
            parse_query(
                "MATCH (n:CallGraph) WITH n.Name AS nm, COLLECT(n) AS ns RETURN nm"
            ),
            graph,
        )
        names = {n.properties["Name"] for n in graph.find_nodes("CallGraph")}
        assert len(table.rows) == len(names)

    def test_deterministic(self):
        graph, _, _ = merged_graph_of(DOUBLE_FREE_SRC)
        query = parse_query(DETECTION_QUERY)
        first = execute_query(query, graph)
        second = execute_query(query, graph)
        assert first.columns == second.columns
        assert first.rows == second.rows


class TestRowDependentPattern:
    """A node pattern whose filter reads a row variable gives the rows of a
    scan per row; a pattern with literal filters is scanned once per query."""

    CATALOG = [
        CweRecord("CWE-1", "a", "", ["free", "gets"]),
        CweRecord("CWE-2", "b", "", ["free"]),
        CweRecord("CWE-3", "c", "", ["free", "gets"]),
        CweRecord("CWE-4", "d", "", ["strcpy"]),
    ]
    # Two `free` calls give each CWE row two rows for the last pattern.
    QUERY = (
        "MATCH (c:CWE) MATCH (f:CallGraph {Name: \"free\"}) "
        "MATCH (n:CallGraph {Name: c.`Function Events`}) "
        "RETURN c.`CWE-ID`, f, n"
    )

    def test_rows_equal_a_scan_per_row(self):
        graph, _, _ = merged_graph_of(DOUBLE_FREE_SRC, self.CATALOG)
        table = execute_query(parse_query(self.QUERY), graph)
        calls = graph.find_nodes("CallGraph")
        want = sorted(
            (c.properties["CWE-ID"], render_node(f), render_node(n))
            for c in graph.find_nodes("CWE")
            for f in calls
            if f.properties["Name"] == "free"
            for n in calls
            if values_equal(n.properties["Name"], c.properties["Function Events"])
        )
        assert table.rows == want
        assert {row[0] for row in table.rows} == {"CWE-1", "CWE-2", "CWE-3"}

    def test_literal_pattern_scanned_once(self, monkeypatch):
        graph, _, _ = merged_graph_of(DOUBLE_FREE_SRC, self.CATALOG)
        scanned = []
        find_nodes = graph.find_nodes

        def counting(label, *args):
            scanned.append(label)
            return find_nodes(label, *args)

        monkeypatch.setattr(graph, "find_nodes", counting)
        execute_query(parse_query(self.QUERY), graph)
        # `free` once for the query, the last pattern once for each of the
        # 4 x 2 rows it is matched against.
        assert scanned == ["CWE"] + ["CallGraph"] * 9


# Literals of every kind a pattern can hold, and property values that
# often meet them: 1, 1.0 and True differ, and a text meets a list that
# holds it. A parsed query holds no null or boolean literal; a pattern
# built by hand can.
LITERALS = st.one_of(
    st.sampled_from(["a", "b", "gets", "", 0, 1, 1.0, 2.5, True, False]), st.none()
)
PROPERTY_VALUES = st.one_of(
    st.sampled_from(["a", "b", "gets", 0, 1, 1.0, 2.5, True]),
    st.lists(st.sampled_from(["a", "b", "gets"]), max_size=3),
)


class TestLiteralPatternScan:
    """A labeled pattern whose filters are all literals is answered by the
    graph's find_nodes; it matches the nodes _node_matches accepts, in
    ascending id order, whatever its label, keys and literals."""

    @settings(max_examples=300, deadline=None)
    @given(
        nodes=st.lists(
            st.tuples(
                st.sampled_from("AB"),
                st.dictionaries(st.sampled_from(["k", "Name"]), PROPERTY_VALUES, max_size=2),
            ),
            max_size=10,
        ),
        label=st.sampled_from([None, "A", "B", "Z"]),
        props=st.lists(st.tuples(st.sampled_from(["k", "Name"]), LITERALS), max_size=3),
    )
    @example(nodes=[("A", {"k": 1}), ("A", {"k": 1.0}), ("A", {"k": True})], label="A",
             props=[("k", 1), ("k", 1.0)])
    @example(nodes=[("A", {"k": ["a", "gets"]}), ("A", {"k": "a"})], label="A",
             props=[("k", "a")])
    def test_same_nodes_as_node_matches(self, nodes, label, props):
        graph = PropertyGraph()
        for node_label, properties in nodes:
            graph.add_node(node_label, properties)
        graph.seal()
        np = ast.NodePattern("n", label, tuple((key, Literal(value)) for key, value in props))
        evaluator = _Evaluator(graph)
        want = [node for node in graph.nodes() if evaluator._node_matches(np, node, {})]
        assert evaluator._candidates(np, {}) == want
        query = ast.Query((
            ast.MatchClause(ast.Pattern(None, (np,), ()), False),
            ast.ReturnClause(((Var("n"), None),)),
        ))
        assert execute_query(query, graph).rows == sorted((render_node(n),) for n in want)

    def test_patterns_equal_but_for_the_kind_of_a_literal_scan_apart(self):
        """{k: 1} and {k: 1.0} compare equal as patterns but match
        different nodes, so one's scan never answers for the other."""
        graph = PropertyGraph()
        graph.add_node("A", {"k": 1})
        graph.add_node("A", {"k": 1.0})
        graph.seal()
        queries = {
            "MATCH (a:A {k: 1}) WITH COUNT(a) AS c MATCH (a:A {k: 1.0}) RETURN a.k": [("1.0",)],
            "MATCH (:A {k: 1}) MATCH (b:A)-[*0..0]->(:A {k: 1.0}) RETURN b.k": [("1.0",)],
        }
        for text, rows in queries.items():
            assert execute_query(parse_query(text), graph).rows == rows, text


def random_graph(rng):
    """6-10 nodes labelled X or Y and edges of types A and B, with at
    least one self-loop and one parallel edge."""
    graph = PropertyGraph()
    nodes = [graph.add_node(rng.choice("XY"), {"k": i}) for i in range(rng.randint(6, 10))]
    for _ in range(rng.randint(6, 14)):
        graph.add_edge(rng.choice(nodes), rng.choice(nodes), rng.choice("AB"))
    loop = rng.choice(nodes)
    graph.add_edge(loop, loop, rng.choice("AB"))
    _, source, target, edge_type = rng.choice(edge_rows(graph))
    graph.add_edge(source, target, edge_type)
    graph.seal()
    return graph


def random_pattern(rng):
    """(rels, nodes): 1-3 relationships of kinds `-[]->`, `-[:T]->` and
    `-[:T*lo..hi]->`, as (type, (lo, hi) or None), and node patterns as
    (variable, label) whose variables often repeat."""
    rels = []
    for _ in range(rng.randint(1, 3)):
        kind = rng.choice(["any", "typed", "star"])
        if kind == "any":
            rels.append((None, None))
        elif kind == "typed":
            rels.append((rng.choice("AB"), None))
        else:
            lo = rng.randint(0, 2)
            rels.append((rng.choice("AB"), (lo, rng.choice([lo, lo + 1, lo + 2, None]))))
    names = "abcd"[: rng.randint(1, len(rels) + 1)]
    nodes = [
        (rng.choice(names + " ").strip() or None, rng.choice([None, None, "X", "Y"]))
        for _ in range(len(rels) + 1)
    ]
    return rels, nodes


def pattern_query(rels, nodes, star_single_hops=False):
    """`MATCH p=<pattern> RETURN p, <each variable>`."""

    def node_text(var, label):
        return f"({var or ''}{':' + label if label else ''})"

    def rel_text(rel_type, length):
        inner = f":{rel_type}" if rel_type else ""
        if length is None and star_single_hops:
            length = (1, 1)
        if length is not None:
            lo, hi = length
            inner += f"*{lo}..{'' if hi is None else hi}"
        return f"-[{inner}]->"

    text = node_text(*nodes[0])
    for rel, node in zip(rels, nodes[1:]):
        text += rel_text(*rel) + node_text(*node)
    variables = sorted({var for var, _ in nodes if var})
    return f"MATCH p={text} RETURN " + ", ".join(["p"] + variables), variables


def brute_force_rows(graph, rels, nodes, variables):
    """Every walk split into one segment per relationship, a single hop
    being one edge, with no edge used twice anywhere in the pattern; a
    repeated variable is the same node. Rows rendered and sorted."""
    edges = edge_rows(graph)
    rows = []

    def bind(spec, node, bindings):
        var, label = spec
        if label is not None and node.label != label:
            return None
        if var is None:
            return bindings
        if bindings.get(var, node) is not node:
            return None
        return {**bindings, var: node}

    def match(i, node_ids, edge_ids, bindings):
        if i == len(rels):
            path = Path(tuple(node_ids), tuple(edge_ids))
            rows.append(
                (render_value(path, graph),)
                + tuple(render_node(bindings[v]) for v in variables)
            )
            return
        rel_type, length = rels[i]
        lo, hi = length or (1, 1)

        def segment(at, taken):
            if len(taken) >= lo:
                bound = bind(nodes[i + 1], graph.node(at), bindings)
                if bound is not None:
                    match(
                        i + 1,
                        node_ids + [target for _, _, target, _ in taken],
                        edge_ids + [edge_id for edge_id, _, _, _ in taken],
                        bound,
                    )
            if hi is not None and len(taken) == hi:
                return
            for edge in edges:
                edge_id, source, target, edge_type = edge
                if (
                    source == at
                    and edge_id not in edge_ids
                    and edge not in taken
                    and rel_type in (None, edge_type)
                ):
                    segment(target, taken + [edge])

        segment(node_ids[-1], [])

    for node in graph.nodes():
        bound = bind(nodes[0], node, {})
        if bound is not None:
            match(0, [node.id], [], bound)
    return sorted(rows)


class TestPatternMatching:
    """The matcher against a brute-force enumeration of edge sequences."""

    @pytest.mark.parametrize("seed", range(60))
    def test_matches_brute_force_oracle(self, seed):
        rng = random.Random(seed)
        graph = random_graph(rng)
        for _ in range(5):
            rels, nodes = random_pattern(rng)
            text, variables = pattern_query(rels, nodes)
            table = execute_query(parse_query(text), graph)
            assert table.rows == brute_force_rows(graph, rels, nodes, variables), text

    @pytest.mark.parametrize("seed", range(20))
    def test_single_hop_matches_like_star_one_one(self, seed):
        rng = random.Random(seed)
        graph = random_graph(rng)
        for _ in range(5):
            rels, nodes = random_pattern(rng)
            plain, _ = pattern_query(rels, nodes)
            starred, _ = pattern_query(rels, nodes, star_single_hops=True)
            assert (
                execute_query(parse_query(plain), graph).rows
                == execute_query(parse_query(starred), graph).rows
            ), plain

    def test_long_pattern_does_not_recurse(self):
        graph = PropertyGraph()
        chain = [graph.add_node("N", {"k": i}) for i in range(3001)]
        for source, target in zip(chain, chain[1:]):
            graph.add_edge(source, target, "CALLS")
        graph.seal()
        text = "MATCH (s {k: 0})" + "-[:CALLS]->()" * 2999 + "-[:CALLS]->(t) RETURN t.k"
        table = execute_query(parse_query(text), graph)
        assert table.rows == [("3000",)]


# -- path bindings against a naive matcher ------------------------------------

HOPS = ["-[]->", "-[:CALLS]->", "-[*]->", "-[*0..2]->", "-[:CALLS*1..3]->"]


def small_graph(rng):
    """2-6 nodes labelled X or Y, each with k its place, and 2-6 edges of
    types CALLS and USES, plus a self-loop and an edge parallel to one of
    them. One time in four, instead, a diamond of 4-6 levels: nodes k = 0
    to d, each calling the next twice, so node k has 2**k paths from the
    top."""
    graph = PropertyGraph()
    if rng.random() < 0.25:
        nodes = [graph.add_node(rng.choice("XY"), {"k": i}) for i in range(rng.randint(5, 7))]
        for source, target in zip(nodes, nodes[1:]):
            graph.add_edge(source, target, "CALLS")
            graph.add_edge(source, target, "CALLS")
        graph.seal()
        return graph
    nodes = [graph.add_node(rng.choice("XY"), {"k": i}) for i in range(rng.randint(2, 6))]
    for _ in range(rng.randint(2, 6)):
        graph.add_edge(rng.choice(nodes), rng.choice(nodes), rng.choice(["CALLS", "USES"]))
    loop = rng.choice(nodes)
    graph.add_edge(loop, loop, "CALLS")
    _, source, target, edge_type = rng.choice(edge_rows(graph))
    graph.add_edge(source, target, edge_type)
    graph.seal()
    return graph


def path_binding_query(rng, node_count, diamond=False):
    """A query whose last clause, a MATCH or OPTIONAL MATCH, binds p over
    0-3 hops from HOPS, or over a diamond one `*` hop from its top, which
    has 2**k paths to node k. Its node variables are new, repeated, or b,
    which a first clause may bind: to every node, to every X node, to the
    node with a given k (or none), or to null. It returns p and every
    variable."""
    first, variables = rng.choice([
        ("", []),
        ("MATCH (b) ", ["b"]),
        ("MATCH (b:X) ", ["b"]),
        (f"MATCH (b {{k: {rng.randrange(node_count + 1)}}}) ", ["b"]),
        ("OPTIONAL MATCH (b:Z) ", ["b"]),
    ])
    names = variables + ["n", "m"]

    def node():
        var = rng.choice(names + ["", ""])
        if var and var not in variables:
            variables.append(var)
        return f"({var}{rng.choice(['', '', ':X', ':Y'])})"

    if diamond:
        pattern = "({k: 0})" + rng.choice(["-[*]->", "-[:CALLS*]->"]) + node()
    else:
        pattern = node() + "".join(rng.choice(HOPS) + node() for _ in range(rng.randint(0, 3)))
    match = rng.choice(["MATCH", "OPTIONAL MATCH"])
    return f"{first}{match} p={pattern} RETURN " + ", ".join(["p"] + sorted(variables))


def naive_walks(edges, start, rel):
    """Every (end node id, edges) walk from start that rel allows: edges
    of its type, as many as its length allows, none twice."""
    lo, hi = rel.var_length or (1, 1)
    walks = []

    def extend(at, walk):
        if len(walk) >= lo:
            walks.append((at, walk))
        if hi is None or len(walk) < hi:
            for edge in edges:
                _, source, target, edge_type = edge
                if source == at and edge not in walk and rel.type in (None, edge_type):
                    extend(target, walk + [edge])

    extend(start, [])
    return walks


def naive_matches(nodes, edges, pattern, row):
    """Each extension of row by the pattern: every assignment of nodes to
    the node patterns that fits their labels, properties and variables
    (row's included, a null one fitting nothing), then every choice of a
    walk per relationship between its two nodes, with no edge used twice
    in the pattern. Shares nothing with the evaluator but the AST."""
    walks = {}  # (start id, relationship index) -> naive_walks
    for assignment in itertools.product(nodes, repeat=len(pattern.nodes)):
        bindings = dict(row)
        fits = True
        for np, node in zip(pattern.nodes, assignment):
            fits = fits and (np.label is None or node.label == np.label) and all(
                key in node.properties and values_equal(expr.value, node.properties[key])
                for key, expr in np.props
            )
            if fits and np.var:
                fits = bindings.setdefault(np.var, node) is node
        if not fits:
            continue
        choices = [
            [
                walk
                for end, walk in walks.setdefault((start.id, i), naive_walks(edges, start.id, rel))
                if end == stop.id
            ]
            for i, (rel, start, stop) in enumerate(zip(pattern.rels, assignment, assignment[1:]))
        ]
        for chosen in itertools.product(*choices):
            taken = [edge for walk in chosen for edge in walk]
            edge_ids = tuple(edge_id for edge_id, _, _, _ in taken)
            if len(set(edge_ids)) < len(taken):
                continue
            if pattern.path_var:
                node_ids = (assignment[0].id,) + tuple(target for _, _, target, _ in taken)
                bindings[pattern.path_var] = Path(node_ids, edge_ids)
            yield dict(bindings)


def naive_rows(graph, query):
    """The rows that reach the RETURN of a query of MATCH and OPTIONAL
    MATCH clauses, by naive_matches."""
    nodes, edges = list(graph.nodes()), edge_rows(graph)
    rows = [{}]
    for clause in query.clauses[:-1]:
        pattern = clause.pattern
        new_vars = [np.var for np in pattern.nodes if np.var] + [pattern.path_var]
        out = []
        for row in rows:
            matches = list(naive_matches(nodes, edges, pattern, row))
            if not matches and clause.optional:
                matches = [{**dict.fromkeys(v for v in new_vars if v), **row}]
            out += matches
        rows = out
    return rows


def matched_rows(graph, query):
    """The rows that reach the RETURN of a query of MATCH and OPTIONAL
    MATCH clauses, by the evaluator."""
    evaluator, rows = _Evaluator(graph), [{}]
    for _, match in _plan(query).clauses:
        rows = evaluator.apply_match(match, rows)
    return rows


def row_multiset(rows):
    """rows as a multiset of their (variable, value) pairs: nodes equal
    when they are the same node, paths when their nodes and edges are."""
    return collections.Counter(frozenset(row.items()) for row in rows)


class TestPathBindings:
    """Path variables over zero to three hops of every kind, and over
    diamonds whose one `*` hop gives up to 64 paths into one end node and
    126 in all per row, with bound, null and new end nodes, against
    naive_rows: the rendered table, and the bound values themselves,
    since a path renders from its first node and its edges alone."""

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_the_naive_matcher(self, seed):
        rng = random.Random(seed)
        graph = small_graph(rng)
        diamond = all(source != target for _, source, target, _ in edge_rows(graph))  # no loop
        for _ in range(6):
            text = path_binding_query(rng, graph.node_count, diamond)
            query = parse_query(text)
            rows = naive_rows(graph, query)
            columns = [expr.name for expr, _ in query.clauses[-1].items]
            table = sorted(tuple(render_value(row[c], graph) for c in columns) for row in rows)
            assert execute_query(query, graph).rows == table, text
            assert row_multiset(matched_rows(graph, query)) == row_multiset(rows), text

    def test_one_star_hop_binds_the_path_the_engine_found(self, monkeypatch):
        graph, _, _ = merged_graph_of(DOUBLE_FREE_SRC)
        found = []
        enumerate_paths = graph.enumerate_paths

        def recording(*args):
            paths = enumerate_paths(*args)
            found.extend(paths)
            return paths

        monkeypatch.setattr(graph, "enumerate_paths", recording)
        query = parse_query('MATCH p=(a:CallGraph {Name: "foo"})-[*]->(b) RETURN p')
        (_, match), = _plan(query).clauses
        rows = _Evaluator(graph).match_pattern(match, {})
        assert len(rows) == len(found) > 0
        assert all(row["p"] is path for row, path in zip(rows, found))


class TestFormatResultTable:
    def test_paths_render_as_table(self):
        graph, _, _ = merged_graph_of(DOUBLE_FREE_SRC)
        text = format_result_table(execute_query(parse_query(DETECTION_QUERY), graph))
        assert text.splitlines() == ["path", TABLE3_PATH1, TABLE3_PATH2]

    def test_empty_result_header_only(self):
        graph, _ = call_graph_of("void f() { }")
        text = format_result_table(
            execute_query(parse_query('MATCH (n:CallGraph {Name: "x"}) RETURN n'), graph)
        )
        assert text == "n\n"

    def test_float_rendering(self):
        graph, _ = call_graph_of("void f() { }")
        text = format_result_table(
            execute_query(parse_query("MATCH (n) RETURN 7.5 AS score"), graph)
        )
        assert text == "score\n7.5\n"


# -- reference expression layer ---------------------------------------------
#
# The recursive descent parser and the recursive evaluator, printer and
# aggregate check that the precedence loop and ast.walk replaced. They
# recurse once per operator, so they serve as oracles at small depth only.


class ReferenceParser(_Parser):
    def expression(self):
        return self.or_expr()

    def or_expr(self):
        left = self.and_expr()
        while self.at_keyword("OR"):
            self.pos += 1
            left = Binary("OR", left, self.and_expr())
        return left

    def and_expr(self):
        left = self.not_expr()
        while self.at_keyword("AND"):
            self.pos += 1
            left = Binary("AND", left, self.not_expr())
        return left

    def not_expr(self):
        if self.at_keyword("NOT"):
            self.pos += 1
            return Not(self.not_expr())
        return self.comparison()

    def comparison(self):
        left = self.atom()
        while self.cur.kind == "punct" and self.cur.text in ("=", "<>", "<", "<=", ">", ">="):
            op = self.cur.text
            self.pos += 1
            left = Binary(op, left, self.atom())
        return left

    def atom(self):
        tok = self.cur
        if self.at_punct("("):
            self.pos += 1
            expr = self.expression()
            self.take_punct(")")
            return expr
        if tok.kind == "id" and tok.text.upper() in FUNCTIONS:
            name = tok.text.upper()
            self.pos += 1
            self.take_punct("(")
            arg = self.expression()
            self.take_punct(")")
            return self.postfix(Func(name, arg))
        return super().atom()


def reference_parse_query(text):
    return ReferenceParser(text).parse()


def fresh_parse_query(text):
    """parse_query with no kept parses, so the text is parsed afresh."""
    parse_query.cache_clear()
    return parse_query(text)


def reference_has_aggregate(expr):
    if isinstance(expr, Func):
        return expr.name in ast.AGGREGATES or reference_has_aggregate(expr.arg)
    if isinstance(expr, Binary):
        return reference_has_aggregate(expr.left) or reference_has_aggregate(expr.right)
    if isinstance(expr, Not):
        return reference_has_aggregate(expr.operand)
    return False


def reference_expr_text(expr):
    if isinstance(expr, Literal):
        if isinstance(expr.value, str):
            escaped = expr.value.replace("\\", "\\\\").replace('"', '\\"')
            return f'"{escaped}"'
        return repr(expr.value)
    if isinstance(expr, Var):
        return ast._quote_ident(expr.name)
    if isinstance(expr, Prop):
        return f"{ast._quote_ident(expr.var)}.{ast._quote_ident(expr.key)}"
    if isinstance(expr, Func):
        return f"{expr.name}({reference_expr_text(expr.arg)})"
    if isinstance(expr, Binary):
        return f"({reference_expr_text(expr.left)} {expr.op} {reference_expr_text(expr.right)})"
    if isinstance(expr, Not):
        return f"(NOT {reference_expr_text(expr.operand)})"
    raise TypeError(f"not an expression: {expr!r}")


def reference_scalar(evaluator, expr, row):
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
    if isinstance(expr, Func):
        if expr.name in ast.AGGREGATES:
            raise TypeMismatch(f"{expr.name} is only allowed in WITH/RETURN projections")
        if expr.name == "SIZE":
            return _size(reference_scalar(evaluator, expr.arg, row), expr)
        raise TypeMismatch(f"unknown function {expr.name}")
    if isinstance(expr, Binary):
        return reference_binary(evaluator, expr, row)
    if isinstance(expr, Not):
        value = reference_scalar(evaluator, expr.operand, row)
        return None if value is None else not value
    raise TypeMismatch(f"cannot evaluate {expr!r}")


def reference_binary(evaluator, expr, row):
    if expr.op in ("AND", "OR"):
        left = reference_scalar(evaluator, expr.left, row)
        right = reference_scalar(evaluator, expr.right, row)
        if expr.op == "AND":
            if left is False or right is False:
                return False
            return None if left is None or right is None else bool(left and right)
        if left is True or right is True:
            return True
        return None if left is None or right is None else bool(left or right)
    left = reference_scalar(evaluator, expr.left, row)
    right = reference_scalar(evaluator, expr.right, row)
    if left is None or right is None:
        return None
    if expr.op == "=":
        return evaluator._equal(left, right)
    if expr.op == "<>":
        return not evaluator._equal(left, right)
    if not isinstance(left, (int, float)) or not isinstance(right, (int, float)):
        raise TypeMismatch(f"ordering comparison on non-numeric operands: {ast.expr_text(expr)}")
    if expr.op == "<":
        return left < right
    if expr.op == "<=":
        return left <= right
    if expr.op == ">":
        return left > right
    return left >= right


def reference_aggregate(evaluator, expr, rows):
    if isinstance(expr, Func) and expr.name == "COLLECT":
        values = [evaluator.scalar(expr.arg, row) for row in rows]
        return [v for v in values if v is not None]
    if isinstance(expr, Func) and expr.name == "COUNT":
        return sum(1 for row in rows if evaluator.scalar(expr.arg, row) is not None)
    if isinstance(expr, Func) and expr.name == "SIZE":
        return _size(reference_aggregate(evaluator, expr.arg, rows), expr)
    raise TypeMismatch(f"unsupported aggregate expression: {ast.expr_text(expr)}")


class ReferenceEvaluator(_Evaluator):
    scalar = reference_scalar
    _aggregate = reference_aggregate


def outcome(function, *args):
    """repr of what function returns, or the type and text of the error it
    raises: repr tells 1 from 1.0 and True, which == does not."""
    try:
        return "value", repr(function(*args))
    except (QuerySyntaxError, TypeMismatch, UnboundVariable, DuplicateColumn) as exc:
        return type(exc).__name__, str(exc)


COMPARISONS = ("=", "<>", "<", "<=", ">", ">=")
STRENGTH = {"OR": 1, "AND": 2, **dict.fromkeys(COMPARISONS, 4)}
NAMES = ("a", "b", "n", "missing")  # rows bind a, b and n
KEYS = ("Name", "ExecOrder", "Argument1", "Missing")

leaf_exprs = st.one_of(
    st.integers(0, 3).map(Literal),
    st.sampled_from([0.5, 2.0]).map(Literal),
    st.sampled_from(["", "gets", 'q"\\']).map(Literal),
    st.sampled_from(NAMES).map(Var),
    st.builds(Prop, st.sampled_from(NAMES), st.sampled_from(KEYS)),
)
expr_trees = st.recursive(
    leaf_exprs,
    lambda kids: st.one_of(
        st.builds(Binary, st.sampled_from(list(STRENGTH)), kids, kids),
        st.builds(Not, kids),
        st.builds(Func, st.sampled_from(["COLLECT", "COUNT", "SIZE", "SIZE"]), kids),
    ),
    max_leaves=8,
)

NODES = [
    Node(1, "CallGraph", {"Name": "gets", "ExecOrder": 2, "Argument1": "buf"}),
    Node(2, "CallGraph", {"Name": "main", "ExecOrder": 1}),
    Node(3, "CWE", {"Name": ["gets", "atoi"]}),
]
row_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(0, 3),
    st.sampled_from([0.5, 2.0, "", "gets", "buf"]),
    st.lists(st.sampled_from(["gets", "atoi"]), max_size=2),
    st.sampled_from(NODES),
)
rows = st.fixed_dictionaries({"a": row_values, "b": row_values, "n": row_values})


NOT_SPELLINGS = st.sampled_from(["NOT", "not"])
EXTRA_PARENTHESES = st.integers(0, 5)


@st.composite
def printed_exprs(draw):
    """(tree, text): text parses to tree. Parentheses appear where the
    precedence needs them, and at random elsewhere; keywords and function
    names in random case."""
    tree = draw(expr_trees)

    def text(node, need):
        if isinstance(node, Binary):
            strength = STRENGTH[node.op]
            op = draw(st.sampled_from([node.op, node.op.lower()]))
            out = f"{text(node.left, strength)} {op} {text(node.right, strength + 1)}"
        elif isinstance(node, Not):
            strength = 3
            out = f"{draw(NOT_SPELLINGS)} {text(node.operand, 3)}"
        elif isinstance(node, Func):
            strength = 5
            out = f"{draw(st.sampled_from([node.name, node.name.lower()]))}({text(node.arg, 0)})"
        else:
            strength = 5
            out = ast.expr_text(node)
        if strength < need or draw(EXTRA_PARENTHESES) == 0:
            out = f"({out})"
        return out

    return tree, text(tree, 0)


EXPR_FRAGMENTS = [
    "a", "n.Name", "n.", "1", "2.5", '"x"', "`b`", "NOT", "not", "AND", "OR", "=", "<>", "<",
    "<=", ">", ">=", "(", ")", "COUNT(", "size", "SIZE(", "COLLECT(", ".", "AS", ",", "}", "-",
]
expr_soups = st.lists(st.sampled_from(EXPR_FRAGMENTS), min_size=1, max_size=16).map(" ".join)


@st.composite
def mutated_exprs(draw):
    """A printed expression with one span deleted or one fragment inserted."""
    _, text = draw(printed_exprs())
    at = draw(st.integers(0, len(text)))
    if draw(st.booleans()):
        return text[:at] + text[at + draw(st.integers(1, 4)):]
    return text[:at] + " " + draw(st.sampled_from(EXPR_FRAGMENTS)) + " " + text[at:]


def query_contexts(text):
    """Each clause position an expression can take."""
    return [
        f"RETURN {text}",
        f"RETURN {text} AS v, 1",
        f"WITH {text} AS v RETURN v",
        f"MATCH (n {{Name: {text}}}) WHERE {text} RETURN n",
        f"UNWIND {text} AS v RETURN v",
    ]


class TestExpressionOracle:
    """The precedence loop and ast.walk against the recursive reference."""

    @given(printed_exprs())
    @settings(max_examples=300, deadline=None)
    def test_printed_expression_parses_to_its_tree(self, printed):
        tree, text = printed
        for parse in (fresh_parse_query, reference_parse_query):
            (item,) = parse(f"RETURN {text} AS v").clauses[0].items
            assert repr(item[0]) == repr(tree)

    @given(st.one_of(expr_soups, mutated_exprs()))
    @settings(max_examples=500, deadline=None)
    @example("a = NOT b")
    @example("NOT a = b AND NOT NOT c OR d")
    @example("COUNT(n).Name")
    @example("(n).Name")
    @example("((a) b")
    @example("SIZE n")
    @example("a.b.c")
    def test_same_tree_or_first_error(self, text):
        for query in query_contexts(text):
            want = outcome(reference_parse_query, query)
            assert outcome(fresh_parse_query, query) == want, query

    @given(expr_trees)
    @settings(max_examples=300, deadline=None)
    def test_text_and_aggregate_check(self, tree):
        assert ast.expr_text(tree) == reference_expr_text(tree)
        assert ast.has_aggregate(tree) == reference_has_aggregate(tree)

    @given(expr_trees, rows)
    @settings(max_examples=500, deadline=None)
    @example(Binary("=", Func("SIZE", Var("missing")), Func("COUNT", Var("missing"))), {})
    @example(Binary("<", Literal("x"), Var("missing")), {})
    @example(Func("NOPE", Var("missing")), {})
    def test_same_value_or_first_error(self, tree, row):
        graph = PropertyGraph()
        graph.seal()
        want = outcome(ReferenceEvaluator(graph).scalar, tree, row)
        assert outcome(_Evaluator(graph).scalar, tree, row) == want

    @given(st.lists(expr_trees, min_size=1, max_size=3), st.lists(rows, min_size=1, max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_one_evaluator_over_many_rows(self, trees, many_rows):
        """The steps an evaluator keeps per expression serve every row."""
        graph = PropertyGraph()
        graph.seal()
        reference, evaluator = ReferenceEvaluator(graph), _Evaluator(graph)
        for row in many_rows:
            for tree in trees:
                want = outcome(reference.scalar, tree, row)
                assert outcome(evaluator.scalar, tree, row) == want

    @given(expr_trees, expr_trees)
    @settings(max_examples=200, deadline=None)
    @example(Binary("=", Var("a"), Var("a")), Func("COUNT", Prop("n", "Argument1")))
    @example(
        Binary("=", Var("a"), Var("a")), Func("SIZE", Func("COLLECT", Prop("n", "Argument1")))
    )
    def test_same_table_or_first_error(self, where, item):
        graph, _, _ = merged_graph_of(DOUBLE_FREE_SRC)
        text = (
            "MATCH (n:CallGraph) WITH n, n.Name AS a, n.ExecOrder AS b "
            f"WHERE {ast.expr_text(where)} RETURN {ast.expr_text(item)}, a"
        )
        query = parse_query(text)
        want = outcome(ReferenceEvaluator(graph).execute, query)
        assert outcome(_Evaluator(graph).execute, query) == want


GETS_SAMPLE = DATA / "corpus" / "cwe242_gets.c"


def run_query(text):
    stdout, stderr = io.StringIO(), io.StringIO()
    code = run_cli(
        ["query", str(GETS_SAMPLE)], stdin=io.StringIO(text), stdout=stdout, stderr=stderr
    )
    return code, stdout.getvalue(), stderr.getvalue()


class TestFilterErrors:
    """A node pattern's filters narrow its label's nodes one key at a
    time, and a filter's value is evaluated only while a node is left, so
    an unbound variable in a filter is an error only when a node would
    have been tested against it."""

    @pytest.mark.parametrize(
        "text, want",
        [
            ("MATCH (n:Nope {k: missing}) RETURN n", (0, "n\n", "")),
            (
                "MATCH (n:CallGraph {k: missing}) RETURN n",
                (3, "", "pkgraph: error: unbound variable 'missing'\n"),
            ),
            (
                'MATCH (a:CallGraph {Name: "gets"}) MATCH (b:CallGraph {Name: a.Missing}) RETURN b',
                (0, "b\n", ""),
            ),
            (
                'MATCH (a:CallGraph {Name: "gets"}) '
                "MATCH (b:CallGraph {Nope: 1, Name: missing}) RETURN b",
                (0, "b\n", ""),
            ),
        ],
        ids=["no-node-of-the-label", "unbound", "null-value", "first-key-leaves-none"],
    )
    def test_exit_code_and_output(self, text, want):
        assert run_query(text) == want


class TestUnwindRebinding:
    """UNWIND ... AS name binds a new variable, as in openCypher: naming a
    variable the rows already bind is an error when the clause runs,
    however many rows reach it, and an error of an earlier clause comes
    first. A name that a WITH dropped is free again, as the double-release
    template's `UNWIND sameArgument1 AS buggyNodes` relies on."""

    @pytest.mark.parametrize(
        "text, name",
        [
            (
                "MATCH (n:CallGraph) MATCH (m:CallGraph) WITH COLLECT(m) AS ms, n "
                "UNWIND ms AS n RETURN n.Name",
                "n",
            ),
            ("MATCH (n:CallGraph) WITH n.Name AS x UNWIND x AS x RETURN x", "x"),
            ("MATCH (n:Nope) UNWIND n AS n RETURN n", "n"),
            ("MATCH (n:CallGraph) WITH COLLECT(n) AS ns UNWIND ns AS m UNWIND ns AS m RETURN m",
             "m"),
        ],
        ids=["the-query-openCypher-rejects", "a-with-column", "no-row-reaches-it", "twice"],
    )
    def test_a_bound_name_is_an_error(self, text, name):
        assert run_query(text) == (3, "", f"pkgraph: error: variable {name!r} is already bound\n")

    def test_an_earlier_error_comes_first(self):
        text = "MATCH (n:CallGraph {k: missing}) UNWIND n AS n RETURN n"
        assert run_query(text) == (3, "", "pkgraph: error: unbound variable 'missing'\n")

    def test_a_dropped_name_is_free(self):
        text = "MATCH (n:CallGraph) WITH COLLECT(n) AS ns UNWIND ns AS n RETURN n.Name"
        code, out, err = run_query(text)
        assert (code, err) == (0, "")
        assert out.splitlines()[0] == "n.Name" and "gets" in out.splitlines()

    def test_the_double_release_template_is_unaffected(self):
        graph, _, _ = merged_graph_of(DOUBLE_FREE_SRC)
        table = execute_query(parse_query(DETECTION_QUERY), graph)
        assert table.rows == [(TABLE3_PATH1,), (TABLE3_PATH2,)]


class TestZeroRowAggregates:
    """A projection with no grouping item gives one row over zero rows,
    as in openCypher; a grouped one gives none."""

    @pytest.mark.parametrize(
        "text, table",
        [
            ("MATCH (n:Nope) RETURN COUNT(n)", "COUNT(n)\n0\n"),
            ("MATCH (c:CWE {`CWE-ID`: 242}) RETURN COUNT(c)", "COUNT(c)\n0\n"),
            ("MATCH (n:Nope) RETURN COLLECT(n) AS c", "c\n[]\n"),
            ("MATCH (n:Nope) RETURN SIZE(COLLECT(n.Name)) AS s", "s\n0\n"),
            ("MATCH (n:Nope) MATCH (m:CallGraph) RETURN COUNT(m), COLLECT(m)",
             "COUNT(m) | COLLECT(m)\n0 | []\n"),
            ("MATCH (n:Nope) WITH COUNT(n) AS c RETURN c", "c\n0\n"),
            ("MATCH (n:Nope) WITH COLLECT(n) AS c RETURN c, SIZE(c)", "c | SIZE(c)\n[] | 0\n"),
            ("MATCH (n:Nope) WITH COUNT(n) AS c WHERE c > 0 RETURN c", "c\n"),
            ("MATCH (n:Nope) RETURN n.Name, COUNT(n)", "n.Name | COUNT(n)\n"),
            ("MATCH (n:Nope) WITH n.Name AS k, COLLECT(n) AS c RETURN k, c", "k | c\n"),
            ("OPTIONAL MATCH (n:Nope) RETURN COUNT(n), COLLECT(n)",
             "COUNT(n) | COLLECT(n)\n0 | []\n"),
        ],
        ids=[
            "count", "count-int-id", "collect", "size-collect", "after-an-empty-match",
            "with-count", "with-collect", "with-count-where", "grouped", "with-grouped",
            "optional",
        ],
    )
    def test_table(self, text, table):
        assert run_query(text) == (0, table, "")


def left_deep(op, terms):
    """The text expr_text gives a left-deep chain of op over terms."""
    return "(" * (len(terms) - 1) + terms[0] + "".join(f" {op} {t})" for t in terms[1:])


class TestDeepExpressions:
    """Long and deeply nested expressions are answered; none recurses.
    Nested lists, which rendering, grouping and comparing do recurse
    over, stop at MAX_LIST_DEPTH with an error."""

    @pytest.mark.parametrize("op", ["OR", "AND"])
    def test_long_chain_in_where(self, op):
        for length in (1999, 4999):
            if op == "OR":
                terms = [f'n.Name = "f{i}"' for i in range(length)] + ['n.Name = "gets"']
            else:
                terms = [f"n.ExecOrder < {100 + i}" for i in range(length)] + ['n.Name = "gets"']
            text = f"MATCH (n:CallGraph) WHERE {f' {op} '.join(terms)} RETURN n.Name"
            assert run_query(text) == (0, "n.Name\ngets\n", "")

    @pytest.mark.parametrize("op", ["OR", "AND"])
    def test_long_chain_in_unaliased_return(self, op):
        terms = [f'n.Name = "f{i}"' for i in range(4999)] + ['n.Name = "gets"']
        text = f'MATCH (n:CallGraph {{Name: "gets"}}) RETURN {f" {op} ".join(terms)}'
        column = left_deep(op, [f'(n.Name = "f{i}")' for i in range(4999)] + ['(n.Name = "gets")'])
        want = "true" if op == "OR" else "false"
        assert run_query(text) == (0, f"{column}\n{want}\n", "")

    def test_very_long_chain_column(self):
        """The column of an unaliased 40,000-term OR, whose text is built
        here directly: the recursive reference printer cannot go that deep."""
        terms = [f'n.Name = "f{i}"' for i in range(40_000)]
        text = f'MATCH (n:CallGraph {{Name: "nothing"}}) RETURN {" OR ".join(terms)}'
        column = left_deep("OR", [f"({t})" for t in terms])
        assert run_query(text) == (0, f"{column}\n", "")

    def test_nested_parentheses(self):
        for depth in (3000, 5000):
            text = "MATCH (n:CallGraph) WHERE " + "(" * depth + 'n.Name = "gets"' + ")" * depth
            assert run_query(text + " RETURN n.Name") == (0, "n.Name\ngets\n", "")

    def test_nested_not(self):
        text = "MATCH (n:CallGraph) WHERE " + "NOT " * 5000 + 'n.Name = "gets" RETURN n.Name'
        assert run_query(text) == (0, "n.Name\ngets\n", "")

    @pytest.mark.parametrize("inner", ["n.Missing", "COLLECT(n)"])
    def test_nested_size_in_return(self, inner):
        """Over zero rows, n.Missing projects no row, and COLLECT(n), an
        aggregate with no grouping item, projects its one row, [], whose
        second SIZE is of the number 0."""
        item = "SIZE(" * 3000 + inner + ")" * 3000
        column = "SIZE(" * 3000 + inner + ")" * 3000
        text = f'MATCH (n:CallGraph {{Name: "nothing"}}) RETURN {item}'
        if inner == "COLLECT(n)":
            failing = "SIZE(SIZE(COLLECT(n)))"
            assert run_query(text) == (3, "", f"pkgraph: error: SIZE of non-list: {failing}\n")
        else:
            assert run_query(text) == (0, f"{column}\n", "")

    def test_collect_chain_past_the_list_depth_limit(self):
        text = "MATCH (n:CallGraph) WITH COLLECT(n) AS x" + " WITH COLLECT(x) AS x" * 1000
        assert run_query(text + " RETURN x") == (
            3, "", "pkgraph: error: lists nested more than 100 deep: COLLECT(x)\n"
        )

    def test_list_depth_is_that_of_the_deepest_element(self):
        shared = [["a"]]
        assert _list_depth([]) == 1
        assert _list_depth(["a", ["b"], [["c"]], "d"]) == 3
        assert _list_depth([[[["c"]]], "a", ["b"]]) == 4
        assert _list_depth([shared, shared, [shared]]) == 4

    def test_lists_at_the_depth_limit_are_compared_grouped_and_rendered(self):
        text = (
            'MATCH (n:CallGraph {Name: "gets"}) WITH COLLECT(n.Name) AS x'
            + " WITH COLLECT(x) AS x" * (MAX_LIST_DEPTH - 2)
            + " WITH COLLECT(x) AS x, COLLECT(x) AS y WHERE x = y"
            + " WITH x, COUNT(y) AS c RETURN x, c"
        )
        cell = "[" * MAX_LIST_DEPTH + "gets" + "]" * MAX_LIST_DEPTH
        assert run_query(text) == (0, f"x | c\n{cell} | 1\n", "")

    @pytest.mark.parametrize("inner", ["n.Missing", "COLLECT(n)"])
    def test_nested_size_of_a_number(self, inner):
        item = "SIZE(" * 3000 + inner + ")" * 3000
        text = f'MATCH (n:CallGraph {{Name: "gets"}}) RETURN {item} AS s'
        failing = "SIZE(SIZE(" + inner + "))"
        assert run_query(text) == (3, "", f"pkgraph: error: SIZE of non-list: {failing}\n")


def collect_chain(levels, tail=" RETURN x"):
    """A query over GETS_SAMPLE's four CallGraph nodes whose x, at each of
    levels levels, holds the list below it four times."""
    return (
        "MATCH (n:CallGraph) WITH COLLECT(n) AS x"
        + " MATCH (m:CallGraph) WITH COLLECT(x) AS x" * levels
        + tail
    )


def reference_group_key(value):
    """The grouping key that expands every copy of a list."""
    if isinstance(value, Node):
        return ("node", value.id)
    if isinstance(value, Path):
        return ("path", value.nodes, value.edges)
    if isinstance(value, list):
        return ("list", tuple(reference_group_key(v) for v in value))
    return (type(value).__name__, value)


def copied_lists(value):
    """value with each list in it copied: equal to it, sharing no list."""
    return [copied_lists(v) for v in value] if isinstance(value, list) else value


group_values = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(0, 2),
        st.sampled_from([1.0, "", "1", "gets"]),
        st.sampled_from(NODES),
        st.just(Path((1, 2), (5,))),
    ),
    lambda kids: st.one_of(st.lists(kids, max_size=3), kids.map(lambda v: [v, v])),
    max_leaves=10,
)


class TestSharedSublists:
    """A list may hold one sublist many times. Grouping keys it once, and
    rendering stops at MAX_CELL_CHARS, so neither grows with the copies."""

    @given(st.lists(group_values, min_size=1, max_size=5))
    @settings(max_examples=300, deadline=None)
    def test_group_keys_agree_with_expanded_keys(self, values):
        values = values + [copied_lists(v) for v in values]
        by_id, by_items = {}, {}
        keys = [_group_key(v, by_id, by_items) for v in values]
        for a, key_a in zip(values, keys):
            for b, key_b in zip(values, keys):
                assert (key_a == key_b) == (reference_group_key(a) == reference_group_key(b))

    def test_grouping_by_a_list_that_holds_one_sublist_many_times(self):
        """4**40 copies of the innermost list if each were expanded."""
        tail = " MATCH (k:CallGraph) WITH x, SIZE(x) AS s, COUNT(k) AS c RETURN s, c"
        assert run_query(collect_chain(40, tail)) == (0, "s | c\n4 | 4\n", "")

    def test_cell_under_the_bound_prints_every_copy(self):
        graph, _, _ = merged_graph_of(GETS_SAMPLE.read_text())
        texts = [render_node(node) for node in graph.find_nodes("CallGraph")]
        cell = "[" + ", ".join(texts) + "]"
        for _ in range(4):
            cell = "[" + ", ".join([cell] * len(texts)) + "]"
        assert run_query(collect_chain(4)) == (0, f"x\n{cell}\n", "")

    @pytest.mark.parametrize("levels", [8, 9, 40])
    def test_cell_past_the_bound_is_an_error(self, levels):
        error = f"pkgraph: error: a list cell renders longer than {MAX_CELL_CHARS} characters\n"
        assert run_query(collect_chain(levels)) == (3, "", error)


# Values that Python's == takes for one another: 1, 1.0 and True.
look_alikes = st.recursive(
    st.sampled_from([0, 1, 1.0, True, False, "1"]),
    lambda kids: st.lists(kids, max_size=2),
    max_leaves=4,
)


class TestListEquality:
    """`=` and `<>` on two lists agree with grouping: equal exactly when
    their grouping keys are, so elements of different kinds never match."""

    @given(st.one_of(st.tuples(group_values, group_values), st.tuples(look_alikes, look_alikes)))
    @settings(max_examples=300, deadline=None)
    def test_equal_agrees_with_expanded_keys(self, pair):
        a, b = pair
        a, b = [a], [b]
        for left, right in ((a, b), (a, copied_lists(a)), (copied_lists(b), b)):
            want = reference_group_key(left) == reference_group_key(right)
            assert _Evaluator._equal(left, right) is want

    @pytest.mark.parametrize(
        "left, right, equal",
        [
            ([1], [True], False),
            ([0], [False], False),
            ([1], [1.0], False),
            (["1"], [1], False),
            ([[1, "a"]], [[1, "a"]], True),
            ([NODES[0]], [NODES[0]], True),
            ([NODES[0]], [NODES[1]], False),
        ],
    )
    def test_elements_of_different_kinds(self, left, right, equal):
        assert _Evaluator._equal(left, right) is equal
        assert _Evaluator._equal(1, True) is False

    def test_collected_one_against_collected_true(self):
        query = (
            'MATCH (n:CallGraph {Name: "gets"})'
            " WITH COLLECT(1) AS a, COLLECT(n.ExecOrder > 0) AS b WHERE a OP b RETURN a, b"
        )
        assert run_query(query.replace("OP", "=")) == (0, "a | b\n", "")
        assert run_query(query.replace("OP", "<>")) == (0, "a | b\n[1] | [true]\n", "")

    def test_equal_lists_sharing_no_sublist(self):
        """Two equal lists, each holding its sublist four times per level:
        4**40 comparisons if each copy were expanded."""
        query = (
            "MATCH (n:CallGraph) WITH COLLECT(n) AS x, COLLECT(n) AS y"
            + " MATCH (m:CallGraph) WITH COLLECT(x) AS x, COLLECT(y) AS y" * 40
            + " WHERE x {} y RETURN SIZE(x) AS s"
        )
        assert run_query(query.format("=")) == (0, "s\n4\n", "")
        assert run_query(query.format("<>")) == (0, "s\n", "")
