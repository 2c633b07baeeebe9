import random

import pytest

from conftest import (
    DOUBLE_FREE_INTERPROC_SRC,
    DOUBLE_FREE_SRC,
    call_graph_of,
    catalog_entry,
    merged_graph_of,
)
from pkgraph.cypher import ast
from pkgraph.cypher.eval import (
    AlreadyBound,
    TypeMismatch,
    UnboundVariable,
    execute_query,
    format_result_table,
)
from pkgraph.cypher.parser import QuerySyntaxError, parse_query
from pkgraph.detectors import generate_detection_query
from pkgraph.graph import Path, PropertyGraph, values_equal
from pkgraph.render import render_node, render_value
from pkgraph.vulndata import CweRecord

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


def random_graph(rng):
    """6-10 nodes labelled X or Y and edges of types A and B, with at
    least one self-loop and one parallel edge."""
    graph = PropertyGraph()
    nodes = [graph.add_node(rng.choice("XY"), {"k": i}) for i in range(rng.randint(6, 10))]
    for _ in range(rng.randint(6, 14)):
        graph.add_edge(rng.choice(nodes), rng.choice(nodes), rng.choice("AB"))
    loop = rng.choice(nodes)
    graph.add_edge(loop, loop, rng.choice("AB"))
    twin = rng.choice(list(graph.edges()))
    graph.add_edge(twin.source, twin.target, twin.type)
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
    edges = list(graph.edges())
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
                        node_ids + [e.target for e in taken],
                        edge_ids + [e.id for e in taken],
                        bound,
                    )
            if hi is not None and len(taken) == hi:
                return
            for edge in edges:
                if (
                    edge.source == at
                    and edge.id not in edge_ids
                    and edge not in taken
                    and rel_type in (None, edge.type)
                ):
                    segment(edge.target, taken + [edge])

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
