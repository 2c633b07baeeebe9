import pytest

from conftest import DOUBLE_FREE_SRC, call_graph_of, catalog_entry, merged_graph_of
from pkgraph.cypher import ast
from pkgraph.cypher.eval import (
    TypeMismatch,
    UnboundVariable,
    execute_query,
    format_result_table,
)
from pkgraph.cypher.parser import QuerySyntaxError, parse_query
from pkgraph.detectors import generate_detection_query
from pkgraph.graph import values_equal
from pkgraph.render import render_node
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

    def test_size_of_non_list(self):
        graph, _ = call_graph_of(DOUBLE_FREE_SRC)
        with pytest.raises(TypeMismatch):
            execute_query(
                parse_query('MATCH (n:CallGraph {Name: "foo"}) RETURN SIZE(n.Name)'),
                graph,
            )

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
