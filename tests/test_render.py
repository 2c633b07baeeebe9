import json

import pytest

from conftest import DOUBLE_FREE_SRC, call_graph_of, catalog_entry, merged_graph_of
from pkgraph.detectors import detect_double_release, run_all
from pkgraph.graph import Path, PropertyGraph
from pkgraph.render import (
    ExportError,
    export_dot,
    export_import_csv,
    findings_to_json,
    import_csv,
    render_node,
    render_path,
)
from pkgraph.vulndata import CsvError


def node_named(graph, name, exec_order=None):
    filters = {"Name": name}
    if exec_order is not None:
        filters["ExecOrder"] = exec_order
    return graph.find_nodes("CallGraph", filters)[0]


class TestRenderNode:
    def test_entry_node(self, double_free_graph):
        node = node_named(double_free_graph, "foo")
        assert render_node(node) == '(:CallGraph {ExecOrder: 1, Name: "foo"})'

    def test_call_site_with_argument(self, double_free_graph):
        node = node_named(double_free_graph, "free", 6)
        assert (
            render_node(node)
            == '(:CallGraph {Argument1: "ptr", ExecOrder: 6, Name: "free"})'
        )

    def test_no_properties(self):
        g = PropertyGraph()
        n = g.add_node("CWE", {})
        assert render_node(g.node(n)) == "(:CWE)"

    def test_quote_escaping(self):
        g = PropertyGraph()
        n = g.add_node("CallGraph", {"Argument1": 'say "hi"'})
        assert render_node(g.node(n)) == '(:CallGraph {Argument1: "say \\"hi\\""})'


class TestRenderPath:
    def test_second_witness_path(self, double_free_graph):
        foo = node_named(double_free_graph, "foo")
        free7 = node_named(double_free_graph, "free", 7)
        (path,) = double_free_graph.enumerate_paths(foo.id, {free7.id}, "CALLS")
        assert render_path(double_free_graph, path) == (
            '(:CallGraph {ExecOrder: 1, Name: "foo"})'
            '-[:CALLS]->(:CallGraph {Argument1: "ptr", ExecOrder: 7, Name: "free"})'
        )

    def test_single_node_path(self, double_free_graph):
        foo = node_named(double_free_graph, "foo")
        path = Path((foo.id,), ())
        assert render_path(double_free_graph, path) == render_node(foo)

    def test_multi_hop_concatenation(self):
        graph, _ = call_graph_of(
            "void main() { printString(p); }\nvoid printString(char* p) { gets(p); }"
        )
        main = node_named(graph, "main", 1)
        gets = node_named(graph, "gets")
        (path,) = graph.enumerate_paths(main.id, {gets.id}, "CALLS")
        rendered = render_path(graph, path)
        assert rendered.count("-[:CALLS]->") == 3
        assert rendered.count("(:CallGraph") == 4


class TestFindingsToJson:
    def test_double_free_report(self):
        graph, tu, _ = merged_graph_of(DOUBLE_FREE_SRC)
        findings = detect_double_release(graph, catalog_entry("CWE-415"))
        _, capabilities = run_all(graph, tu, [catalog_entry("CWE-401")])
        blob = findings_to_json(findings, capabilities, graph)
        doc = json.loads(blob)
        assert doc["version"] == 1
        assert len(doc["findings"][0]["paths"]) == 2
        assert doc["findings"][0]["paths"][0].endswith(
            '(:CallGraph {Argument1: "ptr", ExecOrder: 6, Name: "free"})'
        )
        assert doc["unsupported"][0]["cwe_id"] == "CWE-401"

    def test_empty_findings(self):
        graph = PropertyGraph()
        graph.seal()
        doc = json.loads(findings_to_json([], [], graph))
        assert doc == {"version": 1, "findings": [], "unsupported": []}

    def test_byte_stable(self):
        graph, tu, _ = merged_graph_of(DOUBLE_FREE_SRC)
        findings = detect_double_release(graph, catalog_entry("CWE-415"))
        assert findings_to_json(findings, [], graph) == findings_to_json(findings, [], graph)


class TestCsvExportImport:
    def test_call_graph_row_counts(self, double_free_graph):
        nodes, relationships = export_import_csv(double_free_graph)
        assert len(nodes.decode().splitlines()) == 8  # header + 7 nodes
        assert len(relationships.decode().splitlines()) == 7  # header + 6 edges

    def test_empty_graph(self):
        g = PropertyGraph()
        g.seal()
        nodes, relationships = export_import_csv(g)
        assert nodes.decode().splitlines() == ["id:ID,:LABEL"]
        assert relationships.decode().splitlines() == [":START_ID,:END_ID,:TYPE"]

    def test_unsealed_graph_rejected(self):
        with pytest.raises(ExportError):
            export_import_csv(PropertyGraph())

    def test_round_trip_byte_stable(self):
        graph, _, _ = merged_graph_of(DOUBLE_FREE_SRC)
        nodes, relationships = export_import_csv(graph)
        rebuilt = import_csv(nodes, relationships)
        rebuilt.seal()
        assert export_import_csv(rebuilt) == (nodes, relationships)

    def test_round_trip_preserves_structure(self):
        graph, _, _ = merged_graph_of(DOUBLE_FREE_SRC)
        nodes, relationships = export_import_csv(graph)
        rebuilt = import_csv(nodes, relationships)
        assert rebuilt.node_count == graph.node_count
        assert rebuilt.edge_count == graph.edge_count
        for label in ("CWE", "CallGraph"):
            original = sorted(
                tuple(sorted((k, str(v)) for k, v in n.properties.items()))
                for n in graph.find_nodes(label)
            )
            copied = sorted(
                tuple(sorted((k, str(v)) for k, v in n.properties.items()))
                for n in rebuilt.find_nodes(label)
            )
            assert original == copied

    def test_typed_columns(self):
        g = PropertyGraph()
        g.add_node("Score", {"CVSS2": 7.5})
        g.add_node("CWE", {"Function Events": ["gets", "atoi"], "Name": "x"})
        g.add_node("CallGraph", {"ExecOrder": 3})
        g.seal()
        header = export_import_csv(g)[0].decode().splitlines()[0]
        assert "CVSS2:float" in header
        assert "Function Events:string[]" in header
        assert "ExecOrder:int" in header
        rebuilt = import_csv(*export_import_csv(g))
        assert rebuilt.find_nodes("Score")[0].properties["CVSS2"] == 7.5
        assert rebuilt.find_nodes("CWE")[0].properties["Function Events"] == ["gets", "atoi"]

    def test_malformed_import(self):
        with pytest.raises(CsvError):
            import_csv(b"wrong,header\n", b":START_ID,:END_ID,:TYPE\n")
        with pytest.raises(CsvError):
            import_csv(
                b"id:ID,:LABEL\n1,CWE\n",
                b":START_ID,:END_ID,:TYPE\n1,99,CALLS\n",
            )


class TestExportDot:
    def test_call_graph_statements(self, double_free_graph):
        dot = export_dot(double_free_graph)
        lines = dot.splitlines()
        assert sum("[label=" in l and "->" not in l for l in lines) == 7
        assert sum("->" in l for l in lines) == 6

    def test_empty_graph(self):
        g = PropertyGraph()
        g.seal()
        assert export_dot(g) == "digraph G { }\n"

    def test_deterministic(self, double_free_graph):
        assert export_dot(double_free_graph) == export_dot(double_free_graph)
