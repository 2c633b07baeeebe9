import csv
import gc
import hashlib
import io
import json
import random
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    DATA,
    DOUBLE_FREE_SRC,
    call_graph_of,
    catalog_entry,
    edge_rows,
    load_catalog,
    merged_graph_of,
)
from pkgraph import render
from pkgraph.cli import run_cli
from pkgraph.cypher import eval as cypher_eval
from pkgraph.cypher.eval import execute_query
from pkgraph.cypher.parser import parse_query
from pkgraph.detectors import (
    DetectorCapability,
    Finding,
    detect_double_release,
    generate_detection_query,
    run_all,
)
from pkgraph.graph import Node, Path, PropertyGraph
from pkgraph.render import (
    ExportError,
    export_dot,
    export_import_csv,
    findings_to_json,
    render_node,
    render_path,
    render_scalar,
    render_value,
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


class TestListCellBound:
    """A list cell renders up to MAX_CELL_CHARS characters and raises
    CellTooLong past them, without building the whole text first."""

    def test_flat_list_at_and_past_the_bound(self):
        graph = PropertyGraph()
        text = "a" * (render.MAX_CELL_CHARS - 2)
        assert render_value([text], graph) == f"[{text}]"
        with pytest.raises(render.CellTooLong):
            render_value([text + "a"], graph)

    def test_nested_list_at_and_past_the_bound(self):
        graph = PropertyGraph()
        text = "a" * (render.MAX_CELL_CHARS - 7)
        assert render_value([[text], "b"], graph) == f"[[{text}], b]"
        with pytest.raises(render.CellTooLong):
            render_value([[text], "bb"], graph)

    def test_shared_sublists_are_rendered_once(self):
        graph = PropertyGraph()
        value = ["x", 1.5, None]
        for _ in range(4):
            value = [value, "y", value]
        want = reference_value(value, graph)
        assert render_value(value, graph) == want
        for _ in range(60):
            value = [value, value]
        with pytest.raises(render.CellTooLong):
            render_value(value, graph)


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


def reference_path(graph, path):
    """A path's text with every node rendered afresh."""
    text = render_node(graph.node(path.nodes[0]))
    for (_, _, _, edge_type), node_id in zip(edge_rows(graph, path.edges), path.nodes[1:]):
        text += f"-[:{edge_type}]->" + render_node(graph.node(node_id))
    return text


def reference_value(value, graph):
    if value is None:
        return "null"
    if isinstance(value, Node):
        return render_node(value)
    if isinstance(value, Path):
        return reference_path(graph, value)
    if isinstance(value, list):
        return "[" + ", ".join(reference_value(v, graph) for v in value) + "]"
    return render_scalar(value, quote_text=False)


def reference_report(findings, capabilities, graph):
    """The JSON report as json.dumps writes it, every path rendered
    afresh: the oracle for findings_to_json."""
    doc = {
        "version": 1,
        "findings": [
            {
                "cwe_id": f.cwe_id,
                "cwe_name": f.cwe_name,
                "message": f.message,
                "paths": [reference_path(graph, p) for p in f.witness_paths],
                "terminals": [
                    {
                        "label": graph.node(t).label,
                        "properties": {
                            k: graph.node(t).properties[k]
                            for k in sorted(graph.node(t).properties)
                        },
                    }
                    for t in f.terminal_nodes
                ],
            }
            for f in findings
        ],
        "unsupported": [{"cwe_id": c.cwe_id, "reason": c.reason} for c in capabilities],
    }
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


# Characters JSON escapes or that are easy to get wrong: quote, backslash,
# control characters, the line and paragraph separators (which JSON
# leaves as they are), non-ASCII and astral characters.
TRICKY = '"\\\x00\x08\n\x1f\x7f\u2028\u2029\xe9\u20ac\U0001f600'


# Strategies are built once, here, not on every draw of a composite:
# rebuilt on each draw of reports() they took about 40% of the time of
# the test that draws it.
JSON_CHARS = st.one_of(st.sampled_from(TRICKY), st.characters(exclude_categories=("Cs",)))
JSON_TEXTS = st.text(JSON_CHARS, max_size=6)
NONEMPTY_JSON_TEXTS = st.text(JSON_CHARS, min_size=1, max_size=6)


# Any JSON value without NaN or infinities, empty containers included.
JSON_VALUES = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(),
        st.floats(allow_nan=False, allow_infinity=False),
        JSON_TEXTS,
    ),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(JSON_TEXTS, inner, max_size=4),
    max_leaves=20,
)

PROPERTY_VALUES = st.one_of(
    JSON_TEXTS,
    st.integers(min_value=-(2**70), max_value=2**70),
    st.booleans(),
    st.floats(),
    st.lists(JSON_TEXTS, max_size=3),
)
PROPERTY_MAPS = st.dictionaries(JSON_TEXTS, PROPERTY_VALUES, max_size=3)


@st.composite
def reports(draw):
    """(graph, findings, capabilities): up to five nodes with any
    properties, walks along random edges as witness paths, a sealed or
    an unsealed graph."""
    graph = PropertyGraph()
    ids = [
        graph.add_node(
            draw(NONEMPTY_JSON_TEXTS),
            draw(PROPERTY_MAPS),
        )
        for _ in range(draw(st.integers(1, 5)))
    ]
    out = {node_id: [] for node_id in ids}
    for _ in range(draw(st.integers(0, 8))):
        source, target = draw(st.sampled_from(ids)), draw(st.sampled_from(ids))
        out[source].append((graph.add_edge(source, target, draw(NONEMPTY_JSON_TEXTS)), target))
    if draw(st.booleans()):
        graph.seal()
    findings = []
    for _ in range(draw(st.integers(0, 3))):
        paths = []
        for _ in range(draw(st.integers(0, 3))):
            nodes, edges = [draw(st.sampled_from(ids))], []
            for _ in range(draw(st.integers(0, 4))):
                if not out[nodes[-1]]:
                    break
                edge, target = draw(st.sampled_from(out[nodes[-1]]))
                nodes.append(target)
                edges.append(edge)
            paths.append(Path(tuple(nodes), tuple(edges)))
        terminals = draw(st.lists(st.sampled_from(ids), max_size=3))
        findings.append(
            Finding(draw(JSON_TEXTS), draw(JSON_TEXTS), paths, terminals, draw(JSON_TEXTS))
        )
    capabilities = [
        DetectorCapability(draw(JSON_TEXTS), False, draw(JSON_TEXTS))
        for _ in range(draw(st.integers(0, 2)))
    ]
    return graph, findings, capabilities


BUNDLED = sorted(path for kind in ("corpus", "clean") for path in (DATA / kind).iterdir())

EVENTS = ["gets(buf)", "atoi(s)", "free(p)", "free(q)", "fclose(fp)", "printf(x)"]

# Cells of every kind: nodes, paths, nulls, scalars and lists of each.
CELL_QUERIES = [
    generate_detection_query(catalog_entry("CWE-242"), "main"),
    generate_detection_query(catalog_entry("CWE-415"), "main"),
    "MATCH (a:CallGraph) OPTIONAL MATCH p=(a)-[*]->(b:CallGraph {Name: \"gets\"}) RETURN a, p, b",
    "MATCH p=(a:CallGraph)-[]->(b) WITH a, COLLECT(p) AS ps, COLLECT(b) AS bs RETURN a, ps, bs",
    "MATCH (a:CallGraph) WITH a.Name AS name, COLLECT(a) AS calls RETURN name, calls, SIZE(calls)",
    "MATCH (c:CWE) RETURN c, c.`Function Events`",
    "MATCH (a:CallGraph) WITH COLLECT(a.Name) AS names MATCH (b:CallGraph) "
    "WITH b.Name AS name, COLLECT(names) AS copies WITH copies, COUNT(name) AS c RETURN copies, c",
]


def random_source(rng):
    """Up to six functions calling events and each other: mostly later
    functions, so that paths share nodes, and now and then an earlier
    one, so that some call graphs recurse."""
    names = ["main"] + [f"f{i}" for i in range(1, rng.randint(1, 6))]
    lines = []
    for i, name in enumerate(names):
        calls = []
        for _ in range(rng.randint(0, 4)):
            later = names[i + 1 :]
            if later and rng.random() < 0.5:
                calls.append(f"{rng.choice(later)}();")
            elif rng.random() < 0.1:
                calls.append(f"{rng.choice(names[: i + 1])}();")
            else:
                calls.append(rng.choice(EVENTS) + ";")
        lines.append(f"void {name}() {{ {' '.join(calls)} }}")
    return "\n".join(lines) + "\n"


class TestRenderCache:
    """Witness paths and query cells against the reference renderer, each
    rendered twice so that a cached text is checked as well as a fresh one."""

    @staticmethod
    def check(graph, monkeypatch):
        findings, _ = run_all(graph, load_catalog())
        for finding in findings:
            for path in finding.witness_paths:
                want = reference_path(graph, path)
                assert render_path(graph, path) == want
                assert render_path(graph, path) == want
        cells = []

        def recording(value, graph):
            cells.append((value, render_value(value, graph)))
            return cells[-1][1]

        monkeypatch.setattr(cypher_eval, "render_value", recording)
        for text in CELL_QUERIES:
            query = parse_query(text)
            assert execute_query(query, graph) == execute_query(query, graph)
        assert cells
        for value, text in cells:
            assert text == reference_value(value, graph)

    @pytest.mark.parametrize("seed", range(40))
    def test_random_call_graphs(self, seed, monkeypatch):
        graph, _, _ = merged_graph_of(random_source(random.Random(seed)))
        self.check(graph, monkeypatch)

    @pytest.mark.parametrize("sample", BUNDLED, ids=lambda path: path.name)
    def test_bundled_samples(self, sample, monkeypatch):
        graph, _, _ = merged_graph_of(sample.read_text())
        self.check(graph, monkeypatch)

    def test_bundled_sample_count(self):
        assert len(BUNDLED) == 23

    def test_unsealed_graph_renders_current_properties(self):
        graph = PropertyGraph()
        main = graph.add_node("CallGraph", {"Name": "main"})
        call = graph.add_node("CallGraph", {"Name": "gets"})
        path = Path((main, call), (graph.add_edge(main, call, "CALLS"),))
        finding = Finding("CWE-242", "gets", [path], [call], "m")

        def reported_path():
            (reported,) = json.loads(findings_to_json([finding], [], graph))["findings"]
            return reported["paths"][0]

        assert render_path(graph, path) == reported_path() == (
            '(:CallGraph {Name: "main"})-[:CALLS]->(:CallGraph {Name: "gets"})'
        )
        graph.node(call).properties["Name"] = "fgets"
        assert render_path(graph, path) == reported_path() == (
            '(:CallGraph {Name: "main"})-[:CALLS]->(:CallGraph {Name: "fgets"})'
        )
        assert render_value(graph.node(call), graph) == '(:CallGraph {Name: "fgets"})'

    def test_cache_entry_goes_with_its_graph(self):
        class Marker:
            pass

        def rendered_graph():
            graph, _ = call_graph_of(DOUBLE_FREE_SRC)
            foo = node_named(graph, "foo")
            for path in graph.enumerate_paths(foo.id, {n.id for n in graph.nodes()}):
                render_path(graph, path)
            nodes, _, _, _ = graph.derived(render._texts)
            assert nodes
            marker = nodes[0] = Marker()
            return weakref.ref(graph), weakref.ref(marker)

        gc.collect()
        gc.disable()  # reference counting alone must free them
        try:
            graph, marker = rendered_graph()
            assert graph() is None
            assert marker() is None
        finally:
            gc.enable()

    @pytest.mark.parametrize("sealed", [True, False])
    def test_only_a_sealed_graph_keeps_its_texts(self, sealed, monkeypatch):
        graph = PropertyGraph()
        main = graph.add_node("CallGraph", {"Name": "main"})
        call = graph.add_node("CallGraph", {"Name": "gets"})
        path = Path((main, call), (graph.add_edge(main, call, "CALLS"),))
        if sealed:
            graph.seal()
        rendered = []
        monkeypatch.setattr(render, "render_node", lambda node: rendered.append(node.id) or "")
        render_path(graph, path)
        render_path(graph, path)
        assert sorted(rendered) == ([main, call] if sealed else [main, main, call, call])

    def test_json_cache_entry_goes_with_its_graph(self):
        class Marker:
            pass

        def reported_graph():
            graph, _ = call_graph_of(DOUBLE_FREE_SRC)
            foo = node_named(graph, "foo")
            paths = graph.enumerate_paths(foo.id, {n.id for n in graph.nodes()})
            findings_to_json([Finding("CWE-415", "x", paths, [], "m")], [], graph)
            _, _, nodes, steps = graph.derived(render._texts)
            assert nodes and steps
            marker = nodes[0] = Marker()
            return weakref.ref(graph), weakref.ref(marker)

        gc.collect()
        gc.disable()  # reference counting alone must free them
        try:
            graph, marker = reported_graph()
            assert graph() is None
            assert marker() is None
        finally:
            gc.enable()

    @pytest.mark.parametrize("sealed", [True, False])
    def test_only_a_sealed_graph_keeps_its_escaped_texts(self, sealed, monkeypatch):
        graph = PropertyGraph()
        main = graph.add_node("CallGraph", {"Name": "main"})
        call = graph.add_node("CallGraph", {"Name": "gets"})
        path = Path((main, call), (graph.add_edge(main, call, "CALLS"),))
        if sealed:
            graph.seal()
        finding = Finding("CWE-242", "gets", [path], [], "m")
        escaped = []

        def escape(text):
            escaped.append(text)
            return json.encoder.encode_basestring(text)

        monkeypatch.setattr(render, "encode_basestring", escape)
        findings_to_json([finding], [], graph)
        findings_to_json([finding], [], graph)
        node, step = render_node(graph.node(main)), "-[:CALLS]->" + render_node(graph.node(call))
        pieces = sorted(text for text in escaped if text in (node, step))
        assert pieces == ([node, step] if sealed else [node, node, step, step])


# Each of d1..d10 calls the next twice, so gets has 2**10 witness paths.
DIAMOND10 = """\
void main() { d1(); d1(); }
void d1() { d2(); d2(); }
void d2() { d3(); d3(); }
void d3() { d4(); d4(); }
void d4() { d5(); d5(); }
void d5() { d6(); d6(); }
void d6() { d7(); d7(); }
void d7() { d8(); d8(); }
void d8() { d9(); d9(); }
void d9() { d10(); d10(); }
void d10() { gets(buf); }
"""


def test_diamond_report_bytes(tmp_path):
    """The JSON report of a 1,024-path diamond, byte for byte as the
    renderer wrote it before node and step texts were cached."""
    source = tmp_path / "diamond10.c"
    source.write_text(DIAMOND10)
    out = io.StringIO()
    code = run_cli(
        ["scan", str(source), "--format", "json"],
        stdin=io.StringIO(""), stdout=out, stderr=io.StringIO(),
    )
    assert code == 1
    (finding,) = json.loads(out.getvalue())["findings"]
    assert len(finding["paths"]) == 2**10
    digest = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
    assert digest == "a9542f9364b9ecd6af2290f041269dc276d287bd5d6d2095ec87567c83231f5a"


def test_diamond_table_bytes(tmp_path):
    """The table report of the same diamond, byte for byte as it was
    before node and step texts came from one text table per graph."""
    source = tmp_path / "diamond10.c"
    source.write_text(DIAMOND10)
    out = io.StringIO()
    code = run_cli(["scan", str(source)], stdin=io.StringIO(""), stdout=out, stderr=io.StringIO())
    assert code == 1
    digest = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
    assert digest == "1e3a4177459e4a72fe2b7469651897edb10139dad9b8e677640077b0acfe8a15"


class TestFindingsToJson:
    def test_double_free_report(self):
        graph, _, _ = merged_graph_of(DOUBLE_FREE_SRC)
        findings = detect_double_release(graph, catalog_entry("CWE-415"))
        _, capabilities = run_all(graph, [catalog_entry("CWE-401")])
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
        graph, _, _ = merged_graph_of(DOUBLE_FREE_SRC)
        findings = detect_double_release(graph, catalog_entry("CWE-415"))
        assert findings_to_json(findings, [], graph) == findings_to_json(findings, [], graph)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_json_dumps(self, data):
        graph, findings, capabilities = data.draw(reports())
        want = reference_report(findings, capabilities, graph)
        assert findings_to_json(findings, capabilities, graph) == want
        assert findings_to_json(findings, capabilities, graph) == want

    @settings(max_examples=300, deadline=None)
    @given(JSON_VALUES)
    def test_writer_matches_json_dumps(self, value):
        out = []
        render._write_json(value, "\n", out, None)
        assert "".join(out) == json.dumps(value, indent=2, ensure_ascii=False)

    @pytest.mark.parametrize("sample", BUNDLED, ids=lambda path: path.name)
    def test_bundled_samples_match_json_dumps(self, sample):
        graph, _, catalog = merged_graph_of(sample.read_text())
        findings, capabilities = run_all(graph, catalog)
        want = reference_report(findings, capabilities, graph)
        assert findings_to_json(findings, capabilities, graph) == want
        assert findings_to_json(findings, capabilities, graph) == want


def _parse_cell(column: str, cell: str):
    if column.endswith(":int"):
        return int(cell)
    if column.endswith(":float"):
        return float(cell)
    if column.endswith(":string[]"):
        return [part for part in cell.split(";") if part]
    return cell


def import_csv(nodes: bytes, relationships: bytes) -> PropertyGraph:
    """Rebuild a graph (unsealed) from exported CSV bytes; the result is
    isomorphic to the exported graph with fresh ids. The round-trip
    oracle for export_import_csv."""
    graph = PropertyGraph()
    id_map = {}

    node_rows = list(csv.reader(io.StringIO(nodes.decode("utf-8"))))
    if not node_rows or node_rows[0][:2] != ["id:ID", ":LABEL"]:
        raise CsvError(1, "nodes.csv must start with id:ID,:LABEL columns")
    columns = node_rows[0][2:]
    for i, row in enumerate(node_rows[1:], start=2):
        if len(row) != len(columns) + 2:
            raise CsvError(i, f"expected {len(columns) + 2} columns, got {len(row)}")
        external_id, label = row[0], row[1]
        if external_id in id_map:
            raise CsvError(i, f"duplicate node id {external_id!r}")
        properties = {}
        for column, cell in zip(columns, row[2:]):
            if cell == "":
                continue
            key = column.split(":", 1)[0]
            try:
                properties[key] = _parse_cell(column, cell)
            except ValueError:
                raise CsvError(i, f"bad {column} value {cell!r}") from None
        id_map[external_id] = graph.add_node(label, properties)

    rel_rows = list(csv.reader(io.StringIO(relationships.decode("utf-8"))))
    if not rel_rows or rel_rows[0] != [":START_ID", ":END_ID", ":TYPE"]:
        raise CsvError(1, "relationships.csv must have :START_ID,:END_ID,:TYPE columns")
    for i, row in enumerate(rel_rows[1:], start=2):
        if len(row) != 3:
            raise CsvError(i, f"expected 3 columns, got {len(row)}")
        source, target, edge_type = row
        if source not in id_map or target not in id_map:
            raise CsvError(i, f"edge references unknown node id {source!r}/{target!r}")
        graph.add_edge(id_map[source], id_map[target], edge_type)
    return graph


def reference_column_for(key: str, value) -> str:
    if isinstance(value, int) and not isinstance(value, bool):
        return f"{key}:int"
    if isinstance(value, float):
        return f"{key}:float"
    if isinstance(value, list):
        return f"{key}:string[]"
    return key


def reference_cell_for(value) -> str:
    if isinstance(value, list):
        return ";".join(value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def reference_csv(rows: list) -> bytes:
    """rows as CSV lines ending in "\\n", each cell quoted when it holds a
    comma, a quote, a newline or a carriage return. csv.writer quotes a
    cell holding any character of its line terminator, so with "\\r\\n"
    it quotes a lone "\\r" on every Python; with "\\n" only 3.13 does."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\r\n")
    lines = []
    for row in rows:
        out.seek(0)
        out.truncate()
        writer.writerow(row)
        lines.append(out.getvalue()[:-2] + "\n")
    return "".join(lines).encode("utf-8")


def reference_export_import_csv(graph: PropertyGraph):
    """The export written one (node, column) pair at a time, with node
    ids renumbered 1..N in nodes() order: the oracle for
    export_import_csv, byte for byte."""
    columns = {}
    for node in graph.nodes():
        for key, value in node.properties.items():
            columns[(key, reference_column_for(key, value))] = None
    prop_columns = sorted(columns, key=lambda kc: (kc[0], kc[1]))

    canonical = {node.id: i for i, node in enumerate(graph.nodes(), start=1)}
    node_rows = [["id:ID", ":LABEL"] + [c for _, c in prop_columns]]
    for node in graph.nodes():
        row = [str(canonical[node.id]), node.label]
        for key, column in prop_columns:
            value = node.properties.get(key)
            if value is not None and reference_column_for(key, value) == column:
                row.append(reference_cell_for(value))
            else:
                row.append("")
        node_rows.append(row)

    rows = sorted(
        (canonical[source], canonical[target], edge_type, edge_id)
        for edge_id, source, target, edge_type in edge_rows(graph)
    )
    rel_rows = [[":START_ID", ":END_ID", ":TYPE"]] + [
        [str(source), str(target), edge_type] for source, target, edge_type, _ in rows
    ]
    return reference_csv(node_rows), reference_csv(rel_rows)


# Text that needs quoting in a CSV field now and then: a comma, a quote,
# a newline or a carriage return.
EXPORT_TEXT = st.text(alphabet=st.sampled_from('ab ,"\n\r;:\u00e9'), max_size=6)
EXPORT_LABELS = st.one_of(
    st.sampled_from(["CWE", "CVE", "a,b", 'q"t', "l\nm"]), EXPORT_TEXT.filter(bool)
)
EXPORT_KEYS = st.sampled_from(["Name", "Version", "a", "a,b", 'q"k', "n\nl"])
EXPORT_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    EXPORT_TEXT,
    st.lists(EXPORT_TEXT.filter(bool), max_size=3),
)
EXPORT_PROPERTIES = st.dictionaries(EXPORT_KEYS, EXPORT_VALUES, max_size=4)


@st.composite
def sealed_graphs(draw):
    """A sealed graph whose nodes mix labels and, under one key, values
    of every kind; now and then a sealed graph's copy() with more nodes
    and edges added."""

    def add(graph):
        for _ in range(draw(st.integers(0, 8))):
            properties = draw(EXPORT_PROPERTIES)
            graph.add_node(draw(EXPORT_LABELS), properties)
        if graph.node_count:
            node_ids = st.integers(1, graph.node_count)
            for _ in range(draw(st.integers(0, 10))):
                graph.add_edge(draw(node_ids), draw(node_ids), draw(EXPORT_LABELS))

    graph = PropertyGraph()
    add(graph)
    graph.seal()
    if draw(st.booleans()):
        graph = graph.copy()
        add(graph)
        graph.seal()
    return graph


def read_back(graph: PropertyGraph) -> PropertyGraph:
    """A sealed graph like graph, with each property value as import_csv
    reads its cell back: no property for an empty cell, and a string
    list as the items of its cell between the ';'s, empty ones left out."""
    copy = PropertyGraph()
    for node in graph.nodes():
        properties = {}
        for key, value in node.properties.items():
            cell = "" if value is None else reference_cell_for(value)
            if isinstance(value, list):
                value = [part for part in cell.split(";") if part]
            if cell:
                properties[key] = value
        copy.add_node(node.label, properties)
    for _, source, target, edge_type in edge_rows(graph):
        copy.add_edge(source, target, edge_type)
    copy.seal()
    return copy


class TestExportMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(sealed_graphs())
    def test_random_graphs(self, graph):
        assert export_import_csv(graph) == reference_export_import_csv(graph)

    def test_empty_graph(self):
        graph = PropertyGraph()
        graph.seal()
        assert export_import_csv(graph) == reference_export_import_csv(graph)

    def test_copy_with_new_nodes(self):
        graph = PropertyGraph()
        first = graph.add_node("CWE", {"Name": "x", "Score": 1})
        graph.add_node("CWE", {"Name": ["a", "b"], "Score": 1.5})
        graph.seal()
        graph = graph.copy()
        second = graph.add_node('q"t', {"Name": None, "Score": True, "a,b": "c\nd"})
        graph.add_node("CWE", {"Score": 1, "Name": "y"})
        graph.add_edge(second, first, "CALLS, \"x\"")
        graph.add_edge(first, second, "CALLS")
        graph.add_edge(first, second, "CALLS")
        graph.seal()
        assert export_import_csv(graph) == reference_export_import_csv(graph)

    @pytest.mark.parametrize("sample", BUNDLED, ids=lambda path: path.name)
    def test_bundled_samples(self, sample):
        graph, _, _ = merged_graph_of(sample.read_text())
        assert export_import_csv(graph) == reference_export_import_csv(graph)

    def test_typing_rules(self):
        graph = PropertyGraph()
        graph.add_node("N", {"k": True, "f": -0.0, "e": None, "l": ["a", "b"]})
        graph.add_node("N", {"k": 3, "f": "x"})
        graph.seal()
        header, first, second = export_import_csv(graph)[0].decode().splitlines()
        assert header == "id:ID,:LABEL,e,f,f:float,k,k:int,l:string[]"
        assert first == "1,N,,,-0.0,True,,a;b"
        assert second == "2,N,,x,,,3,"


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

    @settings(max_examples=200, deadline=None)
    @given(sealed_graphs())
    def test_round_trip_byte_stable_for_random_graphs(self, graph):
        """export -> import_csv -> export gives the export of graph with
        each value as its cell reads back: the same bytes, unless a
        column held only cells that read back as absent."""
        nodes, relationships = export_import_csv(graph)
        rebuilt = import_csv(nodes, relationships)
        rebuilt.seal()
        assert export_import_csv(rebuilt) == export_import_csv(read_back(graph))

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
