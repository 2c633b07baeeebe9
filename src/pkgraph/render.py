"""Canonical rendering and interchange export.

One renderer produces node/path strings for finding reports and query
results alike, so the two pipelines emit byte-identical text. Graph
export follows the bulk-import CSV header convention (id:ID, :LABEL,
:START_ID, :END_ID, :TYPE) plus a DOT emitter for visualization. All
output is locale-independent and byte-stable.

Each graph has one text table: node texts, call-step texts (`-[:TYPE]->`
plus the target node's text), and both again JSON-escaped. An entry is
rendered on its first lookup and, once the graph is sealed, kept with
it, so a path's text is one join of looked-up pieces however many paths
share them. The JSON scan report is a plain dict written by one small
writer that gives json.dumps(indent=2)'s text; a witness path in it is
its escaped pieces between quotes, so no path is escaped as a whole.
"""

from __future__ import annotations

import csv
import io
import json
import weakref
from json.encoder import encode_basestring  # the C escaper

from .graph import Node, Path, PropertyGraph


class ExportError(Exception):
    """Export requested on a graph that is not sealed."""


def render_scalar(value, quote_text: bool = True) -> str:
    if isinstance(value, str):
        if not quote_text:
            return value
        return '"' + value.replace('"', '\\"') + '"'
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return repr(value)
    if isinstance(value, list):
        return "[" + ", ".join(render_scalar(v) for v in value) + "]"
    raise TypeError(f"not a property value: {value!r}")


def render_node(node: Node) -> str:
    """`(:Label {k1: v1, ...})` with keys ascending; a node without
    properties renders without the braces."""
    if not node.properties:
        return f"(:{node.label})"
    body = ", ".join(
        f"{key}: {render_scalar(node.properties[key])}" for key in sorted(node.properties)
    )
    return f"(:{node.label} {{{body}}})"


class _Table(dict):
    """A dict that fills a missing entry with fill(key) on lookup, so a
    hit stays a plain dict lookup."""

    __slots__ = ("fill",)

    def __init__(self, fill):
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


def _texts(graph: PropertyGraph) -> tuple:
    """graph's text table: node id -> node text, edge id -> step text,
    and the same two JSON-escaped without their quotes. A step is keyed
    by its edge id alone: path.nodes[k + 1] is the target of
    path.edges[k] in every path that enumerate_paths or the query
    matcher builds. The fills hold graph weakly: the table is kept in
    graph, and a cycle through it would outlive the graph's last
    reference until the cyclic collector ran."""
    graph = weakref.proxy(graph)

    def step(edge_id):
        edge = graph.edge(edge_id)
        return f"-[:{edge.type}]->" + nodes[edge.target]

    nodes = _Table(lambda node_id: render_node(graph.node(node_id)))
    steps = _Table(step)
    return (
        nodes,
        steps,
        _Table(lambda node_id: encode_basestring(nodes[node_id])[1:-1]),
        _Table(lambda edge_id: encode_basestring(steps[edge_id])[1:-1]),
    )


def render_path(graph: PropertyGraph, path: Path) -> str:
    """The head node's text followed by one `-[:TYPE]->(node)` step per
    edge."""
    nodes, steps, _, _ = graph.derived(_texts)
    return "".join([nodes[path.nodes[0]], *map(steps.__getitem__, path.edges)])


def render_value(value, graph: PropertyGraph) -> str:
    """A query result cell: `null`, a node, a path, a list of values, or
    a scalar with text unquoted. Nodes in value are graph's nodes."""
    if value is None:
        return "null"
    if isinstance(value, Node):
        return graph.derived(_texts)[0][value.id]
    if isinstance(value, Path):
        return render_path(graph, value)
    if isinstance(value, list):
        return "[" + ", ".join(render_value(v, graph) for v in value) + "]"
    return render_scalar(value, quote_text=False)


def _write_json(value, newline: str, out: list, graph: PropertyGraph) -> None:
    """Append to out the text json.dumps(value, indent=2,
    ensure_ascii=False) gives for value on a line that newline ("\\n" and
    that line's indentation) ends. A list whose first item is a Path
    holds graph's paths only, each written as its rendered text."""
    if isinstance(value, str):
        out.append(encode_basestring(value))
    elif isinstance(value, dict) and value:
        inner = newline + "  "
        opening, separator = "{" + inner, "," + inner
        for key, item in value.items():
            out += (opening, encode_basestring(key), ": ")
            _write_json(item, inner, out, graph)
            opening = separator
        out += (newline, "}")
    elif isinstance(value, list) and value:
        inner = newline + "  "
        if isinstance(value[0], Path):
            _, _, nodes, steps = graph.derived(_texts)
            opening, separator = "[" + inner + '"', "," + inner + '"'
            for path in value:
                out += (opening, nodes[path.nodes[0]], *map(steps.__getitem__, path.edges), '"')
                opening = separator
        else:
            opening, separator = "[" + inner, "," + inner
            for item in value:
                out.append(opening)
                _write_json(item, inner, out, graph)
                opening = separator
        out += (newline, "]")
    elif type(value) is int:  # as json.dumps writes it, without its per-call set-up
        out.append(repr(value))
    else:
        out.append(json.dumps(value))


def findings_to_json(findings: list, capabilities: list, graph: PropertyGraph) -> str:
    """The JSON scan report, one line per item as json.dumps(indent=2)
    writes it, with each witness path as its rendered text and each
    terminal's properties in key order."""
    report = {
        "version": 1,
        "findings": [
            {
                "cwe_id": finding.cwe_id,
                "cwe_name": finding.cwe_name,
                "message": finding.message,
                "paths": finding.witness_paths,
                "terminals": [
                    {
                        "label": terminal.label,
                        "properties": dict(sorted(terminal.properties.items())),
                    }
                    for terminal in map(graph.node, finding.terminal_nodes)
                ],
            }
            for finding in findings
        ],
        "unsupported": [
            {"cwe_id": capability.cwe_id, "reason": capability.reason}
            for capability in capabilities
        ],
    }
    out = []
    _write_json(report, "\n", out, graph)
    out.append("\n")
    return "".join(out)


# ---------------------------------------------------------------------------
# CSV bulk-import format
# ---------------------------------------------------------------------------

def _column_for(key: str, value) -> str:
    if isinstance(value, int) and not isinstance(value, bool):
        return f"{key}:int"
    if isinstance(value, float):
        return f"{key}:float"
    if isinstance(value, list):
        return f"{key}:string[]"
    return key


def _cell_for(value) -> str:
    if isinstance(value, list):
        return ";".join(value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def export_import_csv(graph: PropertyGraph):
    """Serialize to (nodes.csv, relationships.csv) bytes.

    Node ids are renumbered 1..N in ascending-id order so that
    export -> import -> export is byte-stable. Property columns are the
    union of keys seen, typed from their values, sorted by name.
    """
    if not graph.sealed:
        raise ExportError("graph must be sealed before export")
    columns = {}
    for node in graph.nodes():
        for key, value in node.properties.items():
            columns[(key, _column_for(key, value))] = None
    prop_columns = sorted(columns, key=lambda kc: (kc[0], kc[1]))

    canonical = {node.id: i for i, node in enumerate(graph.nodes(), start=1)}
    nodes_out = io.StringIO()
    writer = csv.writer(nodes_out, lineterminator="\n")
    writer.writerow(["id:ID", ":LABEL"] + [c for _, c in prop_columns])
    for node in graph.nodes():
        row = [str(canonical[node.id]), node.label]
        for key, column in prop_columns:
            value = node.properties.get(key)
            if value is not None and _column_for(key, value) == column:
                row.append(_cell_for(value))
            else:
                row.append("")
        writer.writerow(row)

    rels_out = io.StringIO()
    writer = csv.writer(rels_out, lineterminator="\n")
    writer.writerow([":START_ID", ":END_ID", ":TYPE"])
    rows = sorted(
        (canonical[e.source], canonical[e.target], e.type, e.id) for e in graph.edges()
    )
    for source, target, edge_type, _ in rows:
        writer.writerow([str(source), str(target), edge_type])
    return nodes_out.getvalue().encode("utf-8"), rels_out.getvalue().encode("utf-8")


# ---------------------------------------------------------------------------
# DOT
# ---------------------------------------------------------------------------

def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def export_dot(graph: PropertyGraph) -> str:
    """DOT digraph; node label = Name property when present, else the
    node's graph label. Deterministic emission order."""
    if graph.node_count == 0 and graph.edge_count == 0:
        return "digraph G { }\n"
    lines = ["digraph G {"]
    for node in graph.nodes():
        label = node.properties.get("Name", node.label)
        lines.append(f'  n{node.id} [label="{_dot_escape(str(label))}"];')
    for edge in graph.edges():
        lines.append(f'  n{edge.source} -> n{edge.target} [label="{_dot_escape(edge.type)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
