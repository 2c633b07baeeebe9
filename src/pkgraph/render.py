"""Canonical rendering and interchange export.

One renderer produces node/path strings for finding reports and query
results alike, so the two pipelines emit byte-identical text. Graph
export follows the bulk-import CSV header convention (id:ID, :LABEL,
:START_ID, :END_ID, :TYPE) plus a DOT emitter for visualization. All
output is locale-independent and byte-stable.

A sealed graph's node texts and call-step texts (`-[:TYPE]->` plus the
target node's text) are rendered once and cached with the graph, so a
path's text is one join of cached pieces however many paths share them.
"""

from __future__ import annotations

import csv
import io
import json

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


def _texts(graph: PropertyGraph) -> tuple:
    """The caches (node id -> node text, edge id -> step text) of graph,
    kept with it once it is sealed."""
    return ({}, {})


def _node_text(graph: PropertyGraph, nodes: dict, node_id: int) -> str:
    text = nodes.get(node_id)
    if text is None:
        text = nodes[node_id] = render_node(graph.node(node_id))
    return text


def render_path(graph: PropertyGraph, path: Path) -> str:
    """The head node's text followed by one `-[:TYPE]->(node)` step per
    edge. A step is keyed by its edge id alone: path.nodes[k + 1] is the
    target of path.edges[k] in every path that enumerate_paths or the
    query matcher builds."""
    nodes, steps = graph.derived(_texts)
    try:
        tail = [steps[edge_id] for edge_id in path.edges]
    except KeyError:
        for edge_id in path.edges:
            if edge_id not in steps:
                edge = graph.edge(edge_id)
                steps[edge_id] = f"-[:{edge.type}]->" + _node_text(graph, nodes, edge.target)
        tail = [steps[edge_id] for edge_id in path.edges]
    return "".join([_node_text(graph, nodes, path.nodes[0]), *tail])


def render_value(value, graph: PropertyGraph) -> str:
    """A query result cell: `null`, a node, a path, a list of values, or
    a scalar with text unquoted. Nodes in value are graph's nodes."""
    if value is None:
        return "null"
    if isinstance(value, Node):
        return _node_text(graph, graph.derived(_texts)[0], value.id)
    if isinstance(value, Path):
        return render_path(graph, value)
    if isinstance(value, list):
        return "[" + ", ".join(render_value(v, graph) for v in value) + "]"
    return render_scalar(value, quote_text=False)


def findings_to_json(findings: list, capabilities: list, graph: PropertyGraph) -> bytes:
    """Stable-key-order JSON report; byte-identical for identical inputs."""
    doc = {
        "version": 1,
        "findings": [
            {
                "cwe_id": f.cwe_id,
                "cwe_name": f.cwe_name,
                "message": f.message,
                "paths": [render_path(graph, p) for p in f.witness_paths],
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
    return (json.dumps(doc, indent=2, ensure_ascii=False) + "\n").encode("utf-8")


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
