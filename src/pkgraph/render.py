"""Canonical rendering and interchange export.

One renderer produces node/path strings for finding reports and query
results alike, so the two pipelines emit byte-identical text. Graph
export follows the bulk-import CSV header convention (id:ID, :LABEL,
:START_ID, :END_ID, :TYPE) plus a DOT emitter for visualization. All
output is locale-independent and byte-stable.

A sealed graph's node texts and call-step texts (`-[:TYPE]->` plus the
target node's text) are rendered once and cached with the graph, so a
path's text is one join of cached pieces however many paths share them.
The JSON report keeps the same texts JSON-escaped in a second cache, so
no witness path is escaped as a whole.
"""

from __future__ import annotations

import csv
import io
import json
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


def _texts(graph: PropertyGraph) -> tuple:
    """The caches (node id -> node text, edge id -> step text) of graph,
    kept with it once it is sealed."""
    return ({}, {})


def _json_texts(graph: PropertyGraph) -> tuple:
    """The same texts JSON-escaped, without their quotes; kept like
    _texts."""
    return ({}, {})


def _node_text(graph: PropertyGraph, nodes: dict, node_id: int) -> str:
    text = nodes.get(node_id)
    if text is None:
        text = nodes[node_id] = render_node(graph.node(node_id))
    return text


def _step_text(graph: PropertyGraph, nodes: dict, steps: dict, edge_id: int) -> str:
    text = steps.get(edge_id)
    if text is None:
        edge = graph.edge(edge_id)
        text = steps[edge_id] = f"-[:{edge.type}]->" + _node_text(graph, nodes, edge.target)
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
        tail = [_step_text(graph, nodes, steps, edge_id) for edge_id in path.edges]
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


def _json_value(value, indent: str) -> str:
    """value as json.dumps(value, indent=2, ensure_ascii=False) writes it
    on a line indented by indent: a string through the C escaper, a list
    one item a line, any other scalar as json.dumps writes it."""
    if isinstance(value, str):
        return encode_basestring(value)
    if isinstance(value, list) and value:
        inner = indent + "  "
        items = (",\n" + inner).join(_json_value(v, inner) for v in value)
        return f"[\n{inner}{items}\n{indent}]"
    return json.dumps(value)


def _opening(index: int, indent: str) -> str:
    """What goes before item index of an indented JSON array or object."""
    return (",\n" if index else "\n") + indent


def _closing(items, indent: str, bracket: str) -> str:
    """The end of an indented JSON array or object; an empty one closes
    on the line it opened on."""
    return f"\n{indent}{bracket}" if items else bracket


def findings_to_json(findings: list, capabilities: list, graph: PropertyGraph) -> str:
    """The text json.dumps(report, indent=2, ensure_ascii=False) + "\\n"
    gives for report = {"version": 1, "findings": [...], "unsupported":
    [...]}, written piece by piece. Escaping works character by
    character, so a witness path is the escaped text of its head node and
    of its steps, each escaped once per sealed graph, between quotes."""
    nodes, steps = graph.derived(_texts)
    json_nodes, json_steps = graph.derived(_json_texts)

    def json_node(node_id):
        text = json_nodes.get(node_id)
        if text is None:
            text = encode_basestring(_node_text(graph, nodes, node_id))[1:-1]
            json_nodes[node_id] = text
        return text

    def json_step(edge_id):
        text = json_steps.get(edge_id)
        if text is None:
            text = encode_basestring(_step_text(graph, nodes, steps, edge_id))[1:-1]
            json_steps[edge_id] = text
        return text

    out = ['{\n  "version": 1,\n  "findings": [']
    for i, finding in enumerate(findings):
        out += (
            _opening(i, "    "), '{\n      "cwe_id": ', _json_value(finding.cwe_id, "      "),
            ',\n      "cwe_name": ', _json_value(finding.cwe_name, "      "),
            ',\n      "message": ', _json_value(finding.message, "      "),
            ',\n      "paths": [',
        )
        separator = '\n        "'
        for path in finding.witness_paths:
            try:
                out += (
                    separator, json_nodes[path.nodes[0]],
                    *map(json_steps.__getitem__, path.edges), '"',
                )
            except KeyError:
                out += (separator, json_node(path.nodes[0]), *map(json_step, path.edges), '"')
            separator = ',\n        "'
        out += (_closing(finding.witness_paths, "      ", "]"), ',\n      "terminals": [')
        for j, node_id in enumerate(finding.terminal_nodes):
            terminal = graph.node(node_id)
            out += (
                _opening(j, "        "), '{\n          "label": ',
                _json_value(terminal.label, "          "), ',\n          "properties": {',
            )
            for k, key in enumerate(sorted(terminal.properties)):
                out += (
                    _opening(k, "            "), encode_basestring(key), ": ",
                    _json_value(terminal.properties[key], "            "),
                )
            out += (_closing(terminal.properties, "          ", "}"), "\n        }")
        out += (_closing(finding.terminal_nodes, "      ", "]"), "\n    }")
    out += (_closing(findings, "  ", "]"), ',\n  "unsupported": [')
    for i, capability in enumerate(capabilities):
        out += (
            _opening(i, "    "), '{\n      "cwe_id": ', _json_value(capability.cwe_id, "      "),
            ',\n      "reason": ', _json_value(capability.reason, "      "), "\n    }",
        )
    out += (_closing(capabilities, "  ", "]"), "\n}\n")
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
