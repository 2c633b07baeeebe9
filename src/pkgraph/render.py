"""Canonical rendering and interchange export.

One renderer produces node/path strings for finding reports and query
results alike, so the two pipelines emit byte-identical text. Graph
export follows the bulk-import CSV header convention (id:ID, :LABEL,
:START_ID, :END_ID, :TYPE) plus a DOT emitter for visualization. All
output is locale-independent and byte-stable.

An import CSV has one property column per key and kind of value seen,
sorted by (key, column name): `key:int` for an int, `key:float` for a
float (written by repr), `key:string[]` for a string list (joined with
';'), and a plain `key` for text and for a bool (written True/False).
A key whose values are of several kinds gets one column per kind, and
a node's cell is empty in the columns of the kinds its value is not.
A None value adds a plain `key` column and gives an empty cell in it.
Relationship rows are ordered by (start, end, type, edge id). Every
cell, header names, labels and relationship types too, is quoted by one
rule: when it holds a comma, a double quote, a newline or a carriage
return, it is written between double quotes with each quote inside
doubled, and otherwise as it is. Lines end in "\\n". The writer is the
module's own, not csv.writer, whose rule for a lone carriage return
differs between Python versions, so the bytes are the same on every
Python the package supports.

Each graph has one text table: node texts, call-step texts (`-[:TYPE]->`
plus the target node's text), and both again JSON-escaped. An entry is
rendered on its first lookup and, once the graph is sealed, kept with
it, so a path's text is one join of looked-up pieces however many paths
share them. The JSON scan report is a plain dict written by one small
writer that gives json.dumps(indent=2)'s text; a witness path in it is
its escaped pieces between quotes, so no path is escaped as a whole.
"""

from __future__ import annotations

import json
import weakref
from itertools import repeat
from json.encoder import encode_basestring  # the C escaper
from operator import itemgetter

from .graph import Node, Path, PropertyGraph


class ExportError(Exception):
    """Export requested on a graph that is not sealed."""


#: How long a list cell may render, in characters. A list may hold one
#: sublist many times, so its text can grow exponentially in the length
#: of the query that built it.
MAX_CELL_CHARS = 10_000_000


class CellTooLong(Exception):
    """A list cell renders longer than MAX_CELL_CHARS characters."""


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
        _, targets, types = graph.edge_columns()
        return f"-[:{types[edge_id - 1]}]->" + nodes[targets[edge_id - 1]]

    nodes = _Table(lambda node_id: render_node(graph.node(node_id)))
    steps = _Table(step)
    return (
        nodes,
        steps,
        _Table(lambda node_id: encode_basestring(nodes[node_id])[1:-1]),
        _Table(lambda edge_id: encode_basestring(steps[edge_id])[1:-1]),
    )


def _texts_of(graph: PropertyGraph) -> tuple:
    """graph's text table, kept with the graph only once it is sealed: a
    node of an unsealed graph may still have its properties changed in
    place, which no batch marks, so a kept text could go stale."""
    return graph.derived(_texts) if graph.sealed else _texts(graph)


def render_path(graph: PropertyGraph, path: Path) -> str:
    """The head node's text followed by one `-[:TYPE]->(node)` step per
    edge."""
    nodes, steps, _, _ = _texts_of(graph)
    return "".join([nodes[path.nodes[0]], *map(steps.__getitem__, path.edges)])


def render_value(value, graph: PropertyGraph) -> str:
    """A query result cell: `null`, a node, a path, a list of values, or
    a scalar with text unquoted. Nodes in value are graph's nodes."""
    if value is None:
        return "null"
    if isinstance(value, Node):
        return _texts_of(graph)[0][value.id]
    if isinstance(value, Path):
        return render_path(graph, value)
    if isinstance(value, list):
        return _render_list(value, graph, {})
    return render_scalar(value, quote_text=False)


def _render_list(value: list, graph: PropertyGraph, texts: dict) -> str:
    """value's text as render_value gives it. texts maps id(list) -> text
    for the lists of one cell rendered so far, so a list held many times
    is rendered once; the cell holds every one of them, so no id is
    reused. Raises CellTooLong as soon as the text would pass
    MAX_CELL_CHARS, before it is joined."""
    pieces = []
    length = 0  # "[" and "]" stand in for the first element's ", "
    for v in value:
        if isinstance(v, list):
            text = texts.get(id(v))
            if text is None:
                text = texts[id(v)] = _render_list(v, graph, texts)
        else:
            text = render_value(v, graph)
        length += len(text) + 2
        if length > MAX_CELL_CHARS:
            raise CellTooLong(f"a list cell renders longer than {MAX_CELL_CHARS} characters")
        pieces.append(text)
    return "[" + ", ".join(pieces) + "]"


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
            _, _, nodes, steps = _texts_of(graph)
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


def _needs_quotes(text: str) -> bool:
    return "," in text or '"' in text or "\n" in text or "\r" in text


def _csv_cell(text: str) -> str:
    """text as one CSV cell: quoted when it holds a comma, a quote, a
    newline or a carriage return, with each quote inside doubled."""
    return '"' + text.replace('"', '""') + '"' if _needs_quotes(text) else text


def _column_cells(values: list, sample) -> list:
    """The cells of values, one key's values over the nodes of one shape,
    sample among them: text as is, a string list joined with ';', a float
    by repr, None as an empty cell, anything else by str. One search
    over the joined cells tells whether any of them needs quoting."""
    if isinstance(sample, str):
        cells = values
    elif isinstance(sample, list):
        cells = list(map(";".join, values))
    elif isinstance(sample, float):
        cells = list(map(repr, values))
    elif sample is None:
        return [""] * len(values)
    else:
        cells = list(map(str, values))
    return list(map(_csv_cell, cells)) if _needs_quotes("".join(cells)) else cells


def export_import_csv(graph: PropertyGraph):
    """Serialize to (nodes.csv, relationships.csv) bytes.

    A node's id column is its graph id, which is its 1-based place in
    nodes() order (PropertyGraph issues ids that way), so export ->
    import -> export is byte-stable. Property columns are the union of
    (key, kind) pairs seen, sorted by name. Nodes are grouped by shape
    (label, property keys and value types, in order): each shape's
    column slots are worked out once, and its cells are rendered one
    key at a time, so no Python code runs per (node, column) pair.
    Relationship rows are sorted by (start, end, type, edge id).
    """
    if not graph.sealed:
        raise ExportError("graph must be sealed before export")
    shapes = {}
    for node in graph.nodes():
        props = node.properties
        shapes.setdefault((node.label, *props, *map(type, props.values())), []).append(node)
    # The nodes of one shape share their first node's keys and kinds.
    columns = sorted({
        (key, _column_for(key, value))
        for group in shapes.values()
        for key, value in group[0].properties.items()
    })
    slot = {column: i for i, (_, column) in enumerate(columns)}

    # lines[k] is node k's line, after the header at 0; the empty last
    # line ends the file with a newline.
    lines = [None] * (graph.node_count + 2)
    lines[0] = ",".join(map(_csv_cell, ["id:ID", ":LABEL", *(column for _, column in columns)]))
    lines[-1] = ""
    blank = repeat("")
    for group in shapes.values():
        props = [node.properties for node in group]
        cells = [blank] * len(columns)
        for key, value in props[0].items():
            cells[slot[_column_for(key, value)]] = _column_cells(
                list(map(itemgetter(key), props)), value
            )
        ids = [node.id for node in group]
        label = repeat(_csv_cell(group[0].label))
        for node_id, line in zip(ids, map(",".join, zip(map(str, ids), label, *cells))):
            lines[node_id] = line

    # Rows that tie on (start, end, type) are the same line, so sorting
    # without the edge id writes what sorting with it would.
    edges = sorted(zip(*graph.edge_columns()))
    quoted = {edge_type: _csv_cell(edge_type) for edge_type in {e[2] for e in edges}}
    relationships = "".join(
        [":START_ID,:END_ID,:TYPE\n"]
        + [f"{source},{target},{quoted[edge_type]}\n" for source, target, edge_type in edges]
    )
    return "\n".join(lines).encode("utf-8"), relationships.encode("utf-8")


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
    for source, target, edge_type in zip(*graph.edge_columns()):
        lines.append(f'  n{source} -> n{target} [label="{_dot_escape(edge_type)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
