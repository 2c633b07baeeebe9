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

Each graph has one text table, of plain texts for tables and queries
and JSON texts for the scan report. A plain node text is render_node's;
a plain step is `-[:TYPE]->` and its target node's text. The JSON side
escapes each node's property values once, on the node's first lookup,
and each label, key and `-[:TYPE]->` once per graph. From those pieces
it builds both a node's text as a JSON string holds it and, for a
terminal, its object in the report; an escaped step is the escaped
`-[:TYPE]->` and the target's escaped text. An entry is made on its
first lookup and, once the graph is sealed, kept with it, so a path's
text is one join of looked-up pieces however many paths share them, and
a JSON scan makes no plain text and escapes no value twice.

The JSON scan report has a fixed shape, so findings_to_json writes it
piece by piece straight from the findings, with the text that
json.dumps(indent=2, ensure_ascii=False) gives: a witness path is its
escaped pieces between quotes, a terminal is its kept object, and any
other field is escaped where it is written.
"""

from __future__ import annotations

import json
import weakref
from itertools import repeat
from json.encoder import encode_basestring  # the C escaper
from operator import itemgetter

from .graph import Node, Path, PropertyGraph, Record


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


class _TextTable(Record):
    """A graph's texts, each made on its first lookup. nodes and steps
    hold the plain texts of nodes, by node id, and of call steps,
    `-[:TYPE]->` and the target node's text, by edge id. json_nodes and
    json_steps hold the same texts as a JSON string holds them, without
    its quotes, and terminals each node's object in the report's
    terminals list."""

    __slots__ = ("nodes", "steps", "json_nodes", "json_steps", "terminals")


def _texts(graph: PropertyGraph) -> _TextTable:
    """graph's text table. A step is keyed by its edge id alone:
    path.nodes[k + 1] is the target of path.edges[k] in every path that
    enumerate_paths or the query matcher builds. The JSON texts are
    built from fields, each node's escaped label and properties, names,
    each escaped label and key, and arrows, each escaped `-[:TYPE]->`.
    The fills hold graph weakly: the table is kept in graph, and a cycle
    through it would outlive the graph's last reference until the cyclic
    collector ran."""
    graph = weakref.proxy(graph)

    def step(edge_id):
        _, targets, types = graph.edge_columns()
        return f"-[:{types[edge_id - 1]}]->" + nodes[targets[edge_id - 1]]

    def json_step(edge_id):
        _, targets, types = graph.edge_columns()
        return arrows[types[edge_id - 1]] + json_nodes[targets[edge_id - 1]]

    names = _Table(lambda text: encode_basestring(text)[1:-1])
    arrows = _Table(lambda edge_type: encode_basestring(f"-[:{edge_type}]->")[1:-1])
    fields = _Table(lambda node_id: _fields(graph.node(node_id), names))
    nodes = _Table(lambda node_id: render_node(graph.node(node_id)))
    json_nodes = _Table(lambda node_id: _json_node(*fields[node_id]))
    return _TextTable(
        nodes,
        _Table(step),
        json_nodes,
        _Table(json_step),
        _Table(lambda node_id: _terminal(*fields[node_id])),
    )


def _texts_of(graph: PropertyGraph) -> _TextTable:
    """graph's text table, kept with the graph only once it is sealed: a
    node of an unsealed graph may still have its properties changed in
    place, which no batch marks, so a kept text could go stale."""
    return graph.derived(_texts) if graph.sealed else _texts(graph)


def _fields(node: Node, names: dict) -> tuple:
    """node's label and properties, JSON-escaped without their quotes:
    (label, [(key, value), ...]) in key order, where a value that is not
    text is kept as it is."""
    return names[node.label], [
        (names[key], encode_basestring(value)[1:-1] if type(value) is str else value)
        for key, value in sorted(node.properties.items())
    ]


def _json_node(label: str, fields: list) -> str:
    """render_node's text as a JSON string holds it, without its quotes,
    from the node's escaped label and fields. The quotes round a text
    value are escaped, and so is each backslash that render_scalar puts
    before a quote inside it: `\\"` in the escaped value becomes
    `\\\\\\"`."""
    if not fields:
        return f"(:{label})"
    pieces = ["(:", label]
    separator = " {"
    for key, value in fields:
        if type(value) is str:
            if '"' in value:
                value = value.replace('\\"', '\\\\\\"')
            pieces += (separator, key, ': \\"', value, '\\"')
        elif type(value) is int:
            pieces += (separator, key, ": ", repr(value))
        else:
            pieces += (separator, key, ": ", encode_basestring(render_scalar(value))[1:-1])
        separator = ", "
    pieces.append("})")
    return "".join(pieces)


# The indentations of the report's fixed shape: a finding's or a
# capability's fields, a finding's witness paths and terminals, a
# terminal's label and properties, and one property.
_FIELD = "\n      "
_ITEM = "\n        "
_TERMINAL_FIELD = "\n          "
_PROPERTY = "\n            "
_NEXT_ITEM = "," + _ITEM
_NEXT_PATH = '"' + _NEXT_ITEM + '"'
_NEXT_PROPERTY = "," + _PROPERTY + '"'


def _terminal(label: str, fields: list) -> str:
    """A terminal's object in the report, from the node's escaped label
    and fields, as json.dumps(indent=2) writes it at its place there."""
    pieces = ["{", _TERMINAL_FIELD, '"label": "', label, '",', _TERMINAL_FIELD, '"properties": ']
    separator = "{" + _PROPERTY + '"'
    for key, value in fields:
        if type(value) is str:
            pieces += (separator, key, '": "', value, '"')
        elif type(value) is int:
            pieces += (separator, key, '": ', repr(value))
        else:
            pieces += (separator, key, '": ', _json_value(value, _PROPERTY))
        separator = _NEXT_PROPERTY
    pieces += (_TERMINAL_FIELD + "}" if fields else "{}", _ITEM, "}")
    return "".join(pieces)


def render_path(graph: PropertyGraph, path: Path) -> str:
    """The head node's text followed by one `-[:TYPE]->(node)` step per
    edge."""
    table = _texts_of(graph)
    return "".join([table.nodes[path.nodes[0]], *map(table.steps.__getitem__, path.edges)])


def render_value(value, graph: PropertyGraph) -> str:
    """A query result cell: `null`, a node, a path, a list of values, or
    a scalar with text unquoted. Nodes in value are graph's nodes."""
    if value is None:
        return "null"
    if isinstance(value, Node):
        return _texts_of(graph).nodes[value.id]
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


def _json_value(value, newline: str) -> str:
    """The text json.dumps(value, indent=2, ensure_ascii=False) gives for
    value on a line that newline ("\\n" and that line's indentation)
    ends. Each "\\n" of json.dumps's own text is re-indented, which is
    exact: a JSON string never holds a raw newline."""
    if type(value) is str:  # as json.dumps writes it, without its per-call set-up
        return encode_basestring(value)
    return json.dumps(value, indent=2, ensure_ascii=False).replace("\n", newline)


def findings_to_json(findings: list, capabilities: list, graph: PropertyGraph) -> str:
    """The JSON scan report, one line per item as json.dumps(indent=2)
    writes it, with each witness path as its rendered text and each
    terminal's properties in key order. The report's shape is fixed, so
    it is written piece by piece from the findings, each witness path
    from its escaped node and step texts and each terminal as its kept
    object."""
    table = _texts_of(graph)
    nodes, steps, terminals = table.json_nodes, table.json_steps, table.terminals
    out = ['{\n  "version": 1,\n  "findings": [']
    opening = "\n    {"
    for finding in findings:
        out += (
            opening, _FIELD, '"cwe_id": ', _json_value(finding.cwe_id, _FIELD),
            ",", _FIELD, '"cwe_name": ', _json_value(finding.cwe_name, _FIELD),
            ",", _FIELD, '"message": ', _json_value(finding.message, _FIELD),
            ",", _FIELD, '"paths": [',
        )
        if finding.witness_paths:
            separator = _ITEM + '"'
            for path in finding.witness_paths:
                out += (separator, nodes[path.nodes[0]])
                out += map(steps.__getitem__, path.edges)
                separator = _NEXT_PATH
            out.append('"' + _FIELD + "],")
        else:
            out.append("],")
        out += (_FIELD, '"terminals": [')
        if finding.terminal_nodes:
            separator = _ITEM
            for node_id in finding.terminal_nodes:
                out += (separator, terminals[node_id])
                separator = _NEXT_ITEM
            out.append(_FIELD + "]")
        else:
            out.append("]")
        out.append("\n    }")
        opening = ",\n    {"
    out.append('\n  ],\n  "unsupported": [' if findings else '],\n  "unsupported": [')
    opening = "\n    {"
    for capability in capabilities:
        out += (
            opening, _FIELD, '"cwe_id": ', _json_value(capability.cwe_id, _FIELD),
            ",", _FIELD, '"reason": ', _json_value(capability.reason, _FIELD), "\n    }",
        )
        opening = ",\n    {"
    out.append("\n  ]\n}\n" if capabilities else "]\n}\n")
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
