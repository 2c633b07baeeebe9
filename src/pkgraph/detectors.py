"""Weakness detectors over the merged program knowledge graph.

Each detector is a read-only rule over a sealed graph, producing
Findings with witness paths from program entry nodes to the offending
call nodes. A deterministic template generator emits equivalent
detection queries for the families that have a pure-query formulation
(banned calls and double release); the remaining families need
structural context a query cannot see, and the memory-leak family is a
declared capability gap because a call graph carries no data flow.
"""

from __future__ import annotations

import functools

from .cparse import TranslationUnit
from .graph import FrozenRecord, PropertyGraph, Record
from .vulndata import CweRecord, build_knowledge_graph


class Finding(Record):
    __slots__ = (
        "cwe_id",
        "cwe_name",
        "witness_paths",  # of Path, each ending at a terminal node
        "terminal_nodes",  # node ids
        "message",
    )


class DetectorCapability(Record):
    __slots__ = ("cwe_id", "supported", "reason")


class UnsupportedTemplate(Exception):
    """No pure-query template exists for this weakness family."""


# ---------------------------------------------------------------------------
# Graph structure helpers
# ---------------------------------------------------------------------------

class _CallGraphIndex(Record):
    __slots__ = (
        "entries",  # function-entry node ids, ascending
        "roots",  # entries without an incoming CALLS edge, `main` first
        "by_name",  # call-site Name -> call-site ids, ascending
    )


def _index(graph: PropertyGraph) -> _CallGraphIndex:
    """Partition CallGraph nodes into function entries and call sites.

    Roots (no incoming CALLS edge) are function entries; an entry's
    CALLS targets are call sites; a call site's CALLS target is the
    entry of the function it invokes. Alternating from the roots
    classifies every node, including recursive cycles. Callers read it
    through graph.derived, which builds it once per sealed graph.
    """
    roots = [
        n.id
        for n in graph.find_nodes("CallGraph")
        if not any(e.type == "CALLS" for e in graph.in_edges(n.id))
    ]
    entries, sites = set(roots), set()
    stack = [(n, True) for n in roots]
    while stack:
        node_id, is_entry = stack.pop()
        for edge in graph.out_edges(node_id):
            if edge.type != "CALLS":
                continue
            bucket = sites if is_entry else entries
            if edge.target not in bucket:
                bucket.add(edge.target)
                stack.append((edge.target, not is_entry))
    roots.sort(key=lambda n: (graph.node(n).properties.get("Name") != "main", n))
    by_name = {}
    for n in sorted(sites):
        name = graph.node(n).properties.get("Name", "")
        if isinstance(name, str):
            by_name.setdefault(name, []).append(n)
    return _CallGraphIndex(tuple(sorted(entries)), tuple(roots), by_name)


def entry_nodes(graph: PropertyGraph) -> list:
    """CallGraph roots (no incoming CALLS edge), ascending id, with a
    node named `main` listed first when present."""
    return list(graph.derived(_index).roots)


def _call_sites_matching(graph: PropertyGraph, names: list) -> list:
    """Call sites whose Name is one of names, ascending id. Most catalog
    rows name one procedure or none the program calls, so a set and a
    sort are built only when two or more names have call sites."""
    by_name = graph.derived(_index).by_name
    found = [by_name[name] for name in names if name in by_name]
    if len(found) > 1:
        return sorted(set().union(*found))
    return list(found[0]) if found else []


def _paths_by_end(graph: PropertyGraph, starts: list, terminals: list):
    """Per start, in order, a map from terminal to the witness paths from
    that start to it. One search per start covers every terminal."""
    for start in starts:
        by_end = {}
        for path in graph.enumerate_paths(start, terminals, "CALLS"):
            by_end.setdefault(path.end, []).append(path)
        yield by_end


def _witness_paths(graph: PropertyGraph, starts: list, terminals: list) -> list:
    """Witness paths from each start to the terminals: per start, the
    paths to each terminal in ascending terminal id order."""
    order = sorted(terminals)
    paths = []
    for by_end in _paths_by_end(graph, starts, order):
        for terminal in order:
            paths.extend(by_end.get(terminal, ()))
    return paths


def _findings(graph: PropertyGraph, cwe: CweRecord, groups: dict) -> list:
    """One finding per group in groups (a tuple of ascending terminal ids
    -> message), in that order. A finding's witness paths run from every
    entry to its terminals: per entry, then per terminal. One search per
    entry covers the terminals of all the groups."""
    if not groups:
        return []
    terminals = [node_id for group in groups for node_id in group]
    searches = list(_paths_by_end(graph, entry_nodes(graph), terminals))
    return [
        Finding(
            cwe_id=cwe.cwe_id,
            cwe_name=cwe.name,
            witness_paths=[
                path for by_end in searches for node_id in group for path in by_end.get(node_id, ())
            ],
            terminal_nodes=list(group),
            message=message,
        )
        for group, message in groups.items()
    ]


# ---------------------------------------------------------------------------
# Detectors
# ---------------------------------------------------------------------------

def detect_banned_calls(graph: PropertyGraph, cwe: CweRecord) -> list:
    """One finding per call of a procedure in the weakness's function
    events (dangerous or obsolete APIs)."""
    groups = {
        (node_id,): f"call to {graph.node(node_id).properties['Name']}"
        for node_id in _call_sites_matching(graph, cwe.function_events)
    }
    return _findings(graph, cwe, groups)


def detect_double_release(graph: PropertyGraph, cwe: CweRecord) -> list:
    """Group release-style calls by their first argument; any argument
    released more than once is one finding covering the whole group.
    Calls without a first argument cannot be correlated and are skipped."""
    by_argument = {}
    for node_id in _call_sites_matching(graph, cwe.function_events):
        argument = graph.node(node_id).properties.get("Argument1")
        if argument is not None:
            by_argument.setdefault(argument, []).append(node_id)
    groups = {
        tuple(members): f"released {argument!r} {len(members)} times"
        for argument, members in sorted(by_argument.items())
        if len(members) > 1
    }
    return _findings(graph, cwe, groups)


def detect_sizeof_on_pointer(graph: PropertyGraph, tu: TranslationUnit, cwe: CweRecord) -> list:
    """sizeof applied to a pointer-typed local, with the pointer locals
    of each function taken from the translation unit."""
    groups = {}
    for node_id in _call_sites_matching(graph, ["sizeof"]):
        node = graph.node(node_id)
        argument = node.properties.get("Argument1")
        if not isinstance(argument, str) or not argument.isidentifier():
            continue
        fn = tu.enclosing_function(node.properties["ExecOrder"])
        if fn is None or argument not in fn.pointer_locals:
            continue
        groups[(node_id,)] = f"sizeof applied to pointer {argument!r}"
    return _findings(graph, cwe, groups)


def detect_signal_nonreentrant(graph: PropertyGraph, cwe: CweRecord) -> list:
    """A signal handler that reaches a non-reentrant procedure. The
    handler is resolved from the second argument of a signal() call;
    witness paths run from the handler's entry to the offending call."""
    entries = graph.derived(_index).entries
    offending = _call_sites_matching(graph, cwe.function_events)
    findings = []
    for node_id in _call_sites_matching(graph, ["signal"]):
        handler_name = graph.node(node_id).properties.get("Argument2")
        handler_entries = [
            n
            for n in entries
            if isinstance(handler_name, str)
            and graph.node(n).properties.get("Name") == handler_name
        ]
        if not handler_entries:
            import logging  # here, so that a scan with nothing to warn of does not load it

            logging.getLogger(__name__).warning(
                "signal handler %r cannot be resolved to a function", handler_name
            )
            continue
        paths = _witness_paths(graph, handler_entries, offending)
        if not paths:
            continue
        terminals = sorted({p.end for p in paths})
        findings.append(
            Finding(
                cwe_id=cwe.cwe_id,
                cwe_name=cwe.name,
                witness_paths=paths,
                terminal_nodes=terminals,
                message=f"signal handler {handler_name!r} calls a non-reentrant function",
            )
        )
    return findings


def detect_getlogin_multithreaded(graph: PropertyGraph, cwe: CweRecord) -> list:
    """getlogin in a program that also creates threads: flag every
    getlogin call when any pthread_create call exists."""
    if not _call_sites_matching(graph, ["pthread_create"]):
        return []
    groups = {
        (node_id,): "getlogin used in a multithreaded program"
        for node_id in _call_sites_matching(graph, cwe.function_events)
    }
    return _findings(graph, cwe, groups)


# ---------------------------------------------------------------------------
# Query templates
# ---------------------------------------------------------------------------

_DOUBLE_RELEASE_TEMPLATE = """\
MATCH (cwe:CWE {{`CWE-ID`: "{cwe_id}"}})
OPTIONAL MATCH (callgraph:CallGraph {{Name: cwe.`Function Events`}})
WITH callgraph.Argument1 AS argument1, COLLECT(callgraph) AS sameArgument1
WITH argument1, sameArgument1, SIZE(sameArgument1) AS nodeCount
WHERE nodeCount > 1
UNWIND sameArgument1 AS buggyNodes
OPTIONAL MATCH path=(startingNode:CallGraph {{Name: "{entry}"}})-[*]->(buggyNodes)
RETURN path
"""

_BANNED_CALL_TEMPLATE = """\
MATCH (cwe:CWE {{`CWE-ID`: "{cwe_id}"}})
MATCH (callgraph:CallGraph {{Name: cwe.`Function Events`}})
OPTIONAL MATCH path=(startingNode:CallGraph {{Name: "{entry}"}})-[*]->(callgraph)
RETURN callgraph, path
"""


def generate_detection_query(cwe: CweRecord, entry_name: str) -> str:
    """Deterministic query text for a weakness, selected by detection
    family. Raises UnsupportedTemplate for families whose rule needs
    non-graph context (sizeof typing, handler resolution, thread
    co-occurrence) or data flow."""
    if not cwe.function_events:
        raise UnsupportedTemplate(f"{cwe.cwe_id} has no function events")
    template = _FAMILIES.get(cwe.cwe_id, _BANNED_CALL).template
    if template is None:
        raise UnsupportedTemplate(f"no pure-query formulation for {cwe.cwe_id}")
    return template.format(cwe_id=cwe.cwe_id, entry=entry_name)


# ---------------------------------------------------------------------------
# Weakness families
# ---------------------------------------------------------------------------

class _Family(FrozenRecord):
    __slots__ = (
        "detect",  # (graph, tu, cwe) -> findings; None: a capability miss
        "template",  # detection query; None: no pure-query formulation
        "unsupported",  # why the family is a capability miss
        "triggers",  # names of which detect needs one called; None: the row's events
    )


# Each rule looks its detector up by module-global name when it runs:
# perfbench/tracer.py wraps module attributes, so a stored function
# object would hide every detectors.detect_* span.
_BANNED_CALL = _Family(
    lambda g, tu, cwe: detect_banned_calls(g, cwe), _BANNED_CALL_TEMPLATE, "", None
)
_DOUBLE_RELEASE = _Family(
    lambda g, tu, cwe: detect_double_release(g, cwe), _DOUBLE_RELEASE_TEMPLATE, "", None
)

#: Family per weakness id; an id not listed is a banned-call weakness.
_FAMILIES = {
    "CWE-242": _BANNED_CALL,
    "CWE-477": _BANNED_CALL,
    "CWE-415": _DOUBLE_RELEASE,
    "CWE-1341": _DOUBLE_RELEASE,
    "CWE-467": _Family(
        lambda g, tu, cwe: detect_sizeof_on_pointer(g, tu, cwe), None, "", ("sizeof",)
    ),
    # Runs whenever signal is called, even if no event is: an unresolved
    # handler is warned of before the events are looked at.
    "CWE-479": _Family(
        lambda g, tu, cwe: detect_signal_nonreentrant(g, cwe), None, "", ("signal",)
    ),
    # Its events, not pthread_create: threads without getlogin find nothing.
    "CWE-558": _Family(
        lambda g, tu, cwe: detect_getlogin_multithreaded(g, cwe), None, "", None
    ),
    "CWE-401": _Family(
        None,
        None,
        "call graph lacks data-flow; malloc's Argument1 is a size, not the released handle",
        None,
    ),
}


class Catalog(tuple):
    """Weakness records in catalog order, keeping the map run_all walks
    and the graph of their CWE nodes, each built on its first use. A
    process that keeps one parsed catalog builds each once, and a command
    that never reads one never builds it. The records must not change
    once either is built."""

    @functools.cached_property
    def cwe_graph(self) -> PropertyGraph:
        """One CWE node per row, in catalog order, sealed: what a query's
        graph copies before it adds the program's call graph."""
        graph = PropertyGraph()
        build_knowledge_graph(self, [], graph)
        graph.seal()
        return graph

    @functools.cached_property
    def rows_by_trigger(self) -> dict:
        """Call-site name -> indices of the rows whose detector can find
        something only if the program calls that name, ascending; a row's
        index may appear twice. Capability misses are listed whatever the
        program calls, so their rows are under None, which no call-site
        name equals."""
        rows = {}
        for index, cwe in enumerate(self):
            family = _FAMILIES.get(cwe.cwe_id, _BANNED_CALL)
            if family.detect is None:
                names = (None,)
            elif family.triggers is None:
                names = cwe.function_events
            else:
                names = family.triggers
            for name in names:
                rows.setdefault(name, []).append(index)
        return rows


def run_all(graph: PropertyGraph, tu: TranslationUnit, catalog):
    """Run the catalog's rows through their detector families.

    Unknown weakness ids fall back to the banned-call rule over their
    function events. Returns (findings, capability misses); findings
    are sorted by (cwe_id, smallest terminal ExecOrder).

    A row runs only if the program calls one of its trigger names: its
    function events, or the one name its family needs (sizeof for
    CWE-467, signal for CWE-479). A row no called name triggers would
    find nothing and log nothing. Each row runs at most once, in catalog
    order, so a scan costs what the program calls, not what the catalog
    lists; capability misses are listed for every row that has one. A
    Catalog brings its name -> rows map; any other sequence of records
    is wrapped in one, which builds the map for this call.
    """
    if not isinstance(catalog, Catalog):
        catalog = Catalog(catalog)
    rows = catalog.rows_by_trigger
    matched = set(rows.get(None, ()))
    for name in graph.derived(_index).by_name:
        matched.update(rows.get(name, ()))
    findings = []
    capabilities = []
    for index in sorted(matched):
        cwe = catalog[index]
        family = _FAMILIES.get(cwe.cwe_id, _BANNED_CALL)
        if family.detect is None:
            capabilities.append(
                DetectorCapability(cwe.cwe_id, supported=False, reason=family.unsupported)
            )
        else:
            findings.extend(family.detect(graph, tu, cwe))

    def order(f: Finding):
        min_exec = min(
            (graph.node(t).properties.get("ExecOrder", 0) for t in f.terminal_nodes),
            default=0,
        )
        return (f.cwe_id, min_exec)

    findings.sort(key=order)
    return findings, capabilities
