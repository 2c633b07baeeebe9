"""Weakness detectors over the merged program knowledge graph.

Each detector is a read-only rule over a sealed graph. It names groups
of offending call sites (terminals) and the nodes their witness paths
start from: the program's roots, or for CWE-479 the signal handler's
entry. Every finding is made by one rule: it lists the terminals its
starts reach, ascending, and its witness paths per start, then per
terminal; a group that no start reaches gives no finding.

A deterministic template generator emits equivalent detection queries
for the families that have a pure-query formulation (banned calls and
double release); the remaining families need structural context a
query cannot see, and the memory-leak family is a declared capability
gap because a call graph carries no data flow.

Detectors read the program from its graph alone. Which CallGraph nodes
are function entries, which are roots, which call sites carry a name
and which names each function declares as pointers comes from the index
build_call_graph keeps with the graph (cparse.call_graph_index, read
through graph.derived), not from a walk over the edges. A graph with no
CallGraph nodes classifies as empty; a graph whose CallGraph nodes the
builder did not index, because they were added by hand or the graph was
changed after the build, raises GraphError naming build_call_graph.
"""

from __future__ import annotations

import functools
from bisect import bisect_right

from .cparse import call_graph_index
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

def entry_nodes(graph: PropertyGraph) -> list:
    """CallGraph roots (no incoming CALLS edge), ascending id, with a
    node named `main` listed first when present.

    They are read from the index build_call_graph keeps with the graph
    (cparse.call_graph_index). A graph with no CallGraph nodes has no
    roots; a graph whose CallGraph nodes build_call_graph did not index
    raises GraphError naming build_call_graph."""
    return list(graph.derived(call_graph_index).roots)


def _call_sites_matching(graph: PropertyGraph, names: list) -> list:
    """Call sites whose Name is one of names, ascending id. Most catalog
    rows name one procedure or none the program calls, so a set and a
    sort are built only when two or more names have call sites."""
    by_name = graph.derived(call_graph_index).by_name
    found = [by_name[name] for name in names if name in by_name]
    if len(found) > 1:
        return sorted(set().union(*found))
    return list(found[0]) if found else []


def _findings(graph: PropertyGraph, groups: list) -> list:
    """One finding per group (cwe, starts, terminals, message), in order,
    for each group whose starts reach any of its terminals. A finding
    lists the terminals its starts reach, ascending, and its witness
    paths per start as listed, then per terminal. One search per
    distinct start covers the terminals of every group that lists it."""
    terminals_of = {}  # start -> the terminals of every group that lists it
    for _, starts, terminals, _ in groups:
        for start in starts:
            terminals_of.setdefault(start, set()).update(terminals)
    searches = {}  # start -> {terminal: the paths from start to it}
    for start, terminals in terminals_of.items():
        by_end = searches[start] = {}
        for path in graph.enumerate_paths(start, terminals, "CALLS"):
            by_end.setdefault(path.end, []).append(path)
    findings = []
    for cwe, starts, terminals, message in groups:
        by_ends = [searches[start] for start in starts]
        reached = sorted({t for by_end in by_ends for t in terminals if t in by_end})
        if reached:
            paths = [path for by_end in by_ends for t in reached for path in by_end.get(t, ())]
            findings.append(Finding(cwe.cwe_id, cwe.name, paths, reached, message))
    return findings


# ---------------------------------------------------------------------------
# Detectors
# ---------------------------------------------------------------------------

def detect_banned_calls(graph: PropertyGraph, cwe: CweRecord) -> list:
    """One finding per call of a procedure in the weakness's function
    events (dangerous or obsolete APIs)."""
    roots = entry_nodes(graph)
    groups = [
        (cwe, roots, (node_id,), f"call to {graph.node(node_id).properties['Name']}")
        for node_id in _call_sites_matching(graph, cwe.function_events)
    ]
    return _findings(graph, groups)


def detect_double_release(graph: PropertyGraph, cwe: CweRecord) -> list:
    """Group release-style calls by their first argument; any argument
    released more than once is one finding covering the whole group.
    Calls without a first argument cannot be correlated and are skipped."""
    by_argument = {}
    for node_id in _call_sites_matching(graph, cwe.function_events):
        argument = graph.node(node_id).properties.get("Argument1")
        if argument is not None:
            by_argument.setdefault(argument, []).append(node_id)
    roots = entry_nodes(graph)
    groups = [
        (cwe, roots, members, f"released {argument!r} {len(members)} times")
        for argument, members in sorted(by_argument.items())
        if len(members) > 1
    ]
    return _findings(graph, groups)


def detect_sizeof_on_pointer(graph: PropertyGraph, cwe: CweRecord) -> list:
    """sizeof applied to a name its function declares as a pointer, a
    parameter or a body local. A call site is in the function of the
    last entry before it."""
    index = graph.derived(call_graph_index)
    roots = entry_nodes(graph)
    groups = []
    for node_id in _call_sites_matching(graph, ["sizeof"]):
        argument = graph.node(node_id).properties.get("Argument1")
        if argument in index.pointer_locals[bisect_right(index.entries, node_id) - 1]:
            groups.append((cwe, roots, (node_id,), f"sizeof applied to pointer {argument!r}"))
    return _findings(graph, groups)


def detect_signal_nonreentrant(graph: PropertyGraph, cwe: CweRecord) -> list:
    """A signal handler that reaches a non-reentrant procedure. The
    handler is resolved from the second argument of a signal() call
    among every function the program defines, reached from a root or
    not; witness paths run from the handler's entry to the offending
    calls it reaches."""
    index = graph.derived(call_graph_index)
    offending = {site for name in cwe.function_events for site in index.all_by_name.get(name, ())}
    groups = []
    for node_id in _call_sites_matching(graph, ["signal"]):
        handler_name = graph.node(node_id).properties.get("Argument2")
        handler = index.entry_of.get(handler_name)
        if handler is None:
            import logging  # here, so that a scan with nothing to warn of does not load it

            logging.getLogger(__name__).warning(
                "signal handler %r cannot be resolved to a function", handler_name
            )
            continue
        message = f"signal handler {handler_name!r} calls a non-reentrant function"
        groups.append((cwe, (handler,), offending, message))
    return _findings(graph, groups)


def detect_getlogin_multithreaded(graph: PropertyGraph, cwe: CweRecord) -> list:
    """getlogin in a program that also creates threads: flag every
    getlogin call when any pthread_create call exists."""
    if not _call_sites_matching(graph, ["pthread_create"]):
        return []
    roots = entry_nodes(graph)
    groups = [
        (cwe, roots, (node_id,), "getlogin used in a multithreaded program")
        for node_id in _call_sites_matching(graph, cwe.function_events)
    ]
    return _findings(graph, groups)


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
        "detect",  # (graph, cwe) -> findings; None: a capability miss
        "template",  # detection query; None: no pure-query formulation
        "unsupported",  # why the family is a capability miss
        "triggers",  # names of which detect needs one called; None: the row's events
    )


# Each rule looks its detector up by module-global name when it runs:
# perfbench/tracer.py wraps module attributes, so a stored function
# object would hide every detectors.detect_* span.
_BANNED_CALL = _Family(
    lambda g, cwe: detect_banned_calls(g, cwe), _BANNED_CALL_TEMPLATE, "", None
)
_DOUBLE_RELEASE = _Family(
    lambda g, cwe: detect_double_release(g, cwe), _DOUBLE_RELEASE_TEMPLATE, "", None
)

#: Family per weakness id; an id not listed is a banned-call weakness.
_FAMILIES = {
    "CWE-242": _BANNED_CALL,
    "CWE-477": _BANNED_CALL,
    "CWE-415": _DOUBLE_RELEASE,
    "CWE-1341": _DOUBLE_RELEASE,
    "CWE-467": _Family(
        lambda g, cwe: detect_sizeof_on_pointer(g, cwe), None, "", ("sizeof",)
    ),
    # Runs whenever signal is called, even if no event is: an unresolved
    # handler is warned of before the events are looked at.
    "CWE-479": _Family(
        lambda g, cwe: detect_signal_nonreentrant(g, cwe), None, "", ("signal",)
    ),
    # Its events, not pthread_create: threads without getlogin find nothing.
    "CWE-558": _Family(
        lambda g, cwe: detect_getlogin_multithreaded(g, cwe), None, "", None
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


def run_all(graph: PropertyGraph, catalog):
    """Run the catalog's rows through their detector families.

    Unknown weakness ids fall back to the banned-call rule over their
    function events. Returns (findings, capability misses); findings
    are sorted by (cwe_id, smallest terminal id), which is the order of
    their smallest terminal ExecOrder: build_call_graph issues call-site
    ids in ExecOrder, one offset apart.

    A row runs only if the program calls one of its trigger names: its
    function events, or the one name its family needs (sizeof for
    CWE-467, signal for CWE-479). A row no called name triggers would
    find nothing and log nothing. Each row runs at most once, in catalog
    order, so a scan costs what the program calls, not what the catalog
    lists; capability misses are listed for every row that has one. A
    Catalog brings its name -> rows map; any other sequence of records
    is wrapped in one, which builds the map for this call.

    The graph must be classified by build_call_graph: a graph with no
    CallGraph nodes (run_all(PropertyGraph(), catalog)) finds
    nothing and lists the capability misses, and a graph whose CallGraph
    nodes the builder did not index raises GraphError naming
    build_call_graph.
    """
    if not isinstance(catalog, Catalog):
        catalog = Catalog(catalog)
    rows = catalog.rows_by_trigger
    matched = set(rows.get(None, ()))
    for name in graph.derived(call_graph_index).by_name:
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
            findings.extend(family.detect(graph, cwe))
    findings.sort(key=lambda f: (f.cwe_id, min(f.terminal_nodes)))
    return findings, capabilities
