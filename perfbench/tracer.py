"""Outside-in tracer for pkgraph's public functions.

The benchmark wraps the functions listed in TARGETS without touching
the program: a module-level function is replaced in every pkgraph
module namespace that holds it (the defining module and each module
that imported the name), and a method is replaced on its class. A
target the program no longer defines is reported as absent instead of
failing, so refactors that delete or rename a function keep the
benchmark running.

Each call becomes a span (name, start, end, parent span) kept in flat
arrays in memory; ``fold()`` turns the spans recorded so far into
per-name totals (calls, inclusive time, self time = time not covered
by child spans, errors) and empties the arrays.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from collections import Counter, defaultdict


def _rows(args, kwargs, result, before):
    return {"rows": len(result)}


def _graph_growth(position: int):
    """Nodes and edges a call adds to the graph passed at `position`."""

    def before(args, kwargs):
        graph = args[position] if len(args) > position else kwargs["graph"]
        return graph, graph.node_count, graph.edge_count

    def count(args, kwargs, result, state):
        graph, nodes, edges = state
        return {"nodes": graph.node_count - nodes, "edges": graph.edge_count - edges}

    return before, count


def _translation_unit(args, kwargs, result, before):
    source = args[0] if args else kwargs["source"]
    return {
        "source_kb": len(source.encode("utf-8")) / 1024,
        "call_sites": sum(len(fn.call_sites) for fn in result.functions),
    }


def _paths(args, kwargs, result, before):
    return {"paths": len(result), "useful": 1 if result else 0}


def _findings(args, kwargs, result, before):
    findings = result[0]
    return {"findings": len(findings), "witness_paths": sum(len(f.witness_paths) for f in findings)}


def _bytes(args, kwargs, result, before):
    if isinstance(result, tuple):
        return {"bytes": sum(len(part) for part in result)}
    return {"bytes": len(result.encode("utf-8") if isinstance(result, str) else result)}


def _table_rows(args, kwargs, result, before):
    return {"rows": len(result.rows)}


_GROWTH_KG = _graph_growth(2)
_GROWTH_CG = _graph_growth(1)

# (span name, module, attribute or Class.method, before hook, count hook)
TARGETS = [
    ("cli.run_cli", "pkgraph.cli", "run_cli", None, None),
    ("vulndata.parse_cwe_csv", "pkgraph.vulndata", "parse_cwe_csv", None, _rows),
    ("vulndata.parse_cve_csv", "pkgraph.vulndata", "parse_cve_csv", None, _rows),
    ("vulndata.build_knowledge_graph", "pkgraph.vulndata", "build_knowledge_graph", *_GROWTH_KG),
    ("cparse.extract_translation_unit", "pkgraph.cparse", "extract_translation_unit", None,
     _translation_unit),
    ("cparse.build_call_graph", "pkgraph.cparse", "build_call_graph", *_GROWTH_CG),
    ("graph.enumerate_paths", "pkgraph.graph", "PropertyGraph.enumerate_paths", None, _paths),
    ("graph.find_nodes", "pkgraph.graph", "PropertyGraph.find_nodes", None, None),
    ("graph.in_edges", "pkgraph.graph", "PropertyGraph.in_edges", None, None),
    ("graph.out_edges", "pkgraph.graph", "PropertyGraph.out_edges", None, None),
    ("graph.add_node", "pkgraph.graph", "PropertyGraph.add_node", None, None),
    ("graph.add_edge", "pkgraph.graph", "PropertyGraph.add_edge", None, None),
    ("detectors.run_all", "pkgraph.detectors", "run_all", None, _findings),
    ("detectors.entry_nodes", "pkgraph.detectors", "entry_nodes", None, None),
    ("detectors.detect_banned_calls", "pkgraph.detectors", "detect_banned_calls", None, None),
    ("detectors.detect_double_release", "pkgraph.detectors", "detect_double_release", None, None),
    ("detectors.detect_sizeof_on_pointer", "pkgraph.detectors", "detect_sizeof_on_pointer",
     None, None),
    ("detectors.detect_signal_nonreentrant", "pkgraph.detectors", "detect_signal_nonreentrant",
     None, None),
    ("detectors.detect_getlogin_multithreaded", "pkgraph.detectors",
     "detect_getlogin_multithreaded", None, None),
    ("cypher.parse_query", "pkgraph.cypher.parser", "parse_query", None, None),
    ("cypher.execute_query", "pkgraph.cypher.eval", "execute_query", None, _table_rows),
    ("cypher.format_result_table", "pkgraph.cypher.eval", "format_result_table", None, _bytes),
    ("render.findings_to_json", "pkgraph.render", "findings_to_json", None, _bytes),
    ("render.render_path", "pkgraph.render", "render_path", None, None),
    ("render.export_import_csv", "pkgraph.render", "export_import_csv", None, _bytes),
]


class Tracer:
    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.names = [t[0] for t in targets]
        self.absent = []
        self.counter_errors = set()
        self._patches = []  # (owner, attribute, original)
        self._stack = []
        self._reset_spans()
        self.calls = Counter()
        self.total_ns = Counter()
        self.self_ns = Counter()
        self.errors = Counter()
        self.counts = defaultdict(Counter)

    def _reset_spans(self):
        self.span_name = array("H")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("l")

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every target that exists; record the others as absent."""
        self.absent = []
        modules = {}
        for _, module_name, *_ in self.targets:
            try:
                modules[module_name] = importlib.import_module(module_name)
            except ImportError:
                pass
        loaded = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "pkgraph"]
        for index, (name, module_name, attribute, before, count) in enumerate(self.targets):
            module = modules.get(module_name)
            if module is None:
                self.absent.append(name)
                continue
            owner_name, _, method = attribute.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                original = vars(owner).get(method) if isinstance(owner, type) else None
                if not callable(original):
                    self.absent.append(name)
                    continue
                self._patch(owner, method, original, self._wrap(index, original, before, count))
                continue
            original = getattr(module, attribute, None)
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(index, original, before, count)
            for mod in loaded:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)

    def _patch(self, owner, attribute, original, wrapper) -> None:
        setattr(owner, attribute, wrapper)
        self._patches.append((owner, attribute, original))

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches = []

    def _wrap(self, index, fn, before, count):
        tracer = self
        name = self.names[index]
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            state = None
            if before is not None:
                try:
                    state = before(args, kwargs)
                except (AttributeError, IndexError, KeyError, TypeError):
                    tracer.counter_errors.add(name)
            span = len(tracer.span_start)
            stack = tracer._stack
            tracer.span_name.append(index)
            tracer.span_parent.append(stack[-1] if stack else -1)
            tracer.span_end.append(0)
            stack.append(span)
            tracer.span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.span_end[span] = clock()
                stack.pop()
                tracer.errors[name] += 1
                raise
            tracer.span_end[span] = clock()
            stack.pop()
            if count is not None:
                try:
                    tracer.counts[name].update(count(args, kwargs, result, state))
                except (AttributeError, IndexError, KeyError, TypeError):
                    tracer.counter_errors.add(name)
            return result

        return traced

    # -- aggregation -------------------------------------------------------

    def fold(self, scale: float = 1.0) -> None:
        """Add the recorded spans, with durations multiplied by `scale`,
        to the per-name totals and drop them."""
        count = len(self.span_start)
        child_ns = [0.0] * count
        durations = [(end - start) * scale for start, end in zip(self.span_start, self.span_end)]
        for span in range(count - 1, -1, -1):
            parent = self.span_parent[span]
            if parent >= 0:
                child_ns[parent] += durations[span]
        for span in range(count):
            name = self.names[self.span_name[span]]
            self.calls[name] += 1
            self.total_ns[name] += durations[span]
            self.self_ns[name] += durations[span] - child_ns[span]
        self._reset_spans()
