import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    DATA,
    DOUBLE_FREE_INTERPROC_SRC,
    DOUBLE_FREE_SRC,
    call_graph_of,
    catalog_entry,
    load_catalog,
    merged_graph_of,
)
from test_graph import brute_force_paths, is_valid_path
from pkgraph.cparse import (
    _CallGraphIndex,
    build_call_graph,
    call_graph_index,
    extract_translation_unit,
)
from pkgraph.cypher.eval import execute_query
from pkgraph.cypher.parser import parse_query
from pkgraph.detectors import (
    _BANNED_CALL,
    _FAMILIES,
    Catalog,
    DetectorCapability,
    Finding,
    UnsupportedTemplate,
    detect_banned_calls,
    detect_double_release,
    detect_getlogin_multithreaded,
    detect_signal_nonreentrant,
    detect_sizeof_on_pointer,
    _call_sites_matching,
    _findings,
    entry_nodes,
    generate_detection_query,
    run_all,
)
from pkgraph.graph import GraphError, PropertyGraph, values_equal
from pkgraph.render import render_node
from pkgraph.vulndata import CweRecord


def names_of(graph, ids):
    return [graph.node(i).properties["Name"] for i in ids]


def _witness_paths(graph, starts, terminals):
    """The reference for a finding's witness paths: per start, per
    terminal in ascending id order, the paths of one search for that
    (start, terminal) pair alone."""
    return [
        path
        for start in starts
        for terminal in sorted(terminals)
        for path in graph.enumerate_paths(start, [terminal], "CALLS")
    ]


class TestEntryNodes:
    def test_single_function(self):
        graph, _ = call_graph_of(DOUBLE_FREE_SRC)
        assert names_of(graph, entry_nodes(graph)) == ["foo"]

    def test_called_function_is_not_a_root(self):
        graph, _ = call_graph_of(DOUBLE_FREE_INTERPROC_SRC)
        assert names_of(graph, entry_nodes(graph)) == ["main"]

    def test_empty_graph(self):
        graph = PropertyGraph()
        graph.seal()
        assert entry_nodes(graph) == []

    def test_main_listed_first(self):
        graph, _ = call_graph_of("void aux() { g(); }\nvoid main() { h(); }")
        assert names_of(graph, entry_nodes(graph)) == ["main", "aux"]

    def test_unsealed_graph_is_reclassified(self):
        """The builder's classification is read before the graph is
        sealed, one program at a time."""
        for source, want in (
            ("void aux() { }", ["aux"]),
            ("void aux() { }\nvoid main() { }", ["main", "aux"]),
            ("void aux() { }\nvoid main() { aux(); }", ["main"]),
        ):
            graph = PropertyGraph()
            build_call_graph(extract_translation_unit(source), graph)
            assert not graph.sealed
            assert names_of(graph, entry_nodes(graph)) == want

    def test_index_is_per_graph(self):
        first, _ = call_graph_of("void foo() { }")
        second, _ = call_graph_of("void aux() { }\nvoid main() { }")
        assert names_of(first, entry_nodes(first)) == ["foo"]
        assert names_of(second, entry_nodes(second)) == ["main", "aux"]
        assert names_of(first, entry_nodes(first)) == ["foo"]

    def test_a_call_graph_the_builder_did_not_index_is_refused(self):
        """CallGraph nodes added by hand, or added after the build, are
        refused by every reader of the classification, sealed or not."""
        by_hand = PropertyGraph()
        by_hand.add_node("CallGraph", {"Name": "main"})
        changed, tu = call_graph_of("void main() { gets(b); }")
        changed = changed.copy()
        changed.add_node("CWE", {"CWE-ID": "CWE-242"})
        twice = PropertyGraph()
        build_call_graph(tu, twice)
        build_call_graph(tu, twice)
        for graph in (by_hand, changed, twice):
            with pytest.raises(GraphError, match="build_call_graph"):
                entry_nodes(graph)
            with pytest.raises(GraphError, match="build_call_graph"):
                run_all(graph, [catalog_entry("CWE-242")])
            graph.seal()
            with pytest.raises(GraphError, match="build_call_graph"):
                entry_nodes(graph)


class TestBannedCalls:
    def test_gets_detected(self):
        graph, _ = call_graph_of(DOUBLE_FREE_SRC)
        findings = detect_banned_calls(graph, catalog_entry("CWE-242"))
        assert len(findings) == 1
        assert names_of(graph, findings[0].terminal_nodes) == ["gets"]
        assert len(findings[0].witness_paths) == 1

    def test_no_obsolete_functions(self):
        graph, _ = call_graph_of(DOUBLE_FREE_SRC)
        assert detect_banned_calls(graph, catalog_entry("CWE-477")) == []

    def test_interprocedural_witness_path(self):
        graph, _ = call_graph_of(DOUBLE_FREE_INTERPROC_SRC)
        findings = detect_banned_calls(graph, catalog_entry("CWE-242"))
        assert len(findings) == 1
        (path,) = findings[0].witness_paths
        assert names_of(graph, path.nodes) == ["main", "printString", "printString", "gets"]


class TestDoubleRelease:
    def test_double_free(self):
        graph, _ = call_graph_of(DOUBLE_FREE_SRC)
        findings = detect_double_release(graph, catalog_entry("CWE-415"))
        assert len(findings) == 1
        finding = findings[0]
        assert len(finding.witness_paths) == 2
        assert sorted(
            graph.node(t).properties["ExecOrder"] for t in finding.terminal_nodes
        ) == [6, 7]

    def test_single_free_clean(self):
        graph, _ = call_graph_of("void foo() { char* p; free(p); }")
        assert detect_double_release(graph, catalog_entry("CWE-415")) == []

    def test_double_fclose(self):
        graph, _ = call_graph_of("void main() { fclose(f); fclose(f); }")
        findings = detect_double_release(graph, catalog_entry("CWE-1341"))
        assert len(findings) == 1
        assert len(findings[0].terminal_nodes) == 2

    def test_calls_without_argument_not_grouped(self):
        graph, _ = call_graph_of("void main() { free(); free(); }")
        assert detect_double_release(graph, catalog_entry("CWE-415")) == []

    def test_monotonic_under_additional_release(self):
        base = "void main() { free(p); free(p); }"
        more = "void main() { free(p); free(p); free(p); }"
        for src in (base, more):
            graph, _ = call_graph_of(src)
            assert detect_double_release(graph, catalog_entry("CWE-415"))


class TestSizeofOnPointer:
    def test_pointer_local_flagged(self):
        graph, _ = call_graph_of("void f() { char* p; int n = sizeof(p); }")
        findings = detect_sizeof_on_pointer(graph, catalog_entry("CWE-467"))
        assert len(findings) == 1

    def test_array_not_flagged(self):
        graph, _ = call_graph_of("void f() { int a[4]; int n = sizeof(a); }")
        assert detect_sizeof_on_pointer(graph, catalog_entry("CWE-467")) == []

    def test_pointer_parameter_flagged(self):
        graph, _ = call_graph_of("void f(char *p) { int n = sizeof(p); }")
        (finding,) = detect_sizeof_on_pointer(graph, catalog_entry("CWE-467"))
        assert finding.message == "sizeof applied to pointer 'p'"

    def test_a_pointer_of_another_function_not_flagged(self):
        graph, _ = call_graph_of(
            "void main() { char *p; g(p); }\nvoid g(int n) { int p[4]; n = sizeof(p); }"
        )
        assert detect_sizeof_on_pointer(graph, catalog_entry("CWE-467")) == []

    def test_no_sizeof_nodes(self):
        graph, _ = call_graph_of("void f() { g(); }")
        assert detect_sizeof_on_pointer(graph, catalog_entry("CWE-467")) == []


class TestSignalNonreentrant:
    SRC = (
        "void handler(int sig) { syslog(1, \"hit\"); }\n"
        "void main() { signal(2, handler); }\n"
    )

    def test_handler_reaching_syslog(self):
        graph, _ = call_graph_of(self.SRC)
        findings = detect_signal_nonreentrant(graph, catalog_entry("CWE-479"))
        assert len(findings) == 1
        (path,) = findings[0].witness_paths
        assert names_of(graph, path.nodes) == ["handler", "syslog"]

    def test_safe_handler(self):
        src = self.SRC.replace("syslog", "printf")
        graph, _ = call_graph_of(src)
        assert detect_signal_nonreentrant(graph, catalog_entry("CWE-479")) == []

    def test_unresolvable_handler_warns(self, caplog):
        graph, _ = call_graph_of('void main() { signal(2, "literal"); }')
        with caplog.at_level("WARNING"):
            findings = detect_signal_nonreentrant(graph, catalog_entry("CWE-479"))
        assert findings == []
        assert any("cannot be resolved" in r.message for r in caplog.records)

    def test_a_handler_no_root_reaches_is_resolved(self, caplog):
        """A handler that calls itself has a caller, so it is no root and
        no root reaches it; it is still resolved, and its search keeps the
        offending calls it reaches, not those of other unreached functions."""
        graph, _ = call_graph_of(
            "void handler(int sig) { if (sig) handler(0); syslog(1, \"x\"); }\n"
            "void spare() { spare(); syslog(2, \"y\"); }\n"
            "int main(void) { signal(2, handler); return 0; }\n"
        )
        with caplog.at_level("WARNING"):
            (finding,) = detect_signal_nonreentrant(graph, catalog_entry("CWE-479"))
        assert not caplog.records
        assert [names_of(graph, path.nodes) for path in finding.witness_paths] == [
            ["handler", "handler", "handler", "syslog"],
            ["handler", "syslog"],
        ]
        assert names_of(graph, finding.terminal_nodes) == ["syslog"]
        assert graph.node(finding.terminal_nodes[0]).properties["Argument2"] == "x"


def counted_searches(monkeypatch):
    """The start of every PropertyGraph.enumerate_paths call from now on,
    in call order."""
    starts = []
    enumerate_paths = PropertyGraph.enumerate_paths

    def counting(self, start, *args):
        starts.append(start)
        return enumerate_paths(self, start, *args)

    monkeypatch.setattr(PropertyGraph, "enumerate_paths", counting)
    return starts


class TestOneSearchPerStart:
    def test_one_handler_named_twice_is_searched_once(self, monkeypatch):
        graph, _ = call_graph_of(
            "void handler(int sig) { syslog(1, sig); }\n"
            "void main() { signal(2, handler); signal(15, handler); }\n"
        )
        starts = counted_searches(monkeypatch)
        findings = detect_signal_nonreentrant(graph, catalog_entry("CWE-479"))
        assert names_of(graph, starts) == ["handler"]
        assert len(findings) == 2 and findings[0] == findings[1]

    @pytest.mark.parametrize(
        "detect, cwe_id",
        [(detect_banned_calls, "CWE-242"), (detect_double_release, "CWE-415")],
    )
    def test_a_root_family_row_searches_once_per_root(self, monkeypatch, detect, cwe_id):
        graph, _ = call_graph_of(
            "void a() { gets(b); free(p); free(q); }\n"
            "void main() { gets(b); free(p); h(); }\n"
            "void h() { gets(c); free(q); free(p); }\n"
            "void z() { h(); free(q); gets(d); }\n"
        )
        starts = counted_searches(monkeypatch)
        findings = detect(graph, catalog_entry(cwe_id))
        assert len(findings) > 1
        assert starts == entry_nodes(graph)
        assert names_of(graph, starts) == ["main", "a", "z"]


class TestGetloginMultithreaded:
    def test_with_threads(self):
        graph, _ = call_graph_of(
            "void main() { pthread_create(t, n, w, n); getlogin(); }"
        )
        findings = detect_getlogin_multithreaded(graph, catalog_entry("CWE-558"))
        assert len(findings) == 1

    def test_without_threads(self):
        graph, _ = call_graph_of("void main() { getlogin(); }")
        assert detect_getlogin_multithreaded(graph, catalog_entry("CWE-558")) == []

    def test_threads_without_getlogin(self):
        graph, _ = call_graph_of("void main() { pthread_create(t, n, w, n); }")
        assert detect_getlogin_multithreaded(graph, catalog_entry("CWE-558")) == []


class TestMissingRelease:
    def test_always_a_capability_miss(self):
        for src in ("void main() { malloc(8); }", "", "void main() { malloc(8); free(p); }"):
            graph, _ = call_graph_of(src)
            findings, (capability,) = run_all(graph, [catalog_entry("CWE-401")])
            assert findings == []
            assert capability.cwe_id == "CWE-401"
            assert not capability.supported
            assert "data-flow" in capability.reason


NO_TEMPLATE = ("CWE-401", "CWE-467", "CWE-479", "CWE-558")


class TestGenerateDetectionQuery:
    def test_double_free_query_parses_and_matches(self):
        text = generate_detection_query(catalog_entry("CWE-415"), "foo")
        query = parse_query(text)
        assert len(query.clauses) == 8

    def test_unsupported_families(self):
        for cwe_id in NO_TEMPLATE:
            with pytest.raises(UnsupportedTemplate):
                generate_detection_query(catalog_entry(cwe_id), "main")

    def test_no_events(self):
        with pytest.raises(UnsupportedTemplate):
            generate_detection_query(CweRecord("CWE-242", "x", "", []), "main")


def query_terminals(graph, cwe, entry_name):
    """Terminal node renderings from executing the generated query."""
    table = execute_query(parse_query(generate_detection_query(cwe, entry_name)), graph)
    terminals = set()
    for row in table.rows:
        for cell in row:
            if "-[:" in cell:
                terminals.add(cell.rsplit("->", 1)[-1])
            elif cell.startswith("(:CallGraph"):
                terminals.add(cell)
    return terminals


def detector_terminals(graph, cwe):
    findings, _ = run_all(graph, [cwe])
    return {render_node(graph.node(t)) for f in findings for t in f.terminal_nodes}


def assert_query_matches_rule(graph, cwe, entry_name):
    """The row has no query template, or its query finds the terminals
    its detector rule finds."""
    if cwe.cwe_id in NO_TEMPLATE:
        with pytest.raises(UnsupportedTemplate):
            generate_detection_query(cwe, entry_name)
    else:
        assert query_terminals(graph, cwe, entry_name) == detector_terminals(graph, cwe)


EVENT_POOL = ["free", "gets", "atoi", "fclose", "work", "log_it", "step"]
ARG_POOL = ["p", "q", "buf", "fp"]

# Every bundled row, plus an id no family lists, which falls back to the
# banned-call rule.
CATALOG_ROWS = load_catalog() + [CweRecord("CWE-9999", "Custom", "", ["dangerous", "free"])]


def catalog_with(cwe):
    catalog = load_catalog()
    return catalog if cwe in catalog else catalog + [cwe]


def random_merged_graph(rng, catalog, pool=EVENT_POOL):
    calls = "\n    ".join(
        f"{rng.choice(pool)}({rng.choice(ARG_POOL)});"
        for _ in range(rng.randint(1, 12))
    )
    source = "void main() {\n    " + calls + "\n}\n"
    graph, _, _ = merged_graph_of(source, catalog)
    return graph


class TestQueryRuleEquivalence:
    @pytest.mark.parametrize("cwe", CATALOG_ROWS, ids=lambda cwe: cwe.cwe_id)
    def test_fixture_graphs(self, cwe):
        for source, entry in (
            (DOUBLE_FREE_SRC, "foo"),
            (DOUBLE_FREE_INTERPROC_SRC, "main"),
        ):
            graph, _, _ = merged_graph_of(source, catalog_with(cwe))
            assert_query_matches_rule(graph, cwe, entry)

    @pytest.mark.parametrize("cwe", CATALOG_ROWS, ids=lambda cwe: cwe.cwe_id)
    def test_random_graphs(self, cwe):
        """Programs draw from EVENT_POOL plus the row's other events."""
        rng = random.Random(4100 + len(cwe.cwe_id))
        pool = EVENT_POOL + [e for e in cwe.function_events if e not in EVENT_POOL]
        for _ in range(25):
            graph = random_merged_graph(rng, catalog_with(cwe), pool)
            assert_query_matches_rule(graph, cwe, "main")


class TestRunAll:
    def test_double_free_example_findings(self, catalog):
        graph, _, _ = merged_graph_of(DOUBLE_FREE_SRC)
        findings, capabilities = run_all(graph, catalog)
        assert {f.cwe_id for f in findings} == {"CWE-242", "CWE-415", "CWE-1341"}
        assert [c.cwe_id for c in capabilities] == ["CWE-401"]

    def test_empty_graph(self, catalog):
        graph = PropertyGraph()
        graph.seal()
        findings, capabilities = run_all(graph, catalog)
        assert findings == []
        assert len(capabilities) == 1

    def test_witness_paths_are_sound(self, catalog):
        graph, _, _ = merged_graph_of(DOUBLE_FREE_INTERPROC_SRC)
        findings, _ = run_all(graph, catalog)
        for finding in findings:
            cwe = next(c for c in catalog if c.cwe_id == finding.cwe_id)
            assert finding.witness_paths
            for path in finding.witness_paths:
                assert is_valid_path(graph, path)
                name = graph.node(path.end).properties["Name"]
                assert name in cwe.function_events or name == "sizeof"
            for terminal in finding.terminal_nodes:
                assert any(p.end == terminal for p in finding.witness_paths)

    def test_unknown_cwe_falls_back_to_banned(self):
        graph, _ = call_graph_of("void main() { dangerous(); }")
        extra = CweRecord("CWE-9999", "Custom", "", ["dangerous"])
        findings, _ = run_all(graph, [extra])
        assert len(findings) == 1

    def test_findings_of_one_weakness_follow_their_first_terminal(self, catalog):
        """Two double releases, q's around p's: q's finding comes first
        because its first release does, though its last comes after p's."""
        graph, _ = call_graph_of("void main() { free(q); free(p); free(p); free(q); }")
        findings, _ = run_all(graph, [catalog_entry("CWE-415")])
        assert [f.message for f in findings] == ["released 'q' 2 times", "released 'p' 2 times"]
        assert (findings, []) == reference_run_all(graph, [catalog_entry("CWE-415")])

    def test_output_order_stable(self, catalog):
        graph, _, _ = merged_graph_of(DOUBLE_FREE_SRC)
        first, _ = run_all(graph, catalog)
        second, _ = run_all(graph, catalog)
        assert [(f.cwe_id, f.terminal_nodes) for f in first] == [
            (f.cwe_id, f.terminal_nodes) for f in second
        ]


@pytest.mark.parametrize("seed", range(40))
def test_witness_paths_match_per_terminal_oracle(seed):
    """_findings, with one search per distinct start, gives each group the
    paths of a brute-force search per (start, terminal) pair: per start as
    listed, then per reached terminal ascending; it lists the reached
    terminals and makes no finding for a group no start reaches. Groups
    share starts, list a start twice, and one group's terminal is a node
    no edge enters."""
    rng = random.Random(seed)
    graph = PropertyGraph()
    nodes = [graph.add_node("CallGraph", {}) for _ in range(rng.randint(1, 9))]
    for _ in range(rng.randint(0, 12)):
        graph.add_edge(rng.choice(nodes), rng.choice(nodes), rng.choice(["CALLS", "OTHER"]))
    lonely = graph.add_node("CallGraph", {})
    graph.seal()
    shared = rng.sample(nodes, rng.randint(1, len(nodes)))
    groups = []
    for k in range(rng.randint(1, 5)):
        starts = rng.sample(shared, rng.randint(1, len(shared)))
        starts += rng.choices(starts, k=rng.randint(0, 2))
        rng.shuffle(starts)
        terminals = rng.sample(nodes, rng.randint(1, len(nodes)))
        groups.append((CweRecord(f"CWE-{k}", f"group {k}", "", []), starts, terminals, f"m{k}"))
    groups.insert(rng.randint(0, len(groups)), (catalog_entry("CWE-242"), shared, [lonely], "none"))
    want = []
    for cwe, starts, terminals, message in groups:
        pairs = {
            (start, terminal): brute_force_paths(graph, start, {terminal}, "CALLS", 1, None)
            for start in starts
            for terminal in terminals
        }
        reached = sorted({terminal for (_, terminal), paths in pairs.items() if paths})
        if reached:
            paths = [path for start in starts for t in reached for path in pairs[start, t]]
            want.append(Finding(cwe.cwe_id, cwe.name, paths, reached, message))
    got = _findings(graph, groups)
    assert got == want
    assert "none" not in [f.message for f in got]


@pytest.mark.parametrize("seed", range(40))
def test_call_sites_matching_equals_name_filter(seed):
    """The name map of the index gives the call sites a per-site Name
    comparison gives, for requests with repeated and absent names. A
    defined function named like a requested event is an entry, not a call
    site, and never matches."""
    rng = random.Random(seed)
    defined = ["main", rng.choice(EVENT_POOL)]
    defined += rng.sample([n for n in EVENT_POOL if n not in defined], rng.randint(0, 2))
    source = "\n".join(
        f"void {fn}(char *p) {{\n"
        + "".join(
            f"    {rng.choice(EVENT_POOL)}({rng.choice(ARG_POOL)});\n"
            for _ in range(rng.randint(0, 6))
        )
        + "}"
        for fn in defined
    )
    graph, _ = call_graph_of(source)
    names = rng.choices(EVENT_POOL, k=rng.randint(0, 5)) + [defined[1], defined[1], "absent"]
    rng.shuffle(names)
    entries = graph.derived(call_graph_index).entries
    sites = {e.target for n in entries for e in graph.out_edges(n) if e.type == "CALLS"}
    want = [
        n
        for n in sorted(sites)
        if values_equal(graph.node(n).properties.get("Name", ""), names)
    ]
    got = _call_sites_matching(graph, names)
    assert got == want
    assert not set(got) & set(entries)


CORPUS_PROGRAMS = [
    merged_graph_of(sample.read_text(encoding="utf-8"))[:2]
    for folder in ("corpus", "clean")
    for sample in sorted((DATA / folder).iterdir(), key=lambda path: path.name)
]
CORPUS_GRAPHS = [graph for graph, _ in CORPUS_PROGRAMS]
CORPUS_NAMES = sorted(
    {n.properties["Name"] for g in CORPUS_GRAPHS for n in g.find_nodes("CallGraph")}
)


@settings(max_examples=300, deadline=None)
@given(
    graph=st.sampled_from(CORPUS_GRAPHS),
    names=st.lists(st.sampled_from(CORPUS_NAMES + ["absent", ""]), max_size=6),
)
def test_call_sites_matching_equals_a_set_union(graph, names):
    """Over the bundled samples' graphs, with repeated, unknown and no
    names, the lookup gives the sorted union of the names' call sites,
    as a list of its own that the caller may change."""
    by_name = graph.derived(call_graph_index).by_name
    want = sorted(set().union(*(by_name.get(name, ()) for name in names)))
    got = _call_sites_matching(graph, names)
    assert got == want
    got.append(-1)
    assert _call_sites_matching(graph, names) == want


@pytest.mark.parametrize("seed", range(40))
def test_site_findings_match_per_site_search(seed):
    """The per-site detectors search once per entry for all their call
    sites; each finding holds the paths of a search for its site alone.
    Nothing calls main or aux, so a site can be reached from both."""
    rng = random.Random(seed)
    helpers = rng.sample(["f1", "f2", "f3", "f4"], rng.randint(1, 4))
    functions = ["main", "aux"] + helpers
    events = ["gets", "atoi", "getlogin", "pthread_create", "sizeof", "free"]
    source = "\n".join(
        f"void {fn}(char *p) {{\n"
        + "".join(
            f"    {rng.choice(events + helpers)}({rng.choice(ARG_POOL)});\n"
            for _ in range(rng.randint(0, 8))
        )
        + "}"
        for fn in functions
    )
    graph, _ = call_graph_of(source)
    entries = entry_nodes(graph)
    banned = catalog_entry("CWE-242")
    results = [
        (detect_banned_calls(graph, banned), _call_sites_matching(graph, banned.function_events)),
        (detect_sizeof_on_pointer(graph, catalog_entry("CWE-467")), None),
        (
            detect_getlogin_multithreaded(graph, catalog_entry("CWE-558")),
            _call_sites_matching(graph, ["getlogin"])
            if _call_sites_matching(graph, ["pthread_create"])
            else [],
        ),
    ]
    for findings, sites in results:
        if sites is not None:
            assert [f.terminal_nodes for f in findings] == [[s] for s in sites]
        for finding in findings:
            (site,) = finding.terminal_nodes
            assert finding.witness_paths == _witness_paths(graph, entries, [site])
    for finding in detect_double_release(graph, catalog_entry("CWE-1341")):
        assert finding.witness_paths == _witness_paths(graph, entries, finding.terminal_nodes)


def reference_run_all(graph, catalog):
    """run_all walking every catalog row in order, as it did before it
    walked the program's called names, and sorting by the terminals'
    ExecOrder, as it did before it sorted by their ids: the oracle for
    both."""
    findings = []
    capabilities = []
    for cwe in catalog:
        family = _FAMILIES.get(cwe.cwe_id, _BANNED_CALL)
        if family.detect is None:
            capabilities.append(
                DetectorCapability(cwe.cwe_id, supported=False, reason=family.unsupported)
            )
        else:
            findings.extend(family.detect(graph, cwe))

    def order(f: Finding):
        min_exec = min(
            (graph.node(t).properties.get("ExecOrder", 0) for t in f.terminal_nodes),
            default=0,
        )
        return (f.cwe_id, min_exec)

    findings.sort(key=order)
    return findings, capabilities


# Names no bundled sample calls, and names the trigger rules single out.
UNCALLED = ["legacy_api_1", "legacy_api_2", "absent"]
TRIGGER_NAMES = ["sizeof", "signal", "syslog", "getlogin", "pthread_create"]


def random_catalog(rng, called):
    """Rows with every family's id and unknown ids, events drawn from the
    program's called names, uncalled names and the trigger names, some
    lists empty or naming one event twice, and some ids listed twice."""
    ids = list(_FAMILIES) + ["CWE-9999", "CWE-20001"]
    names = called + UNCALLED + TRIGGER_NAMES
    rows = []
    for i in range(rng.randint(0, 14)):
        events = rng.choices(names, k=rng.randint(0, 4))
        if events and rng.random() < 0.2:
            events.append(events[0])
        rows.append(CweRecord(rng.choice(ids), f"row {i}", "", events))
        if rng.random() < 0.2:
            rows.append(CweRecord(rows[-1].cwe_id, f"row {i} again", "", list(events)))
    rng.shuffle(rows)
    return rows


def logged_run(run, caplog, *args):
    """run(*args) and the messages it logged."""
    caplog.clear()
    with caplog.at_level("WARNING"):
        result = run(*args)
    return result, [r.getMessage() for r in caplog.records]


@pytest.mark.parametrize("seed", range(12))
def test_run_all_equals_the_row_by_row_reference(seed, caplog):
    """Over the bundled samples' graphs and random catalogs, running only
    the rows a called name triggers gives the findings (ids, names,
    messages, terminals, witness paths) and capability misses of running
    every row, in the same order, and logs the same warnings. Ids listed
    twice with other names pin the stable sort's tie order."""
    rng = random.Random(seed)
    for graph, _ in CORPUS_PROGRAMS:
        called = sorted(graph.derived(call_graph_index).by_name)
        for _ in range(3):
            catalog = random_catalog(rng, called)
            want = logged_run(reference_run_all, caplog, graph, catalog)
            assert logged_run(run_all, caplog, graph, catalog) == want
            assert logged_run(run_all, caplog, graph, Catalog(catalog)) == want


def signal_program(rng):
    """A C program whose functions call each other, themselves, signal()
    naming a defined or an undefined handler, and catalog events; the
    pair p <-> q calls only itself, so no root reaches it, and signal()
    names p or q from time to time."""
    reached = ["main", "a", "b", "c"]
    callees = reached[1:] + ["p", "q", "zz"]
    events = ["syslog", "gets", "free", "getlogin", "pthread_create", "sizeof", "atoi"]
    bodies = {name: [] for name in reached + ["p", "q"]}
    bodies["p"].append("q(x);")
    bodies["q"].append("p(x);")
    for name, body in bodies.items():
        for _ in range(rng.randint(0, 5)):
            kind = rng.random()
            if kind < 0.25:
                body.append(f"signal(2, {rng.choice(callees)});")
            elif kind < 0.45 and name not in ("p", "q"):
                body.append(f"{rng.choice(reached[1:] + [name])}(x);")
            else:
                body.append(f"{rng.choice(events)}({rng.choice(ARG_POOL)});")
        rng.shuffle(body)
    order = list(bodies)
    rng.shuffle(order)
    return "\n".join(f"void {name}(char *x) {{ {' '.join(bodies[name])} }}" for name in order)


def test_every_finding_has_a_witness_path_from_a_start():
    """Over seeded random programs with recursion, signal handlers a root
    does not reach, and random catalogs: every finding of run_all has a
    witness path; each of its terminals ends one of its paths and each
    path ends at one of its terminals; each path is a walk of the graph
    that starts at a root or, for CWE-479, at the entry of a handler a
    signal() call names. Some CWE-479 findings start where no root
    reaches."""
    unreached_handlers = 0
    for seed in range(60):
        rng = random.Random(seed)
        source = signal_program(rng)
        graph, _ = call_graph_of(source)
        index = graph.derived(call_graph_index)
        roots = set(entry_nodes(graph))
        handlers = {
            index.entry_of[name]
            for site in index.by_name.get("signal", ())
            if (name := graph.node(site).properties.get("Argument2")) in index.entry_of
        }
        called = sorted(index.all_by_name)
        for _ in range(3):
            findings, _ = run_all(graph, random_catalog(rng, called) + [catalog_entry("CWE-479")])
            for finding in findings:
                assert finding.witness_paths, source
                assert {path.end for path in finding.witness_paths} == set(finding.terminal_nodes)
                assert finding.terminal_nodes == sorted(finding.terminal_nodes)
                starts = handlers if finding.cwe_id == "CWE-479" else roots
                for path in finding.witness_paths:
                    assert path.nodes[0] in starts, source
                    assert is_valid_path(graph, path)
                if not set(index.entries) & {path.nodes[0] for path in finding.witness_paths}:
                    unreached_handlers += 1
    assert unreached_handlers


class TestTriggers:
    """Rows whose detector needs a name other than their events, or that
    name one called procedure more than once."""

    def test_signal_row_runs_without_its_events_called(self, caplog):
        graph, _ = call_graph_of("void main() { signal(2, missing_handler); pause(); }")
        result, _ = logged_run(run_all, caplog, graph, [catalog_entry("CWE-479")])
        assert result == ([], [])
        assert "syslog" in catalog_entry("CWE-479").function_events
        assert any("cannot be resolved" in r.message for r in caplog.records)

    def test_getlogin_without_threads_finds_nothing(self):
        graph, _ = call_graph_of("void main() { getlogin(); }")
        assert run_all(graph, [catalog_entry("CWE-558")]) == ([], [])

    @pytest.mark.parametrize(
        "events", [["gets", "atoi"], ["gets", "gets"], ["atoi", "gets", "atoi"]]
    )
    def test_each_finding_once(self, events):
        graph, _ = call_graph_of("void main() { gets(b); atoi(b); gets(c); }")
        findings, _ = run_all(graph, [CweRecord("CWE-9999", "Custom", "", events)])
        terminals = [t for f in findings for t in f.terminal_nodes]
        assert sorted(terminals) == sorted(set(terminals))
        assert len(terminals) == len(_call_sites_matching(graph, events))

    def test_an_id_listed_twice_keeps_catalog_order(self):
        graph, _ = call_graph_of("void main() { gets(b); }")
        first = CweRecord("CWE-242", "first", "", ["gets"])
        second = CweRecord("CWE-242", "second", "", ["absent", "gets"])
        for catalog in ([first, second], [second, first]):
            findings, _ = run_all(graph, catalog)
            assert [f.cwe_name for f in findings] == [c.name for c in catalog]

    def test_a_catalog_keeps_its_map(self):
        catalog = Catalog(load_catalog())
        graph, _ = call_graph_of("void main() { gets(b); }")
        run_all(graph, catalog)
        rows = catalog.rows_by_trigger
        run_all(graph, catalog)
        assert catalog.rows_by_trigger is rows
        assert [catalog[i].cwe_id for i in rows[None]] == ["CWE-401"]


def reference_enclosing_function(tu, exec_order):
    """The function whose ExecOrders, from its entry to its last call
    site, cover exec_order, found by a scan over the unit: the site ->
    function rule detection used before the builder's index kept each
    function's pointer locals, where detection bisects the entry ids."""
    for fn in tu.functions:
        last = fn.call_sites[-1].exec_order if fn.call_sites else fn.exec_order
        if fn.exec_order <= exec_order <= last:
            return fn
    return None


def reference_index(graph, tu):
    """The classification by an edge walk, which detection ran before the
    builder handed it over: roots are the CallGraph nodes without an
    incoming CALLS edge and are function entries; an entry's CALLS
    targets are call sites; a call site's CALLS target is the entry of
    the function it invokes. Alternating from the roots classifies every
    node, recursive cycles included; a node no root reaches stays
    unclassified. An entry's pointer locals are those of the function of
    tu whose ExecOrders cover the entry's. entry_of and all_by_name are
    read from every CallGraph node, classified or not: a node whose
    ExecOrder is a function's in tu is its entry, any other a call site."""
    targets = {}  # node id -> its CALLS targets
    for edge in graph.edges():
        if edge.type == "CALLS":
            targets.setdefault(edge.source, []).append(edge.target)
    called = {target for ids in targets.values() for target in ids}
    roots = [n.id for n in graph.find_nodes("CallGraph") if n.id not in called]
    entries, sites = set(roots), set()
    stack = [(n, True) for n in roots]
    while stack:
        node_id, is_entry = stack.pop()
        bucket = sites if is_entry else entries
        for target in targets.get(node_id, ()):
            if target not in bucket:
                bucket.add(target)
                stack.append((target, not is_entry))
    roots.sort(key=lambda n: (graph.node(n).properties.get("Name") != "main", n))
    by_name = {}
    for n in sorted(sites):
        name = graph.node(n).properties.get("Name", "")
        if isinstance(name, str):
            by_name.setdefault(name, []).append(n)
    entries = sorted(entries)
    pointer_locals = tuple(
        reference_enclosing_function(tu, graph.node(n).properties["ExecOrder"]).pointer_locals
        for n in entries
    )
    entry_orders = {fn.exec_order for fn in tu.functions}
    entry_of, all_by_name = {}, {}
    for node in graph.find_nodes("CallGraph"):
        if node.properties["ExecOrder"] in entry_orders:
            entry_of[node.properties["Name"]] = node.id
        else:
            all_by_name.setdefault(node.properties["Name"], []).append(node.id)
    return _CallGraphIndex(
        tuple(entries), tuple(roots), by_name, pointer_locals, entry_of, all_by_name
    )


CATALOG = Catalog(load_catalog())


FUNCTION_NAMES = st.lists(st.sampled_from(["main", "f", "g", "h", "k"]), unique=True, max_size=5)
CALL_ARGUMENTS = st.sampled_from(["", "x", "x, 1"])


@st.composite
def recursive_programs(draw):
    """A C program whose functions call each other, themselves, names the
    unit does not define and one name several times, with `main` often
    defined last, and sometimes a mutually recursive pair p <-> q; and the
    names of the pair when no other function calls it, so no root
    reaches it."""
    names = draw(FUNCTION_NAMES)
    if "main" in names and draw(st.booleans()):
        names.remove("main")
        names.append("main")
    callees = names + ["gets", "free", "atoi"] + (["p"] if draw(st.booleans()) else [])
    functions = [(name, draw(st.lists(st.sampled_from(callees), max_size=6))) for name in names]
    pair_called = any("p" in body for _, body in functions)
    pair = draw(st.booleans())
    if pair:
        functions.insert(draw(st.integers(0, len(functions))), ("p", ["q", "gets"]))
        functions.insert(draw(st.integers(0, len(functions))), ("q", ["p", "q", "free"]))
    source = "\n".join(
        f"void {name}(char *x) {{ " + "".join(f"{callee}({draw(CALL_ARGUMENTS)}); " for callee in body) + "}"
        for name, body in functions
    )
    return source, {"p", "q"} if pair and not pair_called else set()


def builder_index(source, graph):
    """The index build_call_graph hands graph for source, and graph."""
    build_call_graph(extract_translation_unit(source), graph)
    return graph.derived(call_graph_index), graph


class TestIndexMatchesThePerNodeReference:
    """The index build_call_graph hands the graph, made from the unit's
    functions, classifies as the reference edge walk does: the same
    entries, roots (main first) and call sites by name."""

    @pytest.mark.parametrize("program", range(len(CORPUS_PROGRAMS)))
    def test_bundled_samples(self, program):
        graph, tu = CORPUS_PROGRAMS[program]
        assert graph.derived(call_graph_index) == reference_index(graph, tu)

    @pytest.mark.parametrize("sample", ["cwe415_double_free_interproc.c", "cwe479_signal_syslog.c"])
    def test_a_call_graph_over_a_catalog_copy(self, sample):
        """A query's graph: the catalog's sealed CWE nodes, copied, with
        the program's call graph added after them."""
        source = (DATA / "corpus" / sample).read_text(encoding="utf-8")
        index, graph = builder_index(source, CATALOG.cwe_graph.copy())
        graph.seal()
        assert graph.find_nodes("CWE")
        assert min(index.entries) > len(CATALOG)
        assert graph.derived(call_graph_index) is graph.derived(call_graph_index) == index
        assert index == reference_index(graph, extract_translation_unit(source))

    @given(program=recursive_programs())
    @settings(max_examples=300, deadline=None)
    def test_random_graphs_with_cycles(self, program):
        """Self-calls, repeated callees, main defined last and a recursive
        pair that no root may reach, which stays unclassified; on a fresh
        graph and after the catalog's CWE nodes, where every id is offset."""
        source, unreached = program
        tu = extract_translation_unit(source)
        fresh, graph = builder_index(source, PropertyGraph())
        assert fresh == reference_index(graph, tu)
        offset, graph = builder_index(source, CATALOG.cwe_graph.copy())
        assert offset == reference_index(graph, tu)
        shift = len(CATALOG)
        assert offset.entries == tuple(n + shift for n in fresh.entries)
        assert offset.roots == tuple(n + shift for n in fresh.roots)
        assert offset.by_name == {k: [n + shift for n in v] for k, v in fresh.by_name.items()}
        assert offset.pointer_locals == fresh.pointer_locals
        kept = set(offset.entries).union(*offset.by_name.values())
        for node in graph.find_nodes("CallGraph"):
            if reference_enclosing_function(tu, node.properties["ExecOrder"]).name in unreached:
                assert node.id not in kept


def sizeof_program(rng):
    """A C program whose functions take a pointer or an int parameter,
    declare as pointers or arrays the names other functions take as
    parameters, and apply sizeof to those names, to an undeclared name and
    to a dereference. main reaches r, which calls itself and f; p and q
    call each other and take a pointer they apply sizeof to, but no root
    reaches them. The functions come in a random order."""
    names = ["a", "b", "c"]
    callees = {"main": ["r"], "r": ["r", "f"], "f": [], "p": ["q"], "q": ["p"]}
    order = list(callees)
    rng.shuffle(order)
    functions = []
    for fn in order:
        param = "a" if fn in ("p", "q") else rng.choice(names)
        pointer = fn in ("p", "q") or rng.random() < 0.5
        decls = [
            f"char *{name};" if rng.random() < 0.5 else f"int {name}[4];"
            for name in names
            if name != param and rng.random() < 0.7
        ]
        calls = [f"{callee}({param});" for callee in callees[fn]] + [
            f"n = sizeof({rng.choice(names + ['z', '*' + param])});"
            for _ in range(rng.randint(1, 4))
        ] + ["n = sizeof(a);"] * (fn in ("p", "q"))
        rng.shuffle(calls)
        functions.append(
            f"void {fn}({'char *' if pointer else 'int '}{param}) {{ "
            + " ".join(["int n;", *decls, *calls])
            + " }"
        )
    return "\n".join(functions)


@pytest.mark.parametrize("seed", range(40))
def test_sizeof_findings_match_the_exec_order_reference(seed):
    """CWE-467 flags a sizeof call exactly when, under the reference rule,
    its argument is a pointer parameter or body local of the function
    whose ExecOrders cover the call, and a root reaches that function:
    over recursive functions, an unreached recursive pair and one name a
    pointer in one function and an array or int in another; on a fresh
    graph and after the catalog's CWE nodes, where every id is shifted."""
    rng = random.Random(seed)
    source = sizeof_program(rng)
    tu = extract_translation_unit(source)
    cwe = catalog_entry("CWE-467")
    terminals = []
    for graph in (PropertyGraph(), CATALOG.cwe_graph.copy()):
        build_call_graph(tu, graph)
        graph.seal()
        want = []
        for site in reference_index(graph, tu).by_name.get("sizeof", []):
            properties = graph.node(site).properties
            argument = properties.get("Argument1")
            fn = reference_enclosing_function(tu, properties["ExecOrder"])
            assert fn.name not in ("p", "q")
            if isinstance(argument, str) and argument.isidentifier() and argument in fn.pointer_locals:
                want.append((site, f"sizeof applied to pointer {argument!r}"))
        findings = detect_sizeof_on_pointer(graph, cwe)
        assert [(f.terminal_nodes, f.message) for f in findings] == [([s], m) for s, m in want]
        entries = entry_nodes(graph)
        for finding in findings:
            assert finding.witness_paths == _witness_paths(graph, entries, finding.terminal_nodes)
        assert run_all(graph, [cwe]) == (findings, [])
        terminals.append([f.terminal_nodes for f in findings])
    fresh, shifted = terminals
    assert shifted == [[n + len(CATALOG) for n in group] for group in fresh]
