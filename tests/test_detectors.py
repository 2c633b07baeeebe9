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
    _index,
    _witness_paths,
    entry_nodes,
    generate_detection_query,
    run_all,
)
from pkgraph.graph import PropertyGraph, values_equal
from pkgraph.render import render_node
from pkgraph.vulndata import CweRecord


def names_of(graph, ids):
    return [graph.node(i).properties["Name"] for i in ids]


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
        graph = PropertyGraph()
        aux = graph.add_node("CallGraph", {"Name": "aux"})
        assert entry_nodes(graph) == [aux]
        main = graph.add_node("CallGraph", {"Name": "main"})
        assert entry_nodes(graph) == [main, aux]
        graph.add_edge(main, aux, "CALLS")
        graph.seal()
        assert entry_nodes(graph) == [main]

    def test_index_is_per_graph(self):
        first = PropertyGraph()
        foo = first.add_node("CallGraph", {"Name": "foo"})
        first.seal()
        second = PropertyGraph()
        aux = second.add_node("CallGraph", {"Name": "aux"})
        main = second.add_node("CallGraph", {"Name": "main"})
        second.seal()
        assert entry_nodes(first) == [foo]
        assert entry_nodes(second) == [main, aux]
        assert entry_nodes(first) == [foo]


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
        graph, tu = call_graph_of("void f() { char* p; int n = sizeof(p); }")
        findings = detect_sizeof_on_pointer(graph, tu, catalog_entry("CWE-467"))
        assert len(findings) == 1

    def test_array_not_flagged(self):
        graph, tu = call_graph_of("void f() { int a[4]; int n = sizeof(a); }")
        assert detect_sizeof_on_pointer(graph, tu, catalog_entry("CWE-467")) == []

    def test_no_sizeof_nodes(self):
        graph, tu = call_graph_of("void f() { g(); }")
        assert detect_sizeof_on_pointer(graph, tu, catalog_entry("CWE-467")) == []


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
            graph, tu = call_graph_of(src)
            findings, (capability,) = run_all(graph, tu, [catalog_entry("CWE-401")])
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


def detector_terminals(graph, tu, cwe):
    findings, _ = run_all(graph, tu, [cwe])
    return {render_node(graph.node(t)) for f in findings for t in f.terminal_nodes}


def assert_query_matches_rule(graph, tu, cwe, entry_name):
    """The row has no query template, or its query finds the terminals
    its detector rule finds."""
    if cwe.cwe_id in NO_TEMPLATE:
        with pytest.raises(UnsupportedTemplate):
            generate_detection_query(cwe, entry_name)
    else:
        assert query_terminals(graph, cwe, entry_name) == detector_terminals(graph, tu, cwe)


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
    graph, tu, _ = merged_graph_of(source, catalog)
    return graph, tu


class TestQueryRuleEquivalence:
    @pytest.mark.parametrize("cwe", CATALOG_ROWS, ids=lambda cwe: cwe.cwe_id)
    def test_fixture_graphs(self, cwe):
        for source, entry in (
            (DOUBLE_FREE_SRC, "foo"),
            (DOUBLE_FREE_INTERPROC_SRC, "main"),
        ):
            graph, tu, _ = merged_graph_of(source, catalog_with(cwe))
            assert_query_matches_rule(graph, tu, cwe, entry)

    @pytest.mark.parametrize("cwe", CATALOG_ROWS, ids=lambda cwe: cwe.cwe_id)
    def test_random_graphs(self, cwe):
        """Programs draw from EVENT_POOL plus the row's other events."""
        rng = random.Random(4100 + len(cwe.cwe_id))
        pool = EVENT_POOL + [e for e in cwe.function_events if e not in EVENT_POOL]
        for _ in range(25):
            graph, tu = random_merged_graph(rng, catalog_with(cwe), pool)
            assert_query_matches_rule(graph, tu, cwe, "main")


class TestRunAll:
    def test_double_free_example_findings(self, catalog):
        graph, tu, _ = merged_graph_of(DOUBLE_FREE_SRC)
        findings, capabilities = run_all(graph, tu, catalog)
        assert {f.cwe_id for f in findings} == {"CWE-242", "CWE-415", "CWE-1341"}
        assert [c.cwe_id for c in capabilities] == ["CWE-401"]

    def test_empty_graph(self, catalog):
        graph = PropertyGraph()
        graph.seal()
        findings, capabilities = run_all(graph, None, catalog)
        assert findings == []
        assert len(capabilities) == 1

    def test_witness_paths_are_sound(self, catalog):
        graph, tu, _ = merged_graph_of(DOUBLE_FREE_INTERPROC_SRC)
        findings, _ = run_all(graph, tu, catalog)
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
        graph, tu = call_graph_of("void main() { dangerous(); }")
        extra = CweRecord("CWE-9999", "Custom", "", ["dangerous"])
        findings, _ = run_all(graph, tu, [extra])
        assert len(findings) == 1

    def test_output_order_stable(self, catalog):
        graph, tu, _ = merged_graph_of(DOUBLE_FREE_SRC)
        first, _ = run_all(graph, tu, catalog)
        second, _ = run_all(graph, tu, catalog)
        assert [(f.cwe_id, f.terminal_nodes) for f in first] == [
            (f.cwe_id, f.terminal_nodes) for f in second
        ]


@pytest.mark.parametrize("seed", range(40))
def test_witness_paths_match_per_terminal_oracle(seed):
    """One search per start, grouped by end node, gives the paths of one
    search per (start, terminal) pair in ascending terminal order."""
    rng = random.Random(seed)
    graph = PropertyGraph()
    nodes = [graph.add_node("CallGraph", {}) for _ in range(rng.randint(1, 9))]
    for _ in range(rng.randint(0, 12)):
        graph.add_edge(rng.choice(nodes), rng.choice(nodes), rng.choice(["CALLS", "OTHER"]))
    graph.seal()
    starts = rng.sample(nodes, rng.randint(1, len(nodes)))
    terminals = rng.sample(nodes, rng.randint(1, len(nodes)))
    want = [
        path
        for start in starts
        for terminal in sorted(terminals)
        for path in brute_force_paths(graph, start, {terminal}, "CALLS", 1, None)
    ]
    assert _witness_paths(graph, starts, terminals) == want


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
    entries = _index(graph).entries
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
    by_name = _index(graph).by_name
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
    graph, tu = call_graph_of(source)
    entries = entry_nodes(graph)
    banned = catalog_entry("CWE-242")
    results = [
        (detect_banned_calls(graph, banned), _call_sites_matching(graph, banned.function_events)),
        (detect_sizeof_on_pointer(graph, tu, catalog_entry("CWE-467")), None),
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


def reference_run_all(graph, tu, catalog):
    """run_all walking every catalog row in order, as it did before it
    walked the program's called names: the oracle for that inversion."""
    findings = []
    capabilities = []
    for cwe in catalog:
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
    for graph, tu in CORPUS_PROGRAMS:
        called = sorted(_index(graph).by_name)
        for _ in range(3):
            catalog = random_catalog(rng, called)
            want = logged_run(reference_run_all, caplog, graph, tu, catalog)
            assert logged_run(run_all, caplog, graph, tu, catalog) == want
            assert logged_run(run_all, caplog, graph, tu, Catalog(catalog)) == want


class TestTriggers:
    """Rows whose detector needs a name other than their events, or that
    name one called procedure more than once."""

    def test_signal_row_runs_without_its_events_called(self, caplog):
        graph, tu = call_graph_of("void main() { signal(2, missing_handler); pause(); }")
        result, _ = logged_run(run_all, caplog, graph, tu, [catalog_entry("CWE-479")])
        assert result == ([], [])
        assert "syslog" in catalog_entry("CWE-479").function_events
        assert any("cannot be resolved" in r.message for r in caplog.records)

    def test_getlogin_without_threads_finds_nothing(self):
        graph, tu = call_graph_of("void main() { getlogin(); }")
        assert run_all(graph, tu, [catalog_entry("CWE-558")]) == ([], [])

    @pytest.mark.parametrize(
        "events", [["gets", "atoi"], ["gets", "gets"], ["atoi", "gets", "atoi"]]
    )
    def test_each_finding_once(self, events):
        graph, tu = call_graph_of("void main() { gets(b); atoi(b); gets(c); }")
        findings, _ = run_all(graph, tu, [CweRecord("CWE-9999", "Custom", "", events)])
        terminals = [t for f in findings for t in f.terminal_nodes]
        assert sorted(terminals) == sorted(set(terminals))
        assert len(terminals) == len(_call_sites_matching(graph, events))

    def test_an_id_listed_twice_keeps_catalog_order(self):
        graph, tu = call_graph_of("void main() { gets(b); }")
        first = CweRecord("CWE-242", "first", "", ["gets"])
        second = CweRecord("CWE-242", "second", "", ["absent", "gets"])
        for catalog in ([first, second], [second, first]):
            findings, _ = run_all(graph, tu, catalog)
            assert [f.cwe_name for f in findings] == [c.name for c in catalog]

    def test_a_catalog_keeps_its_map(self):
        catalog = Catalog(load_catalog())
        graph, tu = call_graph_of("void main() { gets(b); }")
        run_all(graph, tu, catalog)
        rows = catalog.rows_by_trigger
        run_all(graph, tu, catalog)
        assert catalog.rows_by_trigger is rows
        assert [catalog[i].cwe_id for i in rows[None]] == ["CWE-401"]
