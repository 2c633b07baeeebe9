import csv
import dataclasses
import io
import random
import sys
import threading

import pytest
from hypothesis import example, given, settings, strategies as st

import pkgraph.graph
from conftest import edge_rows
from pkgraph.cparse import CallSite, FunctionDef, TranslationUnit, _CallGraphIndex
from pkgraph.cypher import ast
from pkgraph.cypher.eval import ResultTable, _Level, _Match, _Plan, _Projection
from pkgraph.cypher.parser import _Tok
from pkgraph.detectors import DetectorCapability, Finding, _Family
from pkgraph.graph import (
    FrozenRecord,
    GraphError,
    GraphSealed,
    InvalidLabel,
    Node,
    Path,
    PropertyGraph,
    Record,
    UnknownNode,
    values_equal,
)
from pkgraph.render import _TextTable, export_import_csv
from pkgraph.vulndata import CveRecord, CweRecord, IngestStats


def is_valid_path(graph, path):
    """Check contiguity, direction, and edge uniqueness of a path."""
    if len(path.nodes) != len(path.edges) + 1 or not path.nodes:
        return False
    if len(set(path.edges)) != len(path.edges):
        return False
    ends = {edge_id: (source, target) for edge_id, source, target, _ in edge_rows(graph)}
    for k, edge_id in enumerate(path.edges):
        if ends.get(edge_id) != (path.nodes[k], path.nodes[k + 1]):
            return False
    node_ids = {node.id for node in graph.nodes()}
    return all(n in node_ids for n in path.nodes)


def brute_force_paths(graph, start, targets, edge_type, min_len, max_len, walks=None):
    """Independent path oracle: recursively try every unused edge and
    keep walks that end at a target. Sorted by edge-id sequence. With
    walks, a list, each walk the search visits, the empty one included,
    adds its length to it."""
    edges = edge_rows(graph)
    found = []

    def recurse(current, edge_seq, node_seq):
        if walks is not None:
            walks.append(len(edge_seq))
        if len(edge_seq) >= min_len and current in targets:
            found.append((tuple(node_seq), tuple(edge_seq)))
        if max_len is not None and len(edge_seq) >= max_len:
            return
        for edge_id, source, target, type_ in edges:
            if source != current or edge_id in edge_seq:
                continue
            if edge_type is not None and type_ != edge_type:
                continue
            recurse(target, edge_seq + [edge_id], node_seq + [target])

    recurse(start, [], [start])
    found.sort(key=lambda pair: pair[1])
    return [Path(nodes, edges_) for nodes, edges_ in found]


class TestValuesEqual:
    def test_same_kind(self):
        assert values_equal("free", "free")
        assert values_equal(3, 3)
        assert not values_equal(3, 4)

    def test_kind_mismatch_is_false(self):
        assert not values_equal(1, 1.0)
        assert not values_equal("1", 1)

    def test_scalar_vs_list_is_membership(self):
        events = ["gets", "atoi", "atol", "atof"]
        assert values_equal("gets", events)
        assert values_equal(events, "atoi")
        assert not values_equal("free", events)
        assert not values_equal(3, ["3"])


class TestAddNode:
    def test_properties_retrievable(self):
        g = PropertyGraph()
        n = g.add_node("CallGraph", {"ExecOrder": 1, "Name": "foo"})
        node = g.node(n)
        assert node.label == "CallGraph"
        assert node.properties == {"ExecOrder": 1, "Name": "foo"}

    def test_empty_property_map(self):
        g = PropertyGraph()
        n = g.add_node("CWE", {})
        assert g.node(n).properties == {}

    def test_no_dedup(self):
        g = PropertyGraph()
        a = g.add_node("CWE", {"x": 1})
        b = g.add_node("CWE", {"x": 1})
        assert a != b

    def test_empty_label_rejected(self):
        with pytest.raises(InvalidLabel):
            PropertyGraph().add_node("", {})


class TestAddEdge:
    def test_out_neighbors(self):
        g = PropertyGraph()
        foo = g.add_node("CallGraph", {"Name": "foo"})
        free = g.add_node("CallGraph", {"Name": "free"})
        g.add_edge(foo, free, "CALLS")
        assert [target for _, _, target, _ in edge_rows(g, g.out_edges(foo))] == [free]

    def test_self_loop(self):
        g = PropertyGraph()
        n = g.add_node("CallGraph", {})
        e = g.add_edge(n, n, "CALLS")
        assert edge_rows(g, [e]) == [(e, n, n, "CALLS")]

    def test_unknown_endpoint(self):
        g = PropertyGraph()
        n = g.add_node("CallGraph", {})
        with pytest.raises(UnknownNode):
            g.add_edge(n, n + 99, "CALLS")


class TestFindNodes:
    def test_filter_by_name(self, double_free_graph):
        nodes = double_free_graph.find_nodes("CallGraph", {"Name": "free"})
        assert sorted(n.properties["ExecOrder"] for n in nodes) == [6, 7]

    def test_unknown_label_empty(self):
        assert PropertyGraph().find_nodes("CWE") == []

    def test_list_filter_membership(self, double_free_graph):
        nodes = double_free_graph.find_nodes(
            "CallGraph", {"Name": ["gets", "atoi", "atol", "atof"]}
        )
        assert [n.properties["Name"] for n in nodes] == ["gets"]

    def test_order_is_ascending_id(self):
        g = PropertyGraph()
        ids = [g.add_node("X", {}) for _ in range(5)]
        assert [n.id for n in g.find_nodes("X")] == sorted(ids)

    def test_label_returns_exactly_its_nodes(self):
        g = PropertyGraph()
        xs = {g.add_node("X", {}) for _ in range(3)}
        ys = {g.add_node("Y", {}) for _ in range(2)}
        assert {n.id for n in g.find_nodes("X")} == xs
        assert {n.id for n in g.find_nodes("Y")} == ys


# Property values of every kind, drawn from few enough texts and numbers
# that filters often meet them: 1 and 1.0 and True differ, -0.0 equals
# 0.0, NaN equals nothing (not even the same NaN object), and a text
# meets a list that holds it, once if the list holds it twice.
NAN = float("nan")
VALUES = st.one_of(
    st.sampled_from(["a", "b", "gets", ""]),
    st.sampled_from([0, 1, 2, 1.0, 0.0, -0.0, 2.5, NAN, True, False]),
    st.lists(st.sampled_from(["a", "b", "gets"]), max_size=3),
    st.just(["a", "gets", "a"]),
    st.none(),
)
PROPERTIES = st.dictionaries(st.sampled_from(["k", "Name", "x"]), VALUES, max_size=3)


def brute_force_find(graph, label, filters):
    return [
        node
        for node in graph.nodes()
        if node.label == label
        and all(key in node.properties and values_equal(value, node.properties[key])
                for key, value in filters.items())
    ]


class TestFindNodesOracle:
    """find_nodes against a scan of every node under values_equal."""

    @settings(max_examples=300, deadline=None)
    @given(
        nodes=st.lists(st.tuples(st.sampled_from("AB"), PROPERTIES), max_size=12),
        label=st.sampled_from("ABZ"),
        filters=PROPERTIES,
        sealed=st.booleans(),
    )
    @example(nodes=[("A", {"k": 1}), ("A", {"k": 1.0}), ("A", {"k": True})], label="A",
             filters={"k": 1}, sealed=True)
    @example(nodes=[("A", {"k": ["a", "b"]}), ("A", {"k": "a"}), ("A", {})], label="A",
             filters={"k": "a"}, sealed=False)
    @example(nodes=[("A", {"k": None}), ("A", {})], label="A", filters={"k": None}, sealed=True)
    def test_matches_a_scan_of_every_node(self, nodes, label, filters, sealed):
        graph = PropertyGraph()
        for node_label, properties in nodes:
            graph.add_node(node_label, properties)
        if sealed:
            graph.seal()
        found = graph.find_nodes(label, filters)
        assert found == brute_force_find(graph, label, filters)
        assert [node.id for node in found] == sorted({node.id for node in found})

    @settings(max_examples=300, deadline=None)
    @given(
        nodes=st.lists(st.tuples(st.sampled_from("AB"), PROPERTIES), max_size=12),
        added=st.lists(st.tuples(st.sampled_from("AC"), PROPERTIES), max_size=4),
        copy_again=st.booleans(),
        added_again=st.lists(st.tuples(st.sampled_from("BC"), PROPERTIES), max_size=4),
        lookups=st.lists(st.tuples(st.sampled_from("ABCZ"), PROPERTIES), min_size=1, max_size=4),
    )
    @example(nodes=[("A", {"k": NAN}), ("A", {"k": 0.0}), ("A", {"k": ["a", "a"]})], added=[],
             copy_again=False, added_again=[],
             lookups=[("A", {"k": NAN}), ("A", {"k": -0.0}), ("A", {"k": "a"})])
    @example(nodes=[("A", {"k": 1, "x": "a"}), ("A", {"k": 1})], added=[("A", {"k": 1})],
             copy_again=True, added_again=[],
             lookups=[("A", {"k": 1, "x": "a"}), ("A", {"k": True}), ("A", {"x": "a"})])
    def test_copies_match_a_scan_of_every_node(
        self, nodes, added, copy_again, added_again, lookups
    ):
        """A sealed source, its copy, nodes added to the copy, and
        optionally a copy of that: each answers every lookup as a scan
        does, before and after each step, in a list of the caller's own;
        each source builds a (label, key) map at most once."""
        sources = []

        def check():
            for graph in sources + [current]:
                for label, filters in lookups:
                    found = graph.find_nodes(label, filters)
                    assert found == brute_force_find(graph, label, filters)
                    found.append(found[0] if found else None)
                    assert graph.find_nodes(label, filters) == brute_force_find(graph, label, filters)

        def seal_and_copy(graph):
            graph.seal()
            sources.append(graph)
            builds[graph] = counted_builds(graph)
            return graph.copy()

        builds = {}
        current = PropertyGraph()
        current.add([(label, dict(properties)) for label, properties in nodes])
        check()
        current = seal_and_copy(current)
        check()
        current.add([(label, dict(properties)) for label, properties in added])
        check()
        if copy_again:
            current = seal_and_copy(current)
            check()
            current.add([(label, dict(properties)) for label, properties in added_again])
            check()
        for built in builds.values():
            assert len(built) == len(set(built))


def counted_builds(graph):
    """The (label, key) of each map the graph builds from now on."""
    built = []
    build = graph._build_map

    def counted(label, key):
        built.append((label, key))
        return build(label, key)

    graph._build_map = counted
    return built


class TestLookupThroughTheSource:
    """A copy's filtered lookups of a label it has not added to are
    answered from a map its sealed source builds once; every other lookup
    scans, and builds nothing."""

    def catalog(self):
        graph = PropertyGraph()
        graph.add([
            ("CWE", {"CWE-ID": "CWE-242", "Function Events": ["gets", "gets"]}),
            ("CWE", {"CWE-ID": "CWE-415", "Function Events": "free"}),
            ("CWE", {"CWE-ID": "CWE-676", "Function Events": ["gets", "strcpy"]}),
            ("X", {"CWE-ID": "CWE-242"}),
        ])
        graph.seal()
        return graph

    def ids(self, graph, label, filters):
        return [node.id for node in graph.find_nodes(label, filters)]

    def test_the_source_builds_each_map_once_on_the_first_lookup(self):
        source = self.catalog()
        built = counted_builds(source)
        copies = [source.copy(), source.copy()]
        assert built == []
        for graph in copies:
            assert self.ids(graph, "CWE", {"CWE-ID": "CWE-242"}) == [1]
            assert self.ids(graph, "CWE", {"CWE-ID": "CWE-9"}) == []
            assert self.ids(graph, "CWE", {"Function Events": "gets"}) == [1, 3]
            assert self.ids(graph, "CWE", {"Function Events": "gets", "CWE-ID": "CWE-676"}) == [3]
        assert built == [("CWE", "CWE-ID"), ("CWE", "Function Events")]

    def test_lookups_the_map_does_not_answer_scan(self):
        """A graph's own lookups, a label the copy added to, no filter and
        a filter value that is not a scalar build no map."""
        source = self.catalog()
        built = counted_builds(source)
        assert self.ids(source, "CWE", {"CWE-ID": "CWE-242"}) == [1]
        copy = source.copy()
        assert self.ids(copy, "CWE", {}) == [1, 2, 3]
        assert self.ids(copy, "CWE", {"Function Events": ["gets", "gets"]}) == [1]
        assert self.ids(copy, "CWE", {"CWE-ID": None}) == []
        copy.add([("X", {"CWE-ID": "CWE-242"}), ("CallGraph", {"Name": "gets"})])
        assert self.ids(copy, "X", {"CWE-ID": "CWE-242"}) == [4, 5]
        assert self.ids(copy, "CallGraph", {"Name": "gets"}) == [6]
        assert built == []

    def test_nan_finds_nothing_and_builds_nothing(self):
        source = PropertyGraph()
        source.add([("A", {"k": NAN}), ("A", {"k": 0.0})])
        source.seal()
        built = counted_builds(source)
        copy = source.copy()
        assert self.ids(copy, "A", {"k": NAN}) == []
        assert built == []
        assert self.ids(copy, "A", {"k": -0.0}) == [2]
        assert built == [("A", "k")]

    def test_copies_read_one_source_from_many_threads(self):
        """Reads of a sealed graph are safe from any thread, the first
        lookups that build its maps too."""
        source = PropertyGraph()
        source.add(("CWE", {"CWE-ID": f"CWE-{k % 50}", "Name": f"n{k % 7}"}) for k in range(2000))
        source.seal()
        lookups = [("CWE-ID", f"CWE-{k}") for k in range(50)] + [("Name", f"n{k}") for k in range(7)]
        expected = [brute_force_find(source, "CWE", {key: value}) for key, value in lookups]
        answers = []

        def read():
            copy = source.copy()
            answers.append([copy.find_nodes("CWE", {key: value}) for key, value in lookups])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert answers == [expected] * 8

    def test_a_label_added_to_is_no_longer_the_sources(self):
        """A batch that fails adds nothing, and leaves its labels to the
        source."""
        source = self.catalog()
        built = counted_builds(source)
        copy = source.copy()
        with pytest.raises(UnknownNode):
            copy.add([("CWE", {"CWE-ID": "CWE-242"})], [(1, 99, "T")])
        assert self.ids(copy, "CWE", {"CWE-ID": "CWE-242"}) == [1]
        copy.add([("CWE", {"CWE-ID": "CWE-242"})])
        assert self.ids(copy, "CWE", {"CWE-ID": "CWE-242"}) == [1, 5]
        assert self.ids(source, "CWE", {"CWE-ID": "CWE-242"}) == [1]
        assert built == [("CWE", "CWE-ID")]


def graph_state(graph):
    """Everything a reader of the graph can see, the derived values too."""
    return (
        [(n.id, n.label, n.properties) for n in graph.nodes()],
        edge_rows(graph),
        {n.id: (list(graph.out_edges(n.id)), list(graph.in_edges(n.id))) for n in graph.nodes()},
        {label: [n.id for n in graph.find_nodes(label)] for label in ("A", "B", "")},
        graph.node_count,
        graph.edge_count,
        dict(graph._derived),
    )


def one_at_a_time(graph, nodes, edges):
    """The batch as one-item calls, stopping at the first that raises."""
    for label, properties in nodes:
        graph.add_node(label, properties)
    for source, target, edge_type in edges:
        graph.add_edge(source, target, edge_type)


def labels(graph):
    return [node.label for node in graph.nodes()]


def counted_indexes(monkeypatch):
    """(name, graph) for each index the graphs build from now on."""
    built = []
    for name in ("_labels", "_outgoing", "_incoming"):
        def counted(graph, name=name, build=getattr(pkgraph.graph, name)):
            built.append((name, graph))
            return build(graph)

        monkeypatch.setattr(pkgraph.graph, name, counted)
    return built


class TestAdd:
    """add() takes a batch of nodes and edges; add_node and add_edge are
    one-item batches."""

    def test_ids_are_known_in_advance(self):
        g = PropertyGraph()
        g.add_node("A", {})
        g.add([("A", {"k": 1}), ("B", {})], [(2, 3, "T"), (1, 2, "T"), (3, 3, "U")])
        assert [(n.id, n.label) for n in g.nodes()] == [(1, "A"), (2, "A"), (3, "B")]
        assert edge_rows(g) == [(1, 2, 3, "T"), (2, 1, 2, "T"), (3, 3, 3, "U")]
        assert [n.id for n in g.find_nodes("A")] == [1, 2]
        assert list(g.out_edges(3)) == [3]
        assert list(g.in_edges(3)) == [1, 3]

    def test_nodes_are_read_before_edges(self):
        g = PropertyGraph()
        edges = []

        def nodes():
            for k in range(1, 4):
                yield "A", {}
                edges.append((k, 1, "T"))

        g.add(nodes(), edges)
        assert edge_rows(g) == [(1, 1, 1, "T"), (2, 2, 1, "T"), (3, 3, 1, "T")]

    def test_a_batch_keeps_its_dicts_and_add_node_copies(self):
        g = PropertyGraph()
        handed, given = {"k": 1}, {"k": 1}
        g.add([("A", handed)])
        g.add_node("A", given)
        assert g.node(1).properties is handed
        assert g.node(2).properties == given and g.node(2).properties is not given

    @pytest.mark.parametrize(
        "nodes, edges, one_item, error",
        [
            ([("A", {}), ("A", {})], [(1, 2, "T"), (2, 9, "T")],
             lambda g: g.add_edge(1, 9, "T"), UnknownNode),
            ([("A", {})], [(0, 1, "T")], lambda g: g.add_edge(0, 1, "T"), UnknownNode),
            ([("A", {}), ("", {}), ("B", {})], [], lambda g: g.add_node("", {}), InvalidLabel),
            ([("A", {})], [(1, 1, "T"), (1, 1, "")], lambda g: g.add_edge(1, 1, ""), GraphError),
        ],
        ids=["unknown target", "unknown source", "empty label", "empty edge type"],
    )
    def test_a_bad_batch_adds_nothing(self, nodes, edges, one_item, error):
        g = PropertyGraph()
        g.add_node("A", {})
        g.keep(labels, ["kept"])
        before = graph_state(g)
        with pytest.raises(error) as batch:
            g.add(nodes, edges)
        assert graph_state(g) == before
        with pytest.raises(error) as single:
            one_item(g)
        assert type(batch.value) is type(single.value) is error
        assert graph_state(g) == before
        assert g.add_node("B", {}) == 2

    def test_a_sealed_graph_refuses_a_batch(self):
        g = PropertyGraph()
        g.add_node("A", {})
        g.seal()
        before = graph_state(g)
        for call in (lambda: g.add([("A", {})], [(1, 2, "T")]), lambda: g.add_node("A", {}),
                     lambda: g.add_edge(1, 1, "T")):
            with pytest.raises(GraphSealed):
                call()
        assert graph_state(g) == before

    def test_a_producer_that_raises_adds_nothing(self):
        g = PropertyGraph()
        g.add_node("A", {})
        before = graph_state(g)

        def nodes():
            yield "A", {}
            raise KeyError("producer")

        with pytest.raises(KeyError):
            g.add(nodes(), [(1, 2, "T")])
        assert graph_state(g) == before

    @pytest.mark.parametrize("read_before", [False, True], ids=["none built", "all built"])
    @pytest.mark.parametrize("last", ["A", ""], ids=["batch passes", "batch fails"])
    def test_reads_from_inside_a_batch_leave_nothing_behind(self, last, read_before):
        """A node iterable may read the graph it is added to. What those
        reads build sees part of the batch, so it is dropped whether the
        batch passes or fails, and the graph then answers as one built
        without them."""

        def answers(graph):
            return (
                [n.id for n in graph.find_nodes("A")],
                [list(graph.out_edges(n)) for n in range(1, graph.node_count + 1)],
                [p.edges for p in graph.enumerate_paths(1, {graph.node_count})],
            )

        def start():
            graph = PropertyGraph()
            graph.add([("A", {}), ("B", {})], [(1, 2, "T")])
            return graph

        g = start()
        if read_before:
            answers(g)

        def nodes():
            yield "A", {}
            answers(g)
            yield last, {}

        batch = [(2, 3, "T"), (3, 4, "T")]
        if last:
            g.add(nodes(), batch)
            expected = PropertyGraph()
            expected.add([("A", {}), ("B", {}), ("A", {}), ("A", {})], [(1, 2, "T"), *batch])
        else:
            with pytest.raises(InvalidLabel):
                g.add(nodes(), batch)
            expected = start()
        assert answers(g) == answers(expected)

    @settings(max_examples=200, deadline=None)
    @given(
        start=st.integers(0, 3),
        nodes=st.lists(st.tuples(st.sampled_from(["A", "A", "B", ""]), PROPERTIES), max_size=5),
        edges=st.lists(
            st.tuples(st.integers(0, 9), st.integers(0, 9), st.sampled_from(["T", "T", "U", ""])),
            max_size=6,
        ),
    )
    def test_a_batch_is_its_one_item_calls_or_nothing(self, start, nodes, edges):
        """A batch adds what its one-item calls add in order, or, when one of
        them would raise, raises the same error class and message and adds
        nothing."""
        batch, single = PropertyGraph(), PropertyGraph()
        for g in (batch, single):
            for _ in range(start):
                g.add_node("A", {})
        before = graph_state(batch)
        try:
            one_at_a_time(single, [(label, dict(p)) for label, p in nodes], edges)
        except GraphError as exc:
            with pytest.raises(type(exc), match=f"^{exc}$"):
                batch.add(nodes, edges)
            assert graph_state(batch) == before
        else:
            batch.add(nodes, edges)
            assert graph_state(batch) == graph_state(single)


class TestDerived:
    def test_a_kept_value_is_read_until_the_graph_changes(self):
        for seal in (False, True):
            g = PropertyGraph()
            g.add_node("A", {})
            g.keep(labels, ["handed"])
            assert g.derived(labels) == ["handed"]
            if seal:
                g.seal()
                assert g.derived(labels) == ["handed"]
                g = g.copy()
                assert g.derived(labels) == ["A"]
            else:
                g.add([("B", {})])
                assert g.derived(labels) == ["A", "B"]

    def test_an_unsealed_graph_builds_once_between_batches(self):
        """A value is built on its first read and kept until a batch
        passes, sealed or not; a batch that fails drops nothing, a value
        handed over with keep() included."""
        built = []

        def counted(graph):
            built.append(graph.node_count)
            return labels(graph)

        g = PropertyGraph()
        g.add_node("A", {})
        for _ in range(3):
            assert g.derived(counted) == ["A"]
        assert built == [1]
        g.add([("B", {})])
        for _ in range(2):
            assert g.derived(counted) == ["A", "B"]
        assert built == [1, 2]
        with pytest.raises(InvalidLabel):
            g.add([("C", {}), ("", {})])
        assert g.derived(counted) == ["A", "B"]
        assert built == [1, 2]
        g.keep(counted, ["handed"])
        with pytest.raises(UnknownNode):
            g.add([("C", {})], [(1, 9, "T")])
        assert g.derived(counted) == ["handed"]
        g.add([])
        assert g.derived(counted) == ["A", "B"]
        assert built == [1, 2, 2]


class TestCopy:
    """copy() adds to a new graph that starts with the same node records
    and equal edges, and leaves the sealed original as it was."""

    def test_original_unchanged_and_records_shared(self):
        g = PropertyGraph()
        a = g.add_node("CWE", {"CWE-ID": "CWE-1"})
        b = g.add_node("CWE", {"CWE-ID": "CWE-2"})
        lone = g.add_node("X", {"k": 1})
        ab = g.add_edge(a, b, "HAS_CVE")
        g.seal()
        built = []

        def labels(graph):
            built.append(graph)
            return [node.label for node in graph.nodes()]

        kept = g.derived(labels)

        def snapshot(graph):
            return (
                [(n.id, n.label, n.properties) for n in graph.nodes()],
                edge_rows(graph),
                {n.id: (list(graph.out_edges(n.id)), list(graph.in_edges(n.id)))
                 for n in graph.nodes()},
                {label: [n.id for n in graph.find_nodes(label)] for label in ("CWE", "X", "Y")},
                graph.node_count,
                graph.edge_count,
                graph.sealed,
            )

        before = snapshot(g)
        c = g.copy()
        assert not c.sealed
        assert all(c.node(n.id) is n for n in g.nodes())
        assert edge_rows(c) == edge_rows(g) == [(ab, a, b, "HAS_CVE")]
        new = c.add_node("CWE", {"CWE-ID": "CWE-3"})
        y = c.add_node("Y", {})
        assert (new, y) == (lone + 1, lone + 2)
        out_of_a = c.add_edge(a, new, "CALLS")
        into_a = c.add_edge(new, a, "CALLS")
        c.add_edge(lone, y, "CALLS")
        assert (out_of_a, into_a) == (ab + 1, ab + 2)
        assert list(c.out_edges(a)) == [ab, out_of_a]
        assert list(c.in_edges(a)) == [into_a]
        assert [n.id for n in c.find_nodes("CWE")] == [a, b, new]
        assert (c.node_count, c.edge_count) == (5, 4)
        assert [p.edges for p in c.enumerate_paths(new, {b}, "CALLS")] == []
        assert [p.edges for p in c.enumerate_paths(new, {new}, None)] == [(into_a, out_of_a)]
        c.seal()
        assert c.derived(labels) == ["CWE", "CWE", "X", "CWE", "Y"]
        assert snapshot(g) == before
        assert g.derived(labels) is kept
        assert built == [g, c]
        with pytest.raises(GraphSealed):
            g.add_node("CWE", {})

    def test_an_unsealed_graph_is_not_copied(self):
        g = PropertyGraph()
        g.add_node("CWE", {"CWE-ID": "CWE-1"})
        with pytest.raises(GraphError, match="^only a sealed graph can be copied$"):
            g.copy()
        g.seal()
        assert [n.id for n in g.copy().nodes()] == [1]

    def test_copy_of_a_graph_without_edges(self):
        g = PropertyGraph()
        ids = [g.add_node("CWE", {"CWE-ID": f"CWE-{i}"}) for i in range(3)]
        g.seal()
        c = g.copy()
        assert [e for n in ids for e in (*c.out_edges(n), *c.in_edges(n))] == []
        edge = c.add_edge(ids[0], ids[2], "T")
        assert edge == 1
        assert list(c.out_edges(ids[0])) == [edge]
        assert g.out_edges(ids[0]) == () and g.in_edges(ids[2]) == ()

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(0, 4), min_size=1, max_size=5))
    def test_node_ids_are_places_in_nodes_order(self, batches):
        """The CSV export writes a node's id as its place in nodes()
        order, so ids must stay 1..N there through copy() and more adds."""
        g = PropertyGraph()
        for count in batches:
            for _ in range(count):
                g.add_node("N", {})
            g.seal()
            assert [n.id for n in g.nodes()] == list(range(1, g.node_count + 1))
            g = g.copy()


def read(graph, kind):
    """One kind of read over every node, or paths from the first 30, as
    ids."""
    ids = range(1, graph.node_count + 1)
    if kind == "find_nodes":
        return [[n.id for n in graph.find_nodes(label, filters)]
                for label in ("A", "B", "Z") for filters in (None, {"k": 1}, {"k": "a"})]
    if kind == "out_edges":
        return [list(graph.out_edges(n)) for n in ids]
    if kind == "in_edges":
        return [list(graph.in_edges(n)) for n in ids]
    targets = set(ids[-2:])
    return [[p.edges for p in graph.enumerate_paths(n, targets, edge_type, 0, 4)]
            for n in ids[:30] for edge_type in ("T", None)]


READS = ("find_nodes", "out_edges", "in_edges", "enumerate_paths")


def every_read(graph):
    return [read(graph, kind) for kind in READS]


BATCH = st.tuples(
    st.lists(st.tuples(st.sampled_from("AB"), PROPERTIES), max_size=4),
    st.lists(st.tuples(st.integers(0, 99), st.integers(0, 99), st.sampled_from("TU")), max_size=5),
)


class TestIndexesBuiltOnFirstRead:
    """The label and adjacency indexes are built on their first read and
    dropped by the next batch; a copy starts with none. Whatever reads
    come between batches, the graph answers as a graph built whole from
    the same batches, and a copied source as it did when it was
    copied."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(
        st.tuples(st.just("add"), BATCH),
        st.tuples(st.just("read"), st.sampled_from(READS)),
        st.tuples(st.just("copy"), st.none()),
    ), max_size=10))
    def test_interleaved_reads_answer_as_a_graph_built_whole(self, steps):
        graph = PropertyGraph()
        nodes, edges = [], []
        sources = []

        def whole():
            built = PropertyGraph()
            built.add([(label, dict(p)) for label, p in nodes], edges)
            return built

        for step, arg in steps:
            if step == "add":
                batch_nodes, batch_edges = arg
                count = graph.node_count + len(batch_nodes)
                batch_edges = [(1 + s % count, 1 + t % count, kind)
                               for s, t, kind in batch_edges] if count else []
                graph.add([(label, dict(p)) for label, p in batch_nodes], batch_edges)
                nodes += batch_nodes
                edges += batch_edges
            elif step == "read":
                assert read(graph, arg) == read(whole(), arg)
            else:
                graph.seal()
                sources.append((graph, every_read(graph)))
                graph = graph.copy()
        assert every_read(graph) == every_read(whole())
        for source, answers in sources:
            assert every_read(source) == answers

    def test_a_batch_drops_every_index(self, monkeypatch):
        """A batch builds no index and drops those built; the next read
        builds one once. A copy builds its own, its label index from the
        one its sealed source keeps."""
        built = counted_indexes(monkeypatch)
        g = PropertyGraph()
        g.add([("A", {}), ("B", {})], [(1, 2, "T")])
        assert built == []
        for _ in range(2):
            assert [n.id for n in g.find_nodes("A")] == [1]
        assert built == [("_labels", g)]
        g.add([("A", {})], [(3, 1, "T")])
        for _ in range(2):
            assert [n.id for n in g.find_nodes("A")] == [1, 3]
            assert list(g.out_edges(3)) == [2]
        assert built[1:] == [("_labels", g), ("_outgoing", g)]
        g.add([], [(3, 2, "T")])
        for _ in range(2):
            assert list(g.out_edges(3)) == [2, 3]
            assert list(g.in_edges(2)) == [1, 3]
        assert built[3:] == [("_outgoing", g), ("_incoming", g)]
        g.seal()
        assert [n.id for n in g.find_nodes("A")] == [1, 3]
        del built[:]
        c = g.copy()
        assert built == []
        c.add([("A", {})], [(4, 3, "T")])
        for _ in range(2):
            assert list(c.out_edges(3)) == [2, 3]
            assert list(c.in_edges(3)) == [4]
            assert [n.id for n in c.find_nodes("A")] == [1, 3, 4]
        assert built == [("_outgoing", c), ("_incoming", c), ("_labels", c)]
        assert g.in_edges(3) == ()
        assert [n.id for n in g.find_nodes("A")] == [1, 3]
        assert built[3:] == []

    def test_first_reads_from_many_threads(self):
        """8 threads making the first reads of one sealed graph, each kind
        of read first in two of them, and then of a copy each, get the
        answers of one thread reading alone: an index is published whole
        or not at all."""

        def sealed():
            rng = random.Random(5)
            g = PropertyGraph()
            g.add(
                [(rng.choice("AB"), {"k": rng.choice([1, "a"])}) for _ in range(1500)],
                [(rng.randint(1, 1500), rng.randint(1, 1500), rng.choice("TU")) for _ in range(3000)],
            )
            g.seal()
            return g

        expected = dict(zip(READS, every_read(sealed())))
        for _ in range(3):
            graph = sealed()
            start = threading.Barrier(8, timeout=60)
            answers = []

            def first_reads(k):
                kinds = READS[k % 4:] + READS[:k % 4]
                start.wait()
                answers.append({kind: read(graph, kind) for kind in kinds})
                copy = graph.copy()
                answers.append({kind: read(copy, kind) for kind in kinds})

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                threads = [threading.Thread(target=first_reads, args=(k,)) for k in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
            assert answers == [expected] * 16


class ReferenceEdges:
    """The edge store kept the old way, as a dict of (id, source, target,
    type) rows by id and out- and in-lists of ids per node, with the
    checks of add(): the reference the graph's edge columns are compared
    with. Its nodes are a count, ids 1..node_count."""

    def __init__(self):
        self.node_count = 0
        self.records = {}
        self.out = {}
        self.into = {}

    def add(self, node_count, edges):
        edges = list(edges)
        known = range(1, self.node_count + node_count + 1)
        for source, target, edge_type in edges:
            if source not in known or target not in known:
                raise UnknownNode(f"unknown endpoint of {source} -> {target}")
            if not edge_type:
                raise GraphError("edge type must be non-empty")
        self.node_count = len(known)
        for source, target, edge_type in edges:
            edge_id = len(self.records) + 1
            self.records[edge_id] = (edge_id, source, target, edge_type)
            self.out.setdefault(source, []).append(edge_id)
            self.into.setdefault(target, []).append(edge_id)

    def copy(self):
        other = ReferenceEdges()
        other.node_count = self.node_count
        other.records = dict(self.records)
        other.out = {node: list(ids) for node, ids in self.out.items()}
        other.into = {node: list(ids) for node, ids in self.into.items()}
        return other

    def edge_columns(self):
        """The columns the rows make, as the graph's edge_columns()."""
        rows = self.records.values()
        return [r[1] for r in rows], [r[2] for r in rows], [r[3] for r in rows]

    def out_edges(self, node_id):
        return self.out.get(node_id, [])

    def in_edges(self, node_id):
        return self.into.get(node_id, [])

    def relationships_csv(self):
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow([":START_ID", ":END_ID", ":TYPE"])
        rows = sorted(self.records.values(), key=lambda r: (r[1], r[2], r[3], r[0]))
        writer.writerows(row[1:] for row in rows)
        return out.getvalue().encode("utf-8")


def columns(graph):
    return [list(column) for column in graph.edge_columns()]


def assert_same_edge_rows(graph, reference):
    """The edge columns and edge_count answer as the reference's rows."""
    expected = list(reference.records.values())
    assert graph.edge_count == len(expected)
    assert edge_rows(graph) == expected


def assert_same_edge_reads(graph, reference):
    """out_edges, in_edges and enumerate_paths (against the brute-force
    oracle over the reference's rows) answer as the reference does; a
    node id never issued has no edges."""
    nodes = range(1, reference.node_count + 1)
    for node in nodes:
        assert list(graph.out_edges(node)) == reference.out_edges(node)
        assert list(graph.in_edges(node)) == reference.in_edges(node)
    for never_issued in (0, -1, reference.node_count + 1):
        assert graph.out_edges(never_issued) == graph.in_edges(never_issued) == ()
    targets = set(nodes[-2:])
    for start in nodes[:5]:
        for edge_type in ("T", None):
            assert graph.enumerate_paths(start, targets, edge_type, 0, 4) == brute_force_paths(
                reference, start, targets, edge_type, 0, 4
            )


def batch_edges(count, raw, fault, at):
    """raw's edges mapped onto nodes 1..count, and, for a fault, one edge
    with an unknown source or target or an empty type put in at place at."""
    edges = [(1 + s % count, 1 + t % count, kind) for s, t, kind in raw] if count else []
    if fault is not None:
        source, target = edges[0][:2] if edges else (1, 1)
        bad = {"source": (count + 1, target, "T"), "target": (source, 0, "T"),
               "type": (source, target, "")}[fault]
        edges.insert(min(at, len(edges)), bad)
    return edges


EDGE_TYPES = st.sampled_from(["T", "T", "U", 'a,"b'])
EDGE_BATCH = st.tuples(
    st.integers(0, 3),  # nodes
    st.lists(st.tuples(st.integers(0, 99), st.integers(0, 99), EDGE_TYPES), max_size=5),
    st.sampled_from([None, None, "source", "target", "type"]),  # what the faulty edge gets wrong
    st.integers(0, 5),  # where in the batch it goes
)


class TestEdgeColumns:
    """The graph's edge columns answer every edge read as a store of edge
    rows does, through batches that pass and batches that fail, and
    through copies of sealed graphs that get more batches."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(
        st.tuples(st.just("add"), EDGE_BATCH),
        st.tuples(st.just("read"), st.none()),
        st.tuples(st.just("copy"), EDGE_BATCH),
    ), max_size=10))
    def test_interleaved_batches_and_copies_match_the_reference(self, steps):
        graph, reference = PropertyGraph(), ReferenceEdges()
        sources = []
        for step, arg in steps:
            if step == "read":
                assert_same_edge_reads(graph, reference)
                continue
            node_count, raw, fault, at = arg
            edges = batch_edges(reference.node_count + node_count, raw, fault, at)
            batch = [("A", {}) for _ in range(node_count)]
            if step == "copy":
                graph.seal()
                before = columns(graph)
                with pytest.raises(GraphSealed):
                    graph.add(batch, edges)
                assert columns(graph) == before
                assert export_import_csv(graph)[1] == reference.relationships_csv()
                sources.append((graph, reference, before))
                graph, reference = graph.copy(), reference.copy()
                continue
            before = columns(graph)
            try:
                reference.add(node_count, edges)
            except GraphError as exc:
                with pytest.raises(type(exc)):
                    graph.add(batch, iter(edges))
                assert columns(graph) == before
            else:
                graph.add(batch, iter(edges))
            assert graph.node_count == reference.node_count
            assert_same_edge_rows(graph, reference)
        assert_same_edge_reads(graph, reference)
        graph.seal()
        assert export_import_csv(graph)[1] == reference.relationships_csv()
        for source, source_reference, before in sources:
            assert columns(source) == before
            assert_same_edge_rows(source, source_reference)
            assert_same_edge_reads(source, source_reference)

    def test_ids_never_issued_have_no_edges(self):
        g = PropertyGraph()
        for never_issued in (0, -1, 1):
            assert g.out_edges(never_issued) == g.in_edges(never_issued) == ()
        g.add([("A", {}), ("A", {}), ("A", {})], [(1, 2, "T"), (2, 1, "U")])
        assert edge_rows(g) == [(1, 1, 2, "T"), (2, 2, 1, "U")]
        for node_id in (0, -1, 3, g.node_count + 1, "1", 1.5):
            assert g.out_edges(node_id) == g.in_edges(node_id) == ()

    def test_a_failed_batch_leaves_every_column_as_it_was(self, monkeypatch):
        """A failed batch leaves the columns as they were, and the derived
        values too, so the indexes built before it are read, not built
        again; a batch that passes drops them."""
        built = counted_indexes(monkeypatch)
        g = PropertyGraph()
        g.add([("A", {}), ("A", {})], [(1, 2, "T")])

        def adjacency():
            return [(list(g.out_edges(n)), list(g.in_edges(n))) for n in (1, 2)]

        assert adjacency() == [([1], []), ([], [1])]
        before = (columns(g), dict(g._derived))
        for edges in ([(2, 1, "T"), (1, 9, "T"), (1, 1, "T")], [(2, 1, "T"), (1, 1, "")],
                      [(2, 1, "T"), (0, 1, "T")]):
            with pytest.raises(GraphError):
                g.add([("A", {})], iter(edges))
            assert (columns(g), dict(g._derived)) == before
            assert adjacency() == [([1], []), ([], [1])]
            assert g.node_count == 2
        assert built == [("_outgoing", g), ("_incoming", g)]
        g.add([], [(2, 1, "U")])
        assert columns(g) == [[1, 2], [2, 1], ["T", "U"]]
        assert adjacency() == [([1], [2]), ([2], [1])]
        assert built[2:] == [("_outgoing", g), ("_incoming", g)]


class TestEnumeratePaths:
    def test_double_free_paths(self, double_free_graph):
        foo = double_free_graph.find_nodes("CallGraph", {"Name": "foo"})[0]
        frees = {
            n.id for n in double_free_graph.find_nodes("CallGraph", {"Name": "free"})
        }
        paths = double_free_graph.enumerate_paths(foo.id, frees, "CALLS")
        assert len(paths) == 2
        assert all(len(p) == 1 for p in paths)

    def test_no_edges_no_self_path(self):
        g = PropertyGraph()
        n = g.add_node("X", {})
        assert g.enumerate_paths(n, {n}, "CALLS") == []

    def test_unknown_start(self):
        with pytest.raises(UnknownNode):
            PropertyGraph().enumerate_paths(1, {1}, "CALLS")

    def test_paths_satisfy_invariants(self, double_free_graph):
        foo = double_free_graph.find_nodes("CallGraph", {"Name": "foo"})[0]
        all_ids = {n.id for n in double_free_graph.nodes()}
        for path in double_free_graph.enumerate_paths(foo.id, all_ids, "CALLS"):
            assert is_valid_path(double_free_graph, path)

    def test_long_chain_has_one_path(self):
        g = PropertyGraph()
        chain = [g.add_node("N", {}) for _ in range(3001)]
        for source, target in zip(chain, chain[1:]):
            g.add_edge(source, target, "CALLS")
        (path,) = g.enumerate_paths(chain[0], {chain[-1]}, "CALLS")
        assert path.nodes == tuple(chain)

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_brute_force_oracle(self, seed):
        rng = random.Random(seed)
        g = PropertyGraph()
        nodes = [g.add_node("N", {}) for _ in range(rng.randint(1, 10))]
        for _ in range(rng.randint(0, 20)):
            g.add_edge(rng.choice(nodes), rng.choice(nodes), rng.choice(["CALLS", "OTHER"]))
        start = rng.choice(nodes)
        targets = set(rng.sample(nodes, rng.randint(1, len(nodes))))
        max_len = rng.choice([None, 1, 2, 3, 5])
        got = g.enumerate_paths(start, targets, "CALLS", 1, max_len)
        want = brute_force_paths(g, start, targets, "CALLS", 1, max_len)
        assert got == want


class TestSeal:
    def test_mutation_blocked(self):
        g = PropertyGraph()
        n = g.add_node("X", {})
        g.seal()
        with pytest.raises(GraphSealed):
            g.add_node("Y", {})
        with pytest.raises(GraphSealed):
            g.add_edge(n, n, "CALLS")

    def test_idempotent(self):
        g = PropertyGraph()
        g.seal()
        g.seal()
        assert g.sealed

    def test_reads_unaffected(self):
        g = PropertyGraph()
        g.add_node("X", {"a": 1})
        before = [n.id for n in g.find_nodes("X", {"a": 1})]
        g.seal()
        assert [n.id for n in g.find_nodes("X", {"a": 1})] == before


# One instance's fields for every record class but Node, which compares by
# identity.
_VAR = ast.Var("x")
_NODE_PATTERN = ast.NodePattern("n", "CallGraph", (("Name", ast.Literal("gets")),))
_PATTERN = ast.Pattern(
    "p", (_NODE_PATTERN, ast.NodePattern(None, None, ())), (ast.RelPattern("CALLS", (1, None)),)
)
RECORDS = [
    (Path, ((1, 2), (7,))),
    (CallSite, (3, "free", ["ptr"])),
    (FunctionDef, ("main", 1, [CallSite(2, "gets", ["b"])], {"p"})),
    (TranslationUnit, ([FunctionDef("main", 1, [], set())],)),
    (CweRecord, ("CWE-242", "Dangerous function", "d", ["gets"])),
    (CveRecord, ("CVE-2020-0001", "d", "CWE-415", 7.5, "Lib", ["1.0", "1.1"])),
    (IngestStats, (5, 4, 1)),
    (Finding, ("CWE-242", "Dangerous function", [Path((1, 2), (7,))], [2], "gets is called")),
    (DetectorCapability, ("CWE-401", False, "no data flow")),
    (
        _CallGraphIndex,
        ((1, 3), (1,), {"gets": [2]}, ({"p"}, set()), {"main": 1, "f": 3}, {"gets": [2]}),
    ),
    (_Family, (len, "MATCH (n) RETURN n", "", ("sizeof",))),
    (ast.Literal, ("x",)),
    (ast.Var, ("x",)),
    (ast.Prop, ("n", "Name")),
    (ast.Func, ("SIZE", _VAR)),
    (ast.Binary, ("AND", _VAR, ast.Literal(1))),
    (ast.Not, (_VAR,)),
    (ast.NodePattern, _NODE_PATTERN._values()),
    (ast.RelPattern, ("CALLS", (1, None))),
    (ast.Pattern, _PATTERN._values()),
    (ast.MatchClause, (_PATTERN, True)),
    (ast.WithClause, (((_VAR, "y"),),)),
    (ast.WhereClause, (_VAR,)),
    (ast.UnwindClause, (_VAR, "y")),
    (ast.ReturnClause, (((_VAR, None),),)),
    (ast.Query, ((ast.WhereClause(_VAR),),)),
    (_Tok, ("id", "MATCH", 0)),
    (ResultTable, (["n"], [("gets",)])),
    (_Level, (None, _NODE_PATTERN, "x")),
    (_Match, ((), "p", False, {"p": None})),
    (_Projection, (((_VAR, "x"),), (False,), ("x",))),
    (_Plan, ((), None, {})),
    (_TextTable, ({1: "(:A)"}, {}, {1: "(:A)"}, {}, {})),
]
RECORD_IDS = [cls.__qualname__ for cls, _ in RECORDS]


def twin(cls):
    """The frozen or plain dataclass with cls's fields, as each record
    class was written before it became a plain __slots__ class."""
    return dataclasses.make_dataclass(
        cls.__name__, cls.__slots__, frozen=issubclass(cls, FrozenRecord)
    )


class TestRecords:
    @pytest.mark.parametrize("cls, args", RECORDS, ids=RECORD_IDS)
    def test_positional_and_keyword_construction(self, cls, args):
        by_keyword = cls(**dict(zip(cls.__slots__, args)))
        assert by_keyword == cls(*args)
        assert by_keyword._values() == tuple(args)
        assert not hasattr(by_keyword, "__dict__")

    @pytest.mark.parametrize("cls, args", RECORDS, ids=RECORD_IDS)
    def test_equal_within_a_class_only(self, cls, args):
        record = cls(*args)
        assert record == cls(*args) and not record != cls(*args)
        for k in range(len(args)):
            changed = list(args)
            changed[k] = object()
            assert record != cls(*changed)
        impostor = type(cls.__name__, (cls.__base__,), {"__slots__": cls.__slots__})
        assert record != impostor(*args)
        assert record != tuple(args)

    def test_records_of_different_classes_differ(self):
        assert ast.Var("x") != ast.Literal("x")
        assert ast.WhereClause(_VAR) != ast.Not(_VAR)
        assert ast.WithClause(()) != ast.ReturnClause(())

    @pytest.mark.parametrize("cls, args", RECORDS, ids=RECORD_IDS)
    def test_repr_names_every_field(self, cls, args):
        assert repr(cls(*args)) == repr(twin(cls)(*args))

    @pytest.mark.parametrize(
        "cls, args", [(c, a) for c, a in RECORDS if issubclass(c, FrozenRecord)],
        ids=[c.__qualname__ for c, _ in RECORDS if issubclass(c, FrozenRecord)],
    )
    def test_frozen_records_refuse_assignment(self, cls, args):
        record = cls(*args)
        for name in cls.__slots__:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)
        with pytest.raises(AttributeError):
            record.extra = None
        assert record._values() == tuple(args)

    @pytest.mark.parametrize("cls, args", RECORDS, ids=RECORD_IDS)
    def test_hash_as_before(self, cls, args):
        """A frozen record hashes by its fields, as its dataclass twin
        did; a plain record with field equality has no hash."""
        record = cls(*args)
        if not issubclass(cls, FrozenRecord):
            with pytest.raises(TypeError):
                hash(record)
        else:
            assert hash(record) == hash(cls(*args)) == hash(twin(cls)(*args))
            assert len({record, cls(*args)}) == 1

    def test_plain_records_take_assignment(self):
        stats = IngestStats(0, 0, 0)
        stats.nodes_created += 2
        assert stats == IngestStats(2, 0, 0)
        with pytest.raises(AttributeError):
            stats.extra = 1

    def test_nodes_compare_by_identity(self):
        node = Node(1, "CallGraph", {"Name": "gets"})
        assert node == node
        assert node != Node(1, "CallGraph", {"Name": "gets"})
        assert len({node, Node(1, "CallGraph", {"Name": "gets"})}) == 2
        assert repr(node) == "Node(id=1, label='CallGraph', properties={'Name': 'gets'})"
        assert Node(id=1, label="L", properties={}).label == "L"

    def test_every_record_class_is_covered(self):
        assert program_records() - {FrozenRecord, Node} == {cls for cls, _ in RECORDS}

    def test_constructors_are_generated_from_slots(self):
        for cls in program_records():
            code = cls.__init__.__code__
            assert code.co_filename == "<string>", cls  # not written in a module
            assert code.co_varnames[: code.co_argcount] == ("self", *cls.__slots__)
            assert cls.__init__.__defaults__ is None

    def test_a_hand_written_constructor_is_refused(self):
        with pytest.raises(TypeError, match="Point defines __init__"):
            class Point(Record):
                __slots__ = ("x",)

                def __init__(self, x):
                    self.x = x

    @pytest.mark.parametrize("cls, args", RECORDS, ids=RECORD_IDS)
    def test_constructor_takes_exactly_the_fields(self, cls, args):
        first, last = cls.__slots__[0], cls.__slots__[-1]
        with pytest.raises(TypeError, match=f"missing 1 required positional argument: '{last}'"):
            cls(*args[:-1])
        with pytest.raises(TypeError, match="unexpected keyword argument 'extra'"):
            cls(*args, extra=None)
        with pytest.raises(TypeError, match=f"multiple values for argument '{first}'"):
            cls(*args, **{first: args[0]})
        with pytest.raises(TypeError, match="were given"):
            cls(*args, None)


def program_records():
    """Every Record subclass defined in pkgraph, its query engine included."""
    import pkgraph.cli  # noqa: F401 - loads every module with records
    import pkgraph.cypher  # noqa: F401

    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    return {c for c in subclasses(Record) if c.__module__.startswith("pkgraph.")}
