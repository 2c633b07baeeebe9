import random

import pytest

from pkgraph.graph import (
    GraphSealed,
    InvalidLabel,
    Path,
    PropertyGraph,
    UnknownNode,
    values_equal,
)


def brute_force_paths(graph, start, targets, edge_type, min_len, max_len):
    """Independent path oracle: recursively try every unused edge and
    keep walks that end at a target. Sorted by edge-id sequence."""
    edges = [graph.edge(e.id) for e in graph.edges()]
    found = []

    def recurse(current, edge_seq, node_seq):
        if len(edge_seq) >= min_len and current in targets:
            found.append((tuple(node_seq), tuple(edge_seq)))
        if max_len is not None and len(edge_seq) >= max_len:
            return
        for edge in edges:
            if edge.source != current or edge.id in edge_seq:
                continue
            if edge_type is not None and edge.type != edge_type:
                continue
            recurse(edge.target, edge_seq + [edge.id], node_seq + [edge.target])

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
        assert [e.target for e in g.out_edges(foo)] == [free]

    def test_self_loop(self):
        g = PropertyGraph()
        n = g.add_node("CallGraph", {})
        e = g.add_edge(n, n, "CALLS")
        assert g.edge(e).source == g.edge(e).target == n

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
            assert double_free_graph.is_valid_path(path)

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
