"""In-memory property graph.

Shared substrate for the vulnerability knowledge graph and the program
call graph: labeled nodes with key/value properties, typed directed
edges, a label index, and edge-unique path enumeration. Mutation happens
in a single-threaded build phase; after seal() the graph is immutable
and reads are safe from any thread.

Every node and edge enters through one path, add(), which takes a batch
of nodes and edges, checks it as a whole and adds all of it or nothing;
add_node and add_edge are one-item batches. The graph issues ids, 1..N
in the order nodes (or edges) arrive, so a producer knows each id of its
batch before adding it and can name the batch's own nodes in its edges.
A batch hands its property dicts over: each becomes its node's own,
without a copy. Values derived from the graph (derived()) are dropped
whenever a batch is added, including one a producer handed over with
keep() along with the nodes it describes.

A graph holds its nodes and edges in two dicts by id. Its three indexes,
the nodes of each label and the out- and in-edges of each node, are
built on their first read: find_nodes builds the label index,
out_edges and enumerate_paths the out-edge lists, in_edges and
enumerate_paths the in-edge lists. Each is built in one pass over the
records into a local and then published with one assignment, so a
thread reading a sealed graph sees all of an index or none of it; two
threads may both build one, and one of the equal results is kept. A
batch extends the indexes already built and builds none, so a graph
that is only built and written out, as an ingest's is, never builds
one. Reads take each index into a local once per call, not per step of
a walk. A node's adjacency lists are created by its first edge, so a
node without edges costs no list; a missing list reads as no edges.

copy() starts a new, unsealed graph from a sealed one without building
its nodes again: the copy holds the same Node and Edge records under the
same ids. It takes a copy of each index its source has built, and of the
label index always, as the copy needs the source's labels (below); so a
query's copy of the catalog's CWE graph gets the label index over its
CWE nodes without a pass over them. Records are shared, so no graph may
change one.

A copy answers find_nodes with a filter, for a label it has not added
to, from its source: the sealed source keeps, per (label, first filter
key), a value -> nodes map that it builds on the first such lookup. So
a query graph, a copy of the catalog's sealed CWE graph, finds a
weakness by its id at the cost of one dict hit, and the map is built
once per catalog, not once per query. A graph's lookups of its own
nodes scan that label's nodes, as no map would repay its building on a
graph that is read a few times.

in_edges has no caller in pkgraph itself. It stays as the public read of
the in-edge lists that _reaching walks, and because the benchmark's
tracer (perfbench/tracer.py) traces it and its test asserts the list of
traced names it finds absent.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator


class GraphError(Exception):
    """Base class for graph-store errors."""


class GraphSealed(GraphError):
    """Mutation attempted on a sealed graph."""


class InvalidLabel(GraphError):
    """Node label is empty."""


class UnknownNode(GraphError):
    """An operation referenced a node id that does not exist."""


def values_equal(a: str | int | float | list, b: str | int | float | list) -> bool:
    """Property-value equality.

    A property value is one of: text, 64-bit integer, 64-bit float, or
    an ordered list of non-empty strings. Values of different kinds
    compare unequal, with one exception: comparing a scalar against a
    string list is membership. This keeps a single filter usable against
    catalogs that store one event name or many (e.g. a weakness with four
    trigger procedures).
    """
    a_list = isinstance(a, list)
    b_list = isinstance(b, list)
    if a_list and b_list:
        return a == b
    if a_list:
        return isinstance(b, str) and b in a
    if b_list:
        return isinstance(a, str) and a in b
    if type(a) is not type(b):
        return False
    return a == b


# Filter values a source's map can answer: each kind equals only itself
# under values_equal, so (kind, value) is the map's key.
_SCALARS = frozenset((str, int, float, bool))

def _copied(index: dict | None) -> dict | None:
    """A copy of an index, with lists of its own; None for one not built."""
    if index is None:
        return None
    return {key: list(ids) for key, ids in index.items()}


class Record:
    """A plain record. Its fields are the __slots__ of its class, and a
    subclass declares nothing else for them: its constructor is generated
    from __slots__ when the class is created, taking every field, in
    __slots__ order, by position or keyword. Records have no defaults, so
    every construction passes every field. The generated __init__ runs one
    assignment statement per field, as a hand-written one would; a generic
    *args/**kwargs constructor looping over the fields costs several times
    as much per record. Two records are equal when they are of the same
    class and their fields are equal, and repr names each field."""

    __slots__ = ()
    _assign = "self.{0} = {0}"  # one field's statement in the generated __init__

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "__init__" in cls.__dict__:
            raise TypeError(f"record {cls.__qualname__} defines __init__; declare only __slots__")
        fields = cls.__slots__
        body = "".join(f"\n    {cls._assign.format(name)}" for name in fields) or "\n    pass"
        namespace = {}
        # exec of the text itself: a process's first compile() call also
        # builds the ast module's node types, which adds about 1.5 ms to
        # start-up.
        exec(f"def __init__(self, {', '.join(fields)}):{body}", namespace)
        cls.__init__ = namespace["__init__"]

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"


class FrozenRecord(Record):
    """A record whose fields are fixed once __init__ has set them (through
    object.__setattr__), so it hashes by its fields."""

    __slots__ = ()
    _assign = 'object.__setattr__(self, "{0}", {0})'

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Node(Record):
    """A graph node; two nodes are equal only when they are the same node."""

    __slots__ = ("id", "label", "properties")
    __eq__ = object.__eq__
    __hash__ = object.__hash__


class Edge(Record):
    """A graph edge; two edges are equal only when they are the same edge."""

    __slots__ = ("id", "source", "target", "type")
    __eq__ = object.__eq__
    __hash__ = object.__hash__


class Path(FrozenRecord):
    """A directed walk: len(edges) == len(nodes) - 1, no edge repeated."""

    __slots__ = ("nodes", "edges")

    def __len__(self) -> int:
        return len(self.edges)

    @property
    def end(self) -> int:
        return self.nodes[-1]


class PropertyGraph:
    """Labeled property graph with integer node/edge ids.

    Ids are unique and stable; nodes are never deduplicated at this
    layer. Node ids are 1..N in nodes() order, in a copy() and after
    further adds too, as nodes are never removed; the CSV export writes
    each node's id as its place in that order and relies on this. All
    query results use deterministic orderings (ascending node id,
    lexicographic edge-id sequences) so downstream golden files are
    byte-stable. Ids are issued in increasing order, an index is built
    in id order and a batch only appends to it, so every index is
    already in ascending id order and reads need not sort.

    _by_label (label -> node ids), _out and _in (node id -> edge ids)
    are None until their first read builds them (_labels, _outgoing,
    _incoming); see the module docstring.
    """

    def __init__(self) -> None:
        self._nodes: dict = {}
        self._edges: dict = {}
        self._by_label: dict | None = None
        self._out: dict | None = None
        self._in: dict | None = None
        self._sealed = False
        self._derived: dict = {}
        self._source = None  # the sealed graph this one is a copy of
        self._shared: set = set()  # labels whose nodes are all the source's
        self._maps: dict = {}  # (label, key) -> value -> nodes, on a source

    # -- mutation ----------------------------------------------------------

    def add(self, nodes: Iterable = (), edges: Iterable = ()) -> None:
        """Add a batch: nodes, (label, properties) pairs, then edges,
        (source, target, type) triples, in order.

        The k-th node added to the graph gets id k and the k-th edge id k,
        so a producer knows each id of its batch in advance, and an edge
        may name a node of the same batch. Each Node is created as its
        pair arrives, and its properties dict becomes the node's own: the
        producer hands it over and must not change it. nodes is read to
        its end before edges is read, so a generator of nodes may fill an
        edge list as it goes.

        The batch is checked as a whole before anything is added: a sealed
        graph raises GraphSealed, an empty label InvalidLabel, an endpoint
        that is neither in the graph nor in the batch UnknownNode, and an
        empty edge type GraphError; the graph is then as it was. Adding
        drops every derived value, and extends only the indexes already
        built.
        """
        if self._sealed:
            raise GraphSealed("graph is sealed")
        graph_nodes = self._nodes
        first = node_id = len(graph_nodes) + 1
        labels = set()
        # The nodes go in as they arrive, so the edges can be checked
        # against the graph alone; a batch that fails takes them out.
        try:
            for label, properties in nodes:
                graph_nodes[node_id] = Node(node_id, label, properties)
                labels.add(label)
                node_id += 1
            if not all(labels):
                raise InvalidLabel("node label must be non-empty")
            edges = list(edges)
            for source, target, edge_type in edges:
                if source not in graph_nodes:
                    raise UnknownNode(f"unknown source node {source}")
                if target not in graph_nodes:
                    raise UnknownNode(f"unknown target node {target}")
                if not edge_type:
                    raise GraphError("edge type must be non-empty")
        except BaseException:
            for added in range(first, node_id):
                del graph_nodes[added]
            raise
        self._derived.clear()
        self._shared.difference_update(labels)
        by_label = self._by_label
        if by_label is not None:
            for added in range(first, node_id):
                by_label.setdefault(graph_nodes[added].label, []).append(added)
        graph_edges = self._edges
        first = edge_id = len(graph_edges) + 1
        for source, target, edge_type in edges:
            graph_edges[edge_id] = Edge(edge_id, source, target, edge_type)
            edge_id += 1
        out, into = self._out, self._in
        if out is not None:
            for edge_id, (source, _, _) in enumerate(edges, first):
                out.setdefault(source, []).append(edge_id)
        if into is not None:
            for edge_id, (_, target, _) in enumerate(edges, first):
                into.setdefault(target, []).append(edge_id)

    def add_node(self, label: str, properties: dict | None = None) -> int:
        """Add one node, with a copy of properties; its id."""
        self.add(((label, dict(properties or {})),))
        return len(self._nodes)

    def add_edge(self, source: int, target: int, edge_type: str) -> int:
        """Add one edge; its id."""
        self.add((), ((source, target, edge_type),))
        return len(self._edges)

    def seal(self) -> None:
        """Freeze the graph. Idempotent; reads are unaffected."""
        self._sealed = True

    @property
    def sealed(self) -> bool:
        return self._sealed

    def copy(self) -> PropertyGraph:
        """An unsealed graph with this sealed graph's nodes and edges, to
        add more to: the same Node and Edge records under the same ids, and
        new ids issued after this graph's. The records are shared, so
        neither graph may change one; the indexes are the copy's own, so
        adding to the copy leaves this graph as it was. The copy starts
        with a copy of each index this graph has built and of its label
        index, which this builds first if it has not; the others the copy
        builds on its first read. Derived values are not copied. The copy
        asks this graph for its filtered lookups of each label it has not
        added to (see find_nodes), which is right only because this graph
        cannot change: an unsealed graph raises GraphError."""
        if not self._sealed:
            raise GraphError("only a sealed graph can be copied")
        by_label = self._labels()
        other = PropertyGraph()
        other._source = self
        other._shared = set(by_label)
        other._nodes = dict(self._nodes)
        other._edges = dict(self._edges)
        other._by_label = _copied(by_label)
        other._out = _copied(self._out)
        other._in = _copied(self._in)
        return other

    def derived(self, build):
        """build(self), kept with the graph once it is sealed, so it is
        built once and goes away with the graph. An unsealed graph can
        still change, so there each call builds afresh, unless a producer
        handed the value over with keep()."""
        value = self._derived.get(build)
        if value is None:
            value = build(self)
            if self._sealed:
                self._derived[build] = value
        return value

    def keep(self, build, value) -> None:
        """Keep value as what derived(build) returns, sealed or not, until
        the graph next changes: for a producer that built it along with
        the nodes and edges it describes."""
        self._derived[build] = value

    # -- indexes -----------------------------------------------------------

    # Each builds its index whole in a local before the one assignment
    # that publishes it.

    def _labels(self) -> dict:
        """label -> node ids, built on the first call."""
        index = self._by_label
        if index is None:
            index = {}
            for node in self._nodes.values():
                index.setdefault(node.label, []).append(node.id)
            self._by_label = index
        return index

    def _outgoing(self) -> dict:
        """node id -> ids of the edges it is the source of, built on the
        first call."""
        index = self._out
        if index is None:
            index = {}
            for edge in self._edges.values():
                index.setdefault(edge.source, []).append(edge.id)
            self._out = index
        return index

    def _incoming(self) -> dict:
        """node id -> ids of the edges it is the target of, built on the
        first call."""
        index = self._in
        if index is None:
            index = {}
            for edge in self._edges.values():
                index.setdefault(edge.target, []).append(edge.id)
            self._in = index
        return index

    # -- lookup ------------------------------------------------------------

    def node(self, node_id: int) -> Node:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise UnknownNode(f"unknown node {node_id}") from None

    def edge(self, edge_id: int) -> Edge:
        return self._edges[edge_id]

    def nodes(self) -> Iterator[Node]:
        yield from self._nodes.values()

    def edges(self) -> Iterator[Edge]:
        yield from self._edges.values()

    @property
    def node_count(self) -> int:
        return len(self._nodes)

    @property
    def edge_count(self) -> int:
        return len(self._edges)

    def out_edges(self, node_id: int) -> list:
        self.node(node_id)
        return [self._edges[e] for e in self._outgoing().get(node_id, ())]

    def in_edges(self, node_id: int) -> list:
        self.node(node_id)
        return [self._edges[e] for e in self._incoming().get(node_id, ())]

    def find_nodes(self, label: str, filters: dict | None = None) -> list:
        """All nodes with the given label whose properties satisfy every
        filter entry under values_equal, in a new list. Ascending node-id
        order; an unknown label yields an empty list. Each filter entry
        narrows the list left by the ones before it.

        The first entry picks the candidates. On a copy, for a label the
        copy has not added to, the sealed source answers it from its
        (label, key) map, when the value is a text, int, float or bool;
        the source holds the same records under the same ids. Otherwise,
        and always for a graph's own lookups, the candidates are a scan of
        the label's nodes."""
        entries = list(filters.items()) if filters else []
        found = None
        if entries and label in self._shared:
            found = self._source._map_lookup(label, *entries[0])
        if found is None:
            nodes = self._nodes
            found = [nodes[node_id] for node_id in self._labels().get(label, ())]
        else:
            del entries[0]
        for key, value in entries:
            found = [
                node for node in found
                if key in node.properties and values_equal(value, node.properties[key])
            ]
        return found

    def _map_lookup(self, label: str, key: str, value) -> list | None:
        """The nodes of label whose key property equals value under
        values_equal, from this sealed graph's (label, key) map, built on
        the first lookup of the pair; None for a value the map does not
        answer. NaN equals nothing. Two threads may both build a map; the
        maps are the same, and one is kept."""
        kind = type(value)
        if kind not in _SCALARS:
            return None
        if value != value:
            return []
        by_value = self._maps.get((label, key))
        if by_value is None:
            by_value = self._maps[label, key] = self._build_map(label, key)
        return list(by_value.get((kind, value), ()))

    def _build_map(self, label: str, key: str) -> dict:
        """(kind, value) -> the nodes of label whose key property the pair
        matches under values_equal, ascending id: a scalar under its own
        kind and value, and a list under each distinct text it holds, as a
        text filter matches a list that holds it. A NaN is entered too,
        but no lookup reads it."""
        by_value = {}
        nodes = self._nodes
        for node_id in self._labels().get(label, ()):
            node = nodes[node_id]
            value = node.properties.get(key)
            kind = type(value)
            if isinstance(value, list):
                pairs = {(str, text) for text in value if isinstance(text, str)}
            elif kind in _SCALARS:
                pairs = ((kind, value),)
            else:
                continue
            for pair in pairs:
                by_value.setdefault(pair, []).append(node)
        return by_value

    # -- traversal ---------------------------------------------------------

    def enumerate_paths(
        self,
        start: int,
        targets: Iterable,
        edge_type: str | None = None,
        min_len: int = 1,
        max_len: int | None = None,
    ) -> list:
        """All directed paths from start ending at any target.

        Only edges of edge_type are followed (None = any type); no edge
        appears twice in one path; path length is within [min_len,
        max_len] (max_len None = unbounded). Results are ordered
        lexicographically by edge-id sequence. With min_len 0 a start
        that is itself a target yields the zero-length path once.

        The walk is depth-first over an explicit stack, so path length is
        not limited by the interpreter's recursion limit. It never enters
        a node from which no target can be reached over edge_type edges;
        such a branch emits no path, so skipping it leaves both the result
        set and its order unchanged. The number of paths itself is not
        bounded: a d-level diamond has 2**d of them.
        """
        self.node(start)
        target_set = set(targets)
        live = self._reaching(target_set, edge_type)
        if start not in live:
            return []
        results = []
        if min_len == 0 and start in target_set:
            results.append(Path((start,), ()))
        node_seq = [start]
        edge_seq = []
        used = set()
        # One iterator per node on the current path, over its out-edges in
        # ascending id order; the top one resumes where its child returned.
        out = self._outgoing()
        stack = [iter(out.get(start, ()))] if max_len is None or max_len > 0 else []
        while stack:
            for edge_id in stack[-1]:
                edge = self._edges[edge_id]
                if (
                    edge.target not in live
                    or edge_id in used
                    or (edge_type is not None and edge.type != edge_type)
                ):
                    continue
                used.add(edge_id)
                edge_seq.append(edge_id)
                node_seq.append(edge.target)
                if len(edge_seq) >= min_len and edge.target in target_set:
                    results.append(Path(tuple(node_seq), tuple(edge_seq)))
                if max_len is None or len(edge_seq) < max_len:
                    stack.append(iter(out.get(edge.target, ())))
                    break
                node_seq.pop()
                edge_seq.pop()
                used.discard(edge_id)
            else:
                stack.pop()
                if edge_seq:
                    node_seq.pop()
                    used.discard(edge_seq.pop())
        return results

    def _reaching(self, target_set: set, edge_type: str | None) -> set:
        """Nodes with a walk over edge_type edges to a target, the targets
        included."""
        live = {t for t in target_set if t in self._nodes}
        frontier = list(live)
        into, edges = self._incoming(), self._edges
        while frontier:
            for edge_id in into.get(frontier.pop(), ()):
                edge = edges[edge_id]
                if edge.source not in live and (edge_type is None or edge.type == edge_type):
                    live.add(edge.source)
                    frontier.append(edge.source)
        return live
