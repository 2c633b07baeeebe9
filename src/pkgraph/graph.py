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
without a copy.

A graph holds its nodes in a dict by id, as Node records, and its
edges in one form only: three columns, lists of the sources, targets
and types, where position k - 1 holds edge k's. An edge is its id:
out_edges() and in_edges() give a node's edge ids, and a reader takes
each edge's source, target and type from the columns, which
edge_columns() returns. A batch's edges are checked and gathered into
lists of the batch's own, and the columns are extended only once the
whole batch has passed, so a failed batch leaves them as they were; a
sealed graph's columns are never written.

Whatever is built from the nodes and edges to answer reads is a
derived() value, under one rule: it is built on its first read and kept
until the next batch, which drops every one. The graph's three indexes,
the nodes of each label and the out- and in-edges of each node, are
such values, so a graph that is only built and written out, as an
ingest's is, builds none, and no batch extends one. A value is built
whole before the one assignment that keeps it, so a thread reading a
sealed graph sees all of it or none; two threads may both build one,
and one of the equal results is kept.

copy() starts a new, unsealed graph from a sealed one without building
its nodes again: the copy holds the same Node records under the same
ids, copies of the three edge columns and no derived value. Node
records are shared, so no graph may change one. A copy's label index
starts from a copy of its source's, so a query's copy of the catalog's
CWE graph finds the CWE nodes without a pass over them.

A copy answers find_nodes with a filter, for a label whose nodes are
all its source's, from its source: the sealed source keeps, per (label,
first filter key), a value -> nodes map that it builds on the first such
lookup. So a query graph, a copy of the catalog's sealed CWE graph,
finds a weakness by its id at the cost of one dict hit, and the map is
built once per catalog, not once per query. A graph's lookups of its own
nodes scan that label's nodes, as no map would repay its building on a
graph that is read a few times.

in_edges, add_node and add_edge have no caller in pkgraph itself: it
walks in-edges inside _reaching and adds through add(). They stay
because the benchmark's tracer (perfbench/tracer.py) traces them, with
out_edges, and its test asserts the list of traced names it finds
absent. ROADMAP item 16 moves the three to the tests once that test
checks only its own names.
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


# The three indexes, read as graph.derived(_labels) and so on.


def _labels(graph: PropertyGraph) -> dict:
    """label -> node ids, ascending. A copy's starts from a copy of the
    index its sealed source keeps and adds its own nodes, ids from first
    on. It shares the source's list of each label it has not added to,
    as no index list changes once its index is built; a list whose last
    id is below first is the source's, so the copy's first node of that
    label starts a list of the copy's own."""
    source = graph._source
    if source is None:
        index, first = {}, 1
    else:
        index = dict(source.derived(_labels))
        first = source.node_count + 1
    nodes = graph._nodes
    for node_id in range(first, len(nodes) + 1):
        label = nodes[node_id].label
        ids = index.get(label)
        if ids and ids[-1] >= first:
            ids.append(node_id)
        else:
            index[label] = [*(ids or ()), node_id]
    return index


def _outgoing(graph: PropertyGraph) -> dict:
    """node id -> ids of the edges it is the source of, ascending; a
    node without out-edges has no entry."""
    index = {}
    for edge_id, source in enumerate(graph._sources, 1):
        index.setdefault(source, []).append(edge_id)
    return index


def _incoming(graph: PropertyGraph) -> dict:
    """node id -> ids of the edges it is the target of, ascending; a
    node without in-edges has no entry."""
    index = {}
    for edge_id, target in enumerate(graph._targets, 1):
        index.setdefault(target, []).append(edge_id)
    return index



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
        # Each field's slot setter, bound once, as set_<field>, for an
        # _assign that calls it.
        namespace = {f"set_{name}": cls.__dict__[name].__set__ for name in fields}
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
    """A record whose fields are fixed once __init__ has set them, so it
    hashes by its fields. __init__ sets each field through its slot's
    own setter, which __setattr__ does not reach; object.__setattr__
    would look the slot up by name on every call."""

    __slots__ = ()
    _assign = "set_{0}(self, {0})"

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
    byte-stable. Ids are issued in increasing order and every index is
    built in id order, so reads need not sort.

    _nodes maps node id -> Node, records a copy() shares with its
    source. The edges are three columns, _sources, _targets and _types,
    edge k's at position k - 1, and each read of edges returns ids into
    them. _derived holds the derived() values, the indexes among them;
    see the module docstring.
    """

    def __init__(self) -> None:
        self._nodes: dict = {}
        self._sources: list = []
        self._targets: list = []
        self._types: list = []
        self._sealed = False
        self._derived: dict = {}
        self._source = None  # the sealed graph this one is a copy of
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
        its end before edges is read, so a generator of nodes may fill
        the lists an edge iterable reads, and edges is read once, so it
        may be a zip that hands out one triple at a time.

        The batch is checked as a whole before anything is added: a sealed
        graph raises GraphSealed, an empty label InvalidLabel, an endpoint
        that is neither in the graph nor in the batch UnknownNode, and an
        empty edge type GraphError; the graph, its derived values too, is
        then as it was. A batch that passes drops every derived value.
        """
        if self._sealed:
            raise GraphSealed("graph is sealed")
        graph_nodes = self._nodes
        first = node_id = len(graph_nodes) + 1
        labels = set()
        sources, targets, types = [], [], []
        # The nodes go in as they arrive, so the edges can be checked
        # against the graph alone; a batch that fails takes them out. The
        # edges go to lists of the batch's own, so the columns are not
        # touched until the whole batch has passed. A read from inside
        # the batch's iterables sees part of it, so what it builds is
        # kept apart and dropped either way.
        derived, self._derived = self._derived, {}
        try:
            for label, properties in nodes:
                graph_nodes[node_id] = Node(node_id, label, properties)
                labels.add(label)
                node_id += 1
            if not all(labels):
                raise InvalidLabel("node label must be non-empty")
            for source, target, edge_type in edges:
                if source not in graph_nodes:
                    raise UnknownNode(f"unknown source node {source}")
                if target not in graph_nodes:
                    raise UnknownNode(f"unknown target node {target}")
                if not edge_type:
                    raise GraphError("edge type must be non-empty")
                sources.append(source)
                targets.append(target)
                types.append(edge_type)
        except BaseException:
            for added in range(first, node_id):
                del graph_nodes[added]
            self._derived = derived
            raise
        self._derived = {}
        self._sources += sources
        self._targets += targets
        self._types += types

    def add_node(self, label: str, properties: dict | None = None) -> int:
        """Add one node, with a copy of properties; its id."""
        self.add(((label, dict(properties or {})),))
        return len(self._nodes)

    def add_edge(self, source: int, target: int, edge_type: str) -> int:
        """Add one edge; its id."""
        self.add((), ((source, target, edge_type),))
        return len(self._sources)

    def seal(self) -> None:
        """Freeze the graph. Idempotent; reads are unaffected."""
        self._sealed = True

    @property
    def sealed(self) -> bool:
        return self._sealed

    def copy(self) -> PropertyGraph:
        """An unsealed graph with this sealed graph's nodes and edges, to
        add more to: the same Node records under the same ids, copies of
        the edge columns, no derived value, and new ids issued after this
        graph's. The records are shared, so neither graph may change one;
        the columns are the copy's own, so adding to the copy leaves this
        graph as it was. The copy asks this graph for its label index and
        its filtered lookups (see find_nodes), which is right only because
        this graph cannot change: an unsealed graph raises GraphError."""
        if not self._sealed:
            raise GraphError("only a sealed graph can be copied")
        other = PropertyGraph()
        other._source = self
        other._nodes = dict(self._nodes)
        other._sources = self._sources.copy()
        other._targets = self._targets.copy()
        other._types = self._types.copy()
        return other

    def derived(self, build):
        """build(self), built on the first call and kept until the next
        batch, sealed or not; a producer may hand it over with keep()."""
        value = self._derived.get(build)
        if value is None:
            value = self._derived[build] = build(self)
        return value

    def keep(self, build, value) -> None:
        """Keep value as what derived(build) returns until the next batch:
        for a producer that built it along with the nodes and edges it
        describes."""
        self._derived[build] = value

    # -- lookup ------------------------------------------------------------

    def node(self, node_id: int) -> Node:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise UnknownNode(f"unknown node {node_id}") from None

    def nodes(self) -> Iterator[Node]:
        yield from self._nodes.values()

    def edge_columns(self) -> tuple:
        """(sources, targets, types): the graph's own edge columns, edge
        k's source, target and type at position k - 1. The caller must not
        change them."""
        return self._sources, self._targets, self._types

    @property
    def node_count(self) -> int:
        return len(self._nodes)

    @property
    def edge_count(self) -> int:
        return len(self._sources)

    def out_edges(self, node_id: int):
        """The ids of node_id's out-edges, ascending; none for a node
        without out-edges or an id the graph has not issued. The caller
        must not change the sequence."""
        return self.derived(_outgoing).get(node_id, ())

    def in_edges(self, node_id: int):
        """The ids of node_id's in-edges, as out_edges gives its
        out-edges."""
        return self.derived(_incoming).get(node_id, ())

    def find_nodes(self, label: str, filters: dict | None = None) -> list:
        """All nodes with the given label whose properties satisfy every
        filter entry under values_equal, in a new list. Ascending node-id
        order; an unknown label yields an empty list. Each filter entry
        narrows the list left by the ones before it.

        The first entry picks the candidates. On a copy, for a label whose
        last id is at most the source's node_count, so whose nodes are all
        the source's, the sealed source answers it from its (label, key)
        map, when the value is a text, int, float or bool; the source holds
        the same records under the same ids. Otherwise, and always for a
        graph's own lookups, it is tested while the label's ids are
        walked, so no list of every node of the label is built."""
        entries = list(filters.items()) if filters else []
        ids = self.derived(_labels).get(label, ())
        found = None
        if entries and ids and self._source is not None and ids[-1] <= self._source.node_count:
            found = self._source._map_lookup(label, *entries[0])
        if found is None:
            found = map(self._nodes.__getitem__, ids)  # the first filter walks it
        else:
            del entries[0]
        for key, value in entries:
            found = [
                node for node in found
                if key in node.properties and values_equal(value, node.properties[key])
            ]
        return found if isinstance(found, list) else list(found)

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
        for node_id in self.derived(_labels).get(label, ()):
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
        out, targets, types = self.derived(_outgoing), self._targets, self._types
        stack = [iter(out.get(start, ()))] if max_len is None or max_len > 0 else []
        while stack:
            for edge_id in stack[-1]:
                target = targets[edge_id - 1]
                if (
                    target not in live
                    or edge_id in used
                    or (edge_type is not None and types[edge_id - 1] != edge_type)
                ):
                    continue
                used.add(edge_id)
                edge_seq.append(edge_id)
                node_seq.append(target)
                if len(edge_seq) >= min_len and target in target_set:
                    results.append(Path(tuple(node_seq), tuple(edge_seq)))
                if max_len is None or len(edge_seq) < max_len:
                    stack.append(iter(out.get(target, ())))
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
        into, sources, types = self.derived(_incoming), self._sources, self._types
        while frontier:
            for edge_id in into.get(frontier.pop(), ()):
                source = sources[edge_id - 1]
                if source not in live and (edge_type is None or types[edge_id - 1] == edge_type):
                    live.add(source)
                    frontier.append(source)
        return live
