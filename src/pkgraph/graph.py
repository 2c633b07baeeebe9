"""In-memory property graph.

Shared substrate for the vulnerability knowledge graph and the program
call graph: labeled nodes with key/value properties, typed directed
edges, a label index, and edge-unique path enumeration. Mutation happens
in a single-threaded build phase; after seal() the graph is immutable
and reads are safe from any thread.

copy() starts a new, unsealed graph from a sealed one without building
its nodes again: the copy holds the same Node and Edge records under the
same ids, and only its indexes are new. A node's adjacency lists are
created by its first edge, so a node without edges costs neither
add_node nor copy() any list; a missing list reads as no edges.
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
    def start(self) -> int:
        return self.nodes[0]

    @property
    def end(self) -> int:
        return self.nodes[-1]


class PropertyGraph:
    """Labeled property graph with integer node/edge ids.

    Ids are opaque, unique, and stable; nodes are never deduplicated at
    this layer. All query results use deterministic orderings (ascending
    node id, lexicographic edge-id sequences) so downstream golden files
    are byte-stable. Ids are issued in increasing order and only ever
    appended to the indexes, so every index is already in ascending id
    order and reads need not sort.
    """

    def __init__(self) -> None:
        self._nodes: dict = {}
        self._edges: dict = {}
        self._by_label: dict = {}
        self._out: dict = {}
        self._in: dict = {}
        self._next_node_id = 1
        self._next_edge_id = 1
        self._sealed = False
        self._derived: dict = {}

    # -- mutation ----------------------------------------------------------

    def add_node(self, label: str, properties: dict | None = None) -> int:
        if self._sealed:
            raise GraphSealed("graph is sealed")
        if not label:
            raise InvalidLabel("node label must be non-empty")
        node_id = self._next_node_id
        self._next_node_id += 1
        self._nodes[node_id] = Node(node_id, label, dict(properties or {}))
        self._by_label.setdefault(label, []).append(node_id)
        return node_id

    def add_edge(self, source: int, target: int, edge_type: str) -> int:
        if self._sealed:
            raise GraphSealed("graph is sealed")
        if source not in self._nodes:
            raise UnknownNode(f"unknown source node {source}")
        if target not in self._nodes:
            raise UnknownNode(f"unknown target node {target}")
        if not edge_type:
            raise GraphError("edge type must be non-empty")
        edge_id = self._next_edge_id
        self._next_edge_id += 1
        self._edges[edge_id] = Edge(edge_id, source, target, edge_type)
        self._out.setdefault(source, []).append(edge_id)
        self._in.setdefault(target, []).append(edge_id)
        return edge_id

    def seal(self) -> None:
        """Freeze the graph. Idempotent; reads are unaffected."""
        self._sealed = True

    @property
    def sealed(self) -> bool:
        return self._sealed

    def copy(self) -> PropertyGraph:
        """An unsealed graph with this graph's nodes and edges, to add more
        to: the same Node and Edge records under the same ids, and new ids
        issued after this graph's. The records are shared, so neither graph
        may change one; the indexes are the copy's own, so adding to the
        copy leaves this graph as it was. Derived values are not copied."""
        other = PropertyGraph()
        other._nodes = dict(self._nodes)
        other._edges = dict(self._edges)
        other._by_label = {label: list(ids) for label, ids in self._by_label.items()}
        other._out = {node_id: list(ids) for node_id, ids in self._out.items()}
        other._in = {node_id: list(ids) for node_id, ids in self._in.items()}
        other._next_node_id = self._next_node_id
        other._next_edge_id = self._next_edge_id
        return other

    def derived(self, build):
        """build(self), kept with the graph once it is sealed, so it is
        built once and goes away with the graph. An unsealed graph can
        still change, so there each call builds afresh."""
        value = self._derived.get(build)
        if value is None:
            value = build(self)
            if self._sealed:
                self._derived[build] = value
        return value

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
        return [self._edges[e] for e in self._out.get(node_id, ())]

    def in_edges(self, node_id: int) -> list:
        self.node(node_id)
        return [self._edges[e] for e in self._in.get(node_id, ())]

    def find_nodes(self, label: str, filters: dict | None = None) -> list:
        """All nodes with the given label whose properties satisfy every
        filter entry under values_equal. Ascending node-id order; an
        unknown label yields an empty list. Each filter entry narrows the
        list left by the ones before it."""
        nodes = self._nodes
        found = [nodes[node_id] for node_id in self._by_label.get(label, ())]
        for key, value in (filters or {}).items():
            found = [
                node for node in found
                if key in node.properties and values_equal(value, node.properties[key])
            ]
        return found

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
        out = self._out
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
        while frontier:
            for edge_id in self._in.get(frontier.pop(), ()):
                edge = self._edges[edge_id]
                if edge.source not in live and (edge_type is None or edge.type == edge_type):
                    live.add(edge.source)
                    frontier.append(edge.source)
        return live
