import pytest
from importlib import resources

from pkgraph.cparse import build_call_graph, extract_translation_unit
from pkgraph.graph import PropertyGraph
from pkgraph.vulndata import build_knowledge_graph, parse_cwe_csv

DATA = resources.files("pkgraph") / "data"

DOUBLE_FREE_SRC = (DATA / "corpus" / "cwe415_double_free.c").read_text()
DOUBLE_FREE_INTERPROC_SRC = (DATA / "corpus" / "cwe415_double_free_interproc.c").read_text()


def load_catalog():
    return parse_cwe_csv((DATA / "cwe-catalog.csv").read_bytes())


def catalog_entry(cwe_id):
    return next(c for c in load_catalog() if c.cwe_id == cwe_id)


def edge_rows(graph, edge_ids=None):
    """(id, source, target, type) of each of edge_ids, every edge in
    ascending id by default, read from the graph's edge columns."""
    sources, targets, types = graph.edge_columns()
    if edge_ids is None:
        edge_ids = range(1, len(sources) + 1)
    return [(e, sources[e - 1], targets[e - 1], types[e - 1]) for e in edge_ids]


def call_graph_of(source):
    """(graph, tu) for a C source string; graph sealed."""
    tu = extract_translation_unit(source)
    graph = PropertyGraph()
    build_call_graph(tu, graph)
    graph.seal()
    return graph, tu


def merged_graph_of(source, catalog=None):
    """Knowledge graph + call graph, sealed, as the scan pipeline builds it."""
    catalog = catalog if catalog is not None else load_catalog()
    graph = PropertyGraph()
    build_knowledge_graph(catalog, [], graph)
    tu = extract_translation_unit(source)
    build_call_graph(tu, graph)
    graph.seal()
    return graph, tu, catalog


@pytest.fixture
def double_free_graph():
    graph, _ = call_graph_of(DOUBLE_FREE_SRC)
    return graph


@pytest.fixture
def catalog():
    return load_catalog()
