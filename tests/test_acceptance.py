"""End-to-end acceptance checks for the scanner.

Each test covers one acceptance criterion and prints a single
``[acceptance] <name>: PASS`` / ``FAIL`` line (run with ``pytest -s``
or ``-rP`` to see the lines for passing tests).
"""

import csv
import hashlib
import io
import random
import time

from importlib import resources

from conftest import (
    DOUBLE_FREE_SRC,
    call_graph_of,
    catalog_entry,
    edge_rows,
    load_catalog,
    merged_graph_of,
)
from test_graph import brute_force_paths
from test_render import import_csv
from pkgraph.cli import run_cli
from pkgraph.cparse import extract_translation_unit
from pkgraph.cypher.eval import execute_query
from pkgraph.cypher.parser import parse_query
from pkgraph.detectors import generate_detection_query, run_all
from pkgraph.graph import PropertyGraph
from pkgraph.render import export_import_csv, render_node, render_path
from pkgraph.vulndata import (
    CVE_COLUMNS,
    build_knowledge_graph,
    parse_cve_csv,
    parse_cwe_csv,
)

DATA = resources.files("pkgraph") / "data"

EXPECTED_NODE_TABLE = [
    (1, "foo", None),
    (2, "printf", "Please enter your name:\\n"),
    (3, "gets", "buf"),
    (4, "malloc", "8"),
    (5, "doSomething", "ptr"),
    (6, "free", "ptr"),
    (7, "free", "ptr"),
]

EXPECTED_WITNESS_PATHS = [
    '(:CallGraph {ExecOrder: 1, Name: "foo"})'
    '-[:CALLS]->(:CallGraph {Argument1: "ptr", ExecOrder: 6, Name: "free"})',
    '(:CallGraph {ExecOrder: 1, Name: "foo"})'
    '-[:CALLS]->(:CallGraph {Argument1: "ptr", ExecOrder: 7, Name: "free"})',
]

# Hand-written double-release query, kept verbatim as an external
# conformance fixture for the parser and evaluator.
REFERENCE_DOUBLE_RELEASE_QUERY = """\
MATCH (cwe:CWE {`CWE-ID`: "CWE-415"})
OPTIONAL MATCH (callgraph:CallGraph {Name: cwe.`Function Events`})
WITH callgraph.Argument1 AS argument1, COLLECT(callgraph) AS sameArgument1
WITH argument1, sameArgument1, SIZE(sameArgument1) AS nodeCount
WHERE nodeCount > 1
UNWIND sameArgument1 AS buggyNodes
OPTIONAL MATCH path=(startingNode:CallGraph {Name: "foo"})-[*]->(buggyNodes)
RETURN path
"""


def report(name):
    """Context manager printing one PASS/FAIL line per criterion."""

    class _Reporter:
        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            verdict = "PASS" if exc_type is None else "FAIL"
            print(f"[acceptance] {name}: {verdict}")
            return False

    return _Reporter()


def test_extraction_golden():
    with report("extraction node table"):
        start = time.perf_counter()
        graph, _ = call_graph_of(DOUBLE_FREE_SRC)
        nodes = graph.find_nodes("CallGraph")
        got = sorted(
            (
                n.properties["ExecOrder"],
                n.properties["Name"],
                n.properties.get("Argument1"),
            )
            for n in nodes
        )
        assert got == EXPECTED_NODE_TABLE
        assert time.perf_counter() - start < 1.0


def test_scan_witness_paths_golden():
    with report("double-release witness paths"):
        start = time.perf_counter()
        graph, _, catalog = merged_graph_of(DOUBLE_FREE_SRC)
        findings, _ = run_all(graph, catalog)
        (finding,) = [f for f in findings if f.cwe_id == "CWE-415"]
        rendered = [render_path(graph, p) for p in finding.witness_paths]
        assert rendered == EXPECTED_WITNESS_PATHS
        assert time.perf_counter() - start < 1.0


def test_reference_query_conformance():
    with report("reference query conformance"):
        start = time.perf_counter()
        graph, _, _ = merged_graph_of(DOUBLE_FREE_SRC)
        table = execute_query(parse_query(REFERENCE_DOUBLE_RELEASE_QUERY), graph)
        assert table.columns == ["path"]
        assert sorted(row[0] for row in table.rows) == EXPECTED_WITNESS_PATHS
        assert time.perf_counter() - start < 1.0


EVENT_POOL = ["free", "gets", "atoi", "fclose", "work", "log_it", "step"]
ARG_POOL = ["p", "q", "buf", "fp"]


def _random_source(rng):
    calls = "\n    ".join(
        f"{rng.choice(EVENT_POOL)}({rng.choice(ARG_POOL)});"
        for _ in range(rng.randint(1, 12))
    )
    return "void main() {\n    " + calls + "\n}\n"


def _query_terminals(graph, cwe, entry_name):
    table = execute_query(
        parse_query(generate_detection_query(cwe, entry_name)), graph
    )
    terminals = set()
    for row in table.rows:
        for cell in row:
            if "-[:" in cell:
                terminals.add(cell.rsplit("->", 1)[-1])
            elif cell.startswith("(:CallGraph"):
                terminals.add(cell)
    return terminals


def _detector_terminals(graph, catalog, cwe_id):
    findings, _ = run_all(graph, catalog)
    return {
        render_node(graph.node(t))
        for f in findings
        if f.cwe_id == cwe_id
        for t in f.terminal_nodes
    }


def test_query_detector_equivalence():
    with report("query/detector equivalence"):
        catalog = load_catalog()
        cases = [
            (DOUBLE_FREE_SRC, "foo"),
            ((DATA / "corpus" / "cwe415_double_free_interproc.c").read_text(), "main"),
        ]
        rng = random.Random(20260825)
        cases += [(_random_source(rng), "main") for _ in range(100)]
        for source, entry in cases:
            graph, _, _ = merged_graph_of(source, catalog)
            for cwe_id in ("CWE-242", "CWE-415", "CWE-1341"):
                cwe = catalog_entry(cwe_id)
                assert _query_terminals(graph, cwe, entry) == _detector_terminals(
                    graph, catalog, cwe_id
                )


def test_benchmark_corpus():
    with report("benchmark corpus 14/15"):
        start = time.perf_counter()
        catalog = load_catalog()
        corpus = sorted(
            p for p in (DATA / "corpus").iterdir() if p.name.endswith((".c", ".cpp"))
        )
        assert len(corpus) == 15
        correct = 0
        capability_misses = 0
        for sample in corpus:
            expected_cwe = "CWE-" + sample.name.split("_")[0][3:]
            graph, _, _ = merged_graph_of(sample.read_text(), catalog)
            findings, capabilities = run_all(graph, catalog)
            if expected_cwe == "CWE-401":
                assert not any(f.cwe_id == "CWE-401" for f in findings)
                (miss,) = [c for c in capabilities if c.cwe_id == "CWE-401"]
                assert "data-flow" in miss.reason
                capability_misses += 1
            elif any(f.cwe_id == expected_cwe for f in findings):
                correct += 1
        assert correct == 14
        assert capability_misses == 1
        assert time.perf_counter() - start < 5.0


def test_clean_corpus_no_findings():
    with report("clean corpus zero findings"):
        catalog = load_catalog()
        clean = sorted(
            p for p in (DATA / "clean").iterdir() if p.name.endswith((".c", ".cpp"))
        )
        assert len(clean) == 8
        for sample in clean:
            graph, _, _ = merged_graph_of(sample.read_text(), catalog)
            findings, _ = run_all(graph, catalog)
            assert findings == []


def test_path_enumeration_matches_oracle():
    with report("path enumeration vs oracle"):
        walks = []
        for seed in range(500):
            rng = random.Random(seed)
            g = PropertyGraph()
            nodes = [g.add_node("N", {}) for _ in range(rng.randint(1, 10))]
            for _ in range(rng.randint(0, 20)):
                g.add_edge(
                    rng.choice(nodes),
                    rng.choice(nodes),
                    rng.choice(["CALLS", "AFFECTS"]),
                )
            start_node = rng.choice(nodes)
            targets = set(rng.sample(nodes, rng.randint(1, len(nodes))))
            max_len = rng.choice([None, 1, 2, 3, 5])
            edge_type = rng.choice(["CALLS", None])
            min_len = rng.choice([0, 1, 2])
            usable = sum(
                1 for *_, type_ in edge_rows(g) if edge_type is None or type_ == edge_type
            )
            # Edge-distinct walks grow factorially with the usable edge
            # count; bound the length on dense graphs so both enumerations
            # stay small while unbounded length is still exercised.
            if usable > 12:
                max_len = min(max_len or 3, 3)
            elif max_len is None and usable > 8:
                max_len = 5
            got = g.enumerate_paths(start_node, targets, edge_type, min_len, max_len)
            want = brute_force_paths(g, start_node, targets, edge_type, min_len, max_len, walks)
            assert got == want
        # The oracle's work, counted: the walks it visits, which are what
        # grows when the cases do. Unlike a time, the count is the same on
        # any machine and under a tracer.
        assert len(walks) == 506_318


# Hand-derived expectation for the fixture below:
#   nodes: 3 CWE + 5 CVE + 5 Score + 5 distinct (product, version) = 18
#   edges: 5 HAS_CVE + 5 SCORED + 7 AFFECTS (version lists expand,
#          OpenLib 1.0 is shared by two CVEs) = 17
VULN_CWE_FIXTURE = b"""cwe_id,name,description,function_events
CWE-242,Use of Inherently Dangerous Function,d,gets;atoi;atol;atof
CWE-415,Double Free,d,free
CWE-477,Use of Obsolete Function,d,getpw;auto_ptr
"""

VULN_CVE_FIXTURE = b"""cve_id,description,cwe_id,cvss2_score,product,affected_versions
CVE-2019-0001,d,CWE-242,7.5,OpenLib,1.0;1.1
CVE-2019-0002,d,CWE-415,9.0,OpenLib,1.0
CVE-2020-0003,d,CWE-415,5.0,NetTool,2.2
CVE-2020-0004,d,CWE-477,4.3,NetTool,2.2;2.3
CVE-2021-0005,d,CWE-477,6.8,Parser,0.9
"""


def test_knowledge_graph_shape_and_round_trip():
    with report("knowledge graph shape + round trip"):
        cwes = parse_cwe_csv(VULN_CWE_FIXTURE)
        cves = parse_cve_csv(VULN_CVE_FIXTURE)
        graph = PropertyGraph()
        build_knowledge_graph(cwes, cves, graph)
        graph.seal()
        by_label = {
            label: len(graph.find_nodes(label))
            for label in ("CWE", "CVE", "Score", "Product")
        }
        assert by_label == {"CWE": 3, "CVE": 5, "Score": 5, "Product": 5}
        assert graph.node_count == 18
        by_type = {}
        for _, _, _, edge_type in edge_rows(graph):
            by_type[edge_type] = by_type.get(edge_type, 0) + 1
        assert by_type == {"HAS_CVE": 5, "SCORED": 5, "AFFECTS": 7}
        assert graph.edge_count == 17

        nodes, relationships = export_import_csv(graph)
        rebuilt = import_csv(nodes, relationships)
        rebuilt.seal()
        assert export_import_csv(rebuilt) == (nodes, relationships)


def _golden_cve_csv() -> bytes:
    """A vulnerability catalog drawn from a fixed seed over the bundled
    weakness catalog, with orphan CVEs, products shared across CVEs,
    multi-version cells and one description holding a comma, a quote
    and a newline."""
    rng = random.Random(20261019)
    cwe_ids = [cwe.cwe_id for cwe in load_catalog()]
    products = ["OpenLib", "NetTool", "Parser", "Shell"]
    versions = ["1.0", "1.1", "2.0", "2.1", "3.0"]
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CVE_COLUMNS)
    for i in range(60):
        cwe_id = "CWE-99999" if rng.random() < 0.2 else rng.choice(cwe_ids)
        description = 'Reads "name", then\nwrites it' if i == 7 else f"Generated vulnerability {i}"
        writer.writerow([
            f"CVE-{2015 + i % 8}-{1000 + i}",
            description,
            cwe_id,
            f"{rng.randint(0, 100) / 10:.1f}",
            rng.choice(products),
            ";".join(rng.sample(versions, rng.randint(1, 3))),
        ])
    return out.getvalue().encode("utf-8")


# sha256 of the import CSV an ingest of _golden_cve_csv() writes: 148
# nodes and 229 edges, 10 of the CVEs orphans.
GOLDEN_INGEST_SHA256 = {
    "nodes.csv": "f90facec5d81b766ed8b7a00d207e5edb9d7db3d40d3230c6440e133a4903c32",
    "relationships.csv": "da78f1b744da78f7012e1fd91f9f83f8e499ae5cacc9007f27970d7babc2885b",
}


def test_ingest_golden_bytes(tmp_path):
    with report("ingest import CSV bytes"):
        text = _golden_cve_csv()
        cves = parse_cve_csv(text)
        cwe_ids = {cwe.cwe_id for cwe in load_catalog()}
        assert any(cve.cwe_id not in cwe_ids for cve in cves)
        assert len({cve.product for cve in cves}) < len(cves)
        assert any(len(cve.affected_versions) > 1 for cve in cves)
        assert any(all(c in cve.description for c in ',"\n') for cve in cves)
        (tmp_path / "cves.csv").write_bytes(text)
        out = tmp_path / "out"
        argv = [
            "ingest",
            "--cwe", str(DATA / "cwe-catalog.csv"),
            "--cve", str(tmp_path / "cves.csv"),
            "--out", str(out),
        ]
        assert run_cli(argv, stdout=io.StringIO(), stderr=io.StringIO()) == 0
        got = {
            name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in GOLDEN_INGEST_SHA256
        }
        assert got == GOLDEN_INGEST_SHA256
