"""CVE/CWE catalog parsing and knowledge-graph construction.

CSV dialect: comma-separated, double-quote quoting with "" escape,
required header, UTF-8 with or without a leading byte-order mark.
Multi-valued fields (function events, affected versions) use ';'
inside a single cell. A cvss2_score cell is ASCII digits with an
optional fraction of ASCII digits after a '.', and at most 10: no sign,
exponent, whitespace, digit separator or non-ASCII digit, as no CVSS v2
score is written with one. Any other cell is a non-numeric score.

The knowledge-graph shape per catalog row:

    CWE  -HAS_CVE->  CVE  -SCORED->   Score
                     CVE  -AFFECTS->  Product   (one node per product+version)
"""

from __future__ import annotations

import csv
import io
import re
from itertools import islice

from .graph import PropertyGraph, Record

CWE_COLUMNS = ["cwe_id", "name", "description", "function_events"]
CVE_COLUMNS = ["cve_id", "description", "cwe_id", "cvss2_score", "product", "affected_versions"]

_CWE_ID_RE = re.compile(r"CWE-[1-9][0-9]*")
_CVE_ID_RE = re.compile(r"CVE-[0-9]{4}-[0-9]{4,}")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_SCORE_RE = re.compile(r"[0-9]+(?:\.[0-9]+)?")


class CsvError(Exception):
    """A catalog CSV row failed validation."""

    def __init__(self, line: int, reason: str):
        super().__init__(f"line {line}: {reason}")
        self.line = line
        self.reason = reason


class CweRecord(Record):
    __slots__ = ("cwe_id", "name", "description", "function_events")


class CveRecord(Record):
    __slots__ = ("cve_id", "description", "cwe_id", "cvss2_score", "product", "affected_versions")


class IngestStats(Record):
    __slots__ = ("nodes_created", "edges_created", "orphan_cves")


def _split_list(cell: str) -> list:
    return [part for part in map(str.strip, cell.split(";")) if part]


def _read_rows(text: bytes, expected_header: list) -> list:
    try:
        # utf-8-sig drops a leading byte-order mark, as spreadsheets'
        # "CSV UTF-8" exports write one.
        reader = csv.reader(io.StringIO(text.decode("utf-8-sig")))
        rows = list(reader)
    except UnicodeDecodeError as exc:
        # After a mark, exc.start counts in exc.object, the bytes after it.
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise CsvError(line, f"not UTF-8: {exc.reason}") from None
    except csv.Error as exc:
        raise CsvError(reader.line_num, str(exc)) from None
    if not rows:
        raise CsvError(1, "missing header row")
    if rows[0] != expected_header:
        raise CsvError(1, f"expected header {','.join(expected_header)}")
    return rows[1:]


def _invalid(text: bytes, index: int, reason: str) -> CsvError:
    """A validation error for data row index, on the physical line where
    its record starts. The rows are read again to count their lines, so
    only an invalid catalog pays for the count."""
    reader = csv.reader(io.StringIO(text.decode("utf-8-sig")))
    for _ in islice(reader, index + 1):  # the header and the rows before this one
        pass
    return CsvError(reader.line_num + 1, reason)


def parse_cwe_csv(text: bytes) -> list:
    """Parse a weakness catalog; one CweRecord per data row."""
    records = []
    for i, row in enumerate(_read_rows(text, CWE_COLUMNS)):
        if len(row) != len(CWE_COLUMNS):
            raise _invalid(text, i, f"expected {len(CWE_COLUMNS)} columns, got {len(row)}")
        cwe_id, name, description, events_cell = row
        if not _CWE_ID_RE.fullmatch(cwe_id):
            raise _invalid(text, i, f"malformed cwe_id {cwe_id!r}")
        if not name:
            raise _invalid(text, i, "empty name")
        events = _split_list(events_cell)
        for event in events:
            if not _IDENT_RE.fullmatch(event):
                raise _invalid(text, i, f"function event {event!r} is not a valid identifier")
        records.append(CweRecord(cwe_id, name, description, events))
    return records


def parse_cve_csv(text: bytes) -> list:
    """Parse a vulnerability catalog; one CveRecord per data row."""
    records = []
    scores = {}  # each distinct valid score cell -> its score, so it is checked once
    for i, row in enumerate(_read_rows(text, CVE_COLUMNS)):
        if len(row) != len(CVE_COLUMNS):
            raise _invalid(text, i, f"expected {len(CVE_COLUMNS)} columns, got {len(row)}")
        cve_id, description, cwe_id, score_cell, product, versions_cell = row
        if not _CVE_ID_RE.fullmatch(cve_id):
            raise _invalid(text, i, f"malformed cve_id {cve_id!r}")
        score = scores.get(score_cell)
        if score is None:
            if not _SCORE_RE.fullmatch(score_cell):
                raise _invalid(text, i, f"non-numeric cvss2_score {score_cell!r}")
            score = float(score_cell)
            if score > 10.0:
                raise _invalid(text, i, f"cvss2_score {score} outside [0.0, 10.0]")
            scores[score_cell] = score
        records.append(
            CveRecord(cve_id, description, cwe_id, score, product, _split_list(versions_cell))
        )
    return records


def build_knowledge_graph(cwes: list, cves: list, graph: PropertyGraph) -> IngestStats:
    """Materialize catalog records as CWE/CVE/Score/Product nodes.

    Product nodes are deduplicated per (product, version) pair across
    CVEs; Score nodes are per-CVE. A CVE whose cwe_id is not in the CWE
    list is ingested without a HAS_CVE edge and counted as an orphan.
    The nodes and edges go to the graph as one batch, each edge's
    source, target and type appended to three lists as the nodes it
    joins are made, and handed over as a zip of the lists, so no edge
    tuple stays alive.
    """
    first = graph.node_count + 1
    cwe_nodes = {cwe.cwe_id: node_id for node_id, cwe in enumerate(cwes, first)}
    sources, targets, types = [], [], []
    orphans = 0

    def nodes():
        nonlocal orphans
        for cwe in cwes:
            yield "CWE", {
                "CWE-ID": cwe.cwe_id,
                "Name": cwe.name,
                "Description": cwe.description,
                "Function Events": list(cwe.function_events),
            }
        node_id = first + len(cwes)
        product_nodes = {}
        for cve in cves:
            cve_node = node_id
            yield "CVE", {"CVE-ID": cve.cve_id, "Description": cve.description}
            yield "Score", {"CVSS2": cve.cvss2_score}
            node_id += 2
            sources.append(cve_node)
            targets.append(cve_node + 1)
            types.append("SCORED")
            if cve.cwe_id in cwe_nodes:
                sources.append(cwe_nodes[cve.cwe_id])
                targets.append(cve_node)
                types.append("HAS_CVE")
            else:
                orphans += 1
            for version in cve.affected_versions:
                key = (cve.product, version)
                product = product_nodes.get(key)
                if product is None:
                    product = product_nodes[key] = node_id
                    yield "Product", {"Name": cve.product, "Version": version}
                    node_id += 1
                sources.append(cve_node)
                targets.append(product)
                types.append("AFFECTS")

    graph.add(nodes(), zip(sources, targets, types))
    return IngestStats(graph.node_count + 1 - first, len(sources), orphans)
