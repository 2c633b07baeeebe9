"""CVE/CWE catalog parsing and knowledge-graph construction.

CSV dialect: comma-separated, double-quote quoting with "" escape,
required header, UTF-8 with or without a leading byte-order mark.
Multi-valued fields (function events, affected versions) use ';'
inside a single cell.

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
    return [part.strip() for part in cell.split(";") if part.strip()]


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
    for i, row in enumerate(_read_rows(text, CVE_COLUMNS)):
        if len(row) != len(CVE_COLUMNS):
            raise _invalid(text, i, f"expected {len(CVE_COLUMNS)} columns, got {len(row)}")
        cve_id, description, cwe_id, score_cell, product, versions_cell = row
        if not _CVE_ID_RE.fullmatch(cve_id):
            raise _invalid(text, i, f"malformed cve_id {cve_id!r}")
        try:
            score = float(score_cell)
        except ValueError:
            raise _invalid(text, i, f"non-numeric cvss2_score {score_cell!r}") from None
        if not 0.0 <= score <= 10.0:
            raise _invalid(text, i, f"cvss2_score {score} outside [0.0, 10.0]")
        records.append(
            CveRecord(cve_id, description, cwe_id, score, product, _split_list(versions_cell))
        )
    return records


def build_knowledge_graph(cwes: list, cves: list, graph: PropertyGraph) -> IngestStats:
    """Materialize catalog records as CWE/CVE/Score/Product nodes.

    Product nodes are deduplicated per (product, version) pair across
    CVEs; Score nodes are per-CVE. A CVE whose cwe_id is not in the CWE
    list is ingested without a HAS_CVE edge and counted as an orphan.
    """
    stats = IngestStats(0, 0, 0)
    cwe_nodes = {}
    for cwe in cwes:
        node_id = graph.add_node(
            "CWE",
            {
                "CWE-ID": cwe.cwe_id,
                "Name": cwe.name,
                "Description": cwe.description,
                "Function Events": list(cwe.function_events),
            },
        )
        cwe_nodes[cwe.cwe_id] = node_id
        stats.nodes_created += 1

    product_nodes = {}
    for cve in cves:
        cve_node = graph.add_node("CVE", {"CVE-ID": cve.cve_id, "Description": cve.description})
        score_node = graph.add_node("Score", {"CVSS2": cve.cvss2_score})
        stats.nodes_created += 2
        graph.add_edge(cve_node, score_node, "SCORED")
        stats.edges_created += 1
        if cve.cwe_id in cwe_nodes:
            graph.add_edge(cwe_nodes[cve.cwe_id], cve_node, "HAS_CVE")
            stats.edges_created += 1
        else:
            stats.orphan_cves += 1
        for version in cve.affected_versions:
            key = (cve.product, version)
            if key not in product_nodes:
                product_nodes[key] = graph.add_node(
                    "Product", {"Name": cve.product, "Version": version}
                )
                stats.nodes_created += 1
            graph.add_edge(cve_node, product_nodes[key], "AFFECTS")
            stats.edges_created += 1
    return stats
