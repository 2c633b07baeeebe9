"""pkgraph: program knowledge graph vulnerability scanner.

Merges CVE/CWE catalog data with call graphs extracted from C source
into one property graph, then finds weaknesses either with programmatic
detectors or with graph-pattern queries.
"""

__version__ = "0.1.0"

from .graph import PropertyGraph, Path, GraphSealed, InvalidLabel, UnknownNode
from .cparse import extract_translation_unit, build_call_graph, TranslationUnit, ParseError
from .vulndata import (
    CweRecord,
    CveRecord,
    CsvError,
    parse_cwe_csv,
    parse_cve_csv,
    build_knowledge_graph,
)
from .detectors import Finding, DetectorCapability, run_all, generate_detection_query

#: The query engine's names. A scan never runs a query, so pkgraph.cypher
#: is imported on first access to one of them (PEP 562), not with the
#: package.
_QUERY_NAMES = {"parse_query", "QuerySyntaxError", "execute_query", "format_result_table"}

__all__ = [
    "PropertyGraph",
    "Path",
    "GraphSealed",
    "InvalidLabel",
    "UnknownNode",
    "extract_translation_unit",
    "build_call_graph",
    "TranslationUnit",
    "ParseError",
    "CweRecord",
    "CveRecord",
    "CsvError",
    "parse_cwe_csv",
    "parse_cve_csv",
    "build_knowledge_graph",
    "Finding",
    "DetectorCapability",
    "run_all",
    "generate_detection_query",
    "parse_query",
    "QuerySyntaxError",
    "execute_query",
    "format_result_table",
    "__version__",
]


def __getattr__(name: str):
    if name in _QUERY_NAMES:
        from . import cypher

        return getattr(cypher, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list:
    return sorted({*globals(), *_QUERY_NAMES})
