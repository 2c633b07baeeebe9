"""Command-line pipeline: ingest, extract, scan, query, export.

Exit codes: 0 ran with no findings, 1 findings present (scan), 2 usage
error, 3 parse/ingest error. Machine output goes to stdout, diagnostics
to stderr. Output is plain text (no ANSI styling), so NO_COLOR is
honored by construction.
"""

from __future__ import annotations

import argparse
import sys
from importlib import resources
from pathlib import Path

from . import __version__
from .cparse import ParseError, extract_translation_unit, build_call_graph
from .cypher.eval import EvalError, execute_query, format_result_table
from .cypher.parser import QuerySyntaxError, parse_query
from .detectors import run_all
from .graph import PropertyGraph
from .render import (
    ExportError,
    export_dot,
    export_import_csv,
    findings_to_json,
    render_path,
)
from .vulndata import CsvError, build_knowledge_graph, parse_cve_csv, parse_cwe_csv


class _UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{self.prog}: error: {message}\n{self.format_usage()}")


def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(prog="pkgraph", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"pkgraph {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    ingest = sub.add_parser("ingest", help="build the vulnerability knowledge graph")
    ingest.add_argument("--cwe", required=True, help="weakness catalog CSV")
    ingest.add_argument("--cve", required=True, help="vulnerability catalog CSV")
    ingest.add_argument("--out", default=".", help="output directory for CSV export")
    ingest.set_defaults(run=_cmd_ingest)

    extract = sub.add_parser("extract", help="print the call-graph node table for a C file")
    extract.add_argument("source", help="C source file")
    extract.set_defaults(run=_cmd_extract)

    scan = sub.add_parser("scan", help="scan a C file for weaknesses")
    scan.add_argument("source", help="C source file")
    scan.add_argument("--catalog", help="weakness catalog CSV (default: bundled)")
    scan.add_argument("--format", choices=("table", "json"), default="table")
    scan.set_defaults(run=_cmd_scan)

    query = sub.add_parser("query", help="run a query over the merged graph of a C file")
    query.add_argument("source", help="C source file")
    query.add_argument("--query-file", help="query text file (default: stdin)")
    query.add_argument("--catalog", help="weakness catalog CSV (default: bundled)")
    query.set_defaults(run=_cmd_query)

    export = sub.add_parser("export", help="export a C file's call graph")
    export.add_argument("source", help="C source file")
    export.add_argument("--out", required=True, help="output directory")
    export.set_defaults(run=_cmd_export)
    return parser


def default_catalog_bytes() -> bytes:
    return resources.files("pkgraph").joinpath("data/cwe-catalog.csv").read_bytes()


def _load_catalog(path) -> list:
    if path is None:
        return parse_cwe_csv(default_catalog_bytes())
    return parse_cwe_csv(Path(path).read_bytes())


def _merged_graph(source_path: str, catalog=()):
    """Knowledge graph of the catalog plus the file's call graph, sealed."""
    source = Path(source_path).read_text(encoding="utf-8")
    graph = PropertyGraph()
    build_knowledge_graph(catalog, [], graph)
    tu = extract_translation_unit(source)
    build_call_graph(tu, graph)
    graph.seal()
    return graph, tu


def _write_import_csv(graph, out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    nodes, relationships = export_import_csv(graph)
    (out / "nodes.csv").write_bytes(nodes)
    (out / "relationships.csv").write_bytes(relationships)


def _cmd_ingest(args, stdin, stdout) -> int:
    cwes = parse_cwe_csv(Path(args.cwe).read_bytes())
    cves = parse_cve_csv(Path(args.cve).read_bytes())
    graph = PropertyGraph()
    stats = build_knowledge_graph(cwes, cves, graph)
    graph.seal()
    out = Path(args.out)
    _write_import_csv(graph, out)
    print(
        f"ingested {stats.nodes_created} nodes, {stats.edges_created} edges"
        f" ({stats.orphan_cves} orphan CVEs) -> {out}",
        file=stdout,
    )
    return 0


def _node_table(graph) -> str:
    lines = ["ExecOrder | Name | Argument1"]
    rows = sorted(
        (n.properties.get("ExecOrder", 0), n) for n in graph.find_nodes("CallGraph")
    )
    for exec_order, node in rows:
        argument = node.properties.get("Argument1", "")
        lines.append(f"{exec_order} | {node.properties.get('Name', '')} | {argument}".rstrip())
    return "\n".join(lines) + "\n"


def _cmd_extract(args, stdin, stdout) -> int:
    graph, _ = _merged_graph(args.source)
    stdout.write(_node_table(graph))
    return 0


def _cmd_scan(args, stdin, stdout) -> int:
    catalog = _load_catalog(args.catalog)
    graph, tu = _merged_graph(args.source, catalog)
    findings, capabilities = run_all(graph, tu, catalog)
    if args.format == "json":
        stdout.write(findings_to_json(findings, capabilities, graph).decode("utf-8"))
    else:
        for finding in findings:
            print(f"{finding.cwe_id} ({finding.cwe_name}): {finding.message}", file=stdout)
            for path in finding.witness_paths:
                print(f"  {render_path(graph, path)}", file=stdout)
        for capability in capabilities:
            print(f"{capability.cwe_id}: not detectable ({capability.reason})", file=stdout)
    return 1 if findings else 0


def _cmd_query(args, stdin, stdout) -> int:
    if args.query_file:
        text = Path(args.query_file).read_text(encoding="utf-8")
    else:
        text = stdin.read()
    query = parse_query(text)
    graph, _ = _merged_graph(args.source, _load_catalog(args.catalog))
    stdout.write(format_result_table(execute_query(query, graph)))
    return 0


def _cmd_export(args, stdin, stdout) -> int:
    graph, _ = _merged_graph(args.source)
    out = Path(args.out)
    _write_import_csv(graph, out)
    (out / "graph.dot").write_text(export_dot(graph), encoding="utf-8")
    print(f"wrote nodes.csv, relationships.csv, graph.dot -> {out}", file=stdout)
    return 0


def run_cli(argv, stdin=None, stdout=None, stderr=None) -> int:
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    try:
        args = _build_parser().parse_args(argv)
    except _UsageError as exc:
        print(str(exc), file=stderr)
        return 2
    try:
        return args.run(args, stdin, stdout)
    except (
        ParseError, CsvError, QuerySyntaxError, EvalError, ExportError, OSError, UnicodeDecodeError
    ) as exc:
        print(f"pkgraph: error: {exc}", file=stderr)
        return 3
    except RecursionError as exc:
        # The query parser recurses once per nesting level of an
        # expression; the C extractor does not recurse.
        print(f"pkgraph: error: input nested too deeply ({exc})", file=stderr)
        return 3


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
