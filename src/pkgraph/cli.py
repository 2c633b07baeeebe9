"""Command-line pipeline: ingest, extract, scan, query, export.

Exit codes: 0 ran with no findings, 1 findings present (scan), 2 usage
error, 3 parse/ingest error. Machine output goes to stdout, diagnostics
to stderr. Output is plain text (no ANSI styling), so NO_COLOR is
honored by construction.

The command line is described once, in _COMMANDS. An argv spelled in
full from it is parsed without argparse; help, version, abbreviated
options and usage errors go to argparse, which is imported only then.
"""

from __future__ import annotations

import functools
import os
import sys
from types import SimpleNamespace

from . import __version__
from .cparse import ParseError, extract_translation_unit, build_call_graph
from .detectors import Catalog, run_all
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


class _InputError(Exception):
    """Bad input, described in full by the message."""


class _Exit(Exception):
    """-h or --version: the text to write to stdout before exiting 0."""


def _fs_path(text: str) -> str:
    """text without empty or `.` segments, as pathlib spells a path, so
    files open and are named in messages as they were through Path."""
    root = "//" if text[:2] == "//" and text[2:3] != "/" else "/" * text.startswith("/")
    return root + "/".join(part for part in text.split("/") if part not in ("", ".")) or "."


def _read_bytes(path: str) -> bytes:
    with open(_fs_path(path), "rb") as file:
        return file.read()


def default_catalog_bytes() -> bytes:
    return _read_bytes(os.path.join(os.path.dirname(__file__), "data", "cwe-catalog.csv"))


# The last weakness catalog parsed in this process: (bytes, records).
_kept_catalog = (None, Catalog())


def _load_catalog(path) -> Catalog:
    """The records of the catalog at path (None: the bundled one).

    The file is read on every call but parsed only when its bytes differ
    from those of the last catalog parsed in this process. One entry is
    enough: a process scans with one catalog, the bundled one or the one
    --catalog names, again and again. Comparing bytes rather than a path
    or an mtime catches every rewrite, and costs one memcmp next to a
    parse. A parse error keeps the last catalog. The records are a
    Catalog, a tuple, so no caller can change the kept sequence; the map
    run_all walks is built with it once, on the first scan, and the graph
    of its CWE nodes once, on the first query."""
    global _kept_catalog
    data = default_catalog_bytes() if path is None else _read_bytes(path)
    if data != _kept_catalog[0]:
        _kept_catalog = (data, Catalog(parse_cwe_csv(data)))
    return _kept_catalog[1]


def _decode(data: bytes, name: str) -> str:
    """UTF-8 bytes as text with universal newlines, as open() reads them;
    a decode error names the input and line."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise _InputError(f"{name}: line {line}: not UTF-8: {exc.reason}") from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _read_text(path: str) -> str:
    return _decode(_read_bytes(path), _fs_path(path))


def _merged_graph(source_path: str, catalog: Catalog | None = None):
    """The file's call graph after one CWE node per catalog row, sealed.
    Only a query reads CWE nodes; the other commands pass no catalog.
    CWE nodes have no edges and a scan renders no ids, so a scan's
    output is the same without them. The CWE nodes are a copy of the
    catalog's graph of them, built once per kept catalog."""
    source = _read_text(source_path)
    graph = catalog.cwe_graph.copy() if catalog is not None else PropertyGraph()
    build_call_graph(extract_translation_unit(source), graph)
    graph.seal()
    return graph


def _write(path: str, data: bytes) -> None:
    with open(path, "wb") as file:
        file.write(data)


def _write_import_csv(graph, out: str) -> None:
    os.makedirs(out, exist_ok=True)
    nodes, relationships = export_import_csv(graph)
    _write(os.path.join(out, "nodes.csv"), nodes)
    _write(os.path.join(out, "relationships.csv"), relationships)


def _cmd_ingest(args, stdin, stdout) -> int:
    cwes = _load_catalog(args.cwe)
    cves = parse_cve_csv(_read_bytes(args.cve))
    graph = PropertyGraph()
    stats = build_knowledge_graph(cwes, cves, graph)
    graph.seal()
    out = _fs_path(args.out)
    _write_import_csv(graph, out)
    print(
        f"ingested {stats.nodes_created} nodes, {stats.edges_created} edges"
        f" ({stats.orphan_cves} orphan CVEs) -> {out}",
        file=stdout,
    )
    return 0


def _node_table(graph) -> str:
    lines = ["ExecOrder | Name | Argument1"]
    for node in graph.find_nodes("CallGraph"):
        exec_order = node.properties.get("ExecOrder", 0)
        argument = node.properties.get("Argument1", "")
        lines.append(f"{exec_order} | {node.properties.get('Name', '')} | {argument}".rstrip())
    return "\n".join(lines) + "\n"


def _cmd_extract(args, stdin, stdout) -> int:
    graph = _merged_graph(args.source)
    stdout.write(_node_table(graph))
    return 0


def _cmd_scan(args, stdin, stdout) -> int:
    catalog = _load_catalog(args.catalog)
    graph = _merged_graph(args.source)
    findings, capabilities = run_all(graph, catalog)
    if args.format == "json":
        stdout.write(findings_to_json(findings, capabilities, graph))
    else:
        for finding in findings:
            print(f"{finding.cwe_id} ({finding.cwe_name}): {finding.message}", file=stdout)
            for path in finding.witness_paths:
                print(f"  {render_path(graph, path)}", file=stdout)
        for capability in capabilities:
            print(f"{capability.cwe_id}: not detectable ({capability.reason})", file=stdout)
    return 1 if findings else 0


def _cmd_query(args, stdin, stdout) -> int:
    # Only this command loads the query engine.
    from .cypher.eval import EvalError, execute_query, format_result_table
    from .cypher.parser import QuerySyntaxError, parse_query

    if args.query_file:
        text = _read_text(args.query_file)
    elif hasattr(stdin, "buffer"):
        # A process's stdin: its bytes, read as a query file is, whatever the locale.
        text = _decode(stdin.buffer.read(), "<stdin>")
    else:
        text = stdin.read()
    try:
        query = parse_query(text)
        graph = _merged_graph(args.source, _load_catalog(args.catalog))
        stdout.write(format_result_table(execute_query(query, graph)))
    except (QuerySyntaxError, EvalError) as exc:
        raise _InputError(str(exc)) from exc
    return 0


def _cmd_export(args, stdin, stdout) -> int:
    graph = _merged_graph(args.source)
    out = _fs_path(args.out)
    _write_import_csv(graph, out)
    _write(os.path.join(out, "graph.dot"), export_dot(graph).encode("utf-8"))
    print(f"wrote nodes.csv, relationships.csv, graph.dot -> {out}", file=stdout)
    return 0


# The grammar of every subcommand, in the order help lists them: the
# function that runs it, its help, its positionals as (name, help) and its
# options as flag: (help, choices, default, required). It is the only
# description of the command line: _parse_exact reads it, and
# _build_parser makes argparse's parser of it.
_COMMANDS = {
    "ingest": (_cmd_ingest, "build the vulnerability knowledge graph", (), {
        "--cwe": ("weakness catalog CSV", None, None, True),
        "--cve": ("vulnerability catalog CSV", None, None, True),
        "--out": ("output directory for CSV export", None, ".", False),
    }),
    "extract": (_cmd_extract, "print the call-graph node table for a C file", (
        ("source", "C source file"),
    ), {}),
    "scan": (_cmd_scan, "scan a C file for weaknesses", (("source", "C source file"),), {
        "--catalog": ("weakness catalog CSV (default: bundled)", None, None, False),
        "--format": (None, ("table", "json"), "table", False),
    }),
    "query": (_cmd_query, "run a query over the merged graph of a C file", (
        ("source", "C source file"),
    ), {
        "--query-file": ("query text file (default: stdin)", None, None, False),
        "--catalog": ("weakness catalog CSV (default: bundled)", None, None, False),
    }),
    "export": (_cmd_export, "export a C file's call graph", (("source", "C source file"),), {
        "--out": ("output directory", None, None, True),
    }),
}


def _parse_exact(argv):
    """What parse_args makes of argv, when argv is the subcommand, then
    exactly its positionals and each option spelled in full at most once,
    with a value that does not start with "-" and is one of its choices;
    otherwise None. Help, version, abbreviations, "--" and every usage
    error are left to argparse, and so is anything else it might read
    differently."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    run, _, positionals, options = _COMMANDS[argv[0]]
    operands, given = [], {}
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            operands.append(token)
            continue
        flag, equals, value = token.partition("=")
        if not equals:
            value = next(tokens, "-")  # a flag with no value is left to argparse
        option = options.get(flag)
        if option is None or flag in given or value.startswith("-"):
            return None
        if option[1] is not None and value not in option[1]:
            return None
        given[flag] = value
    if len(operands) != len(positionals):
        return None
    args = SimpleNamespace(subcommand=argv[0], run=run)
    for (name, _), operand in zip(positionals, operands):
        setattr(args, name, operand)
    for flag, (_, _, default, required) in options.items():
        if required and flag not in given:
            return None
        setattr(args, flag[2:].replace("-", "_"), given.get(flag, default))
    return args


# Built once per process, and only for an argv _parse_exact leaves to it,
# so a command spelled in full never imports argparse. parse_args returns
# a fresh Namespace and keeps no state in the parser, and help and usage
# read the terminal width when they are formatted.
@functools.cache
def _build_parser():
    import argparse

    class _ArgumentParser(argparse.ArgumentParser):
        def error(self, message):
            raise _UsageError(f"{self.format_usage()}{self.prog}: error: {message}")

        def print_help(self, file=None):
            raise _Exit(self.format_help())

    class _VersionAction(argparse.Action):
        def __call__(self, parser, namespace, values, option_string=None):
            raise _Exit(f"pkgraph {__version__}\n")

    parser = _ArgumentParser(prog="pkgraph", description=__doc__.splitlines()[0])
    parser.add_argument(
        "--version", action=_VersionAction, nargs=0, default=argparse.SUPPRESS,
        help="show program's version number and exit",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (run, text, positionals, options) in _COMMANDS.items():
        command = sub.add_parser(name, help=text)
        for positional, text in positionals:
            command.add_argument(positional, help=text)
        for flag, (text, choices, default, required) in options.items():
            command.add_argument(
                flag, help=text, choices=choices, default=default, required=required
            )
        command.set_defaults(run=run)
    return parser


def run_cli(argv, stdin=None, stdout=None, stderr=None) -> int:
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    try:
        args = _parse_exact(argv) or _build_parser().parse_args(argv)
    except _UsageError as exc:
        print(str(exc), file=stderr)
        return 2
    except _Exit as exc:
        stdout.write(str(exc))
        return 0
    try:
        return args.run(args, stdin, stdout)
    except (
        ParseError, CsvError, ExportError, OSError, UnicodeDecodeError, _InputError,
    ) as exc:
        print(f"pkgraph: error: {exc}", file=stderr)
        return 3


def main() -> None:
    # Output is UTF-8 whatever the locale. Arguments decode with
    # surrogateescape, so a path written back is written as it was typed;
    # stderr keeps its backslashreplace, as under a UTF-8 locale.
    sys.stdout.reconfigure(encoding="utf-8", errors="surrogateescape")
    sys.stderr.reconfigure(encoding="utf-8", errors="backslashreplace")
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
