import gc
import io
import json
import subprocess
import sys
import tempfile
from importlib import resources
from pathlib import Path, PurePosixPath

import pytest
from hypothesis import given, settings, strategies as st

from conftest import catalog_entry, merged_graph_of
from test_cparse import c_texts
from test_graph import counted_indexes
import pkgraph
import pkgraph.cypher.parser
from pkgraph.cli import _fs_path, _merged_graph, run_cli
from pkgraph.cypher.eval import execute_query, format_result_table
from pkgraph.cypher.parser import parse_query
from pkgraph.detectors import Catalog, generate_detection_query
from pkgraph.vulndata import parse_cwe_csv

DATA = resources.files("pkgraph") / "data"
CORPUS = DATA / "corpus"

TABLE3_PATH1 = (
    '(:CallGraph {ExecOrder: 1, Name: "foo"})'
    '-[:CALLS]->(:CallGraph {Argument1: "ptr", ExecOrder: 6, Name: "free"})'
)
TABLE3_PATH2 = (
    '(:CallGraph {ExecOrder: 1, Name: "foo"})'
    '-[:CALLS]->(:CallGraph {Argument1: "ptr", ExecOrder: 7, Name: "free"})'
)


def cli(*argv, stdin_text=""):
    stdout, stderr = io.StringIO(), io.StringIO()
    code = run_cli(list(argv), stdin=io.StringIO(stdin_text), stdout=stdout, stderr=stderr)
    return code, stdout.getvalue(), stderr.getvalue()


@pytest.fixture
def double_free_file(tmp_path):
    target = tmp_path / "double_free.c"
    target.write_text((CORPUS / "cwe415_double_free.c").read_text())
    return str(target)


def reindented(report):
    """A JSON report as json.dumps(indent=2) writes it."""
    return json.dumps(json.loads(report), indent=2, ensure_ascii=False) + "\n"


# Sources written for a test, by name; other names are bundled samples.
WRITTEN_SOURCES = {
    "diamond10.c": (
        "void main() { d1(); d1(); }\n"
        + "".join(f"void d{i}() {{ d{i + 1}(); d{i + 1}(); }}\n" for i in range(1, 10))
        + "void d10() { gets(buf); }\n"
    ).encode(),
    "latin1.c": b"void f() { /* \xe9 */ }",
}


def scan_source(tmp_path, name):
    """The path of the source named, written under tmp_path if it is not bundled."""
    if name not in WRITTEN_SOURCES:
        return str(DATA / name)
    path = tmp_path / name
    path.write_bytes(WRITTEN_SOURCES[name])
    return str(path)


class TestScan:
    def test_table_format_and_exit_code(self, double_free_file):
        code, out, _ = cli("scan", double_free_file, "--format", "table")
        assert code == 1
        assert f"  {TABLE3_PATH1}" in out.splitlines()
        assert f"  {TABLE3_PATH2}" in out.splitlines()
        assert "CWE-401: not detectable" in out

    def test_json_format(self, double_free_file):
        code, out, _ = cli("scan", double_free_file, "--format", "json")
        assert code == 1
        doc = json.loads(out)
        assert {f["cwe_id"] for f in doc["findings"]} == {"CWE-242", "CWE-415", "CWE-1341"}

    def test_clean_file_exits_zero(self, tmp_path):
        clean = tmp_path / "clean.c"
        clean.write_text("void main() { puts(\"ok\"); }\n")
        code, out, _ = cli("scan", str(clean))
        assert code == 0

    @pytest.mark.parametrize("name, code", [
        ("corpus/cwe242_gets.c", 1),
        ("corpus/cwe415_double_free_interproc.c", 1),
        ("corpus/cwe401_malloc_leak.c", 0),
        ("clean/fgets_input.c", 0),
        ("diamond10.c", 1),
        ("latin1.c", 3),
    ])
    def test_exit_code_and_json_report(self, tmp_path, name, code):
        """Both formats exit with the source's code, and a JSON report is
        written as json.dumps(indent=2) writes it."""
        source = scan_source(tmp_path, name)
        assert cli("scan", source)[0] == code
        got, out, _ = cli("scan", source, "--format", "json")
        assert got == code
        if code < 2:
            assert out == reindented(out)

    def test_json_idempotent(self, double_free_file):
        first = cli("scan", double_free_file, "--format", "json")
        second = cli("scan", double_free_file, "--format", "json")
        assert first == second

    def test_custom_catalog(self, tmp_path, double_free_file):
        catalog = tmp_path / "catalog.csv"
        catalog.write_text("cwe_id,name,description,function_events\nCWE-415,Double free,d,free\n")
        code, out, _ = cli("scan", double_free_file, "--catalog", str(catalog))
        assert code == 1
        assert "CWE-242" not in out

    def test_long_call_chain(self, tmp_path):
        chain = tmp_path / "chain.c"
        chain.write_text(
            "".join(f"void f{i}() {{ f{i + 1}(); }}\n" for i in range(599))
            + "void f599() { char buf[8]; gets(buf); }\n"
        )
        code, out, _ = cli("scan", str(chain), "--format", "json")
        assert code == 1
        (finding,) = json.loads(out)["findings"]
        assert finding["cwe_id"] == "CWE-242"

    def test_deep_nesting(self, tmp_path):
        nested = tmp_path / "nested.c"
        nested.write_text("void main() { " + "atoi(" * 1000 + "s" + ")" * 1000 + "; }\n")
        code, out, _ = cli("scan", str(nested), "--format", "json")
        assert code == 1
        findings = json.loads(out)["findings"]
        assert len(findings) == 1000
        assert {f["cwe_id"] for f in findings} == {"CWE-242"}

    def test_a_recursive_signal_handler_is_reported(self, tmp_path, caplog):
        """A handler that calls itself has a caller, so no root reaches it;
        it is resolved all the same, and its calls that reach syslog are
        reported, with no warning."""
        source = tmp_path / "handler.c"
        source.write_text(
            'void handler(int sig){ if (sig) handler(0); syslog(1, "x"); }\n'
            "int main(void){ signal(2, handler); return 0; }\n"
        )
        handler = '(:CallGraph {ExecOrder: 1, Name: "handler"})'
        syslog = '(:CallGraph {Argument1: "1", Argument2: "x", ExecOrder: 3, Name: "syslog"})'
        self_call = '(:CallGraph {Argument1: "0", ExecOrder: 2, Name: "handler"})'
        with caplog.at_level("WARNING"):
            code, out, err = cli("scan", str(source))
        assert (code, err, caplog.records) == (1, "", [])
        assert out == (
            "CWE-479 (Signal handler use of a non-reentrant function):"
            " signal handler 'handler' calls a non-reentrant function\n"
            f"  {handler}-[:CALLS]->{self_call}-[:CALLS]->{handler}-[:CALLS]->{syslog}\n"
            f"  {handler}-[:CALLS]->{syslog}\n"
            "CWE-401: not detectable (call graph lacks data-flow;"
            " malloc's Argument1 is a size, not the released handle)\n"
        )

    def test_parse_error_exits_three(self, tmp_path):
        bad = tmp_path / "bad.c"
        bad.write_text("void f() {")
        code, _, err = cli("scan", str(bad))
        assert code == 3
        assert "error" in err

    @pytest.mark.parametrize("call", ["f(a,)", "f(,b)", "f(a,,b)"])
    def test_empty_argument_exits_three(self, tmp_path, call):
        bad = tmp_path / "bad.c"
        bad.write_text(f"void main() {{ {call}; }}\n")
        code, out, err = cli("scan", str(bad))
        assert code == 3
        assert out == ""
        assert err.startswith("pkgraph: error: 1:")
        assert err.endswith(": empty argument\n")
        assert len(err.splitlines()) == 1


class TestExtract:
    def test_node_table(self, double_free_file):
        code, out, _ = cli("extract", double_free_file)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "ExecOrder | Name | Argument1"
        assert lines[1] == "1 | foo |"
        assert lines[2] == "2 | printf | Please enter your name:\\n"
        assert lines[7] == "7 | free | ptr"

    def test_empty_file(self, tmp_path):
        empty = tmp_path / "empty.c"
        empty.write_text("")
        code, out, _ = cli("extract", str(empty))
        assert code == 0
        assert out == "ExecOrder | Name | Argument1\n"


class TestQuery:
    def test_query_file_matches_scan_paths(self, tmp_path, double_free_file):
        query_file = tmp_path / "q.cql"
        query_file.write_text(generate_detection_query(catalog_entry("CWE-415"), "foo"))
        code, out, _ = cli("query", double_free_file, "--query-file", str(query_file))
        assert code == 0
        assert out.splitlines() == ["path", TABLE3_PATH1, TABLE3_PATH2]

    def test_query_from_stdin(self, double_free_file):
        code, out, _ = cli(
            "query", double_free_file, stdin_text='MATCH (n:CallGraph {Name: "gets"}) RETURN n.ExecOrder AS o'
        )
        assert code == 0
        assert out.splitlines() == ["o", "3"]

    def test_syntax_error_exits_three(self, double_free_file):
        code, _, err = cli("query", double_free_file, stdin_text="MATCH (n RETURN n")
        assert code == 3

    def test_unbound_filter_variable_exits_three(self, double_free_file):
        code, out, err = cli(
            "query", double_free_file, stdin_text="MATCH (n:CallGraph {Name: y.z}) RETURN n"
        )
        assert code == 3
        assert out == ""
        assert "unbound variable" in err

    @pytest.mark.parametrize(
        "text, message",
        [
            (
                "MATCH (a:CallGraph) WITH a.Name AS x MATCH (b)-[]->(x) RETURN b",
                "pattern variable 'x' is not bound to a node",
            ),
            ("MATCH p=(p)-[]->(b) RETURN p", "path variable 'p' is already bound"),
        ],
    )
    def test_binding_errors_exit_three(self, double_free_file, text, message):
        code, out, err = cli("query", double_free_file, stdin_text=text)
        assert (code, out, err) == (3, "", f"pkgraph: error: {message}\n")

    def test_unknown_label_never_reads_the_filter(self, double_free_file):
        code, out, _ = cli("query", double_free_file, stdin_text="MATCH (n:Nope {Name: y.z}) RETURN n")
        assert code == 0
        assert out == "n\n"


class TestIngestAndExport:
    def test_ingest_writes_csv(self, tmp_path):
        cwe = tmp_path / "cwe.csv"
        cwe.write_text("cwe_id,name,description,function_events\nCWE-415,Double free,d,free\n")
        cve = tmp_path / "cve.csv"
        cve.write_text(
            "cve_id,description,cwe_id,cvss2_score,product,affected_versions\n"
            "CVE-2020-0001,d,CWE-415,7.5,Lib,1.0;1.1\n"
        )
        out_dir = tmp_path / "out"
        code, out, _ = cli("ingest", "--cwe", str(cwe), "--cve", str(cve), "--out", str(out_dir))
        assert code == 0
        nodes = (out_dir / "nodes.csv").read_text().splitlines()
        assert len(nodes) == 6  # header + 5 nodes
        rels = (out_dir / "relationships.csv").read_text().splitlines()
        assert len(rels) == 5  # header + 4 edges

    def test_ingest_quotes_a_carriage_return(self, tmp_path):
        """A cell holding a lone carriage return is quoted, so nodes.csv
        reads back, and its bytes are the same on every Python."""
        cwe = tmp_path / "cwe.csv"
        cwe.write_bytes(b'cwe_id,name,description,function_events\nCWE-242,Bad,"one\rtwo",gets\n')
        cve = tmp_path / "cve.csv"
        cve.write_bytes(
            b"cve_id,description,cwe_id,cvss2_score,product,affected_versions\n"
            b'CVE-2020-0001,"d\rx",CWE-242,7.5,Lib,1.0;1.1\n'
        )
        out_dir = tmp_path / "out"
        code, _, _ = cli("ingest", "--cwe", str(cwe), "--cve", str(cve), "--out", str(out_dir))
        assert code == 0
        assert (out_dir / "nodes.csv").read_bytes() == (
            b"id:ID,:LABEL,CVE-ID,CVSS2:float,CWE-ID,Description,Function Events:string[],Name,Version\n"
            b'1,CWE,,,CWE-242,"one\rtwo",gets,Bad,\n'
            b'2,CVE,CVE-2020-0001,,,"d\rx",,,\n'
            b"3,Score,,7.5,,,,,\n"
            b"4,Product,,,,,,Lib,1.0\n"
            b"5,Product,,,,,,Lib,1.1\n"
        )
        assert (out_dir / "relationships.csv").read_bytes() == (
            b":START_ID,:END_ID,:TYPE\n1,2,HAS_CVE\n2,3,SCORED\n2,4,AFFECTS\n2,5,AFFECTS\n"
        )

    def test_export_writes_three_files(self, tmp_path, double_free_file):
        out_dir = tmp_path / "exported"
        code, _, _ = cli("export", double_free_file, "--out", str(out_dir))
        assert code == 0
        assert (out_dir / "nodes.csv").exists()
        assert (out_dir / "relationships.csv").exists()
        assert "digraph G {" in (out_dir / "graph.dot").read_text()

    @given(st.text(st.sampled_from("/.ab"), max_size=8))
    def test_paths_are_spelled_as_pathlib_spells_them(self, text):
        assert _fs_path(text) == str(PurePosixPath(text))

    def test_paths_open_and_show_as_pathlib_spells_them(self, tmp_path, double_free_file):
        assert cli("scan", double_free_file + "/")[0] == 1
        code, out, err = cli("scan", f"{tmp_path}/.//missing.c/")
        assert (code, out) == (3, "")
        assert err == f"pkgraph: error: [Errno 2] No such file or directory: '{tmp_path}/missing.c'\n"
        code, out, _ = cli("export", double_free_file, "--out", f"{tmp_path}/./exported/")
        assert code == 0
        assert out == f"wrote nodes.csv, relationships.csv, graph.dot -> {tmp_path}/exported\n"

    def test_ingest_csv_error_exits_three(self, tmp_path):
        cwe = tmp_path / "cwe.csv"
        cwe.write_text("cwe_id,name,description,function_events\nBAD,n,d,free\n")
        cve = tmp_path / "cve.csv"
        cve.write_text("cve_id,description,cwe_id,cvss2_score,product,affected_versions\n")
        code, _, err = cli("ingest", "--cwe", str(cwe), "--cve", str(cve))
        assert code == 3

    @pytest.mark.parametrize(
        "cwe_row, cve_row, message",
        [
            ('"CWE-415\n",n,d,free\n', "", "line 2: malformed cwe_id 'CWE-415\\n'"),
            ("CWE-415,n,d,free\n", '"CVE-2020-0001\n",d,CWE-415,7.5,P,1.0\n',
             "line 2: malformed cve_id 'CVE-2020-0001\\n'"),
        ],
        ids=["cwe", "cve"],
    )
    def test_id_with_a_trailing_newline_exits_three(self, tmp_path, cwe_row, cve_row, message):
        cwe = tmp_path / "cwe.csv"
        cwe.write_text("cwe_id,name,description,function_events\n" + cwe_row)
        cve = tmp_path / "cve.csv"
        cve.write_text("cve_id,description,cwe_id,cvss2_score,product,affected_versions\n" + cve_row)
        out_dir = tmp_path / "out"
        code, _, err = cli("ingest", "--cwe", str(cwe), "--cve", str(cve), "--out", str(out_dir))
        assert (code, err) == (3, f"pkgraph: error: {message}\n")
        assert not out_dir.exists()
        if not cve_row:
            code, _, err = cli("scan", str(CORPUS / "cwe242_gets.c"), "--catalog", str(cwe))
            assert (code, err) == (3, f"pkgraph: error: {message}\n")

    @pytest.mark.parametrize("cell", ["0_5", "\uff17.5", "-0.0"])
    def test_score_that_float_reads_but_no_cvss_score_has_exits_three(self, tmp_path, cell):
        cwe = tmp_path / "cwe.csv"
        cwe.write_text("cwe_id,name,description,function_events\nCWE-415,n,d,free\n")
        cve = tmp_path / "cve.csv"
        cve.write_text(
            "cve_id,description,cwe_id,cvss2_score,product,affected_versions\n"
            f"CVE-2020-0001,d,CWE-415,{cell},P,1.0\n",
            encoding="utf-8",
        )
        out_dir = tmp_path / "out"
        code, _, err = cli("ingest", "--cwe", str(cwe), "--cve", str(cve), "--out", str(out_dir))
        assert (code, err) == (3, f"pkgraph: error: line 2: non-numeric cvss2_score {cell!r}\n")
        assert not out_dir.exists()


class TestUsage:
    def test_unknown_subcommand(self):
        code, _, err = cli("frobnicate")
        assert code == 2
        assert err

    def test_missing_required_flag(self):
        code, _, err = cli("ingest", "--cwe", "only.csv")
        assert code == 2

    def test_missing_input_file(self):
        code, _, err = cli("scan", "no-such-file.c")
        assert code == 3

    def test_catalog_read_before_source(self):
        code, _, err = cli("scan", "no-such-file.c", "--catalog", "no-such-catalog.csv")
        assert code == 3
        assert "no-such-catalog.csv" in err

    @pytest.mark.parametrize("argv, head", [
        (["--version"], f"pkgraph {pkgraph.__version__}\n"),
        (["-h"], "usage: pkgraph [-h] [--version]"),
        (["scan", "-h"], "usage: pkgraph scan [-h]"),
        (["query", "--help"], "usage: pkgraph query [-h]"),
    ], ids=["--version", "-h", "scan -h", "query --help"])
    def test_help_and_version_return_zero_through_the_given_stdout(self, argv, head):
        code, out, err = cli(*argv)
        assert (code, err) == (0, "")
        assert out.startswith(head) and out.endswith("\n")

    def test_a_usage_error_is_the_usage_then_one_error_line(self, monkeypatch):
        """As argparse writes it: the usage line, then the error, and no
        empty line after."""
        monkeypatch.setenv("COLUMNS", "200")
        assert cli("frobnicate") == (
            2,
            "",
            "usage: pkgraph [-h] [--version] {ingest,extract,scan,query,export} ...\n"
            "pkgraph: error: argument subcommand: invalid choice: 'frobnicate'"
            " (choose from 'ingest', 'extract', 'scan', 'query', 'export')\n",
        )


SRC = Path(pkgraph.__file__).parent.parent

# Runs pkgraph commands in a fresh interpreter, started with the given
# flags, and prints, as JSON, the modules loaded before pkgraph and, for
# each command, its exit code and the modules loaded since. The baseline
# is taken after importing the standard-library modules pkgraph imports,
# so that what they load by themselves on some Python version is not
# counted against pkgraph.
_FRESH_RUN = """
import io, json, sys
sys.path.insert(0, sys.argv[1])
import argparse, bisect, csv, itertools, operator, re
baseline = set(sys.modules)
from pkgraph.cli import run_cli
report = []
for argv in json.loads(sys.argv[2]):
    out = io.StringIO()
    code = run_cli(argv, stdin=io.StringIO(), stdout=out, stderr=out)
    report.append([code, sorted(set(sys.modules) - baseline)])
print(json.dumps([sorted(baseline), report]))
"""


def fresh_run(*commands, flags=("-I",)):
    """(baseline modules, [exit code, new modules] per command)."""
    proc = subprocess.run(
        [sys.executable, *flags, "-c", _FRESH_RUN, str(SRC), json.dumps(commands)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def one_shot_commands(tmp_path):
    cve = tmp_path / "cve.csv"
    cve.write_text(
        "cve_id,description,cwe_id,cvss2_score,product,affected_versions\n"
        "CVE-2020-0001,d,CWE-415,7.5,Lib,1.0;1.1\n"
    )
    source = str(CORPUS / "cwe415_double_free.c")
    return [
        ["scan", source, "--format", "json"],
        ["scan", source],
        ["extract", source],
        ["export", source, "--out", str(tmp_path / "export")],
        ["ingest", "--cwe", str(DATA / "cwe-catalog.csv"), "--cve", str(cve),
         "--out", str(tmp_path / "ingest")],
    ]


def not_needed_by_a_scan(modules):
    return [
        m for m in modules
        if m in ("dataclasses", "logging") or m.startswith(("logging.", "pkgraph.cypher"))
    ]


class TestStartUp:
    """A one-shot command imports only the code it runs."""

    def test_one_shot_commands_load_no_query_engine(self, tmp_path):
        _, report = fresh_run(*one_shot_commands(tmp_path))
        assert [code for code, _ in report] == [1, 1, 0, 0, 0]
        modules = report[-1][1]
        assert "pkgraph.cli" in modules
        assert not_needed_by_a_scan(modules) == []

    def test_one_shot_commands_load_no_typing_or_resources(self, tmp_path):
        """Without site, which may load them first, the interpreter starts
        without typing, importlib.resources or pathlib, and no one-shot
        command loads any of them."""
        unwanted = ("typing", "importlib.resources", "pathlib")
        baseline, report = fresh_run(*one_shot_commands(tmp_path), flags=("-I", "-S"))
        assert [m for m in baseline if m.startswith(unwanted)] == []
        assert [code for code, _ in report] == [1, 1, 0, 0, 0]
        modules = report[-1][1]
        assert "pkgraph.cli" in modules
        assert [m for m in modules if m.startswith(unwanted)] == []

    def test_query_loads_the_query_engine(self, tmp_path):
        query = tmp_path / "q.cypher"
        query.write_text('MATCH (n:CallGraph {Name: "free"}) RETURN n.Name')
        source = str(CORPUS / "cwe415_double_free.c")
        _, ((scan_code, before), (code, after)) = fresh_run(
            ["scan", source], ["query", source, "--query-file", str(query)]
        )
        assert (scan_code, code) == (1, 0)
        assert "pkgraph.cypher" not in before
        assert {"pkgraph.cypher", "pkgraph.cypher.parser", "pkgraph.cypher.eval"} <= set(after)

    def test_query_names_load_on_first_access(self):
        code = (
            "import json, sys\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "import pkgraph\n"
            "before = 'pkgraph.cypher' in sys.modules\n"
            "names = {n: getattr(pkgraph, n).__module__ for n in sorted(pkgraph._QUERY_NAMES)}\n"
            "print(json.dumps([before, names]))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-I", "-c", code, str(SRC)], capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [False, {
            "QuerySyntaxError": "pkgraph.cypher.parser",
            "execute_query": "pkgraph.cypher.eval",
            "format_result_table": "pkgraph.cypher.eval",
            "parse_query": "pkgraph.cypher.parser",
        }]

    def test_package_names(self):
        from pkgraph.cypher import eval as query_eval

        assert pkgraph.parse_query is pkgraph.cypher.parser.parse_query
        assert pkgraph.QuerySyntaxError is pkgraph.cypher.parser.QuerySyntaxError
        assert pkgraph.execute_query is query_eval.execute_query
        assert pkgraph.format_result_table is query_eval.format_result_table
        namespace = {}
        exec("from pkgraph import *", namespace)
        assert set(pkgraph.__all__) <= set(namespace)
        assert all(namespace[name] is getattr(pkgraph, name) for name in pkgraph.__all__)
        assert set(pkgraph.__all__) <= set(dir(pkgraph))
        with pytest.raises(AttributeError, match="no_such_name"):
            pkgraph.no_such_name
        with pytest.raises(ImportError):
            exec("from pkgraph import no_such_name", {})

    def test_query_looks_the_engine_up_when_it_runs(self, monkeypatch, double_free_file):
        """A wrapper put on the parser module after import is the one the
        query command calls, as the benchmark's tracer relies on."""
        calls = []
        original = pkgraph.cypher.parser.parse_query

        def counted(text):
            calls.append(text)
            return original(text)

        monkeypatch.setattr(pkgraph.cypher.parser, "parse_query", counted)
        code, out, _ = cli("query", double_free_file, stdin_text="MATCH (n) RETURN COUNT(n)")
        assert code == 0 and len(calls) == 1


# Runs each [columns, argv, files] through run_cli in one fresh
# interpreter, with COLUMNS set to columns for that call and each path in
# the optional files dict rewritten in place with its text before it. It
# prints as JSON each call's exit code, stdout and stderr, the prog of
# every argument parser constructed, and whether the catalog records the
# process kept equal a fresh parse of the kept bytes.
_SEQUENCE_RUN = """
import io, json, os, sys
sys.path.insert(0, sys.argv[1])
from pkgraph import cli
from pkgraph.vulndata import parse_cwe_csv
built = []
init = cli._ArgumentParser.__init__
def counted_init(self, *args, **kwargs):
    init(self, *args, **kwargs)
    built.append(self.prog)
cli._ArgumentParser.__init__ = counted_init
results = []
for columns, argv, *files in json.loads(sys.argv[2]):
    for path, text in (files[0] if files else {}).items():
        with open(path, "w", encoding="utf-8") as file:
            file.write(text)
    os.environ["COLUMNS"] = str(columns)
    out, err = io.StringIO(), io.StringIO()
    code = cli.run_cli(argv, stdin=io.StringIO(), stdout=out, stderr=err)
    results.append([code, out.getvalue(), err.getvalue()])
data, records = cli._kept_catalog
kept_as_parsed = data is None or list(records) == parse_cwe_csv(data)
print(json.dumps([results, built, kept_as_parsed]))
"""


def sequence_run(*commands):
    """([exit code, stdout, stderr] per command, progs of the parsers built,
    whether the kept catalog records equal a fresh parse of their bytes)."""
    proc = subprocess.run(
        [sys.executable, "-I", "-c", _SEQUENCE_RUN, str(SRC), json.dumps(commands)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def first_call_answers(monkeypatch, commands):
    """[exit code, stdout, stderr] per command of sequence_run's list, each
    as the first call of a fresh process answers it (fresh_cli), with
    COLUMNS set and the files written as sequence_run does."""
    answers = []
    for columns, argv, *files in commands:
        for path, text in (files[0] if files else {}).items():
            Path(path).write_text(text, encoding="utf-8")
        monkeypatch.setenv("COLUMNS", str(columns))
        answers.append(list(fresh_cli(*argv)))
    return answers


class TestParserReuse:
    """run_cli builds its parser once per process, and a reused parser
    answers every argv as a freshly built one does."""

    def test_each_call_answers_as_the_first_call_of_a_fresh_process(self, tmp_path, monkeypatch):
        query = tmp_path / "q.cypher"
        query.write_text('MATCH (n:CallGraph {Name: "free"}) RETURN n.Name')
        source = str(CORPUS / "cwe415_double_free.c")
        argvs = [
            *one_shot_commands(tmp_path),
            ["query", source, "--query-file", str(query)],
            ["frobnicate"],
            ["ingest", "--cve", "cve.csv"],
            ["scan", source, "--format", "xml"],
            ["scan", "-h"],
            ["--version"],
            ["scan", source, "--format", "json"],
        ]
        # Help and a usage error again at another width, which a parser
        # built at the first width must follow.
        again = [["scan", "-h"], ["frobnicate"]]
        commands = [[80, argv] for argv in argvs] + [[50, argv] for argv in again]
        results, built, _ = sequence_run(*commands)
        assert [code for code, _, _ in results] == [1, 1, 0, 0, 0, 0, 2, 2, 2, 0, 0, 1, 0, 2]
        for argv, narrow in zip(again, results[len(argvs):]):
            assert narrow != results[argvs.index(argv)]
        assert built == [
            "pkgraph", "pkgraph ingest", "pkgraph extract", "pkgraph scan", "pkgraph query",
            "pkgraph export",
        ]
        assert results == first_call_answers(monkeypatch, commands)


CWE_HEADER = b"cwe_id,name,description,function_events\n"
GETS_SRC = b"void main() { char b[8]; gets(b); }\n"
BOM = b"\xef\xbb\xbf"


class TestCatalogReuse:
    """run_cli parses a catalog once per process and again only when its
    bytes change, and a kept catalog answers as a freshly parsed one."""

    def test_each_call_answers_as_the_first_call_of_a_fresh_process(self, tmp_path, monkeypatch):
        catalog, bad = str(tmp_path / "a.csv"), tmp_path / "bad.csv"
        first = CWE_HEADER.decode() + "CWE-415,Double free,d,free\nCWE-676,Risky,d,printf\n"
        second = first + "CWE-9999,Custom,d,gets\n"
        bad.write_text(first + "CWE-x,n,d,gets\n")
        query = tmp_path / "q.cypher"
        query.write_text("MATCH (c:CWE) RETURN c.`CWE-ID`, c.Name")
        cve = tmp_path / "cve.csv"
        cve.write_text(
            "cve_id,description,cwe_id,cvss2_score,product,affected_versions\n"
            "CVE-2020-0001,d,CWE-9999,7.5,Lib,1.0\n"
        )
        source = str(CORPUS / "cwe242_gets.c")
        scan = ["scan", source, "--format", "json"]
        query_a = ["query", source, "--query-file", str(query), "--catalog", catalog]
        steps = [
            (first, scan),
            (first, [*scan, "--catalog", catalog]),
            (first, query_a),
            (second, [*scan, "--catalog", catalog]),
            (second, query_a),
            (second, ["scan", source, "--catalog", str(bad)]),
            (second, ["scan", source, "--catalog", str(bad)]),
            (second, ["ingest", "--cwe", catalog, "--cve", str(cve), "--out", str(tmp_path)]),
        ]
        # The catalog is written before every call, so a fresh process
        # sees it as the sequence saw it; equal bytes leave the file as it was.
        commands = [[80, argv, {catalog: text}] for text, argv in steps]
        results, _, kept_as_parsed = sequence_run(*commands)
        assert [code for code, _, _ in results] == [1, 1, 0, 1, 0, 3, 3, 0]
        assert "CWE-9999" in results[3][1] and "CWE-9999" not in results[1][1]
        assert "CWE-9999" in results[4][1] and "CWE-9999" not in results[2][1]
        message = "pkgraph: error: line 4: malformed cwe_id 'CWE-x'\n"
        assert results[5][2] == results[6][2] == message
        assert "(0 orphan CVEs)" in results[7][1]  # CVE-2020-0001 found CWE-9999
        assert kept_as_parsed
        assert results == first_call_answers(monkeypatch, commands)


class TestByteOrderMark:
    """A catalog may start with a UTF-8 byte-order mark, as spreadsheets'
    "CSV UTF-8" exports write, and then answers as without it."""

    def test_catalog(self, tmp_path):
        catalog = tmp_path / "catalog.csv"
        catalog.write_bytes(BOM + (DATA / "cwe-catalog.csv").read_bytes())
        source = str(CORPUS / "cwe242_gets.c")
        query = "MATCH (c:CWE) RETURN c.`CWE-ID`"
        for argv in (["scan", source, "--format", "json"], ["query", source]):
            want = cli(*argv, stdin_text=query)
            assert want[0] in (0, 1)
            assert cli(*argv, "--catalog", str(catalog), stdin_text=query) == want


class TestCatalogFiles:
    """A scan and a query exit 3 with one error line on a malformed or
    missing catalog, and as with the bundled one on a byte-order-marked copy."""

    @pytest.mark.parametrize("catalog, codes", [
        (CWE_HEADER + b"CWE-x,n,d,gets\n", [3, 3]),
        (None, [3, 3]),
        (BOM + (DATA / "cwe-catalog.csv").read_bytes(), [1, 0]),
    ], ids=["malformed", "missing", "bom"])
    def test_exit_codes(self, tmp_path, catalog, codes):
        path = tmp_path / "catalog.csv"
        if catalog is not None:
            path.write_bytes(catalog)
        query = tmp_path / "count.cypher"
        query.write_text("MATCH (c:CWE) RETURN COUNT(c)\n")
        source = str(CORPUS / "cwe242_gets.c")
        for argv, want in zip([["scan", source], ["query", source, "--query-file", str(query)]], codes):
            code, _, err = cli(*argv, "--catalog", str(path))
            assert code == want
            if code == 3:
                assert err.startswith("pkgraph: error: ") and err.count("\n") == 1


DETECTION_415 = generate_detection_query(catalog_entry("CWE-415"), "foo")


def catalog_with_uncalled_rows(tmp_path, rows):
    """The bundled catalog plus rows whose events no sample calls, with
    ids outside every detector family."""
    path = tmp_path / f"uncalled{rows}.csv"
    extra = "".join(
        f"CWE-{20000 + i},Generated {i},d,legacy_api_{i};legacy_api_{rows + i}\n"
        for i in range(rows)
    )
    path.write_bytes((DATA / "cwe-catalog.csv").read_bytes() + extra.encode())
    return str(path)


SAMPLES = sorted(
    str(sample) for folder in ("corpus", "clean") for sample in (DATA / folder).iterdir()
)
UNRESOLVED_HANDLER = "void main() { signal(2, missing_handler); }\n"


def write_templates(folder):
    """{cwe id: path} of the CWE-242 and CWE-415 detection templates from
    main, written under folder."""
    paths = {}
    for cwe_id in ("CWE-242", "CWE-415"):
        path = folder / f"{cwe_id}.cypher"
        path.write_text(generate_detection_query(catalog_entry(cwe_id), "main"))
        paths[cwe_id] = str(path)
    return paths


class TestScanCostsWhatTheProgramCalls:
    """A scan reads the catalog's records but builds no CWE nodes, and
    runs only the rows that a name the program calls triggers."""

    def test_uncalled_rows_change_no_output(self, tmp_path):
        catalog = catalog_with_uncalled_rows(tmp_path, 300)
        assert len(SAMPLES) == 23
        for extra in ([], ["--format", "json"]):
            bundled = [cli("scan", sample, *extra) for sample in SAMPLES]
            with_rows = [cli("scan", sample, *extra, "--catalog", catalog) for sample in SAMPLES]
            assert with_rows == bundled
            assert {code for code, _, _ in bundled} == {0, 1}

    def test_uncalled_rows_change_no_query_or_warning(self, tmp_path, caplog):
        """Scans and both detection templates answer with the same output,
        exit code and warnings, an unresolvable signal handler's included."""
        catalog = catalog_with_uncalled_rows(tmp_path, 300)
        unresolved = tmp_path / "unresolved.c"
        unresolved.write_text(UNRESOLVED_HANDLER)
        prefixes = ("cwe242_", "cwe415_", "cwe467_", "cwe479_", "cwe558_")
        sources = [s for s in SAMPLES if Path(s).name.startswith(prefixes)] + [str(unresolved)]
        templates = write_templates(tmp_path)

        def logged(*argv):
            caplog.clear()
            with caplog.at_level("WARNING"):
                result = cli(*argv)
            return result, [record.getMessage() for record in caplog.records]

        for source in sources:
            argvs = [["scan", source], ["scan", source, "--format", "json"]]
            argvs += [["query", source, "--query-file", path] for path in templates.values()]
            for argv in argvs:
                assert logged(*argv, "--catalog", catalog) == logged(*argv)
        assert logged("scan", str(unresolved))[1] == [
            "signal handler 'missing_handler' cannot be resolved to a function"
        ]

    def test_only_a_query_builds_cwe_nodes(self, monkeypatch, tmp_path):
        """Counted as the benchmark's tracer wraps it: in every pkgraph
        module that holds the name. A kept catalog builds its CWE nodes
        once, on its first query, and again only when its bytes change;
        an ingest builds its own graph and a scan builds none. Neither a
        query nor an ingest builds the map a scan walks."""
        calls = []
        original = pkgraph.vulndata.build_knowledge_graph

        def counted(cwes, cves, graph):
            calls.append((len(cwes), len(cves)))
            return original(cwes, cves, graph)

        holders = [
            module for name, module in list(sys.modules.items())
            if name.split(".")[0] == "pkgraph"
            and vars(module).get("build_knowledge_graph") is original
        ]
        assert {pkgraph.cli, pkgraph.detectors, pkgraph.vulndata} <= set(holders)
        for module in holders:
            monkeypatch.setattr(module, "build_knowledge_graph", counted)
        monkeypatch.setattr(pkgraph.cli, "_kept_catalog", (None, Catalog()))
        catalog = catalog_with_uncalled_rows(tmp_path, 40)
        source = str(CORPUS / "cwe242_gets.c")
        cve = tmp_path / "cve.csv"
        cve.write_text(
            ",".join(pkgraph.vulndata.CVE_COLUMNS) + "\nCVE-2020-0001,d,CWE-9999,7.5,Lib,1.0\n"
        )
        query = ["query", source, "--catalog", catalog]
        for _ in range(3):
            assert cli(*query, stdin_text="MATCH (n) RETURN n")[0] == 0
        assert calls == [(48, 0)]
        ingest = ["ingest", "--cwe", catalog, "--cve", str(cve), "--out", str(tmp_path)]
        assert cli(*ingest)[0] == 0
        assert calls == [(48, 0), (48, 1)]
        assert "rows_by_trigger" not in vars(pkgraph.cli._kept_catalog[1])
        for extra in (["--catalog", catalog], ["--catalog", catalog, "--format", "json"]):
            assert cli("scan", source, *extra)[0] == 1
        assert cli(*query, stdin_text="MATCH (n) RETURN n")[0] == 0
        assert cli("scan", source)[0] == 1
        assert calls == [(48, 0), (48, 1)]
        with open(catalog, "a") as file:
            file.write("CWE-20999,Appended,d,legacy_api_999\n")
        for _ in range(2):
            assert cli(*query, stdin_text="MATCH (n) RETURN n")[0] == 0
        assert calls == [(48, 0), (48, 1), (49, 0)]

    def test_an_ingest_reads_no_graph_index(self, monkeypatch, tmp_path):
        """An ingest's build and CSV export read only the graph's nodes
        and edges, so its graph builds none of its indexes; a scan's
        witness search builds each adjacency index once, and its
        call-graph build, on a graph without nodes, builds no label
        index."""
        built = counted_indexes(monkeypatch)
        cve = tmp_path / "cve.csv"
        cve.write_text(
            ",".join(pkgraph.vulndata.CVE_COLUMNS)
            + "\nCVE-2020-0001,d,CWE-415,7.5,Lib,1.0;1.1\nCVE-2020-0002,d,CWE-9999,5.0,Lib,1.0\n"
        )
        argv = ["ingest", "--cwe", str(DATA / "cwe-catalog.csv"), "--cve", str(cve)]
        assert cli(*argv, "--out", str(tmp_path / "out"))[0] == 0
        assert (tmp_path / "out" / "relationships.csv").read_text().count("\n") == 7
        assert built == []
        assert cli("scan", str(CORPUS / "cwe242_gets.c"))[0] == 1
        assert sorted(name for name, _ in built) == ["_incoming", "_outgoing"]

    def test_a_query_builds_one_label_index(self, monkeypatch):
        """A query's graph, a copy of the kept catalog's CWE graph, builds
        its label index once, after the call-graph batch: the call-graph
        build counts its CallGraph nodes in it and the query reads it."""
        source = str(CORPUS / "cwe415_double_free.c")
        query = generate_detection_query(catalog_entry("CWE-415"), "foo")
        assert cli("query", source, stdin_text=query)[0] == 0  # the kept catalog, built
        cwe_graph = pkgraph.cli._kept_catalog[1].cwe_graph
        built = counted_indexes(monkeypatch)
        code, out, _ = cli("query", source, stdin_text=query)
        assert (code, out.splitlines()) == (0, ["path", TABLE3_PATH1, TABLE3_PATH2])
        # derived() keys a value by its builder, so under the counting
        # builder the sealed CWE graph builds its own index once more.
        copies = [graph for name, graph in built if name == "_labels" and graph is not cwe_graph]
        assert [graph.node_count for graph in copies] == [15]

    def test_a_query_counts_every_cwe_node(self, tmp_path):
        catalog = catalog_with_uncalled_rows(tmp_path, 900)
        source = str(CORPUS / "cwe242_gets.c")
        query = "MATCH (c:CWE) RETURN COUNT(c)"
        assert cli("scan", source, "--catalog", catalog)[0] == 1
        code, out, _ = cli("query", source, "--catalog", catalog, stdin_text=query)
        assert (code, out.splitlines()[1:]) == (0, ["908"])


class TestKeptCweGraph:
    """A query's graph starts as a copy of the kept catalog's CWE graph,
    and answers as with a catalog parsed for that call alone."""

    def test_each_query_answers_as_with_a_fresh_catalog(self, monkeypatch, tmp_path):
        first = tmp_path / "first.csv"
        first.write_bytes(CWE_HEADER + b"CWE-415,Double free,d,free\nCWE-676,Risky,d,printf\n")
        second = catalog_with_uncalled_rows(tmp_path, 5)
        source = str(CORPUS / "cwe415_double_free.c")
        queries = [
            "MATCH (n) RETURN COLLECT(n)",
            DETECTION_415,
            'MATCH (c:CWE {`CWE-ID`: "CWE-415"}) RETURN c.Name, c.`Function Events`',
            "MATCH (c:CWE) RETURN COUNT(c)",
        ]
        monkeypatch.setattr(pkgraph.cli, "_kept_catalog", (None, Catalog()))
        outputs, graphs = [], []
        # Three calls with one catalog, three with the other, and so on;
        # the first catalog's file is rewritten between steps 6 and 7.
        for step in range(12):
            if step == 7:
                first.write_text(first.read_text() + "CWE-9999,Custom,d,free;gets\n")
            catalog = str(first) if step // 3 % 2 == 0 else second
            argv = ["query", source, "--catalog", catalog]
            text = queries[step % len(queries)]
            got = cli(*argv, stdin_text=text)
            kept = pkgraph.cli._kept_catalog
            pkgraph.cli._kept_catalog = (None, Catalog())
            assert cli(*argv, stdin_text=text) == got, (step, text)
            pkgraph.cli._kept_catalog = kept
            outputs.append(got)
            graphs.append(kept[1].cwe_graph)
        assert graphs[0] is graphs[1] is graphs[2] and graphs[3] is graphs[4] is graphs[5]
        assert graphs[6] is not graphs[7] and graphs[7] is graphs[8]
        assert {code for code, _, _ in outputs} == {0}
        assert "CWE-9999" not in outputs[0][1] and "CWE-9999" in outputs[8][1]
        for _, out, _ in (outputs[0], outputs[4], outputs[8]):
            labels = [part.split(" ", 1)[0] for part in out.split("(:")[1:]]
            assert labels[0] == "CWE" and "CallGraph" in labels
            assert labels == sorted(labels, key=lambda label: label != "CWE")

    def test_a_copy_answers_as_a_graph_built_whole(self, tmp_path):
        """A query over a copy of the kept CWE graph, whose literal CWE
        lookups its source answers from a map, prints the same table as
        over a graph that holds the CWE nodes as its own, on every sample;
        the source builds one map per (label, key) looked up."""
        path = catalog_with_uncalled_rows(tmp_path, 300)
        catalog = Catalog(parse_cwe_csv(Path(path).read_bytes()))
        queries = [parse_query(text) for text in [
            *(generate_detection_query(catalog_entry(cwe_id), "main") for cwe_id in ("CWE-242", "CWE-415")),
            'MATCH (c:CWE {`CWE-ID`: "CWE-242"}) RETURN c.Name, c.`Function Events`',
            'MATCH (c:CWE {`CWE-ID`: "CWE-20150"}) RETURN c',
            'MATCH (c:CWE {`CWE-ID`: 242}) RETURN COUNT(c)',
            'MATCH (c:CWE {Name: "Double free"}) RETURN c.`CWE-ID`',
            'MATCH (c:CWE {Name: "Generated 7"}) RETURN c',
            'MATCH (c:CWE {`Function Events`: "gets"}) RETURN c.`CWE-ID`',
            'MATCH (c:CWE {`Function Events`: "legacy_api_301"}) RETURN c.`CWE-ID`, c.Name',
            'MATCH (c:CWE {`Function Events`: "free", Name: "Double free"}) RETURN c.`CWE-ID`',
            'MATCH (c:CWE {`Function Events`: "gets"}) MATCH (n:CallGraph {Name: c.`Function Events`})'
            ' RETURN c.`CWE-ID`, n.Name, n.ExecOrder',
        ]]
        rows = [0] * len(queries)
        for sample in SAMPLES:
            copied = _merged_graph(sample, catalog)
            whole, _, _ = merged_graph_of(Path(sample).read_text(), catalog)
            for k, query in enumerate(queries):
                table = format_result_table(execute_query(query, copied))
                assert table == format_result_table(execute_query(query, whole)), (sample, query)
                rows[k] += table.count("\n") - 1
                if k == 4:  # an int never equals a text id
                    assert table == "COUNT(c)\n0\n"
        # Every other literal finds one row per sample, and the last query
        # one per call of a CWE-242 event.
        assert rows == [6, 7, 23, 23, 23, 23, 23, 23, 23, 23, 6]
        assert set(catalog.cwe_graph._maps) == {
            ("CWE", "CWE-ID"), ("CWE", "Name"), ("CWE", "Function Events")
        }


def fresh_cli(*argv):
    """cli as the first call of a fresh process answers: with no query
    parse, catalog or argument parser kept from an earlier call."""
    pkgraph.cypher.parser.parse_query.cache_clear()
    pkgraph.cli._build_parser.cache_clear()
    pkgraph.cli._kept_catalog = (None, Catalog())
    return cli(*argv)


class TestKeptQueryParse:
    """A detection template parsed once per process answers every sample,
    call after call, as a process that keeps nothing does."""

    def test_templates_over_every_sample(self, tmp_path):
        for path in write_templates(tmp_path).values():
            for source in SAMPLES:
                argv = ["query", source, "--query-file", path]
                assert [cli(*argv), cli(*argv)] == [fresh_cli(*argv)] * 2


class TestNoCyclicGarbage:
    """Every command frees what it made by reference counting alone: run
    in-process with the cyclic collector off, the commands leave no
    unreachable object for it to find. A kept text table, which holds
    its graph weakly, is where a cycle would most likely start."""

    def test_commands_over_every_sample(self, tmp_path):
        cve = tmp_path / "cve.csv"
        cve.write_text(
            "cve_id,description,cwe_id,cvss2_score,product,affected_versions\n"
            "CVE-2020-0001,d,CWE-415,7.5,Lib,1.0;1.1\n"
        )
        runs = [
            ["ingest", "--cwe", str(DATA / "cwe-catalog.csv"), "--cve", str(cve),
             "--out", str(tmp_path / "ingest")],
        ]
        templates = write_templates(tmp_path).values()
        for source in SAMPLES:
            runs += [
                ["scan", source, "--format", "json"],
                ["scan", source],
                *(["query", source, "--query-file", path] for path in templates),
                ["extract", source],
                ["export", source, "--out", str(tmp_path / "export")],
            ]
        for argv in runs[:2]:  # fill the per-process caches first
            cli(*argv)
        gc.collect()
        gc.disable()
        try:
            for argv in runs:
                code, _, err = cli(*argv)
                assert code in (0, 1), (argv, err)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestUnreadableInput:
    """A file that is not UTF-8, a catalog the csv module cannot read, or
    a C source or query that starts with a byte-order mark or does not
    parse exits 3 with one error line and writes nothing to stdout."""

    @pytest.mark.parametrize(
        "files, message",
        [
            pytest.param(
                {"source": b"void f() {\n  /* \xe9 */ }"},
                "{source}: line 2: not UTF-8: invalid continuation byte",
                id="source-latin-1",
            ),
            pytest.param(
                {"catalog": CWE_HEADER + b"CWE-242,n\xe9,d,gets\n"}, None, id="catalog-latin-1"
            ),
            pytest.param(
                {"catalog": CWE_HEADER + b"CWE-242,n," + b"x" * 140_000 + b",gets\n"},
                None,
                id="catalog-oversized-cell",
            ),
            pytest.param({"catalog": CWE_HEADER + b"CWE-242\0,n,d,gets\n"}, None, id="catalog-nul"),
            pytest.param(
                {"query": b"MATCH (n:CallGraph)\nRETURN n.Name \xff"},
                "{query}: line 2: not UTF-8: invalid start byte",
                id="query-latin-1",
            ),
            pytest.param(
                {"source": BOM + GETS_SRC}, "1:1: unexpected character '\\ufeff'", id="source-bom"
            ),
            pytest.param(
                {"source": b'void f() {\n  g("oops);\n}\n'},
                "2:5: unterminated literal",
                id="source-unterminated-literal",
            ),
            pytest.param(
                {"source": b"void f() {\n  g(a); @\n}\n"},
                "2:9: unexpected character '@'",
                id="source-stray-character",
            ),
            pytest.param(
                {
                    "source": (CORPUS / "cwe415_double_free.c").read_bytes(),
                    "query": b"MATCH (n)\nRETURN ,\n",
                },
                "2:8: expected an expression, found ','",
                id="query-syntax-error",
            ),
            pytest.param(
                {"query": BOM + b"MATCH (n) RETURN n"},
                "1:1: unexpected character '\\ufeff'",
                id="query-bom",
            ),
        ],
    )
    def test_exits_three(self, tmp_path, files, message):
        files = {"source": GETS_SRC, **files}
        for kind, data in files.items():
            (tmp_path / kind).write_bytes(data)
        argv = ["query" if "query" in files else "scan", str(tmp_path / "source")]
        for kind, flag in (("catalog", "--catalog"), ("query", "--query-file")):
            if kind in files:
                argv += [flag, str(tmp_path / kind)]
        code, out, err = cli(*argv)
        assert code == 3
        assert out == ""
        assert err.startswith("pkgraph: error: ")
        assert len(err.splitlines()) == 1
        if message:
            paths = {kind: tmp_path / kind for kind in files}
            assert err == "pkgraph: error: " + message.format(**paths) + "\n"

    def test_names_a_file_one_way(self, tmp_path):
        """A file that does not decode and a file that does not open are
        both named without the empty and `.` segments of the path typed."""
        (tmp_path / "latin.c").write_bytes(b"void f() { /* \xe9 */ }")
        code, _, err = cli("scan", f"{tmp_path}/.//latin.c")
        assert code == 3
        assert err == (
            f"pkgraph: error: {tmp_path}/latin.c: line 1: not UTF-8: invalid continuation byte\n"
        )
        code, _, err = cli("scan", f"{tmp_path}/.//missing.c")
        assert code == 3
        assert err.endswith(f"No such file or directory: '{tmp_path}/missing.c'\n")


# Catalogs are the bundled header over bundled rows, or a mix of the
# bundled cells and CSV punctuation; queries are template lines, or a mix
# of the templates' words and the tokens that nest expressions.
CATALOG_LINES = (DATA / "cwe-catalog.csv").read_text().splitlines(keepends=True)
CATALOG_FRAGMENTS = sorted(
    {cell for line in CATALOG_LINES for cell in line.split(",")}
    | {",", '"', "\n", ";", "CWE-9999", "CWE-x"}
)
catalog_texts = st.one_of(
    st.lists(st.sampled_from(CATALOG_LINES[1:]), max_size=10).map(
        lambda rows: CATALOG_LINES[0] + "".join(rows)
    ),
    st.lists(st.sampled_from(CATALOG_FRAGMENTS), max_size=20).map("".join),
)

TEMPLATE_LINES = [
    line + "\n"
    for cwe_id in ("CWE-242", "CWE-415")
    for line in generate_detection_query(catalog_entry(cwe_id), "main").splitlines()
]
QUERY_FRAGMENTS = sorted(
    {word for line in TEMPLATE_LINES for word in line.split()}
    | {"(", ")", "NOT", "AND", "OR", "SIZE("}
)
query_texts = st.one_of(
    st.lists(st.sampled_from(TEMPLATE_LINES), max_size=10).map("".join),
    st.lists(st.sampled_from(QUERY_FRAGMENTS), max_size=30).map(" ".join),
)


def file_bytes(texts):
    return st.one_of(texts.map(str.encode), st.binary(max_size=64))


class TestNeverCrash:
    @given(
        command=st.sampled_from([["scan"], ["scan", "--format", "json"], ["query"]]),
        source=file_bytes(c_texts),
        catalog=st.none() | file_bytes(catalog_texts),
        query=file_bytes(query_texts),
    )
    @settings(deadline=None)
    def test_exit_code_and_one_error_line(self, command, source, catalog, query):
        """Any source, catalog and query bytes end in a documented exit
        code; exit 3 prints exactly one error line."""
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            (root / "source.c").write_bytes(source)
            argv = command + [str(root / "source.c")]
            if catalog is not None:
                (root / "catalog.csv").write_bytes(catalog)
                argv += ["--catalog", str(root / "catalog.csv")]
            if command == ["query"]:
                (root / "query.cql").write_bytes(query)
                argv += ["--query-file", str(root / "query.cql")]
            code, _, err = cli(*argv)
        assert code in (0, 1, 2, 3)
        if code == 3:
            assert err.startswith("pkgraph: error: ")
            assert len(err.splitlines()) == 1
