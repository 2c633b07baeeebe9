import io
import json
import tempfile
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import catalog_entry
from test_cparse import c_texts
from pkgraph.cli import run_cli
from pkgraph.detectors import generate_detection_query

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

    def test_export_writes_three_files(self, tmp_path, double_free_file):
        out_dir = tmp_path / "exported"
        code, _, _ = cli("export", double_free_file, "--out", str(out_dir))
        assert code == 0
        assert (out_dir / "nodes.csv").exists()
        assert (out_dir / "relationships.csv").exists()
        assert "digraph G {" in (out_dir / "graph.dot").read_text()

    def test_ingest_csv_error_exits_three(self, tmp_path):
        cwe = tmp_path / "cwe.csv"
        cwe.write_text("cwe_id,name,description,function_events\nBAD,n,d,free\n")
        cve = tmp_path / "cve.csv"
        cve.write_text("cve_id,description,cwe_id,cvss2_score,product,affected_versions\n")
        code, _, err = cli("ingest", "--cwe", str(cwe), "--cve", str(cve))
        assert code == 3


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


CWE_HEADER = b"cwe_id,name,description,function_events\n"
GETS_SRC = b"void main() { char b[8]; gets(b); }\n"


class TestUnreadableInput:
    """A file that is not UTF-8, or a catalog the csv module cannot
    read, exits 3 with one error line and writes nothing to stdout."""

    @pytest.mark.parametrize(
        "files",
        [
            pytest.param({"source": b"void f() { /* \xe9 */ }"}, id="source-latin-1"),
            pytest.param({"catalog": CWE_HEADER + b"CWE-242,n\xe9,d,gets\n"}, id="catalog-latin-1"),
            pytest.param(
                {"catalog": CWE_HEADER + b"CWE-242,n," + b"x" * 140_000 + b",gets\n"},
                id="catalog-oversized-cell",
            ),
            pytest.param({"catalog": CWE_HEADER + b"CWE-242\0,n,d,gets\n"}, id="catalog-nul"),
            pytest.param({"query": b"MATCH (n:CallGraph) RETURN n.Name \xff"}, id="query-latin-1"),
        ],
    )
    def test_exits_three(self, tmp_path, files):
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


# Catalogs are the bundled header over bundled rows, or a mix of the
# bundled cells and CSV punctuation; queries are template lines, or a mix
# of the templates' words.
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
QUERY_FRAGMENTS = sorted({word for line in TEMPLATE_LINES for word in line.split()})
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
