"""The CLI run as a process: what only a real process shows (exit codes
through sys.exit, bytes written to its own stdout and stderr, the one
line a warning logs with no logging configured, no traceback), checked
with subprocess. A process costs about 60 ms, so each behaviour is shown
once here; test_cli checks the same answers in-process over many inputs."""

import csv
import io
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import pkgraph
from test_cli import (
    CORPUS,
    DATA,
    SRC,
    UNRESOLVED_HANDLER,
    catalog_with_uncalled_rows,
    cli,
    reindented,
    scan_source,
    write_templates,
)

CATALOG = DATA / "cwe-catalog.csv"


def pkgraph_process(*argv, stdin=b"", env=None, prelude=None):
    """`python -m pkgraph.cli ARGV` with this source tree first on the path
    and env added to the environment: (exit code, stdout, stderr), read
    as UTF-8 with no newline translation. No process prints a traceback.
    With prelude, the process runs that code first and then pkgraph.cli
    as `-m` would."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    if prelude is None:
        command = ["-m", "pkgraph.cli"]
    else:
        command = ["-c", f"{prelude}\nimport runpy\nrunpy.run_module('pkgraph.cli', run_name='__main__')"]
    proc = subprocess.run(
        [sys.executable, *command, *map(str, argv)],
        input=stdin, capture_output=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path, **(env or {})},
    )
    out, err = proc.stdout.decode("utf-8"), proc.stderr.decode("utf-8")
    assert "Traceback" not in err, err
    return proc.returncode, out, err


def generated_cves() -> str:
    """500 CVE rows over the bundled catalog's ids, about one in ten an
    orphan (CWE-99999), with quoted descriptions and one to three versions."""
    rng = random.Random(7)
    with open(CATALOG, encoding="utf-8") as file:
        cwe_ids = [row[0] for row in list(csv.reader(file))[1:]]
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["cve_id", "description", "cwe_id", "cvss2_score", "product", "affected_versions"])
    for i in range(500):
        writer.writerow([
            f"CVE-2020-{10000 + i}",
            f'Reads "input", then writes {i}',
            "CWE-99999" if rng.random() < 0.1 else rng.choice(cwe_ids),
            f"{rng.randint(0, 100) / 10:.1f}",
            f"Product{rng.randrange(20)}",
            ";".join(rng.sample(["1.0", "1.1", "2.0", "2.1"], rng.randint(1, 3))),
        ])
    return out.getvalue()


def rows(path: Path) -> int:
    """Lines after the header."""
    return path.read_bytes().count(b"\n") - 1


def test_ingest_output_its_repeatability_and_a_bad_score(tmp_path):
    """Two ingests of one input exit 0 with nothing on stderr, report as
    many nodes and edges as they write rows, and write the same bytes; a
    CVE score of 0_5 exits 3 with one error line."""
    cves = tmp_path / "cves.csv"
    cves.write_text(generated_cves(), encoding="utf-8")
    for run in (1, 2):
        out = tmp_path / f"ingest{run}"
        code, stdout, stderr = pkgraph_process("ingest", "--cwe", CATALOG, "--cve", cves, "--out", out)
        assert (code, stderr) == (0, ""), stdout + stderr
        reported = re.match(r"ingested (\d+) nodes, (\d+) edges ", stdout)
        assert reported, stdout
        assert (int(reported[1]), int(reported[2])) == (
            rows(out / "nodes.csv"),
            rows(out / "relationships.csv"),
        )
    for name in ("nodes.csv", "relationships.csv"):
        assert (tmp_path / "ingest1" / name).read_bytes() == (tmp_path / "ingest2" / name).read_bytes()

    bad = tmp_path / "bad-score.csv"
    header = cves.read_text(encoding="utf-8").split("\n", 1)[0]
    bad.write_text(f"{header}\nCVE-2020-0001,d,CWE-415,0_5,P,1.0\n", encoding="utf-8")
    code, stdout, stderr = pkgraph_process(
        "ingest", "--cwe", CATALOG, "--cve", bad, "--out", tmp_path / "bad"
    )
    assert code == 3, stdout + stderr
    assert stderr.count("\n") == 1 and stderr.startswith("pkgraph: error: "), stderr


# Calls that every detector family reports, each in its own way.
EVERY_FAMILY = """\
void handler(int s) { syslog(1, "caught"); }
void worker(char *arg) { getlogin(); }
void release(char *p) { free(p); }
void main() {
    char *p = malloc(8);
    char buf[8];
    gets(buf);
    atoi(buf);
    memset(p, 0, sizeof(p));
    signal(SIGINT, handler);
    pthread_create(t, 0, worker, 0);
    getpw(1, buf);
    release(p);
    free(p);
    fclose(f);
    fclose(f);
}
"""


def test_output_is_the_same_under_any_hash_seed(tmp_path):
    """A scan as JSON and as a table, the CWE-242 template and an ingest
    write the same bytes under two hash seeds: no output depends on the
    order of a set or of a dict keyed by strings."""
    source = tmp_path / "every_family.c"
    source.write_text(EVERY_FAMILY)
    cves = tmp_path / "cves.csv"
    cves.write_text(generated_cves(), encoding="utf-8")
    out = tmp_path / "ingest"
    commands = [
        ["scan", source, "--format", "json"],
        ["scan", source],
        ["query", source, "--query-file", write_templates(tmp_path)["CWE-242"]],
        ["ingest", "--cwe", CATALOG, "--cve", cves, "--out", out],
    ]
    answers = {}
    for seed in ("0", "12345"):
        answers[seed] = [pkgraph_process(*argv, env={"PYTHONHASHSEED": seed}) for argv in commands]
        answers[seed] += [(out / name).read_bytes() for name in ("nodes.csv", "relationships.csv")]
    assert answers["0"] == answers["12345"]
    assert [answer[0] for answer in answers["0"][:4]] == [1, 1, 0, 0]
    assert answers["0"][2][1].count("\n") == 3


@pytest.mark.parametrize("name, format, code", [
    ("corpus/cwe242_gets.c", "json", 1),
    ("clean/fgets_input.c", "json", 0),
    ("latin1.c", "table", 3),
])
def test_scan_exit_code_and_report_bytes(tmp_path, name, format, code):
    """Each exit code reaches sys.exit, and a JSON report's bytes are
    json.dumps(indent=2)'s, as in-process."""
    argv = ["scan", scan_source(tmp_path, name), "--format", format]
    answer = pkgraph_process(*argv)
    assert answer == cli(*argv) and answer[0] == code
    if format == "json":
        assert answer[1] == reindented(answer[1])


@pytest.mark.parametrize("source, line", [
    ("int f(a) int a; { gets(a); }\n", "skipping unparseable top-level item at 1:17"),
    (UNRESOLVED_HANDLER, "signal handler 'missing_handler' cannot be resolved to a function"),
], ids=["knr-body", "unresolved-signal-handler"])
def test_a_warning_is_one_stderr_line(tmp_path, source, line):
    """With no logging configured, a warning is its message alone on stderr."""
    path = tmp_path / "source.c"
    path.write_text(source)
    code, out, err = pkgraph_process("scan", path)
    assert (code, out) == cli("scan", str(path))[:2] and code == 0
    assert err == line + "\n"


@pytest.mark.parametrize("argv, code, stream, head", [
    (["--version"], 0, 1, f"pkgraph {pkgraph.__version__}"),
    (["scan", "-h"], 0, 1, "usage: pkgraph scan [-h]"),
    (["frobnicate"], 2, 2, "usage: pkgraph"),
], ids=["--version", "scan -h", "unknown-subcommand"])
def test_help_version_and_usage_go_to_their_stream(argv, code, stream, head):
    """Help and the version go to stdout (stream 1) and exit 0; a usage
    error goes to stderr (stream 2) and exits 2. The other stream stays
    empty."""
    answer = pkgraph_process(*argv)
    assert answer[0] == code and answer[3 - stream] == "", answer
    assert any(line.startswith(head) for line in answer[stream].splitlines()), answer


@pytest.mark.parametrize(
    "cwe_id, sample", [("CWE-242", "cwe242_gets.c"), ("CWE-415", "cwe415_double_free_interproc.c")]
)
def test_detection_template_in_a_fresh_process(tmp_path, cwe_id, sample):
    """A fresh process answers a template as a process that parsed it
    before, and finds its sample."""
    argv = ["query", str(CORPUS / sample), "--query-file", write_templates(tmp_path)[cwe_id]]
    kept = [cli(*argv), cli(*argv)]
    assert pkgraph_process(*argv) == kept[0] == kept[1]
    assert kept[0][0] == 0 and len(kept[0][1].splitlines()) >= 2


def test_a_larger_catalog_in_a_fresh_process(tmp_path):
    """With 300 more catalog rows, a fresh process answers the CWE-242
    template as kept in-process runs do, and its first CWE lookup builds
    the one map that the kept CWE graph needs."""
    log = tmp_path / "maps.txt"
    prelude = "\n".join([
        "import pkgraph.graph",
        "build = pkgraph.graph.PropertyGraph._build_map",
        "def counted(graph, label, key):",
        f"    with open({str(log)!r}, 'a') as file:",
        "        file.write(f'{label} {key}\\n')",
        "    return build(graph, label, key)",
        "pkgraph.graph.PropertyGraph._build_map = counted",
    ])
    argv = [
        "query", str(CORPUS / "cwe242_gets.c"),
        "--query-file", write_templates(tmp_path)["CWE-242"],
        "--catalog", catalog_with_uncalled_rows(tmp_path, 300),
    ]
    kept = [cli(*argv), cli(*argv)]
    assert pkgraph_process(*argv, prelude=prelude) == kept[0] == kept[1]
    assert kept[0][0] == 0 and len(kept[0][1].splitlines()) >= 2
    assert log.read_text() == "CWE CWE-ID\n"


def test_query_on_stdin_is_read_as_utf8_bytes():
    """A query on stdin decodes as a query file does, whatever the locale,
    and a byte that is not UTF-8 is named by its line."""
    answer = pkgraph_process("query", CORPUS / "cwe242_gets.c", stdin=b"MATCH (n)\nRETURN \xff")
    assert answer == (3, "", "pkgraph: error: <stdin>: line 2: not UTF-8: invalid start byte\n")


def test_an_error_reads_the_same_under_an_ascii_locale(tmp_path):
    """stderr is UTF-8 whatever the locale, as stdout is."""
    source = tmp_path / "stray.c"
    source.write_text("void main() { g(\xe9); }\n", encoding="utf-8")
    answers = [
        pkgraph_process("scan", source, env={"LC_ALL": locale, "PYTHONUTF8": utf8, "PYTHONIOENCODING": ""})
        for locale, utf8 in (("C.UTF-8", "1"), ("C", "0"))
    ]
    assert answers == [(3, "", "pkgraph: error: 1:17: unexpected character '\xe9'\n")] * 2


def test_output_is_utf8_under_an_ascii_locale(tmp_path):
    source = tmp_path / "accent.c"
    source.write_text('void main() { puts("\xe9"); }\n', encoding="utf-8")
    ascii_locale = {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONIOENCODING": ""}
    answer = pkgraph_process("extract", source, env=ascii_locale)
    assert answer == (0, "ExecOrder | Name | Argument1\n1 | main |\n2 | puts | \xe9\n", "")
