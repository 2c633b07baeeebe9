"""The CLI run as a process: what only a real process shows (exit codes
through sys.exit, bytes written to its own stdout and stderr, no
traceback), checked with subprocess."""

import csv
import io
import os
import random
import re
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pkgraph

SRC = Path(pkgraph.__file__).parent.parent
CATALOG = Path(str(resources.files("pkgraph") / "data" / "cwe-catalog.csv"))


def pkgraph_process(*argv):
    """`python -m pkgraph.cli ARGV` with this source tree first on the path."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "pkgraph.cli", *map(str, argv)],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": path},
    )


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
    CVE score of 0_5 exits 3 with one error line and no traceback."""
    cves = tmp_path / "cves.csv"
    cves.write_text(generated_cves(), encoding="utf-8")
    for run in (1, 2):
        out = tmp_path / f"ingest{run}"
        proc = pkgraph_process("ingest", "--cwe", CATALOG, "--cve", cves, "--out", out)
        assert (proc.returncode, proc.stderr) == (0, ""), proc.stdout + proc.stderr
        reported = re.match(r"ingested (\d+) nodes, (\d+) edges ", proc.stdout)
        assert reported, proc.stdout
        assert (int(reported[1]), int(reported[2])) == (
            rows(out / "nodes.csv"),
            rows(out / "relationships.csv"),
        )
    for name in ("nodes.csv", "relationships.csv"):
        assert (tmp_path / "ingest1" / name).read_bytes() == (tmp_path / "ingest2" / name).read_bytes()

    bad = tmp_path / "bad-score.csv"
    header = cves.read_text(encoding="utf-8").split("\n", 1)[0]
    bad.write_text(f"{header}\nCVE-2020-0001,d,CWE-415,0_5,P,1.0\n", encoding="utf-8")
    proc = pkgraph_process("ingest", "--cwe", CATALOG, "--cve", bad, "--out", tmp_path / "bad")
    assert proc.returncode == 3, proc.stdout + proc.stderr
    assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("pkgraph: error: "), proc.stderr
    assert "Traceback" not in proc.stderr
