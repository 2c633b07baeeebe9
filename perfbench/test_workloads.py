"""Self-test of the benchmark: the generators' verdicts agree with pkgraph
on small seeded inputs, a wrong output is caught, and the tracer copes
with public names that no longer exist.

Inputs past the recursion limits (the `limits` workload) are left out:
pkgraph raises on them today, so there is nothing to agree with.
"""

import io
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads as W  # noqa: E402
from tracer import TARGETS, Tracer  # noqa: E402
from pkgraph import cli  # noqa: E402
from pkgraph.detectors import generate_detection_query  # noqa: E402
from pkgraph.vulndata import parse_cwe_csv  # noqa: E402


def run(argv):
    out = io.StringIO()
    code = cli.run_cli(argv, stdin=io.StringIO(""), stdout=out, stderr=io.StringIO())
    return code, out.getvalue()


@pytest.fixture
def query_files(tmp_path):
    catalog = {c.cwe_id: c for c in parse_cwe_csv((W.DATA / "cwe-catalog.csv").read_bytes())}
    paths = {}
    for cwe_id in W.QUERY_TEMPLATE_CWES:
        paths[cwe_id] = tmp_path / f"{cwe_id}.cql"
        paths[cwe_id].write_text(generate_detection_query(catalog[cwe_id], "main"))
    return paths


def small_programs(seed):
    rng = random.Random(seed)
    return [
        W.wide_program(rng, 6),
        W.wide_program(rng, 13),
        W.chain_program(rng, 30),
        W.diamond_program(rng, 4),
        W.nested_program(rng, 25),
    ]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_generated_program_verdicts_agree(seed, tmp_path, query_files):
    for k, program in enumerate(small_programs(seed)):
        source = tmp_path / f"p{k}.c"
        source.write_text(program.source())
        scan = run(["scan", str(source), "--format", "json"])
        assert W.scan_verdict(program).check(*scan) is None
        for cwe_id, query in query_files.items():
            code, out = run(["query", str(source), "--query-file", str(query)])
            assert W.query_verdict(program, cwe_id).check(code, out) is None


def test_verdicts_catch_wrong_output(tmp_path, query_files):
    rng = random.Random(7)
    chain, diamond = W.chain_program(rng, 5), W.diamond_program(rng, 3)
    source = tmp_path / "diamond.c"
    source.write_text(diamond.source())
    scan = run(["scan", str(source), "--format", "json"])
    query = run(["query", str(source), "--query-file", str(query_files["CWE-242"])])
    assert W.scan_verdict(diamond).check(*scan) is None
    assert W.scan_verdict(chain).check(*scan) is not None
    assert W.scan_verdict(diamond).check(0, scan[1]) is not None
    assert W.query_verdict(chain, "CWE-242").check(*query) is not None


@pytest.mark.parametrize("seed", [1, 2])
def test_catalog_verdicts_agree(seed, tmp_path, query_files):
    rng = random.Random(seed)
    rows = W.bundled_cwe_rows() + W.generated_cwe_rows(rng, 40)
    catalog = tmp_path / "catalog.csv"
    catalog.write_bytes(W.cwe_csv(rows))
    data, counts = W.cve_csv(rng, 60, [row[0] for row in rows])
    cves = tmp_path / "cve.csv"
    cves.write_bytes(data)
    out_dir = tmp_path / "out"
    verdict = W.IngestVerdict(*counts, out_dir)
    ingest = ["ingest", "--cwe", str(catalog), "--cve", str(cves), "--out", str(out_dir)]
    assert verdict.check(*run(ingest)) is None

    known = frozenset(row[0] for row in W.bundled_cwe_rows())
    samples = W.bundled_samples()
    assert len(samples) == 23
    for sample in samples:
        expected = W.corpus_expectation(sample)
        code, out = run(["scan", str(sample), "--format", "json", "--catalog", str(catalog)])
        assert W.CorpusScanVerdict(expected, known).check(code, out) is None
        for cwe_id, query in query_files.items():
            code, out = run(["query", str(sample), "--query-file", str(query),
                             "--catalog", str(catalog)])
            assert W.corpus_query_verdict(sample, cwe_id).check(code, out) is None


def test_tracer_reports_absent_names_and_restores(tmp_path):
    source = tmp_path / "p.c"
    source.write_text(W.chain_program(random.Random(1), 4).source())
    original = cli.run_cli
    targets = TARGETS + [
        ("detectors.gone", "pkgraph.detectors", "gone", None, None),
        ("graph.gone", "pkgraph.graph", "PropertyGraph.gone", None, None),
        ("nowhere.gone", "pkgraph.nowhere", "gone", None, None),
    ]
    tracer = Tracer(targets)
    tracer.install()
    try:
        assert cli.run_cli is not original
        code = cli.run_cli(["scan", str(source), "--format", "json"], stdout=io.StringIO())
    finally:
        tracer.uninstall()
    tracer.fold()
    assert cli.run_cli is original
    assert code == 1
    assert tracer.absent == ["detectors.gone", "graph.gone", "nowhere.gone"]
    assert not tracer.counter_errors
    assert tracer.calls["cli.run_cli"] == 1
    assert tracer.calls["detectors.run_all"] == 1
    # one entry; terminals gets (CWE-242) and free, free (CWE-415 and CWE-1341)
    assert tracer.counts["graph.enumerate_paths"]["paths"] == 5
    for name in tracer.names:
        assert 0 <= tracer.self_ns[name] <= tracer.total_ns[name]
    assert tracer.self_ns["cli.run_cli"] < tracer.total_ns["cli.run_cli"]
