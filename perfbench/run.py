"""pkgraph benchmark: one seeded workload per run, one closed-loop client.

    python3 perfbench/run.py --workload wide --seed 1 --trace 0

Every operation goes through the public CLI entry ``pkgraph.cli.run_cli``
in this process, one at a time, and its exit code and output are checked
against a verdict computed by the input generator. ``--trace 0`` prints
the end-to-end metrics; ``--trace 1`` runs the same operations in passes,
alternating untraced and traced passes, and prints per-layer metrics
(per traced pass) plus the tracing overhead. ``repeat.py`` runs every
workload over several seeds.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Failed operations are listed
above it, one line per workload, input and reason.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import workloads as W
from speed import REFERENCE_S, reference_seconds, speed_factors

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
KINDS = ("scan", "query", "ingest")
# Setup processes run in two groups of SETUP_RUNS, one before the timed
# operations and one after, so that their median spans two phases of
# machine speed rather than one.
SETUP_RUNS = 11
# A fresh process slows down less than the reference loop does: across
# 168 start-ups of the four workloads' first operations, the log-log
# slope of start-up time over loop time was 0.55 to 0.72 per workload
# and 0.64 pooled. Setup times are scaled by the loop's speed to this
# power.
SETUP_SPEED_EXPONENT = 0.64
# A run goes on past --seconds until every kind has MIN_SAMPLES samples,
# so that at least ten lie beyond p90, but never past MAX_STRETCH times
# --seconds.
MIN_SAMPLES = 100
MAX_STRETCH = 1.5
SUBPROCESS_TIMEOUT_S = 120

# A fresh interpreter that imports the CLI and runs one operation: what
# a one-shot `pkgraph ...` invocation pays. It times the reference loop
# three times before the import and three times after the operation, on
# whatever CPU it runs on, and reports on stderr how long those first
# loops took, when the operation finished (perf_counter is the
# system-wide monotonic clock) and the median loop time.
_SETUP_CODE = """
import sys, time
sys.path.insert(0, sys.argv[2])
from speed import reference_seconds
begin = time.perf_counter()
reference = [reference_seconds() for _ in range(3)]
loops = time.perf_counter() - begin
sys.path.insert(0, sys.argv[1])
from pkgraph.cli import run_cli
code = run_cli(sys.argv[3:])
done = time.perf_counter()
reference += [reference_seconds() for _ in range(3)]
median = sum(sorted(reference)[2:4]) / 2
print(f"perfbench-setup {loops!r} {done!r} {median!r}", file=sys.stderr)
raise SystemExit(code)
"""


@dataclass
class Op:
    kind: str
    input: str  # reported with failures
    argv: list
    verdict: object  # has check(exit_code, stdout) -> reason or None


# ---------------------------------------------------------------------------
# Workload plans
# ---------------------------------------------------------------------------

class PlanBuilder:
    """Writes one workload's generated inputs into `work` and lists the
    operations over them, keyed by kind."""

    def __init__(self, work: Path, rng: random.Random):
        self.work = work
        self.rng = rng
        self.ops = {kind: [] for kind in KINDS}
        self.known = frozenset(row[0] for row in W.bundled_cwe_rows())
        self._queries = {}

    def write(self, name: str, data) -> str:
        path = self.work / name
        if isinstance(data, bytes):
            path.write_bytes(data)
        else:
            path.write_text(data, encoding="utf-8")
        return str(path)

    def query_file(self, cwe_id: str) -> str:
        """The generated detection query of the bundled catalog's row,
        starting at functions named main."""
        if cwe_id not in self._queries:
            from pkgraph.detectors import generate_detection_query
            from pkgraph.vulndata import parse_cwe_csv

            catalog = parse_cwe_csv((W.DATA / "cwe-catalog.csv").read_bytes())
            (record,) = [c for c in catalog if c.cwe_id == cwe_id]
            text = generate_detection_query(record, "main")
            self._queries[cwe_id] = self.write(f"{cwe_id}.cql", text)
        return self._queries[cwe_id]

    def program(self, name: str, program: W.Program, query_cwe: str) -> None:
        path = self.write(f"{name}.c", program.source())
        self.ops["scan"].append(
            Op("scan", name, ["scan", path, "--format", "json"], W.scan_verdict(program))
        )
        self.ops["query"].append(
            Op("query", f"{name}/{query_cwe}",
               ["query", path, "--query-file", self.query_file(query_cwe)],
               W.query_verdict(program, query_cwe))
        )

    def bundled_scan(self, sample: str, catalog_args: list) -> None:
        path = W.DATA / sample
        self.ops["scan"].append(
            Op("scan", sample, ["scan", str(path), "--format", "json", *catalog_args],
               W.CorpusScanVerdict(W.corpus_expectation(path), self.known))
        )

    def bundled_query(self, sample: str, cwe_id: str, catalog_args: list) -> None:
        path = W.DATA / sample
        self.ops["query"].append(
            Op("query", f"{sample}/{cwe_id}",
               ["query", str(path), "--query-file", self.query_file(cwe_id), *catalog_args],
               W.corpus_query_verdict(path, cwe_id))
        )

    def ingest(self, name: str, cwe_path: str, cwe_ids: list, cves: int) -> None:
        data, (nodes, edges, orphans) = W.cve_csv(self.rng, cves, cwe_ids)
        cve_path = self.write(f"{name}.csv", data)
        out = self.work / f"{name}-out"
        self.ops["ingest"].append(
            Op("ingest", name, ["ingest", "--cwe", cwe_path, "--cve", cve_path, "--out", str(out)],
               W.IngestVerdict(nodes, edges, orphans, out))
        )

    def small_ingests(self) -> None:
        """The bundled catalog with 50 to 800 generated CVEs: the
        knowledge-graph side at small scale, which no call-graph change
        should move."""
        for cves in (50, 100, 200, 400, 800):
            self.ingest(f"cve{cves}", str(W.DATA / "cwe-catalog.csv"), sorted(self.known), cves)


# Each generated list has five inputs whose latencies lie far apart, so
# that p50 and p90 fall inside one input's block of samples (the third
# and the fifth) instead of in the overlap of two.
# The catalog workload has few samples per run, so it scans and queries
# five bundled samples rather than all 23; with all 23, whose scans take
# 22 to 46 ms in small steps, p90 fell between two samples' blocks.
CATALOG_SCANS = [
    "corpus/cwe242_gets.c",
    "corpus/cwe415_double_free_interproc.c",
    "corpus/cwe467_sizeof_pointer.c",
    "corpus/cwe558_getlogin_threads.c",
    "clean/getpwuid_lookup.c",
]
CATALOG_QUERIES = [
    ("corpus/cwe242_gets.c", "CWE-242"),
    ("corpus/cwe415_double_free_interproc.c", "CWE-415"),
    ("corpus/cwe242_atoi.c", "CWE-242"),
    ("corpus/cwe1341_double_release.c", "CWE-415"),
    ("clean/fgets_input.c", "CWE-242"),
]


def plan_corpus(b: PlanBuilder) -> None:
    samples = [f"{path.parent.name}/{path.name}" for path in W.bundled_samples()]
    for sample in samples:
        b.bundled_scan(sample, [])
    for sample in samples:
        for cwe_id in W.QUERY_TEMPLATE_CWES:
            b.bundled_query(sample, cwe_id, [])
    b.small_ingests()


def plan_wide(b: PlanBuilder) -> None:
    for n, cwe_id in zip((16, 22, 28, 34, 40), ("CWE-242", "CWE-415") * 3):
        b.program(f"wide{n}", W.wide_program(b.rng, n), cwe_id)
    b.small_ingests()


def plan_deep(b: PlanBuilder) -> None:
    b.program("diamond8", W.diamond_program(b.rng, 8), "CWE-415")
    b.program("nest150", W.nested_program(b.rng, 150), "CWE-415")
    b.program("chain300", W.chain_program(b.rng, 300), "CWE-242")
    b.program("diamond11", W.diamond_program(b.rng, 11), "CWE-242")
    b.program("nest450", W.nested_program(b.rng, 450), "CWE-415")
    b.small_ingests()


def plan_catalog(b: PlanBuilder) -> None:
    rows = W.bundled_cwe_rows() + W.generated_cwe_rows(b.rng, 900)
    catalog = b.write("catalog.csv", W.cwe_csv(rows))
    for sample in CATALOG_SCANS:
        b.bundled_scan(sample, ["--catalog", catalog])
    for sample, cwe_id in CATALOG_QUERIES:
        b.bundled_query(sample, cwe_id, ["--catalog", catalog])
    for cves in (600, 900, 1200, 1500, 1800):
        b.ingest(f"cve{cves}", catalog, [row[0] for row in rows], cves)


def plan_limits(b: PlanBuilder) -> None:
    """Inputs past the recursion limits of path enumeration (chains of
    500+ functions) and call extraction (nesting 1000+ deep). Run by
    hand: its scans and queries fail today, so it is kept out of the
    workloads in BENCHMARK.json."""
    for length in (500, 700):
        b.program(f"chain{length}", W.chain_program(b.rng, length), "CWE-242")
    for depth in (1000, 1400):
        b.program(f"nest{depth}", W.nested_program(b.rng, depth), "CWE-415")
    b.small_ingests()


PLANS = {
    "corpus": plan_corpus,
    "wide": plan_wide,
    "deep": plan_deep,
    "catalog": plan_catalog,
    "limits": plan_limits,
}


# ---------------------------------------------------------------------------
# Running operations
# ---------------------------------------------------------------------------

class Client:
    """The closed-loop client: runs one operation at a time, checks it,
    and keeps attempt and failure counts."""

    def __init__(self, workload: str):
        from pkgraph import cli

        self.cli = cli
        self.workload = workload
        self.attempted = 0
        self.failures = {}  # (kind, input, reason) -> count

    def fail(self, op: Op, reason: str) -> None:
        key = (op.kind, op.input, reason)
        self.failures[key] = self.failures.get(key, 0) + 1

    def run(self, op: Op) -> float:
        """Seconds the operation took; +inf if it failed.

        A collection follows, outside the timed region, so each operation
        starts from a collected heap as in a fresh CLI process instead of
        paying for the garbage of the operations before it. Callers
        freeze the long-lived objects first (gc.freeze), so it walks only
        what the operation left behind."""
        out = io.StringIO()
        self.attempted += 1
        start = time.perf_counter()
        try:
            # Looked up per call so that the tracer's wrapper is used.
            code = self.cli.run_cli(
                op.argv, stdin=io.StringIO(""), stdout=out, stderr=io.StringIO()
            )
        except Exception as exc:  # a crash is a failed operation, not a benchmark error
            self.fail(op, f"raised {type(exc).__name__}: {str(exc)[:100]}")
            gc.collect()
            return math.inf
        elapsed = time.perf_counter() - start
        try:
            reason = op.verdict.check(code, out.getvalue())
        except (ValueError, KeyError, TypeError, AttributeError, OSError) as exc:
            reason = f"unreadable output: {type(exc).__name__}: {exc}"
        del out
        gc.collect()
        if reason is not None:
            self.fail(op, reason)
            return math.inf
        return elapsed

    def warm_up(self, ops: list) -> None:
        """One untimed pass, then freeze everything alive so far."""
        for op in ops:
            self.run(op)
        gc.collect()
        gc.freeze()

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def report_failures(self) -> None:
        for (kind, name, reason), count in sorted(self.failures.items()):
            print(f"FAILED {self.workload} {kind} {name} x{count}: {reason}")


def setup_times(client: Client, op: Op) -> list:
    """Speed-scaled times of SETUP_RUNS fresh interpreters, each from its
    start to the end of its run of `op`, less its first reference loops.

    Each process is scaled by the loops it timed itself, just before its
    import and just after the operation: each CPU of the machine changes
    speed within seconds, and a fresh process may land on either."""
    times = []
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-I", "-c", _SETUP_CODE, str(SRC), str(HERE), *op.argv],
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            cwd=ROOT,
            timeout=SUBPROCESS_TIMEOUT_S,
            text=True,
        )
        client.attempted += 1
        last = (proc.stderr.strip().splitlines() or [""])[-1]
        # An uncaught exception also exits 1, the code for "findings".
        if proc.returncode not in (0, 1) or not last.startswith("perfbench-setup "):
            client.fail(op, f"fresh process exited {proc.returncode}: {last[:100]}")
            took = time.perf_counter() - start  # unscaled: the process never reported
        else:
            loops, done, reference = (float(x) for x in last.split()[1:])
            took = (done - start - loops) * (REFERENCE_S / reference) ** SETUP_SPEED_EXPONENT
        times.append(took)
    return times


def percentile(samples: list, q: float, ceiling: float) -> float:
    """Nearest-rank percentile; failed samples (+inf) read as `ceiling`."""
    ordered = sorted(samples)
    value = ordered[max(0, math.ceil(q * len(ordered)) - 1)]
    return ceiling if math.isinf(value) else value


def round_robin(plan: dict):
    """Yields operations kind by kind in turn, cycling through each
    kind's inputs, so every kind gets the same number of samples."""
    cursors = {kind: 0 for kind in plan}
    while True:
        for kind, ops in plan.items():
            yield ops[cursors[kind] % len(ops)]
            cursors[kind] += 1


def all_ops(plan: dict) -> list:
    return [op for ops in plan.values() for op in ops]


def run_untraced(client: Client, plan: dict, seconds: float) -> dict:
    for _ in range(50):
        reference_seconds()
    first = next(round_robin(plan))
    setup = setup_times(client, first)[1:]  # the first one warms the bytecode cache
    client.warm_up(all_ops(plan))
    samples = []  # (kind, seconds)
    reference = [reference_seconds()]
    start = time.perf_counter()
    for op in round_robin(plan):
        samples.append((op.kind, client.run(op)))
        reference.append(reference_seconds())
        elapsed = time.perf_counter() - start
        # Round-robin keeps the kinds within one sample of each other.
        if elapsed >= seconds and len(samples) >= MIN_SAMPLES * len(plan) + len(plan):
            break
        if elapsed >= MAX_STRETCH * seconds:
            break
    elapsed_ms = (time.perf_counter() - start) * 1000
    setup += setup_times(client, first)
    metrics = {"setup_s": (statistics.median(setup), "s")}
    scaled = {kind: [] for kind in KINDS}
    for (kind, took), factor in zip(samples, speed_factors(reference)):
        scaled[kind].append(took * factor * 1000)
    for kind, ms in scaled.items():
        for q, label in ((0.5, "p50"), (0.9, "p90")):
            metrics[f"{kind}_ms.{label}"] = (percentile(ms, q, elapsed_ms), "ms")
    print(f"samples per kind: {', '.join(f'{k} {len(v)}' for k, v in scaled.items())};"
          f" reference loop median {statistics.median(reference) * 1000:.3f} ms")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    return metrics


def scaled_pass(client: Client, ops: list) -> tuple:
    """Runs every operation once. Returns the pass's speed-scaled seconds
    and its scale factor, from reference loops just before and after."""
    before = [reference_seconds() for _ in range(5)]
    start = time.perf_counter()
    for op in ops:
        client.run(op)
    took = time.perf_counter() - start
    factor = REFERENCE_S / statistics.median(before + [reference_seconds() for _ in range(5)])
    return took * factor, factor


def run_traced(client: Client, plan: dict, seconds: float) -> dict:
    from tracer import Tracer

    tracer = Tracer()
    ops = all_ops(plan)
    client.warm_up(ops)
    plain_s = traced_s = 0.0
    passes = 0
    start = time.perf_counter()
    while passes == 0 or time.perf_counter() - start < seconds:
        plain_s += scaled_pass(client, ops)[0]
        tracer.install()
        try:
            took, factor = scaled_pass(client, ops)
        finally:
            tracer.uninstall()
        traced_s += took
        tracer.fold(factor)
        passes += 1
    for name in tracer.absent:
        print(f"trace: {name} is absent from the program; its metrics read 0")
    for name in sorted(tracer.counter_errors):
        print(f"trace: counters of {name} could not be read")
    print(f"trace: {passes} traced passes of {len(ops)} operations")
    return layer_metrics(tracer, passes, traced_s / plain_s - 1)


def layer_metrics(tracer, passes: int, overhead: float) -> dict:
    """Per-layer metrics per traced pass, named as in BENCHMARK.json;
    times are speed-scaled like the end-to-end latencies."""

    def ms(counter, name):
        return counter[name] / 1e6 / passes

    metrics = {}
    for name in tracer.names:
        metrics[f"{name}.calls"] = (tracer.calls[name] / passes, "count")
        metrics[f"{name}.ms"] = (ms(tracer.total_ns, name), "ms")
        metrics[f"{name}.self_ms"] = (ms(tracer.self_ns, name), "ms")
        for key, value in tracer.counts[name].items():
            metrics[f"{name}.{key}"] = (value / passes, "count")
    calls = tracer.calls["graph.enumerate_paths"]
    useful = tracer.counts["graph.enumerate_paths"]["useful"]
    metrics["graph.enumerate_paths.useful_share"] = (useful / calls if calls else 0.0, "ratio")
    errors = tracer.errors["graph.enumerate_paths"]
    metrics["graph.enumerate_paths.errors"] = (errors / passes, "count")
    metrics["trace.overhead_share"] = (overhead, "ratio")
    return metrics


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def select(metrics: dict, specs: list) -> dict:
    """The metrics BENCHMARK.json lists, in its order and with its units."""
    out = {}
    for spec in specs:
        value, _ = metrics.get(spec["name"], (0.0, spec["unit"]))
        out[spec["name"]] = {"value": value, "unit": spec["unit"]}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(PLANS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "pkgraph" / "cli.py").is_file():
        print(f"run.py: no pkgraph sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    # Generated inputs live inside the checkout, which is the only place
    # the benchmark writes to.
    with tempfile.TemporaryDirectory(prefix=".perfbench_work-", dir=ROOT) as work:
        builder = PlanBuilder(Path(work), random.Random(args.seed))
        PLANS[args.workload](builder)
        plan = {kind: ops for kind, ops in builder.ops.items() if ops}
        client = Client(args.workload)
        if args.trace:
            measured, listed = run_traced(client, plan, args.seconds), "per_layer"
        else:
            measured, listed = run_untraced(client, plan, args.seconds), "end_to_end"
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        metrics = select(measured, spec[listed])
    client.report_failures()
    print(json.dumps({
        "correct": client.failed == 0,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
