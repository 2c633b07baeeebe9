"""Seeded inputs for the pkgraph benchmark, with independent verdicts.

Every generated C program is described by a plan (functions and their
call statements) before any text exists. The verdict of a scan or a
query is computed from that plan alone: ExecOrders follow the
extractor's documented numbering (one counter over function entries
and call sites in textual order, arguments before the enclosing call),
and witness-path counts are counted by dynamic programming over the
planned call graph, never by asking pkgraph. Catalog ingest counts are
plain arithmetic over the generated rows.

A verdict's ``check(exit_code, stdout)`` returns None when the output
agrees and a one-line reason when it does not.
"""

from __future__ import annotations

import csv
import io
import json
import random
import re
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "src" / "pkgraph" / "data"

# Detector families of the bundled catalog's weakness ids. Generated
# programs only call procedures of the banned-call and double-release
# families, so the other families can never fire on them.
BANNED_CWES = ("CWE-242", "CWE-477")
DOUBLE_RELEASE_CWES = ("CWE-415", "CWE-1341")
CAPABILITY_MISSES = ("CWE-401",)
# Names a generated program must never call: they feed the families
# (sizeof typing, signal handlers, threads) the oracle does not model.
_UNMODELLED = {"sizeof", "signal", "syslog", "getlogin", "pthread_create", "getpw", "auto_ptr"}
_FILLER = ["printf", "strlen", "memcpy", "puts", "strcmp", "fputs", "write", "read", "snprintf"]

# Weakness ids whose generate_detection_query template the queries use.
QUERY_TEMPLATE_CWES = ("CWE-242", "CWE-415")
# Functions per wide program hold this many call statements.
CALLS_PER_FUNCTION = 20
# Share of generated vulnerabilities whose weakness id is in no catalog.
ORPHAN_SHARE = 0.05

_EXEC_RE = re.compile(r"ExecOrder: (\d+)")


# ---------------------------------------------------------------------------
# Program plans
# ---------------------------------------------------------------------------

@dataclass
class Call:
    """One call statement. depth > 1 nests the call in itself:
    ``atoi(atoi(s))`` is Call("atoi", "s", 2)."""

    name: str
    arg: Optional[str] = None
    depth: int = 1


@dataclass
class Function:
    name: str
    calls: list = field(default_factory=list)


@dataclass
class Site:
    exec_order: int
    name: str
    arg: Optional[str]


class Program:
    """A generated C program and the call graph the extractor must see."""

    def __init__(self, functions: list):
        self.functions = functions
        names = {fn.name for fn in functions}
        for fn in functions:
            for call in fn.calls:
                if call.name in _UNMODELLED:
                    raise ValueError(f"generated call to unmodelled procedure {call.name}")
        self.entries = {}  # function name -> entry ExecOrder
        self.sites = []  # Site, ascending ExecOrder
        self.edges = []  # (from ExecOrder, to ExecOrder)
        counter = 0
        pending = []  # (site ExecOrder, callee name)
        for fn in functions:
            counter += 1
            entry = counter
            self.entries[fn.name] = entry
            for call in fn.calls:
                arg = call.arg
                for _ in range(call.depth):
                    counter += 1
                    self.sites.append(Site(counter, call.name, arg))
                    self.edges.append((entry, counter))
                    if call.name in names:
                        pending.append((counter, call.name))
                    arg = f"{call.name}({arg or ''})"
        self.edges += [(site, self.entries[callee]) for site, callee in pending]
        called = {callee for _, callee in pending}
        self.roots = sorted(e for name, e in self.entries.items() if name not in called)

    def source(self) -> str:
        out = []
        for fn in self.functions:
            out.append(f"void {fn.name}() {{\n")
            for call in fn.calls:
                text = call.arg or ""
                for _ in range(call.depth):
                    text = f"{call.name}({text})"
                out.append(f"    {text};\n")
            out.append("}\n")
        return "".join(out)

    def path_counts(self, starts: list) -> dict:
        """Number of call-graph paths from any of `starts` to each node.

        Plans are acyclic, so edge-unique paths are all paths; a Kahn
        order avoids recursion on deep chains."""
        indegree = Counter(target for _, target in self.edges)
        succ = {}
        for source, target in self.edges:
            succ.setdefault(source, []).append(target)
        nodes = list(self.entries.values()) + [s.exec_order for s in self.sites]
        counts = {n: (1 if n in starts else 0) for n in nodes}
        ready = [n for n in nodes if indegree[n] == 0]
        seen = 0
        while ready:
            node = ready.pop()
            seen += 1
            for target in succ.get(node, ()):
                counts[target] += counts[node]
                indegree[target] -= 1
                if indegree[target] == 0:
                    ready.append(target)
        if seen != len(nodes):
            raise ValueError("generated call graph has a cycle")
        return counts


def wide_program(rng: random.Random, n: int) -> Program:
    """n functions x CALLS_PER_FUNCTION calls. Callees form a forest
    (every function has at most one caller) of n // 10 trees of equal
    size, the first rooted at main. Two calls per function are catalog
    events: max(1, n // 4) handles are each freed twice and closed twice,
    and the rest are gets and atoi. Only shapes and positions are
    random, so the work per size barely depends on the seed."""
    roots = max(1, n // 10)
    bodies = [[] for _ in range(n)]
    for i in range(roots, n):
        same_tree = range(i % roots, i, roots)
        parents = [j for j in same_tree if len(bodies[j]) < CALLS_PER_FUNCTION - 2]
        bodies[rng.choice(parents)].append(Call(f"f{i}"))
    handles = [f"h{k}" for k in range(max(1, n // 4))] * 2
    events = [Call(kind, h) for h in handles for kind in ("free", "fclose")]
    events += [
        Call("gets", "buf") if k % 2 else Call("atoi", "s") for k in range(2 * n - len(events))
    ]
    rng.shuffle(events)
    for i, event in enumerate(events):
        bodies[i // 2].append(event)
    for body in bodies:
        while len(body) < CALLS_PER_FUNCTION:
            body.append(Call(rng.choice(_FILLER), "x"))
        rng.shuffle(body)
    names = ["main"] + [f"f{i}" for i in range(1, n)]
    return Program([Function(name, body) for name, body in zip(names, bodies)])


def chain_program(rng: random.Random, length: int) -> Program:
    """main -> f1 -> ... -> f<length-1>; the last function calls gets and
    releases one handle twice. One witness path per terminal, of length
    2 * length - 1 edges."""
    functions = []
    for i in range(length):
        body = [Call(rng.choice(_FILLER), "x")]
        if i + 1 < length:
            body.append(Call(f"f{i + 1}"))
        else:
            body += [Call("gets", "buf"), Call("free", "p"), Call("free", "p")]
        functions.append(Function("main" if i == 0 else f"f{i}", body))
    return Program(functions)


def diamond_program(rng: random.Random, levels: int) -> Program:
    """Each level calls the next twice, so the gets call in the last
    level has 2**levels witness paths; a mid-level atoi has fewer."""
    functions = []
    for i in range(levels + 1):
        body = [Call(rng.choice(_FILLER), "x")]
        if i < levels:
            body += [Call(f"d{i + 1}"), Call(f"d{i + 1}")]
        else:
            body.append(Call("gets", "buf"))
        if i == levels // 2:
            body.append(Call("atoi", "s"))
        functions.append(Function("main" if i == 0 else f"d{i}", body))
    return Program(functions)


def nested_program(rng: random.Random, depth: int) -> Program:
    """main holds atoi(atoi(...(s))) nested depth deep: depth call sites,
    innermost first, each a CWE-242 terminal."""
    return Program([
        Function("main", [Call(rng.choice(_FILLER), "x"), Call("atoi", "s", depth)])
    ])


# ---------------------------------------------------------------------------
# Verdicts
# ---------------------------------------------------------------------------

def bundled_cwe_rows() -> list:
    """Rows (cwe_id, name, description, function_events) of the bundled
    catalog, read with the csv module rather than pkgraph's parser."""
    with open(DATA / "cwe-catalog.csv", newline="", encoding="utf-8") as handle:
        return list(csv.reader(handle))[1:]


def _events(row: list) -> list:
    return [e.strip() for e in row[3].split(";") if e.strip()]


def _ends(path: str) -> tuple:
    """ExecOrders of the first and last node of a rendered path."""
    first, _, rest = path.partition("-[:")
    last = rest.rsplit("->", 1)[-1] if rest else first
    return int(_EXEC_RE.search(first).group(1)), int(_EXEC_RE.search(last).group(1))


@dataclass
class ScanVerdict:
    """Exact findings of a generated program under the bundled catalog:
    per finding its weakness id, terminal ExecOrders and witness-path
    count per terminal."""

    findings: list  # (cwe_id, [terminal ExecOrders], {terminal: path count})
    roots: set
    unsupported: list

    def check(self, code: int, out: str) -> Optional[str]:
        want_code = 1 if self.findings else 0
        if code != want_code:
            return f"exit code {code}, expected {want_code}"
        doc = json.loads(out)
        unsupported = [u["cwe_id"] for u in doc["unsupported"]]
        if unsupported != self.unsupported:
            return f"unsupported {unsupported}, expected {self.unsupported}"
        got = doc["findings"]
        if len(got) != len(self.findings):
            return f"{len(got)} findings, expected {len(self.findings)}"
        for k, (finding, (cwe_id, terminals, counts)) in enumerate(zip(got, self.findings)):
            got_terminals = [t["properties"]["ExecOrder"] for t in finding["terminals"]]
            if (finding["cwe_id"], got_terminals) != (cwe_id, terminals):
                return (
                    f"finding {k} is {finding['cwe_id']} at {got_terminals},"
                    f" expected {cwe_id} at {terminals}"
                )
            ends = [_ends(p) for p in finding["paths"]]
            if any(start not in self.roots for start, _ in ends):
                return f"finding {k} has a witness path that does not start at an entry"
            got_counts = Counter(end for _, end in ends)
            if got_counts != Counter(counts):
                return f"finding {k} path counts {dict(got_counts)}, expected {counts}"
        return None


def scan_verdict(program: Program) -> ScanVerdict:
    counts = program.path_counts(program.roots)
    findings = []
    for row in bundled_cwe_rows():
        cwe_id, events = row[0], _events(row)
        if cwe_id in BANNED_CWES:
            for site in program.sites:
                if site.name in events:
                    findings.append((cwe_id, [site.exec_order]))
        elif cwe_id in DOUBLE_RELEASE_CWES:
            groups = {}
            for site in program.sites:
                if site.name in events and site.arg is not None:
                    groups.setdefault(site.arg, []).append(site.exec_order)
            findings += [(cwe_id, members) for members in groups.values() if len(members) > 1]
    findings.sort(key=lambda f: (f[0], min(f[1])))
    return ScanVerdict(
        [(cwe_id, terms, {t: counts[t] for t in terms}) for cwe_id, terms in findings],
        set(program.roots),
        list(CAPABILITY_MISSES),
    )


@dataclass
class QueryVerdict:
    """Row count and non-null witness paths per terminal ExecOrder of a
    detection-template query. ``rows`` None means only the header and
    exit code are checked; ``min_rows`` bounds the count from below."""

    header: str
    rows: Optional[int] = None
    paths: Optional[dict] = None
    min_rows: int = 0

    def check(self, code: int, out: str) -> Optional[str]:
        if code != 0:
            return f"exit code {code}, expected 0"
        lines = out.splitlines()
        if not lines or lines[0] != self.header:
            return f"header {lines[:1]}, expected {self.header!r}"
        rows = lines[1:]
        if self.rows is not None and len(rows) != self.rows:
            return f"{len(rows)} rows, expected {self.rows}"
        if len(rows) < self.min_rows:
            return f"{len(rows)} rows, expected at least {self.min_rows}"
        if self.paths is not None:
            ends = Counter(
                _ends(cell)[1]
                for cell in (row.rsplit(" | ", 1)[-1] for row in rows)
                if cell != "null"
            )
            want = Counter({t: n for t, n in self.paths.items() if n})
            if ends != want:
                return f"paths per terminal {dict(ends)}, expected {dict(want)}"
        return None


_HEADERS = {"CWE-242": "callgraph | path", "CWE-415": "path"}


def query_verdict(program: Program, cwe_id: str) -> QueryVerdict:
    """Rows of the CWE-242 or CWE-415 template query started at main:
    one row per matched call site and witness path, or one null row for
    a site that main cannot reach."""
    counts = program.path_counts([program.entries["main"]])
    if cwe_id == "CWE-242":
        (events,) = [_events(row) for row in bundled_cwe_rows() if row[0] == cwe_id]
        terminals = [s.exec_order for s in program.sites if s.name in events]
    else:
        groups = {}
        for site in program.sites:
            if site.name == "free" and site.arg is not None:
                groups.setdefault(site.arg, []).append(site.exec_order)
        terminals = [t for members in groups.values() if len(members) > 1 for t in members]
    return QueryVerdict(
        _HEADERS[cwe_id],
        rows=sum(max(1, counts[t]) for t in terminals),
        paths={t: counts[t] for t in terminals},
    )


def bundled_samples() -> list:
    """The 23 bundled samples: 15 weakness samples and 8 clean ones."""
    return sorted(
        p for d in ("corpus", "clean") for p in (DATA / d).iterdir() if p.suffix in (".c", ".cpp")
    )


def corpus_expectation(path: Path) -> Optional[str]:
    """Weakness id a bundled sample is named after; None for clean."""
    if path.parent.name == "clean":
        return None
    return "CWE-" + path.name.split("_")[0][3:]


@dataclass
class CorpusScanVerdict:
    """Bundled-sample verdict from the file name: a weakness sample
    reports its weakness (CWE-401 as a capability miss instead), a
    clean sample reports nothing, and no finding carries a weakness id
    outside `known` (generated catalog rows never match)."""

    expected: Optional[str]
    known: frozenset

    def check(self, code: int, out: str) -> Optional[str]:
        doc = json.loads(out)
        found = [f["cwe_id"] for f in doc["findings"]]
        unsupported = [u["cwe_id"] for u in doc["unsupported"]]
        if code != (1 if found else 0):
            return f"exit code {code} with {len(found)} findings"
        if self.expected is None:
            return f"clean sample reported {found}" if found else None
        stray = sorted(set(found) - self.known)
        if stray:
            return f"findings for weakness ids outside the bundled catalog: {stray}"
        if self.expected in CAPABILITY_MISSES:
            if self.expected in found or self.expected not in unsupported:
                return f"{self.expected} must be a capability miss"
            return None
        return None if self.expected in found else f"{self.expected} not reported"


def corpus_query_verdict(path: Path, cwe_id: str) -> QueryVerdict:
    expected = corpus_expectation(path)
    if expected is None:
        return QueryVerdict(_HEADERS[cwe_id], rows=0)
    return QueryVerdict(_HEADERS[cwe_id], min_rows=1 if expected == cwe_id else 0)


@dataclass
class IngestVerdict:
    nodes: int
    edges: int
    orphans: int
    out_dir: Path

    def check(self, code: int, out: str) -> Optional[str]:
        if code != 0:
            return f"exit code {code}, expected 0"
        m = re.match(r"ingested (\d+) nodes, (\d+) edges \((\d+) orphan CVEs\)", out)
        if not m:
            return f"unexpected ingest output {out[:80]!r}"
        got = tuple(int(g) for g in m.groups())
        if got != (self.nodes, self.edges, self.orphans):
            return f"nodes/edges/orphans {got}, expected {(self.nodes, self.edges, self.orphans)}"
        node_lines = (self.out_dir / "nodes.csv").read_bytes().count(b"\n")
        edge_lines = (self.out_dir / "relationships.csv").read_bytes().count(b"\n")
        if (node_lines, edge_lines) != (self.nodes + 1, self.edges + 1):
            return (
                f"exported {node_lines}/{edge_lines} lines,"
                f" expected {self.nodes + 1}/{self.edges + 1}"
            )
        return None


# ---------------------------------------------------------------------------
# Catalogs
# ---------------------------------------------------------------------------

def generated_cwe_rows(rng: random.Random, count: int) -> list:
    """Weakness rows with ids outside every detector family, whose
    function events are synthetic names no program calls, so they fall
    back to the banned-call rule and never match."""
    rows = []
    for i in range(count):
        events = ";".join(
            f"legacy_api_{rng.randrange(10**6):06d}" for _ in range(rng.randint(1, 4))
        )
        rows.append([f"CWE-{20000 + i}", f"Generated weakness {i}", f"Synthetic rule {i}.", events])
    return rows


def cwe_csv(rows: list) -> bytes:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["cwe_id", "name", "description", "function_events"])
    writer.writerows(rows)
    return out.getvalue().encode("utf-8")


def cve_csv(rng: random.Random, count: int, cwe_ids: list):
    """A vulnerability catalog and the (nodes, edges, orphans) an ingest
    of it with `cwe_ids` must report."""
    products = [f"Product{k}" for k in range(max(4, count // 20))]
    versions = [f"{major}.{minor}" for major in range(1, 4) for minor in range(4)]
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(
        ["cve_id", "description", "cwe_id", "cvss2_score", "product", "affected_versions"]
    )
    pairs = set()
    edges = orphans = 0
    for i in range(count):
        orphan = rng.random() < ORPHAN_SHARE
        cwe_id = "CWE-99999" if orphan else rng.choice(cwe_ids)
        product = rng.choice(products)
        affected = rng.sample(versions, rng.randint(1, 3))
        writer.writerow([
            f"CVE-{2015 + i % 10}-{10000 + i}",
            f"Synthetic vulnerability {i}",
            cwe_id,
            f"{rng.randint(0, 100) / 10:.1f}",
            product,
            ";".join(affected),
        ])
        orphans += orphan
        edges += 1 + (not orphan) + len(affected)
        pairs.update((product, v) for v in affected)
    nodes = len(cwe_ids) + 2 * count + len(pairs)
    return out.getvalue().encode("utf-8"), (nodes, edges, orphans)
