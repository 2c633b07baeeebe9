"""Call-graph extraction from a C subset.

Recognizes top-level function definitions and records every call
expression inside their bodies, in evaluation order, with a textual
rendering of each argument. The result feeds a property graph whose
nodes carry ExecOrder / Name / ArgumentN, connected by CALLS edges.

Deliberately not a C parser: no preprocessor, no typedef resolution, no
control-flow. Calls under if/while/for are recorded unconditionally in
textual order. See docs/c-subset.md for the recognized grammar.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from itertools import accumulate
from operator import itemgetter, sub

from .graph import GraphError, PropertyGraph, Record

# Keywords that look like calls but are statements/operators we descend
# into rather than record. sizeof is intentionally absent: it must be a
# queryable node because weakness catalogs list it as a program event.
_CONTROL_KEYWORDS = {"if", "while", "for", "switch", "return", "do", "else"}

_TYPE_WORDS = {
    "void", "char", "short", "int", "long", "float", "double",
    "signed", "unsigned", "size_t", "ssize_t", "FILE", "struct",
    "union", "const", "static", "auto", "register", "bool",
}

# One match per token: its leading whitespace, then one alternative per
# token kind, or any other non-whitespace character, which is an error.
# Each alternative starts with characters no other one starts with, so a
# token's first character gives its kind (_KIND_OF). Without re.DOTALL
# `.` never matches a newline, so `\\.` in a literal cannot escape one.
# Trailing whitespace is cut off with endpos, where `\s*` would otherwise
# be retried at every offset of it.
_TOKEN_RE = re.compile(
    r"""
    \s*(?:
    [A-Za-z_][A-Za-z0-9_]*
  | (?:0[xX][0-9a-fA-F]+|[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?)[uUlLfF]*
  | "(?:[^"\\\n]|\\.)*"
  | '(?:[^'\\\n]|\\.)*'
  | ::|->|\+\+|--|<<|>>|<=|>=|==|!=|&&|\|\||[-+*/%&|^~!<>=?:;,.(){}\[\]\\\#]
  | \S
    )
    """,
    re.VERBOSE,
)
_KIND_OF = {
    **dict.fromkeys("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_", "id"),
    **dict.fromkeys("0123456789", "num"),
    '"': "str",
    "'": "char",
    **dict.fromkeys("-+*/%&|^~!<>=?:;,.(){}[]\\#", "punct"),
}
# Argument text collapses every whitespace run to one space; only runs
# of two or more characters shift the offsets after them.
_RUN_RE = re.compile(r"\s+")
_LONG_RUN_RE = re.compile(r"\s\s+")

# What _blank_comments recognizes. A literal may span lines and runs to
# the end of the text when unterminated; it is kept. A `/*` comment runs
# to the first `*/` after it, or to the end. A directive is a `#` preceded
# on its line only by whitespace, which stays, and runs to the end of the
# line, continued by a backslash-newline; it is matched from the newline
# before its line, which stays too. Each alternative starts with one
# given character, so the engine skips to the next quote, slash or
# newline instead of trying every alternative at every offset.
_BLANK_RE = re.compile(
    r"""
    "(?:[^"\\]|\\[\s\S])*"?
  | '(?:[^'\\]|\\[\s\S])*'?
  | //[^\n]*
  | /\*[\s\S]*?(?:\*/|\Z)
  | \n(?P<indent>[^\S\n]*)\#(?:\\\n|[^\n])*
    """,
    re.VERBOSE,
)
_NOT_NEWLINE_RE = re.compile(r"[^\n]")


class ParseError(Exception):
    def __init__(self, line: int, column: int, message: str):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column
        self.message = message


def _position(text: str, offset: int) -> tuple:
    """1-based (line, column) of offset in text."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _error(blanked: str, offset: int, message: str) -> ParseError:
    return ParseError(*_position(blanked, offset), message)


class CallSite(Record):
    __slots__ = ("exec_order", "name", "arguments")


class FunctionDef(Record):
    __slots__ = ("name", "exec_order", "call_sites", "pointer_locals")


class TranslationUnit(Record):
    __slots__ = ("functions",)


# ---------------------------------------------------------------------------
# Tokenizing
# ---------------------------------------------------------------------------

def _blank(match) -> str:
    text = match.group()
    if text[0] in "\"'":
        return text
    indent = match.group("indent")
    kept = 0 if indent is None else 1 + len(indent)  # a directive's newline and indent
    return text[:kept] + _NOT_NEWLINE_RE.sub(" ", text[kept:])


def _blank_comments(source: str) -> str:
    """Replace comments and preprocessor lines with spaces, preserving
    offsets and newlines so token positions stay source-accurate. A
    newline put in front, and cut off again, lets a directive start the
    text."""
    return _BLANK_RE.sub(_blank, "\n" + source)[1:]


def _tokenize(blanked: str) -> tuple:
    """The tokens of blanked as four parallel lists: kinds, texts, and
    start and end offsets into blanked. One findall gives each token with
    its leading whitespace; a token ends where the running length of
    those pieces does, and starts its own length before that. The first
    token that starts with a character outside _KIND_OF, or that is a
    quote opening no literal, raises ParseError."""
    pieces = _TOKEN_RE.findall(blanked, 0, len(blanked.rstrip()))
    texts = list(map(str.lstrip, pieces))
    ends = list(accumulate(map(len, pieces)))
    starts = list(map(sub, ends, map(len, texts)))
    try:
        kinds = list(map(_KIND_OF.__getitem__, map(itemgetter(0), texts)))
    except KeyError:
        kinds = None
    if kinds is None or '"' in texts or "'" in texts:
        i = next(i for i, text in enumerate(texts) if text[0] not in _KIND_OF or text in ('"', "'"))
        c = texts[i]
        message = "unterminated literal" if c in "\"'" else f"unexpected character {c!r}"
        raise _error(blanked, starts[i], message)
    return kinds, texts, starts, ends


# ---------------------------------------------------------------------------
# Extraction
# ---------------------------------------------------------------------------

def _bracket_index(texts: list) -> tuple:
    """One pass over the token texts, returning three indexes:

    - the bracket table: the index of the closing token per '(' and '{'
      token index, matched with one stack per kind; an opener without a
      match is absent. Each match is the one a forward scan counting
      only that kind finds;
    - the depth before each token: every '(', '[' and '{' before it
      minus every ')', ']' and '}', matched or not, so it may go below 0;
    - per depth, the ascending indexes of the commas at that depth.
    """
    table = {}
    parens, braces = [], []
    depths = []
    commas = {}
    depth = 0
    for j, text in enumerate(texts):
        depths.append(depth)
        if text == ",":
            commas.setdefault(depth, []).append(j)
        elif text == "(":
            parens.append(j)
            depth += 1
        elif text == ")":
            if parens:
                table[parens.pop()] = j
            depth -= 1
        elif text == "{":
            braces.append(j)
            depth += 1
        elif text == "}":
            if braces:
                table[braces.pop()] = j
            depth -= 1
        elif text == "[":
            depth += 1
        elif text == "]":
            depth -= 1
    return table, depths, commas


class _Tokens:
    """The tokens of a blanked text as parallel lists, with the indexes
    of _bracket_index over their texts, the call heads of _call_heads
    and the ascending indexes of the '*' tokens."""

    __slots__ = (
        "blanked", "kinds", "texts", "starts", "ends", "table", "depths", "commas",
        "heads", "opens", "stars", "_runs",
    )

    def __init__(self, blanked: str):
        self.blanked = blanked
        self.kinds, self.texts, self.starts, self.ends = _tokenize(blanked)
        self.table, self.depths, self.commas = _bracket_index(self.texts)
        self.heads, self.opens = _call_heads(self.kinds, self.texts)
        self.stars = _positions(self.texts, "*")
        self._runs = None

    def error(self, i: int, message: str) -> ParseError:
        return _error(self.blanked, self.starts[i], message)

    def closing(self, i: int) -> int:
        """Index of the token closing the bracket at token i."""
        close = self.table.get(i)
        if close is None:
            raise self.error(i, f"unbalanced {self.texts[i]!r}")
        return close

    def collapsed(self, start: int, end: int) -> str:
        """blanked[start:end] with each whitespace run collapsed to one
        space, where no run straddles start or end (true of token starts
        and ends). Slices one collapsed copy of the whole text, made on
        first use: an offset moves back by the characters that the runs
        ending at or before it lost."""
        if self._runs is None:
            run_ends, removed = [], [0]
            for m in _LONG_RUN_RE.finditer(self.blanked):
                run_ends.append(m.end())
                removed.append(removed[-1] + m.end() - m.start() - 1)
            self._runs = _RUN_RE.sub(" ", self.blanked), run_ends, removed
        text, run_ends, removed = self._runs
        return text[
            start - removed[bisect_right(run_ends, start)] : end - removed[bisect_right(run_ends, end)]
        ]


def _skip_template_args(kinds: list, texts: list, i: int) -> int:
    """If token i opens a template-argument list made only of simple
    tokens (ids, '*', ',', '::', numbers, nested <>), return the index
    after the closing '>'. Otherwise return i. Lets C++ spellings like
    auto_ptr<char>(p) register a call named auto_ptr."""
    if i >= len(texts) or texts[i] != "<":
        return i
    depth = 0
    j = i
    while j < len(texts):
        text = texts[j]
        if text == "<":
            depth += 1
        elif text == ">":
            depth -= 1
            if depth == 0:
                return j + 1
        elif kinds[j] not in ("id", "num") and text not in ("*", ",", "::"):
            return i
        j += 1
    return i


def _positions(texts: list, text: str) -> list:
    """Ascending indexes of the tokens equal to text."""
    found = []
    j = -1
    try:
        while True:
            j = texts.index(text, j + 1)
            found.append(j)
    except ValueError:
        return found


def _call_heads(kinds: list, texts: list) -> tuple:
    """The tokens that _scan_calls may record as calls, as two ascending
    parallel lists: each identifier, other than a control keyword,
    followed by '(' directly or after a template-argument list, and the
    index of that '('. Only the '(' and '<' tokens are visited."""
    heads, opens = [], []
    n = len(texts)
    for j in sorted(_positions(texts, "(") + _positions(texts, "<")):
        head = j - 1
        if head < 0 or kinds[head] != "id" or texts[head] in _CONTROL_KEYWORDS:
            continue
        open_ = j if texts[j] == "(" else _skip_template_args(kinds, texts, j)
        if open_ < n and texts[open_] == "(":
            heads.append(head)
            opens.append(open_)
    return heads, opens


def _render_argument(toks: _Tokens, lo: int, hi: int) -> str:
    if hi - lo == 1:
        kind = toks.kinds[lo]
        if kind == "str":
            return toks.texts[lo][1:-1]  # inner text, escapes kept as written
        if kind in ("num", "id", "char"):
            return toks.texts[lo]
    return toks.collapsed(toks.starts[lo], toks.ends[hi - 1])


def _split_arguments(toks: _Tokens, lo: int, hi: int) -> list:
    """Render the comma-separated arguments in tokens lo..hi-1. They
    split at the commas at the depth before token lo. An empty argument
    raises ParseError at the comma after it, or at the comma before it
    when it is the last."""
    if lo >= hi:
        return []
    if hi - lo == 1 and toks.texts[lo] != ",":
        return [_render_argument(toks, lo, hi)]
    commas = toks.commas.get(toks.depths[lo], ())
    first = bisect_left(commas, lo)
    args = []
    start = lo
    for j in commas[first : bisect_left(commas, hi, first)]:
        if start == j:
            raise toks.error(j, "empty argument")
        args.append(_render_argument(toks, start, j))
        start = j + 1
    if start == hi:
        raise toks.error(hi - 1, "empty argument")
    args.append(_render_argument(toks, start, hi))
    return args


def _scan_calls(toks: _Tokens, lo: int, hi: int) -> list:
    """(name, arguments) of each call in tokens lo..hi-1, in evaluation
    order: a call is appended after the calls in its arguments. Nesting
    is kept on an explicit stack of pending calls, not in recursion.
    Only the call heads are visited: the next one at or after a range's
    start is the first token there that a walk over its tokens would
    record, and none lies inside a template-argument list it skips."""
    heads, opens, texts = toks.heads, toks.opens, toks.texts
    out = []
    pending = []  # (head index, '(' index, ')' index, hi of the enclosing range)
    k = bisect_left(heads, lo)
    while True:
        if k < len(heads) and heads[k] < hi:
            head, open_ = heads[k], opens[k]
            k += 1
            if open_ < hi:
                close = toks.closing(open_)
                pending.append((head, open_, close, hi))
                hi = close
        elif pending:
            head, open_, close, hi = pending.pop()
            out.append((texts[head], _split_arguments(toks, open_ + 1, close)))
        else:
            return out


def _pointer_decls(toks: _Tokens, lo: int, hi: int) -> set:
    """Identifiers declared with pointer type in tokens lo..hi-1. A
    declarator is recognized as <type word(s)> '*'+ <name> followed by a
    declarator terminator; multiplication never matches because the
    left operand is preceded by an operator, not a statement boundary.
    Only the '*' tokens are visited: each that follows an identifier
    starts a run, and the name after a run may start the next one."""
    kinds, texts, stars = toks.kinds, toks.texts, toks.stars
    names = set()
    for star in stars[bisect_left(stars, lo + 1) : bisect_left(stars, hi - 1)]:
        i = star - 1
        if kinds[i] != "id":
            continue
        j = star + 1
        while j < hi and texts[j] == "*":
            j += 1
        if j < hi and kinds[j] == "id" and (j + 1 == hi or texts[j + 1] in ("=", ";", ",", ")", "[")):
            prev = texts[i - 1] if i > lo else ";"
            if texts[i] in _TYPE_WORDS or prev in (";", "{", "}", "(", ","):
                names.add(texts[j])
    return names


def _warn_skipped(blanked: str, offset: int) -> None:
    import logging  # here, so that a clean parse does not load it

    logging.getLogger(__name__).warning(
        "skipping unparseable top-level item at %d:%d", *_position(blanked, offset)
    )


def extract_translation_unit(source: str) -> TranslationUnit:
    """Extract function definitions and their call sites.

    exec_order is assigned by one global counter over function entries
    and call sites in textual order. Unparseable top-level items are
    skipped with a warning; unbalanced brackets raise ParseError.
    """
    blanked = _blank_comments(source)
    toks = _Tokens(blanked)
    kinds, texts = toks.kinds, toks.texts
    tu = TranslationUnit([])
    defined = set()
    counter = 0
    i = 0
    n = len(texts)
    while i < n:
        text = texts[i]
        if kinds[i] == "id" and i + 1 < n and texts[i + 1] == "(":
            close = toks.closing(i + 1)
            if close + 1 < n and texts[close + 1] == "{":
                body_close = toks.closing(close + 1)
                if text in defined:
                    raise toks.error(i, f"duplicate definition of {text!r}")
                counter += 1
                pointer_locals = _pointer_decls(toks, i + 2, close) | _pointer_decls(
                    toks, close + 2, body_close
                )
                fn = FunctionDef(text, counter, [], pointer_locals)
                for callee, args in _scan_calls(toks, close + 2, body_close):
                    counter += 1
                    fn.call_sites.append(CallSite(counter, callee, args))
                tu.functions.append(fn)
                defined.add(text)
                i = body_close + 1
                continue
            # declaration/prototype: skip past the terminating ';'
            j = close + 1
            while j < n and texts[j] != ";":
                j += 1
            i = j + 1
            continue
        if text == "{":
            # a block that starts an item, such as the body after a K&R
            # parameter declaration list
            close = toks.closing(i)
            _warn_skipped(blanked, toks.starts[i])
            i = close + 1
            continue
        if text == ";":
            i += 1
            continue
        # anything else: advance; warn once per skipped run of tokens,
        # which takes in a block it ends at (a struct body we don't model).
        # A run ending at `name (` is the return type of a definition we
        # are about to recognize, not an unparseable item.
        run_start = i
        while i < n and texts[i] not in (";", "{") and not (
            kinds[i] == "id" and i + 1 < n and texts[i + 1] == "("
        ):
            i += 1
        if i == run_start:
            i += 1
        elif not (i < n and kinds[i] == "id"):
            _warn_skipped(blanked, toks.starts[run_start])
            if i < n and texts[i] == "{":
                i = toks.closing(i) + 1
    return tu


class _CallGraphIndex(Record):
    """Which CallGraph nodes are function entries and which are call sites."""

    __slots__ = (
        "entries",  # function-entry node ids, ascending
        "roots",  # entries without an incoming CALLS edge, `main` first
        "by_name",  # call-site Name -> call-site ids, ascending
        "pointer_locals",  # per entry, the names its function declares as pointers
        "entry_of",  # function name -> entry id, of every function
        "all_by_name",  # by_name over the call sites of every function
    )


def call_graph_index(graph: PropertyGraph) -> _CallGraphIndex:
    """The graph's call-graph classification, read as
    graph.derived(call_graph_index). build_call_graph keeps it with the
    graph it builds, so this runs only for a graph that holds none: one
    without CallGraph nodes has an empty index, and one whose CallGraph
    nodes build_call_graph did not index (added by hand, or changed after
    the build) is refused with GraphError."""
    if graph.node_count and graph.find_nodes("CallGraph"):
        raise GraphError(
            "CallGraph nodes not indexed by build_call_graph: build the call graph"
            " with build_call_graph and add nothing to the graph after it"
        )
    return _CallGraphIndex((), (), {}, (), {}, {})


def build_call_graph(tu: TranslationUnit, graph: PropertyGraph) -> dict:
    """Materialize a translation unit as CallGraph nodes and CALLS edges.

    One node per function entry ({ExecOrder, Name}) and per call site
    ({ExecOrder, Name, Argument1..N}); an edge from each entry to its
    call sites, plus an interprocedural edge from any call site whose
    callee is defined in this unit to that callee's entry node. The
    nodes and edges go to the graph as one batch, each node's id known
    in advance.

    The graph also keeps the unit's _CallGraphIndex, which detection
    reads as graph.derived(call_graph_index). It is made from the
    functions, not the edges: the roots are the entries no call site
    calls, and a function is kept, with its entry, call sites and pointer
    locals, when a root reaches it, so a recursive group that no root
    reaches stays unclassified; entry_of and all_by_name still list every
    function's entry and call sites. A graph that already held CallGraph
    nodes keeps nothing, since the index would not cover them, and a
    later change to the graph drops what it kept. That is decided after
    the batch: a fresh graph's CallGraph nodes are all the batch's, and
    on any other the label index that counts them is the one its later
    reads use.

    Returns a map from function name to entry node id.
    """
    functions = tu.functions
    entries = {}  # function name -> entry id
    entry_ids = []  # per function
    before = node_id = graph.node_count  # the last id issued
    for fn in functions:
        node_id += 1
        entries[fn.name] = node_id
        entry_ids.append(node_id)
        node_id += len(fn.call_sites)

    def nodes():
        keys = []  # "Argument1", "Argument2", ...: as many as the most arguments so far
        for fn in functions:
            yield "CallGraph", {"ExecOrder": fn.exec_order, "Name": fn.name}
            for site in fn.call_sites:
                props = {"ExecOrder": site.exec_order, "Name": site.name}
                args = site.arguments
                if len(args) == 1:  # most calls: set without a zip, which costs more than the dict
                    props["Argument1"] = args[0]
                elif args:
                    if len(args) > len(keys):
                        keys += [f"Argument{k}" for k in range(len(keys) + 1, len(args) + 1)]
                    for key, arg in zip(keys, args):
                        props[key] = arg
                yield "CallGraph", props

    edges = [
        (entry, site, "CALLS")
        for entry, fn in zip(entry_ids, functions)
        for site in range(entry + 1, entry + 1 + len(fn.call_sites))
    ]
    callees = {}  # entry id -> entry ids its call sites call
    by_name = {}  # call-site Name -> call-site ids, of every function
    for entry, fn in zip(entry_ids, functions):
        called = callees[entry] = []
        for site, call in enumerate(fn.call_sites, entry + 1):
            callee = entries.get(call.name)
            if callee is not None:
                edges.append((site, callee, "CALLS"))
                called.append(callee)
            sites = by_name.get(call.name)
            if sites is None:
                by_name[call.name] = [site]
            else:
                sites.append(site)
    graph.add(nodes(), edges)
    if before == 0 or len(graph.find_nodes("CallGraph")) == node_id - before:
        graph.keep(call_graph_index, _classify(functions, entry_ids, callees, by_name))
    return entries


def _classify(functions: list, entry_ids: list, callees: dict, all_by_name: dict) -> _CallGraphIndex:
    """The _CallGraphIndex of one unit's nodes: the functions a root
    reaches, their pointer locals, and of all_by_name the call sites in
    them."""
    has_caller = set().union(*callees.values())
    roots = [entry for entry in entry_ids if entry not in has_caller]
    kept = set(roots)
    stack = list(roots)
    while stack:
        for callee in callees[stack.pop()]:
            if callee not in kept:
                kept.add(callee)
                stack.append(callee)
    pointer_locals = [fn.pointer_locals for fn in functions]
    entries, by_name = entry_ids, all_by_name
    if len(kept) < len(entry_ids):
        pointer_locals = [names for entry, names in zip(entry_ids, pointer_locals) if entry in kept]
        entries = [entry for entry in entry_ids if entry in kept]
        by_name = {  # a site belongs to the last entry before it
            name: kept_sites
            for name, sites in all_by_name.items()
            if (kept_sites := [s for s in sites if entry_ids[bisect_right(entry_ids, s) - 1] in kept])
        }
    entry_of = dict(zip([fn.name for fn in functions], entry_ids))
    main = entry_of.get("main")
    roots.sort(key=lambda entry: entry != main)
    return _CallGraphIndex(
        tuple(entries), tuple(roots), by_name, tuple(pointer_locals), entry_of, all_by_name
    )
