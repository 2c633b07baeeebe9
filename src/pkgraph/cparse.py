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

import logging
import re
from dataclasses import dataclass, field

from .graph import PropertyGraph

log = logging.getLogger(__name__)

# Keywords that look like calls but are statements/operators we descend
# into rather than record. sizeof is intentionally absent: it must be a
# queryable node because weakness catalogs list it as a program event.
_CONTROL_KEYWORDS = {"if", "while", "for", "switch", "return", "do", "else"}

_TYPE_WORDS = {
    "void", "char", "short", "int", "long", "float", "double",
    "signed", "unsigned", "size_t", "ssize_t", "FILE", "struct",
    "union", "const", "static", "auto", "register", "bool",
}

# One alternative per token kind, tried in order at each offset: a run of
# whitespace (unnamed, so its lastgroup is None), a token, or any other
# single character, which is an error. Without re.DOTALL `.` never matches
# a newline, so `\\.` in a literal cannot escape one; `\s+` takes it.
_TOKEN_RE = re.compile(
    r"""
    \s+
  | (?P<id>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<num>(?:0[xX][0-9a-fA-F]+|[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?)[uUlLfF]*)
  | (?P<str>"(?:[^"\\\n]|\\.)*")
  | (?P<char>'(?:[^'\\\n]|\\.)*')
  | (?P<punct>::|->|\+\+|--|<<|>>|<=|>=|==|!=|&&|\|\||[-+*/%&|^~!<>=?:;,.(){}\[\]\\\#])
  | (?P<bad>.)
    """,
    re.VERBOSE,
)

# What _blank_comments recognizes. A literal may span lines and runs to
# the end of the text when unterminated; it is kept. A `/*` comment runs
# to the first `*/` after it, or to the end. A directive is a `#` preceded
# on its line only by whitespace, which stays, and runs to the end of the
# line, continued by a backslash-newline.
_BLANK_RE = re.compile(
    r"""
    (?P<literal>"(?:[^"\\]|\\[\s\S])*"?|'(?:[^'\\]|\\[\s\S])*'?)
  | //[^\n]*
  | /\*[\s\S]*?(?:\*/|\Z)
  | ^(?P<indent>[^\S\n]*)\#(?:\\\n|[^\n])*
    """,
    re.VERBOSE | re.MULTILINE,
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


class Token:
    __slots__ = ("kind", "text", "start", "end")

    def __init__(self, kind: str, text: str, start: int, end: int):
        self.kind = kind
        self.text = text
        self.start = start  # offset into the (comment-blanked) source
        self.end = end


@dataclass
class CallSite:
    exec_order: int
    name: str
    arguments: list


@dataclass
class FunctionDef:
    name: str
    exec_order: int
    call_sites: list = field(default_factory=list)
    pointer_locals: set = field(default_factory=set)

    @property
    def max_exec_order(self) -> int:
        return self.call_sites[-1].exec_order if self.call_sites else self.exec_order


@dataclass
class TranslationUnit:
    functions: list = field(default_factory=list)
    defined_names: set = field(default_factory=set)

    def enclosing_function(self, exec_order: int):
        """The function whose entry/call-site range covers exec_order."""
        for fn in self.functions:
            if fn.exec_order <= exec_order <= fn.max_exec_order:
                return fn
        return None


# ---------------------------------------------------------------------------
# Tokenizing
# ---------------------------------------------------------------------------

def _blank(match) -> str:
    if match.lastgroup == "literal":
        return match.group()
    indent = match.group("indent") or ""
    return indent + _NOT_NEWLINE_RE.sub(" ", match.group()[len(indent):])


def _blank_comments(source: str) -> str:
    """Replace comments and preprocessor lines with spaces, preserving
    offsets and newlines so token positions stay source-accurate."""
    return _BLANK_RE.sub(_blank, source)


def _tokenize(blanked: str) -> list:
    tokens = []
    append = tokens.append
    for m in _TOKEN_RE.finditer(blanked):
        kind = m.lastgroup
        if kind is None:
            continue
        if kind == "bad":
            c = m.group()
            message = "unterminated literal" if c in "\"'" else f"unexpected character {c!r}"
            raise _error(blanked, m.start(), message)
        start, end = m.span()
        append(Token(kind, m.group(), start, end))
    return tokens


# ---------------------------------------------------------------------------
# Extraction
# ---------------------------------------------------------------------------

def _bracket_table(tokens: list) -> dict:
    """Index of the closing token per '(' and '{' token index, matched
    with one stack per kind; an opener without a match is absent. Each
    match is the one a forward scan counting only that kind finds."""
    table = {}
    parens, braces = [], []
    for j, tok in enumerate(tokens):
        text = tok.text
        if text == "(":
            parens.append(j)
        elif text == ")":
            if parens:
                table[parens.pop()] = j
        elif text == "{":
            braces.append(j)
        elif text == "}":
            if braces:
                table[braces.pop()] = j
    return table


def _closing(table: dict, tokens: list, i: int, blanked: str) -> int:
    """Index of the token closing the bracket at tokens[i]."""
    close = table.get(i)
    if close is None:
        tok = tokens[i]
        raise _error(blanked, tok.start, f"unbalanced {tok.text!r}")
    return close


def _skip_template_args(tokens: list, i: int) -> int:
    """If tokens[i] opens a template-argument list made only of simple
    tokens (ids, '*', ',', '::', numbers, nested <>), return the index
    after the closing '>'. Otherwise return i. Lets C++ spellings like
    auto_ptr<char>(p) register a call named auto_ptr."""
    if i >= len(tokens) or tokens[i].text != "<":
        return i
    depth = 0
    j = i
    while j < len(tokens):
        text = tokens[j].text
        if text == "<":
            depth += 1
        elif text == ">":
            depth -= 1
            if depth == 0:
                return j + 1
        elif tokens[j].kind not in ("id", "num") and text not in ("*", ",", "::"):
            return i
        j += 1
    return i


def _render_argument(tokens: list, lo: int, hi: int, blanked: str) -> str:
    span = tokens[lo:hi]
    if len(span) == 1:
        tok = span[0]
        if tok.kind == "str":
            return tok.text[1:-1]  # inner text, escapes kept as written
        if tok.kind in ("num", "id", "char"):
            return tok.text
    slice_ = blanked[span[0].start : span[-1].end]
    return re.sub(r"\s+", " ", slice_).strip()


def _split_arguments(tokens: list, lo: int, hi: int, blanked: str) -> list:
    """Render the comma-separated arguments in tokens[lo:hi]. An empty
    argument raises ParseError at the comma after it, or at the comma
    before it when it is the last."""
    if lo >= hi:
        return []
    args = []
    depth = 0
    start = lo
    for j in range(lo, hi):
        text = tokens[j].text
        if text in "([{":
            depth += 1
        elif text in ")]}":
            depth -= 1
        elif text == "," and depth == 0:
            if start == j:
                raise _error(blanked, tokens[j].start, "empty argument")
            args.append(_render_argument(tokens, start, j, blanked))
            start = j + 1
    if start == hi:
        raise _error(blanked, tokens[hi - 1].start, "empty argument")
    args.append(_render_argument(tokens, start, hi, blanked))
    return args


def _scan_calls(tokens: list, lo: int, hi: int, table: dict, blanked: str) -> list:
    """(name, arguments) of each call in tokens[lo:hi], in evaluation
    order: a call is appended after the calls in its arguments. Nesting
    is kept on an explicit stack of pending calls, not in recursion."""
    out = []
    pending = []  # (name, '(' index, ')' index, hi of the enclosing range)
    i = lo
    while True:
        if i >= hi:
            if not pending:
                return out
            name, open_, close, hi = pending.pop()
            out.append((name, _split_arguments(tokens, open_ + 1, close, blanked)))
            i = close + 1
            continue
        tok = tokens[i]
        if tok.kind == "id" and tok.text not in _CONTROL_KEYWORDS:
            after = _skip_template_args(tokens, i + 1)
            if after < hi and tokens[after].text == "(":
                close = _closing(table, tokens, after, blanked)
                pending.append((tok.text, after, close, hi))
                i, hi = after + 1, close
                continue
        i += 1


def _pointer_decls(tokens: list, lo: int, hi: int) -> set:
    """Identifiers declared with pointer type in tokens[lo:hi]. A
    declarator is recognized as <type word(s)> '*'+ <name> followed by a
    declarator terminator; multiplication never matches because the
    left operand is preceded by an operator, not a statement boundary."""
    names = set()
    i = lo
    while i + 2 < hi:
        tok = tokens[i]
        if tok.kind == "id" and tokens[i + 1].text == "*":
            j = i + 1
            while j < hi and tokens[j].text == "*":
                j += 1
            if (
                j < hi
                and tokens[j].kind == "id"
                and j + 1 <= hi
                and (j + 1 == hi or tokens[j + 1].text in ("=", ";", ",", ")", "["))
            ):
                prev = tokens[i - 1].text if i > lo else ";"
                if tok.text in _TYPE_WORDS or prev in (";", "{", "}", "(", ","):
                    names.add(tokens[j].text)
            i = j
        else:
            i += 1
    return names


def extract_translation_unit(source: str) -> TranslationUnit:
    """Extract function definitions and their call sites.

    exec_order is assigned by one global counter over function entries
    and call sites in textual order. Unparseable top-level items are
    skipped with a warning; unbalanced brackets raise ParseError.
    """
    blanked = _blank_comments(source)
    tokens = _tokenize(blanked)
    table = _bracket_table(tokens)
    tu = TranslationUnit()
    counter = 0
    i = 0
    n = len(tokens)
    while i < n:
        tok = tokens[i]
        if tok.kind == "id" and i + 1 < n and tokens[i + 1].text == "(":
            close = _closing(table, tokens, i + 1, blanked)
            if close + 1 < n and tokens[close + 1].text == "{":
                body_close = _closing(table, tokens, close + 1, blanked)
                name = tok.text
                if name in tu.defined_names:
                    raise _error(blanked, tok.start, f"duplicate definition of {name!r}")
                counter += 1
                fn = FunctionDef(name=name, exec_order=counter)
                fn.pointer_locals = _pointer_decls(tokens, i + 2, close) | _pointer_decls(
                    tokens, close + 2, body_close
                )
                for callee, args in _scan_calls(tokens, close + 2, body_close, table, blanked):
                    counter += 1
                    fn.call_sites.append(CallSite(counter, callee, args))
                tu.functions.append(fn)
                tu.defined_names.add(name)
                i = body_close + 1
                continue
            # declaration/prototype: skip past the terminating ';'
            j = close + 1
            while j < n and tokens[j].text != ";":
                j += 1
            i = j + 1
            continue
        if tok.text == "{":
            # stray top-level block (e.g. struct body we don't model)
            i = _closing(table, tokens, i, blanked) + 1
            continue
        if tok.text == ";":
            i += 1
            continue
        # anything else: advance; warn once per skipped run of tokens.
        # A run ending at `name (` is the return type of a definition we
        # are about to recognize, not an unparseable item.
        run_start = i
        while i < n and tokens[i].text not in (";", "{") and not (
            tokens[i].kind == "id" and i + 1 < n and tokens[i + 1].text == "("
        ):
            i += 1
        if i == run_start:
            i += 1
        elif not (i < n and tokens[i].kind == "id"):
            log.warning(
                "skipping unparseable top-level item at %d:%d",
                *_position(blanked, tokens[run_start].start),
            )
    return tu


def build_call_graph(tu: TranslationUnit, graph: PropertyGraph) -> dict:
    """Materialize a translation unit as CallGraph nodes and CALLS edges.

    One node per function entry ({ExecOrder, Name}) and per call site
    ({ExecOrder, Name, Argument1..N}); an edge from each entry to its
    call sites, plus an interprocedural edge from any call site whose
    callee is defined in this unit to that callee's entry node.

    Returns a map from function name to entry node id.
    """
    entries = {}
    site_nodes = []  # (node_id, callee name)
    for fn in tu.functions:
        entry = graph.add_node("CallGraph", {"ExecOrder": fn.exec_order, "Name": fn.name})
        entries[fn.name] = entry
        for site in fn.call_sites:
            props = {"ExecOrder": site.exec_order, "Name": site.name}
            for k, arg in enumerate(site.arguments, start=1):
                props[f"Argument{k}"] = arg
            node = graph.add_node("CallGraph", props)
            graph.add_edge(entry, node, "CALLS")
            site_nodes.append((node, site.name))
    for node, callee in site_nodes:
        if callee in tu.defined_names:
            graph.add_edge(node, entries[callee], "CALLS")
    return entries
