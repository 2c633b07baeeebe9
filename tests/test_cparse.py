import re
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import DOUBLE_FREE_INTERPROC_SRC, DOUBLE_FREE_SRC, call_graph_of, edge_rows
from pkgraph.cparse import (
    _CONTROL_KEYWORDS,
    _TYPE_WORDS,
    ParseError,
    _Tokens,
    _blank_comments,
    _bracket_index,
    _pointer_decls,
    _scan_calls,
    _skip_template_args,
    _split_arguments,
    _tokenize,
    build_call_graph,
    extract_translation_unit,
)
from pkgraph.graph import PropertyGraph


class TestExtractTranslationUnit:
    def test_double_free_example(self):
        tu = extract_translation_unit(DOUBLE_FREE_SRC)
        assert [f.name for f in tu.functions] == ["foo"]
        foo = tu.functions[0]
        assert foo.exec_order == 1
        got = [(c.exec_order, c.name, c.arguments) for c in foo.call_sites]
        assert got == [
            (2, "printf", ["Please enter your name:\\n"]),
            (3, "gets", ["buf"]),
            (4, "malloc", ["8"]),
            (5, "doSomething", ["ptr"]),
            (6, "free", ["ptr"]),
            (7, "free", ["ptr"]),
        ]
        assert foo.pointer_locals == {"ptr"}

    def test_empty_source(self):
        tu = extract_translation_unit("")
        assert tu.functions == []

    def test_interprocedural_example(self):
        tu = extract_translation_unit(DOUBLE_FREE_INTERPROC_SRC)
        main, print_string = tu.functions
        assert (main.name, print_string.name) == ("main", "printString")
        assert main.exec_order == 1
        assert [(c.exec_order, c.name) for c in main.call_sites] == [
            (2, "malloc"),
            (3, "printString"),
            (4, "free"),
            (5, "free"),
        ]
        assert print_string.exec_order == 6
        assert [(c.exec_order, c.name) for c in print_string.call_sites] == [
            (7, "gets"),
            (8, "printf"),
        ]

    def test_nested_call_evaluated_first(self):
        tu = extract_translation_unit("void f() { free(get()); }")
        assert [(c.exec_order, c.name) for c in tu.functions[0].call_sites] == [
            (2, "get"),
            (3, "free"),
        ]
        assert tu.functions[0].call_sites[1].arguments == ["get()"]

    def test_calls_inside_control_flow(self):
        tu = extract_translation_unit(
            "void f() { if (check(a)) { use(a); } while (more()) { step(); } }"
        )
        assert [c.name for c in tu.functions[0].call_sites] == [
            "check",
            "use",
            "more",
            "step",
        ]

    def test_sizeof_recorded_as_call(self):
        tu = extract_translation_unit("void f() { char* p; int n = sizeof(p); }")
        fn = tu.functions[0]
        assert [c.name for c in fn.call_sites] == ["sizeof"]
        assert fn.call_sites[0].arguments == ["p"]
        assert fn.pointer_locals == {"p"}

    def test_multiplication_is_not_a_pointer_decl(self):
        tu = extract_translation_unit("void f() { int n = a * b; }")
        assert tu.functions[0].pointer_locals == set()

    def test_pointer_parameter(self):
        tu = extract_translation_unit("void f(char* ptr) { use(ptr); }")
        assert tu.functions[0].pointer_locals == {"ptr"}

    def test_whitespace_collapsed_in_complex_argument(self):
        tu = extract_translation_unit("void f() { g(a +\n    b); }")
        assert tu.functions[0].call_sites[0].arguments == ["a + b"]

    def test_long_trailing_comment_tokenized_in_linear_time(self):
        """A comment at the end blanks to a long run of whitespace after
        the last token. Retrying the token pattern at each offset of that
        run is quadratic: about 30 s for this input (2 vCPU VM, Python 3.11)."""
        source = "void f() { g(); }\n/*" + "x" * 20000 + "*/\n"
        start = time.perf_counter()
        tu = extract_translation_unit(source)
        assert time.perf_counter() - start < 1.0
        assert [c.name for c in tu.functions[0].call_sites] == ["g"]

    def test_mismatched_brackets_split_by_mixed_depth(self):
        """A comma splits where the count of '(' '[' '{' minus ')' ']' '}'
        since the call's '(' is zero, whichever kinds they are."""
        tu = extract_translation_unit("void f() { g((a], b)); h(x[0), y); }")
        got = [(c.name, c.arguments) for c in tu.functions[0].call_sites]
        assert got == [("g", ["(a]", "b)"]), ("h", ["x[0"])]

    def test_preprocessor_and_comments_ignored(self):
        tu = extract_translation_unit(
            "#include <stdio.h>\n// free(x);\n/* free(y); */\nvoid f() { g(); }\n"
        )
        assert [c.name for c in tu.functions[0].call_sites] == ["g"]

    def test_unbalanced_braces(self):
        with pytest.raises(ParseError):
            extract_translation_unit("void f() { g(); ")

    def test_unterminated_string(self):
        with pytest.raises(ParseError):
            extract_translation_unit('void f() { g("oops); }')

    def test_duplicate_definition_rejected(self):
        with pytest.raises(ParseError):
            extract_translation_unit("void f() { } void f() { }")

    def test_exec_order_contiguous(self):
        tu = extract_translation_unit(DOUBLE_FREE_INTERPROC_SRC)
        orders = [f.exec_order for f in tu.functions] + [
            c.exec_order for f in tu.functions for c in f.call_sites
        ]
        assert sorted(orders) == list(range(1, len(orders) + 1))

    def test_deterministic(self):
        a = extract_translation_unit(DOUBLE_FREE_SRC)
        b = extract_translation_unit(DOUBLE_FREE_SRC)
        assert a == b

    def test_knr_body_is_skipped_with_one_warning(self, caplog):
        """The body after a K&R parameter declaration list starts an item
        of its own, which is skipped with a warning at its '{'."""
        with caplog.at_level("WARNING"):
            tu = extract_translation_unit("int f(a) int a; { gets(a); }\nvoid g() { h(); }")
        assert [f.name for f in tu.functions] == ["g"]
        assert [r.getMessage() for r in caplog.records] == [
            "skipping unparseable top-level item at 1:17"
        ]

    @pytest.mark.parametrize(
        "source, where",
        [
            pytest.param("struct s { int a; };", ["1:1"], id="struct-body"),
            pytest.param("struct s { int a; } x;", ["1:1", "1:21"], id="struct-then-declarator"),
            pytest.param("{ g(); } ; { h(); }", ["1:1", "1:12"], id="two-blocks"),
            pytest.param("int f(a) char *a; { }", ["1:19"], id="knr-one-declaration"),
            pytest.param("int f(a, b) int a; char *b; { }", ["1:20", "1:29"], id="knr-two-declarations"),
        ],
    )
    def test_each_skipped_item_warns_once(self, caplog, source, where):
        with caplog.at_level("WARNING"):
            tu = extract_translation_unit(source)
        assert tu.functions == []
        assert [r.getMessage() for r in caplog.records] == [
            f"skipping unparseable top-level item at {position}" for position in where
        ]

    def test_unbalanced_top_level_block_raises_without_a_warning(self, caplog):
        with caplog.at_level("WARNING"), pytest.raises(ParseError) as exc:
            extract_translation_unit("void f() { }\n{ g(); ")
        assert (exc.value.line, exc.value.column, exc.value.message) == (2, 1, "unbalanced '{'")
        assert caplog.records == []

    def test_deep_nesting_innermost_first(self):
        depth = 3000
        tu = extract_translation_unit("void f() { " + "atoi(" * depth + "s" + ")" * depth + "; }")
        sites = tu.functions[0].call_sites
        assert len(sites) == depth
        assert [c.exec_order for c in sites] == list(range(2, depth + 2))
        assert {c.name for c in sites} == {"atoi"}
        assert sites[0].arguments == ["s"]
        assert sites[1].arguments == ["atoi(s)"]
        assert sites[-1].arguments == ["atoi(" * (depth - 1) + "s" + ")" * (depth - 1)]


BLANKED = [
    pytest.param("  \t#define X 1\nint a;", "  \t           \nint a;", id="indent-before-hash-kept"),
    pytest.param("/**/#x\n", "    #x\n", id="hash-after-comment-is-not-a-directive"),
    pytest.param(
        "#define A \\\n  (1)\nvoid f() { g(); }",
        "           \n     \nvoid f() { g(); }",
        id="continued-directive-blanked-on-both-lines",
    ),
    pytest.param(
        "void f() { g('\\\n/* c */'); }",
        "void f() { g('\\\n/* c */'); }",
        id="char-literal-holding-backslash-newline",
    ),
    pytest.param(
        "void f() { g(); } /* free(x);\n h();",
        "void f() { g(); }            \n     ",
        id="unterminated-block-comment",
    ),
]


@pytest.mark.parametrize("source, blanked", BLANKED)
def test_blank_comments(source, blanked):
    assert _blank_comments(source) == blanked


PARSE_ERRORS = [
    pytest.param("void f() { g('\\\n/* c */'); }", 1, 14, "unterminated literal", id="char-literal"),
    pytest.param("/* a\n b */ void f() { @ }", 2, 18, "unexpected character '@'", id="bad-character"),
    pytest.param("/* a\n\n */\n  void f() { g(); ", 4, 12, "unbalanced '{'", id="unbalanced-brace"),
    pytest.param("void f() { g(a,); }", 1, 15, "empty argument", id="empty-last-argument"),
    pytest.param("void f() { g(,b); }", 1, 14, "empty argument", id="empty-first-argument"),
    pytest.param("void f() {\n  g(a,,b); }", 2, 7, "empty argument", id="empty-middle-argument"),
    pytest.param("void f() { h(g(a,)); }", 1, 17, "empty argument", id="empty-nested-argument"),
]


@pytest.mark.parametrize("source, line, column, message", PARSE_ERRORS)
def test_parse_error_position(source, line, column, message):
    with pytest.raises(ParseError) as exc:
        extract_translation_unit(source)
    assert (exc.value.line, exc.value.column, exc.value.message) == (line, column, message)


# Text built from the fragments that start, end or escape comments,
# literals and directives, so generated inputs hit their interactions;
# half of it is a function body of call fragments, so that the call
# scanner sees its inputs without a lexical error stopping it first.
C_FRAGMENTS = [
    "//", "/*", "*/", '"', "'", "#", "\\\n", "\\", "\n", " ", "\t",
    "(", ")", "{", "}", "[", "]", ",", ";", "<", ">", "*",
    "f", "main", "void", "char", "x", "1", "sizeof", "free(p);", "@",
]
CALL_FRAGMENTS = ["g(", "a", ",", ")", " ", ";"]
c_texts = st.one_of(
    st.lists(st.sampled_from(C_FRAGMENTS), max_size=40).map("".join),
    st.lists(st.sampled_from(CALL_FRAGMENTS), max_size=20).map(
        lambda body: "void f() {" + "".join(body) + "}"
    ),
)


# The blanking pattern _blank_comments replaced, which tried every
# alternative at every offset and found directives with a multiline `^`.
REFERENCE_BLANK_RE = re.compile(
    r"""
    (?P<literal>"(?:[^"\\]|\\[\s\S])*"?|'(?:[^'\\]|\\[\s\S])*'?)
  | //[^\n]*
  | /\*[\s\S]*?(?:\*/|\Z)
  | ^(?P<indent>[^\S\n]*)\#(?:\\\n|[^\n])*
    """,
    re.VERBOSE | re.MULTILINE,
)


def reference_blank(match):
    if match.lastgroup == "literal":
        return match.group()
    indent = match.group("indent") or ""
    return indent + re.sub(r"[^\n]", " ", match.group()[len(indent):])


@given(
    st.one_of(
        c_texts,
        st.lists(st.sampled_from(C_FRAGMENTS + ["\r\n", "\f", "\xa0", "  #", "\n#"]), max_size=40).map("".join),
    )
)
@example("#x\n#y")
@example("#a \\\n\n  #b")
@example('"a\n#b" #c\n\t#d')
@example("x\n\n#")
@settings(max_examples=500, deadline=None)
def test_blank_comments_matches_the_multiline_pattern(source):
    """Matching a directive from the newline before it blanks what the
    multiline `^` pattern blanks, at the start of the text too."""
    assert _blank_comments(source) == REFERENCE_BLANK_RE.sub(reference_blank, source)


class TestNeverCrash:
    @given(c_texts)
    @settings(deadline=None)
    def test_result_or_parse_error(self, source):
        try:
            extract_translation_unit(source)
        except ParseError as exc:
            lines = source.split("\n")
            assert 1 <= exc.line <= len(lines)
            assert 1 <= exc.column <= len(lines[exc.line - 1])

    @given(c_texts)
    @settings(deadline=None)
    def test_blanking_keeps_offsets_and_newlines(self, source):
        blanked = _blank_comments(source)
        assert len(blanked) == len(source)
        newlines = [i for i, c in enumerate(source) if c == "\n"]
        assert [i for i, c in enumerate(blanked) if c == "\n"] == newlines

    @given(c_texts)
    @settings(deadline=None)
    def test_token_text_is_its_span(self, source):
        blanked = _blank_comments(source)
        try:
            kinds, texts, starts, ends = _tokenize(blanked)
        except ParseError:
            return
        assert len(kinds) == len(texts) == len(starts) == len(ends)
        assert all(text == blanked[s:e] for text, s, e in zip(texts, starts, ends))

    @given(st.text("(){}[]x", max_size=40))
    def test_bracket_table_matches_forward_scan(self, text):
        """Each '(' and '{' is matched to the first later token at which
        a scan counting only its own kind returns to depth zero."""
        texts = _tokenize(text)[1]
        want = {}
        for i, opener in enumerate(texts):
            if opener not in ("(", "{"):
                continue
            close = ")" if opener == "(" else "}"
            depth = 0
            for j in range(i, len(texts)):
                depth += (texts[j] == opener) - (texts[j] == close)
                if depth == 0:
                    want[i] = j
                    break
        assert _bracket_index(texts)[0] == want


# The tokenizer _tokenize replaced: one finditer match per token, its
# kind the name of the group that matched.
REFERENCE_TOKEN_RE = re.compile(
    r"""
    \s*(?:
    (?P<id>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<num>(?:0[xX][0-9a-fA-F]+|[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?)[uUlLfF]*)
  | (?P<str>"(?:[^"\\\n]|\\.)*")
  | (?P<char>'(?:[^'\\\n]|\\.)*')
  | (?P<punct>::|->|\+\+|--|<<|>>|<=|>=|==|!=|&&|\|\||[-+*/%&|^~!<>=?:;,.(){}\[\]\\\#])
  | (?P<bad>\S)
    )
    """,
    re.VERBOSE,
)


def reference_tokenize(blanked):
    kinds, texts, starts, ends = [], [], [], []
    for m in REFERENCE_TOKEN_RE.finditer(blanked, 0, len(blanked.rstrip())):
        kind = m.lastgroup
        start, end = m.span(kind)
        if kind == "bad":
            c = blanked[start]
            message = "unterminated literal" if c in "\"'" else f"unexpected character {c!r}"
            line = blanked.count("\n", 0, start) + 1
            raise ParseError(line, start - blanked.rfind("\n", 0, start), message)
        kinds.append(kind)
        texts.append(blanked[start:end])
        starts.append(start)
        ends.append(end)
    return kinds, texts, starts, ends


def outcome(function, *args):
    """function(*args), or the position and message of its ParseError."""
    try:
        return function(*args)
    except ParseError as exc:
        return (exc.line, exc.column, exc.message)


# Lone quotes, characters no token starts with (non-ASCII letters and
# digits among them), whitespace that is not ASCII, and every token kind.
LEXICAL_FRAGMENTS = [
    '"', "'", "@", "$", "`", "é", "ß", "Ж", "٣", "\xa0", "\f", "\v", "\u2028", "\x1c",
    " ", "\n", "\t", "x", "_a1", "1", "0x1Fu", "1.5e+3f", ".5", '"a\\"b"', '"\\', "'\\n'", "''",
    "->", "::", "<<=", "#", "\\", "(", ")", "{", "}", "[", "]", ",", ";", "*",
]
token_texts = st.tuples(
    st.one_of(
        c_texts,
        st.lists(st.sampled_from(LEXICAL_FRAGMENTS), max_size=30).map("".join),
        st.text(max_size=30),
    ),
    st.text(" \t\n\xa0\f\v\u3000", max_size=4),
).map("".join)


@given(token_texts)
@example('f(" )')
@example("g('a)")
@example("a @ b")
@example("$x")
@example("é")
@example("x\xa0y\f(\v)  \n\xa0")
@example("")
@settings(max_examples=500, deadline=None)
def test_tokenize_matches_the_finditer_tokenizer(text):
    """The findall tokenizer gives the kinds, texts, starts and ends of
    the per-match one, or the ParseError at the same line and column,
    with the same message."""
    assert outcome(_tokenize, text) == outcome(reference_tokenize, text)


def reference_pointer_decls(kinds, texts, lo, hi):
    """The token walk _pointer_decls replaced, which visits every token
    in lo..hi-1 and jumps past each run of stars."""
    names = set()
    i = lo
    while i + 2 < hi:
        if kinds[i] == "id" and texts[i + 1] == "*":
            j = i + 1
            while j < hi and texts[j] == "*":
                j += 1
            if (
                j < hi
                and kinds[j] == "id"
                and j + 1 <= hi
                and (j + 1 == hi or texts[j + 1] in ("=", ";", ",", ")", "["))
            ):
                prev = texts[i - 1] if i > lo else ";"
                if texts[i] in _TYPE_WORDS or prev in (";", "{", "}", "(", ","):
                    names.add(texts[j])
            i = j
        else:
            i += 1
    return names


# Declarators, products and star runs between statement and argument
# boundaries, so that a '*' falls at either end of some range.
DECLARATOR_FRAGMENTS = [
    "char", "int", "const", "a", "b", "c", "p", "*", "*", "**", "(", ")", ",", ";", "=", "[", "{", "}", "1", "+",
]
declarator_soups = st.lists(st.sampled_from(DECLARATOR_FRAGMENTS), max_size=14).map(" ".join)


@given(declarator_soups)
@example("char **p;")
@example("a * b * c;")
@example("int * p , * q ;")
@example("* p = 1")
@example("x * y *")
@example("( char * p ) , int * q [")
@settings(max_examples=300, deadline=None)
def test_pointer_decls_match_the_token_walk(text):
    """Over every token range, visiting only the stars names the pointer
    locals that the walk over every token names."""
    toks = _Tokens(text)
    n = len(toks.texts)
    for lo in range(n + 1):
        for hi in range(lo, n + 1):
            assert _pointer_decls(toks, lo, hi) == reference_pointer_decls(toks.kinds, toks.texts, lo, hi)


def reference_scan_calls(toks, lo, hi):
    """The token walk _scan_calls replaced, which visits every token and
    looks for a template-argument list after every identifier."""
    kinds, texts = toks.kinds, toks.texts
    out = []
    pending = []
    i = lo
    while True:
        if i >= hi:
            if not pending:
                return out
            name, open_, close, hi = pending.pop()
            out.append((name, _split_arguments(toks, open_ + 1, close)))
            i = close + 1
            continue
        if kinds[i] == "id" and texts[i] not in _CONTROL_KEYWORDS:
            after = _skip_template_args(kinds, texts, i + 1)
            if after < hi and texts[after] == "(":
                close = toks.closing(after)
                pending.append((texts[i], after, close, hi))
                i, hi = after + 1, close
                continue
        i += 1


# Calls, control keywords, casts, template-argument lists that do and do
# not end at a '(', nesting and unbalanced brackets.
SCAN_FRAGMENTS = [
    "g", "h", "if", "sizeof", "a", "1", "(", "(", ")", ")", "<", ">", "::", "*", ",", ";", "{", "}", "[", "]",
]
scan_soups = st.lists(st.sampled_from(SCAN_FRAGMENTS), max_size=18).map(" ".join)


@given(scan_soups)
@example("g<a>(b)")
@example("g < h < a > ( 1 ) > ( 2 )")
@example("g<a, * b::c>(h(1), 2)")
@example("if (g(a)) h(,)")
@example("g(h(a)")
@settings(max_examples=300, deadline=None)
def test_scan_calls_matches_the_token_walk(text):
    """Over every token range, visiting only the call heads gives the
    calls of the walk over every token, or its ParseError."""
    toks = _Tokens(text)
    n = len(toks.texts)
    for lo in range(n + 1):
        for hi in range(lo, n + 1):
            want = outcome(reference_scan_calls, toks, lo, hi)
            assert outcome(_scan_calls, toks, lo, hi) == want


def reference_render_argument(toks, lo, hi):
    """Argument text as rendered before the collapsed-text slice: the
    argument's own source slice with whitespace runs collapsed."""
    if hi - lo == 1:
        kind, text = toks.kinds[lo], toks.texts[lo]
        if kind == "str":
            return text[1:-1]
        if kind in ("num", "id", "char"):
            return text
    return re.sub(r"\s+", " ", toks.blanked[toks.starts[lo] : toks.ends[hi - 1]]).strip()


def reference_split_arguments(toks, lo, hi):
    """The token walk that _split_arguments replaced: a comma splits
    where the running count of '([{' minus ')]}' since lo is zero."""
    if lo >= hi:
        return []
    args = []
    depth = 0
    start = lo
    for j in range(lo, hi):
        text = toks.texts[j]
        if text in ("(", "[", "{"):
            depth += 1
        elif text in (")", "]", "}"):
            depth -= 1
        elif text == "," and depth == 0:
            if start == j:
                raise toks.error(j, "empty argument")
            args.append(reference_render_argument(toks, start, j))
            start = j + 1
    if start == hi:
        raise toks.error(hi - 1, "empty argument")
    args.append(reference_render_argument(toks, start, hi))
    return args


# Call texts with every bracket kind in any order, so that mixed and
# mismatched brackets, empty arguments and multi-line arguments occur.
ARGUMENT_FRAGMENTS = [
    "(", ")", "[", "]", "{", "}", ",", ", ", "a", "1", "g(", '"s  t"', "'c'", "+", " ", "\n  ",
]
call_texts = st.lists(st.sampled_from(ARGUMENT_FRAGMENTS), max_size=30).map(
    lambda body: "f(" + "".join(body) + ")"
)


@given(call_texts)
@example("f((a], b))")
@example("f([x, y}, z)")
@example("f(a,,b)")
@example("f(,)")
@settings(deadline=None)
def test_split_arguments_matches_token_walk(text):
    """At every '(' the bracket table matches, the comma-index splitter
    gives the token walk's arguments, or its ParseError."""
    toks = _Tokens(text)
    for open_, close in toks.table.items():
        if toks.texts[open_] == "(":
            want = outcome(reference_split_arguments, toks, open_ + 1, close)
            assert outcome(_split_arguments, toks, open_ + 1, close) == want


class TestBuildCallGraph:
    def test_intraprocedural_shape(self):
        graph, _ = call_graph_of(DOUBLE_FREE_SRC)
        assert graph.node_count == 7
        assert graph.edge_count == 6
        foo = graph.find_nodes("CallGraph", {"Name": "foo"})[0]
        assert len(graph.out_edges(foo.id)) == 6

    def test_interprocedural_shape(self):
        graph, _ = call_graph_of(DOUBLE_FREE_INTERPROC_SRC)
        assert graph.node_count == 8
        assert graph.edge_count == 7
        main = graph.find_nodes("CallGraph", {"Name": "main", "ExecOrder": 1})[0]
        gets = graph.find_nodes("CallGraph", {"Name": "gets"})[0]
        paths = graph.enumerate_paths(main.id, {gets.id}, "CALLS")
        assert len(paths) == 1
        assert len(paths[0]) == 3

    def test_empty_function(self):
        tu = extract_translation_unit("void f() { }")
        graph = PropertyGraph()
        build_call_graph(tu, graph)
        assert graph.node_count == 1
        assert graph.edge_count == 0

    def test_node_count_matches_exec_orders(self):
        tu = extract_translation_unit(DOUBLE_FREE_INTERPROC_SRC)
        graph = PropertyGraph()
        build_call_graph(tu, graph)
        total = sum(1 + len(f.call_sites) for f in tu.functions)
        max_order = max(
            c.exec_order for f in tu.functions for c in f.call_sites
        )
        assert total == max_order == graph.node_count

    def test_call_sites_have_one_incoming_containment_edge(self):
        graph, tu = call_graph_of(DOUBLE_FREE_INTERPROC_SRC)
        entry_orders = {f.exec_order for f in tu.functions}
        for node in graph.find_nodes("CallGraph"):
            if node.properties["ExecOrder"] in entry_orders:
                continue
            incoming = edge_rows(graph, graph.in_edges(node.id))
            assert [edge_type for *_, edge_type in incoming].count("CALLS") == 1

    def test_zero_arg_call_has_no_argument_properties(self):
        graph, _ = call_graph_of("void f() { step(); }")
        step = graph.find_nodes("CallGraph", {"Name": "step"})[0]
        assert "Argument1" not in step.properties
