"""Differential test of call extraction against pycparser.

A seeded generator in the style of Csmith (Yang et al., PLDI 2011)
writes random programs in the recognized C subset: function
definitions whose bodies hold declarations, if/else, while and return
statements over expressions built from identifiers, numbers, string
literals, binary and unary operators, casts, indexing and nested calls.
pycparser parses each program, and a post-order walk of its FuncCall
nodes gives every function's calls in evaluation order with their
argument counts, which the extractor must reproduce.
"""

import random
import re

import pytest

from pkgraph.cparse import extract_translation_unit

c_ast = pytest.importorskip("pycparser.c_ast")
c_parser = pytest.importorskip("pycparser.c_parser")

# pycparser resolves typedef names while parsing and runs no
# preprocessor, so the types the programs use are declared up front and
# directive lines are blanked before it sees them.
PRELUDE = "typedef unsigned long size_t;\ntypedef struct _IO_FILE FILE;\n"
DIRECTIVE_RE = re.compile(r"^[ \t]*#.*$", re.MULTILINE)

LIBRARY = ["atoi", "strcpy", "free", "malloc", "gets", "printf", "fopen", "memcpy"]
VARIABLES = ["a", "b", "s", "buf", "n"]
BINARY = ["+", "-", "*", "/", "%", "<", ">", "<=", "==", "!=", "&&", "||", "&", "|", "<<"]
STRINGS = ['"x"', '"a  b"', '"%d\\n"', '""', '"q\\"t"']
TYPES = ["int", "char *", "size_t", "FILE *", "unsigned long"]


class Generator:
    """One random program of the subset; every choice comes from rng."""

    def __init__(self, rng: random.Random, functions: int):
        self.rng = rng
        self.names = [f"fn{k}" for k in range(functions)]

    def expression(self, depth: int) -> str:
        rng = self.rng
        roll = rng.random() if depth > 0 else rng.random() * 0.45
        if roll < 0.15:
            return rng.choice(VARIABLES)
        if roll < 0.3:
            return str(rng.choice([0, 1, 8, 42, 0x10]))
        if roll < 0.45:
            return rng.choice(STRINGS)
        if roll < 0.65:
            args = [self.expression(depth - 1) for _ in range(rng.randint(0, 3))]
            return f"{rng.choice(self.names + LIBRARY)}({', '.join(args)})"
        if roll < 0.8:
            left, right = self.expression(depth - 1), self.expression(depth - 1)
            return f"{left} {rng.choice(BINARY)} {right}"
        if roll < 0.86:
            return f"({self.expression(depth - 1)})"
        if roll < 0.91:
            return f"{rng.choice('-!~')}{self.expression(depth - 1)}"
        if roll < 0.96:
            return f"({rng.choice(TYPES)}) {self.expression(depth - 1)}"
        return f"{rng.choice(VARIABLES)}[{self.expression(depth - 1)}]"

    def statements(self, depth: int, indent: str) -> list:
        rng = self.rng
        out = []
        for _ in range(rng.randint(1, 4)):
            roll = rng.random() if depth > 0 else rng.random() * 0.6
            if roll < 0.35:
                out.append(f"{indent}{self.expression(3)};")
            elif roll < 0.5:
                out.append(f"{indent}{rng.choice(TYPES)} v{len(out)} = {self.expression(3)};")
            elif roll < 0.6:
                out.append(f"{indent}return {self.expression(2)};")
            elif roll < 0.8:
                out.append(f"{indent}if ({self.expression(2)}) {{")
                out += self.statements(depth - 1, indent + "    ")
                if rng.random() < 0.5:
                    out.append(f"{indent}}} else {{")
                    out += self.statements(depth - 1, indent + "    ")
                out.append(f"{indent}}}")
            else:
                out.append(f"{indent}while ({self.expression(2)}) {{")
                out += self.statements(depth - 1, indent + "    ")
                out.append(f"{indent}}}")
        return out

    def program(self) -> str:
        out = ["#include <stdio.h>", "#define N 8", ""]
        for name in self.names:
            out.append(f"int {name}(int a, char *s) {{")
            out += self.statements(2, "    ")
            out.append("}")
            out.append("")
        return "\n".join(out)


class PostOrderCalls(c_ast.NodeVisitor):
    """(name, argument count) of each call, arguments' calls first."""

    def __init__(self):
        self.calls = []

    def visit_FuncCall(self, node):
        if node.args is not None:
            self.visit(node.args)
        self.calls.append((node.name.name, len(node.args.exprs) if node.args else 0))


def pycparser_calls(source: str) -> list:
    ast = c_parser.CParser().parse(PRELUDE + DIRECTIVE_RE.sub("", source))
    out = []
    for ext in ast.ext:
        if isinstance(ext, c_ast.FuncDef):
            walk = PostOrderCalls()
            walk.visit(ext.body)
            out.append((ext.decl.name, walk.calls))
    return out


def extracted_calls(source: str) -> list:
    tu = extract_translation_unit(source)
    return [(fn.name, [(c.name, len(c.arguments)) for c in fn.call_sites]) for fn in tu.functions]


@pytest.mark.parametrize("seed", range(60))
def test_calls_match_pycparser(seed):
    source = Generator(random.Random(seed), functions=4).program()
    assert extracted_calls(source) == pycparser_calls(source)


def test_generator_reaches_the_subset():
    """The generated programs hold every construct the module docstring
    names, so the differential above covers them."""
    text = "\n".join(Generator(random.Random(seed), functions=4).program() for seed in range(60))
    for construct in ("if (", "} else {", "while (", "return ", "#include", "[", '"', "(char *) "):
        assert construct in text
    for op in ("&&", "<<", "=="):
        assert f" {op} " in text
    assert re.search(r"\w+\(\w+\(", text), "no nested call generated"
