"""Every Python file of the project parses as the oldest Python that
pyproject.toml admits, whichever newer Python runs the tests, and the
program itself imports nothing from outside the standard library."""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_file_parses_at_the_required_python():
    declared = re.search(r'requires-python = ">=(\d+)\.(\d+)"', (ROOT / "pyproject.toml").read_text())
    floor = (int(declared[1]), int(declared[2]))
    paths = sorted(
        path for folder in ("src", "tests", "perfbench") for path in (ROOT / folder).rglob("*.py")
    )
    assert len(paths) > 20
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=floor)


def test_the_program_imports_only_the_standard_library():
    """pyproject.toml lists no dependencies: every absolute import in
    src/pkgraph, at module level or inside a function, names pkgraph or a
    standard-library module. Relative imports are the package's own."""
    paths = sorted((ROOT / "src" / "pkgraph").rglob("*.py"))
    assert len(paths) > 5
    outside = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                if top != "pkgraph" and top not in sys.stdlib_module_names:
                    outside.append(f"{path.relative_to(ROOT)}:{node.lineno}: {name}")
    assert outside == []
