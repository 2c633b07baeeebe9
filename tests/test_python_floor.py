"""Every Python file of the project parses as the oldest Python that
pyproject.toml admits, whichever newer Python runs the tests."""

import ast
import re
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
