"""The declared runtime dependencies are exactly what the package imports."""
import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parent.parent


def _third_party_imports() -> set[str]:
    names = set()
    for path in (ROOT / "src" / "bezier_mopt").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return {name for name in names
            if name not in sys.stdlib_module_names and name != "bezier_mopt"}


def test_runtime_dependencies_match_imports():
    with open(ROOT / "pyproject.toml", "rb") as fh:
        declared = tomllib.load(fh)["project"]["dependencies"]
    names = {re.match(r"[A-Za-z0-9_.-]+", spec).group(0).lower().replace("-", "_")
             for spec in declared}
    assert names == _third_party_imports()
