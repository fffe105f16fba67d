"""The declared dependencies are exactly what the package imports, and
every third-party module the tests import is declared."""
import ast
import re
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from bezier_mopt.problems import NormPowerSpec

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parent.parent


def _third_party_imports(directory: Path) -> set[str]:
    names = set()
    for path in directory.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return {name for name in names
            if name not in sys.stdlib_module_names and name != "bezier_mopt"}


def _names(specs) -> set[str]:
    return {re.match(r"[A-Za-z0-9_.-]+", spec).group(0).lower().replace("-", "_")
            for spec in specs}


def _project() -> dict:
    with open(ROOT / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)["project"]


def test_runtime_dependencies_match_imports():
    declared = _names(_project()["dependencies"])
    assert declared == _third_party_imports(ROOT / "src" / "bezier_mopt")


def test_test_imports_are_declared():
    project = _project()
    declared = _names(project["dependencies"]) | _names(project["optional-dependencies"]["test"])
    assert _third_party_imports(ROOT / "tests") <= declared


ENVIRONMENT_READERS = {"environ", "environb", "getenv", "getenvb"}


def _environment_reads(directory: Path) -> list[str]:
    """`file:line` of every `os.environ`/`os.getenv` use, and of every
    import of those names from `os`, in the modules of `directory`."""
    reads = []
    for path in sorted(directory.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                found = node.value.id == "os" and node.attr in ENVIRONMENT_READERS
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                found = any(alias.name in ENVIRONMENT_READERS for alias in node.names)
            else:
                found = False
            if found:
                reads.append(f"{path.name}:{node.lineno}")
    return reads


def test_package_reads_no_environment_variables():
    """Every setting comes from a flag, a config file or a parameter."""
    assert _environment_reads(ROOT / "src" / "bezier_mopt") == []


def _private_definitions(tree: ast.Module) -> list[str]:
    """The module-level names of `tree` that begin with one underscore."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [leaf.id for target in targets for leaf in ast.walk(target)
                      if isinstance(leaf, ast.Name)]
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def test_every_private_module_name_is_used():
    """A module-level private name that no code of the package reads is
    dead code: a helper left behind when its last caller went."""
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted((ROOT / "src" / "bezier_mopt").glob("*.py"))}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    dead = [f"{module}:{name}" for module, tree in trees.items()
            for name in _private_definitions(tree) if name not in used]
    assert dead == []


# The package-internal helper module, whose private helpers other modules share.
SHARED_HELPERS = "_kernels"


def _private_imports(directory: Path) -> list[str]:
    """`file:line name` of every underscore-prefixed name that a module of
    the package imports from another package module."""
    found = []
    for path in sorted(directory.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not (isinstance(node, ast.ImportFrom)
                    and (node.level or (node.module or "").split(".")[0] == "bezier_mopt")):
                continue
            source = (node.module or "").split(".")[-1]
            found += [f"{path.name}:{node.lineno} {alias.name}" for alias in node.names
                      if alias.name.startswith("_") and not alias.name.endswith("__")
                      and SHARED_HELPERS not in (source, alias.name)]
    return found


def test_no_module_imports_another_modules_private_name():
    """A private name belongs to its module: a decision another module
    needs is made public where it lives, or moves there."""
    assert _private_imports(ROOT / "src" / "bezier_mopt") == []


def test_only_problems_reads_norm_power_parameters():
    """The norm-power family's parameters have one home, `problems`."""
    family = {"norm_power"} | {field.name for field in fields(NormPowerSpec)}
    reads = [f"{path.name}:{node.lineno} {node.attr}"
             for path in sorted((ROOT / "src" / "bezier_mopt").glob("*.py"))
             if path.name != "problems.py"
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Attribute) and node.attr in family]
    assert reads == []
