"""Packaging: the ``test`` extra installs what tier-1 imports.

CI installs the project with ``.[test]`` and nothing else, so a
third-party module that a test file imports but that neither the
project's dependencies nor the ``test`` extra lists fails collection on a
fresh runner.
"""

import ast
import re
import sys
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _requirement_names(requirements):
    return {
        re.split(r"[<>=!~;\[ ]", requirement, maxsplit=1)[0].lower()
        for requirement in requirements
    }


def _third_party_imports():
    """Top-level module name -> first test file importing it."""
    local = {path.stem for path in (ROOT / "tests").glob("*.py")} | {"repro", "tests"}
    found = {}
    for path in sorted((ROOT / "tests").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top not in sys.stdlib_module_names and top not in local:
                    found.setdefault(top, path.name)
    return found


def test_test_extra_covers_every_test_import():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))[
        "project"
    ]
    installed = _requirement_names(project["dependencies"]) | _requirement_names(
        project["optional-dependencies"]["test"]
    )
    imports = _third_party_imports()
    assert {"numpy", "pytest", "hypothesis"} <= set(imports)
    missing = {name: where for name, where in imports.items() if name not in installed}
    assert missing == {}
