import ast
import re
import sys
from pathlib import Path

import pytest

MODULES = ("bench", "bits", "cli", "distinguisher", "feistel", "prbg", "prf", "statcheck",
           "stats")
ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("module", MODULES)
def test_star_import_finds_every_exported_name(module):
    # A name deleted from a module but left in its __all__ fails here.
    exec(f"from feistel_lab.{module} import *", {})


def test_runtime_imports_are_the_declared_dependencies():
    # An undeclared or an unused runtime dependency fails here.
    tomllib = pytest.importorskip("tomllib")
    imported = set()
    for path in (ROOT / "src" / "feistel_lab").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names)
    with open(ROOT / "pyproject.toml", "rb") as fh:
        declared = tomllib.load(fh)["project"]["dependencies"]
    assert third_party == {re.match(r"[A-Za-z0-9_.-]+", dep).group() for dep in declared}
