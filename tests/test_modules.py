import ast
import importlib
import re
import sys
from pathlib import Path

import pytest

import feistel_lab

MODULES = ("bench", "bits", "cli", "distinguisher", "feistel", "prbg", "prf", "statcheck",
           "stats")
ROOT = Path(__file__).resolve().parents[1]

# The names the package exported when its __init__ imported every module, by the module
# each was imported from.
PACKAGE_EXPORTS = {
    "bits": ("BitString",),
    "distinguisher": ("GameReport", "IdealPermutationOracle", "OracleMachine",
                      "attack_leading_block", "attack_ufn2_2k", "attack_ufn2_even_k",
                      "calibrate_w_index", "estimate_advantage", "ideal_permutation"),
    "feistel": ("UfnKind", "UfnParams", "UfnPermutation", "extend_block_cipher", "ggm_ufn",
                "ideal_ufn"),
    "prbg": ("BbsParams", "BitGenerator", "BmParams", "bbs_generate", "bm_generate",
             "derive_seed", "generate_bbs_params"),
    "prf": ("FunctionOracle", "GgmKey", "IdealFunctionOracle", "ggm_eval", "split_master_key"),
    "statcheck": ("BadEventSpec", "Gf2Matrix", "bad_event_bound", "build_ufn2_matrix",
                  "conditional_uniformity_check", "estimate_bad_prob", "gf2_nonsingular",
                  "secure_rounds"),
}


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


@pytest.mark.parametrize("module", sorted(PACKAGE_EXPORTS))
def test_package_exports_each_name_as_bound_in_its_module(module):
    source = importlib.import_module(f"feistel_lab.{module}")
    for name in PACKAGE_EXPORTS[module]:
        namespace = {}
        exec(f"from feistel_lab import {name}", namespace)
        assert namespace[name] is getattr(source, name), name
        assert name in dir(feistel_lab), name


def test_package_refuses_an_unknown_name():
    with pytest.raises(AttributeError, match="no_such_name"):
        feistel_lab.no_such_name
    with pytest.raises(ImportError):
        exec("from feistel_lab import no_such_name", {})


def test_each_derive_seed_label_has_one_call_site():
    # Independent seed streams: a string label that one derive_seed call in src/ passes
    # appears at no other call site, so two streams never hash the same parts.
    sites: dict[str, list[str]] = {}
    for path in sorted((ROOT / "src" / "feistel_lab").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            func = getattr(node, "func", None)
            if getattr(func, "id", getattr(func, "attr", None)) != "derive_seed":
                continue
            for arg in node.args:
                if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                    sites.setdefault(arg.value, []).append(f"{path.name}:{node.lineno}")
    assert {"game-keys", "ideal-perm", "bad-event-keys", "uniformity-keys"} <= set(sites)
    assert {label: where for label, where in sites.items() if len(where) > 1} == {}


def test_only_prbg_names_the_mersenne_twister_stream():
    # Ideal round functions and queries are pure keyed functions; the one seeded
    # Mersenne Twister left draws the Blum primes of generate_bbs_params.
    names = {}
    for path in sorted((ROOT / "src" / "feistel_lab").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            # A Name's id, an Attribute's attr, an import alias's or a definition's name.
            name = getattr(node, "id", getattr(node, "attr", getattr(node, "name", None)))
            if name == "FastBitGenerator":
                names.setdefault(path.stem, []).append(node.lineno)
    assert set(names) == {"prbg"}, names
