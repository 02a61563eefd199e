"""Unbalanced Feistel permutation laboratory.

Constructions (balanced, source-heavy, target-heavy, and the widened
repeated-output variant), black-box distinguishing games against a lazily
sampled ideal permutation, collision-bound and uniformity checks, and a
memory/time benchmark of memoized versus tree-walk round functions.

Importing the package loads no submodule: each exported name is looked up in
its module on first use, so a CLI subcommand pays only for the modules it runs.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "bits": ("BitString",),
    "distinguisher": ("GameReport", "IdealPermutationOracle", "OracleMachine",
                      "attack_leading_block", "attack_ufn2_2k", "attack_ufn2_even_k",
                      "calibrate_w_index", "estimate_advantage", "ideal_permutation"),
    "feistel": ("UfnKind", "UfnParams", "UfnPermutation", "extend_block_cipher", "ggm_ufn",
                "ideal_ufn", "secure_rounds"),
    "prbg": ("BbsParams", "BitGenerator", "BmParams", "bbs_generate", "bm_generate",
             "derive_seed", "generate_bbs_params"),
    "prf": ("FunctionOracle", "GgmKey", "IdealFunctionOracle", "ggm_eval", "split_master_key"),
    "statcheck": ("BadEventSpec", "Gf2Matrix", "bad_event_bound", "build_ufn2_matrix",
                  "conditional_uniformity_check", "estimate_bad_prob", "gf2_nonsingular"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_MODULE_OF))
