"""Unbalanced Feistel permutation laboratory.

Constructions (balanced, source-heavy, target-heavy, and the widened
repeated-output variant), black-box distinguishing games against a lazily
sampled ideal permutation, collision-bound and uniformity checks, and a
memory/time benchmark of memoized versus tree-walk round functions.
"""

from .bits import BitString
from .distinguisher import (
    GameReport,
    IdealPermutationOracle,
    OracleMachine,
    attack_leading_block,
    attack_ufn2_2k,
    attack_ufn2_even_k,
    calibrate_w_index,
    estimate_advantage,
    ideal_permutation,
)
from .feistel import (
    UfnKind,
    UfnParams,
    UfnPermutation,
    extend_block_cipher,
    ggm_ufn,
    ideal_ufn,
)
from .prbg import (
    BbsParams,
    BitGenerator,
    BmParams,
    bbs_generate,
    bm_generate,
    derive_seed,
    generate_bbs_params,
)
from .prf import (
    FunctionOracle,
    GgmKey,
    IdealFunctionOracle,
    ggm_eval,
    ideal_oracle,
    split_master_key,
)
from .statcheck import (
    BadEventSpec,
    Gf2Matrix,
    bad_event_bound,
    build_ufn2_matrix,
    conditional_uniformity_check,
    estimate_bad_prob,
    gf2_nonsingular,
    secure_rounds,
)

__version__ = "0.1.0"
