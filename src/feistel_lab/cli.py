"""Command-line front end.

Subcommands: encrypt, decrypt, attack, advantage, badprob, uniformity,
matrix, bench. Every randomized run carries an explicit seed: pass --seed,
set FEISTEL_LAB_SEED, or let the tool draw one (it is printed to stderr and
echoed in the JSON so the run can be replayed byte for byte). Each subcommand
parses its arguments, makes one library call and serialises the result; a trial
subcommand passes --jobs to its estimator, which owns the trial loop and its processes.

Exit codes: 0 success, 1 usage error, 2 empirical check failure (a measured
value violating its bound or significance level).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor  # noqa: F401  perfbench.tracing patches this name

from .bench import BenchConfig, report_csv, run_bench
from .bits import BitString
from .distinguisher import attack_leading_block, attack_ufn2_2k, attack_ufn2_even_k
from .distinguisher import estimate_advantage
from .feistel import UfnKind, UfnParams, UfnPermutation, ggm_ufn
from .prbg import derive_seed
from .prf import ideal_oracle
from .statcheck import BadEventSpec, build_ufn2_matrix, conditional_uniformity_check
from .statcheck import estimate_bad_prob, gf2_nonsingular, secure_rounds

SEED_ENV_VAR = "FEISTEL_LAB_SEED"
SCHEMA_VERSION = 1

# Attack name -> (target structure, machine factory, attackable rounds at ratio k).
# The XOR-sum relation of ufn2-even holds at every round count; it targets the
# count that would otherwise be considered safe.
_ATTACKS = {
    "src-k1": (UfnKind.SOURCE_HEAVY, attack_leading_block, lambda k: k + 1),
    "tgt-k1": (UfnKind.TARGET_HEAVY, attack_leading_block, lambda k: k + 1),
    "ufn2-even": (UfnKind.UFN2, attack_ufn2_even_k, lambda k: 2 * k + 1),
    "ufn2-2k": (UfnKind.UFN2, attack_ufn2_2k, lambda k: 2 * k),
}


class UsageError(Exception):
    pass


class CheckFailure(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def _resolve_seed(args: argparse.Namespace) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise UsageError(f"{SEED_ENV_VAR} must be an integer, got {env!r}") from exc
    seed = int.from_bytes(os.urandom(8), "big")
    print(f"seed: {seed}", file=sys.stderr)
    return seed


def _check_writable(path: str) -> None:
    """Refuse an output path that is a directory or lies in a missing one."""
    if os.path.isdir(path):
        raise UsageError(f"cannot write {path}: it is a directory")
    parent = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(parent):
        raise UsageError(f"cannot write {path}: no directory {parent}")


def _bench_csv_path(args: argparse.Namespace) -> str | None:
    """``--csv``, else the ``.csv`` next to a ``bench --out`` file."""
    if args.csv is None and args.out:
        return os.path.splitext(args.out)[0] + ".csv"
    return args.csv


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(payload: dict, out_path: str | None) -> None:
    body = dict(payload)
    body["schema"] = SCHEMA_VERSION
    _emit(json.dumps(body, sort_keys=True, separators=(",", ":")) + "\n", out_path)


def _emit_check(report, out_path: str | None) -> int:
    """Write a check report; a failed check exits 2 after its JSON is out."""
    _emit_json(report.to_json_dict(), out_path)
    if not report.passed:
        raise CheckFailure(report.failure_message())
    return 0


def _parse_block(text: str) -> BitString:
    try:
        return BitString.parse(text)
    except ValueError as exc:
        raise UsageError(f"bad block {text!r}: {exc}") from exc


def _build_cipher(args: argparse.Namespace):
    kind = UfnKind(args.kind)
    params = UfnParams(kind, args.n, args.k, args.rounds)
    key_hex = args.key
    try:
        if not key_hex:
            raise ValueError("empty key")
        master = BitString.parse(f"{4 * len(key_hex)}:{key_hex}")
    except ValueError as exc:
        raise UsageError(f"--key must be hex digits, got {key_hex!r}") from exc
    if args.prf == "ggm":
        return ggm_ufn(params, master, mode=args.expander)
    # encrypt and decrypt run as separate commands that visit the rounds in
    # opposite orders. An ideal_ufn instance draws all rounds from one stream
    # in miss order, so the two would key different functions; one stream per
    # round makes each round's value at the one block it sees order-free.
    return UfnPermutation(params, [
        ideal_oracle(params.round_in_bits, params.round_out_bits,
                     derive_seed("cli-key", master, "round", i))
        for i in range(params.r)
    ])


def _cmd_crypt(args: argparse.Namespace) -> int:
    perm = _build_cipher(args)
    block = _parse_block(args.block)
    if block.width != perm.width:
        raise UsageError(f"input is {block.width} bits but the state is {perm.width}")
    _emit(getattr(perm, args.command)(block).text() + "\n", args.out)
    return 0


def _cmd_game(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args)
    target_kind, machine_factory, attackable_rounds = _ATTACKS[args.name]
    rounds = args.rounds if args.rounds is not None else attackable_rounds(args.k)
    params = UfnParams(UfnKind(args.kind or target_kind), args.n, args.k, rounds)
    report = estimate_advantage(machine_factory(args.n, args.k), params, args.trials, seed,
                                args.jobs)
    payload = report.to_json_dict()
    payload.update({"name": args.name, "kind": params.kind.value, "n": params.n,
                    "k": params.k, "rounds": params.r})
    _emit_json(payload, args.out)
    return 0


def _cmd_badprob(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args)
    spec = BadEventSpec(UfnKind(args.kind), args.n, args.k, args.m, args.shaping)
    return _emit_check(estimate_bad_prob(spec, args.trials, seed, args.jobs), args.out)


def _cmd_uniformity(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args)
    kind = UfnKind(args.kind)
    rounds = args.rounds if args.rounds is not None else secure_rounds(kind, args.k)
    params = UfnParams(kind, args.n, args.k, rounds)
    report = conditional_uniformity_check(params, args.trials, seed, args.significance,
                                          args.jobs)
    return _emit_check(report, args.out)


def _cmd_matrix(args: argparse.Namespace) -> int:
    matrix = build_ufn2_matrix(args.k)
    _emit_json({"k": args.k, "nonsingular": gf2_nonsingular(matrix)}, args.out)
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args)
    mode = {"mem": "memoized", "ggm": "ggm"}[args.mode]
    report = run_bench(BenchConfig(n=args.n, k=args.k, prf_mode=mode, workload=args.workload,
                                   seed=seed, ell=args.ell, analytic=args.analytic))
    _emit_json(report.to_json_dict(), args.out)
    csv_path = _bench_csv_path(args)
    if csv_path:
        _emit(report_csv(report), csv_path)
    return 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _open_unit_float(text: str) -> float:
    value = float(text)
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"must lie in (0, 1), got {value}")
    return value


def _add_structure_flags(p: argparse.ArgumentParser, with_kind: bool = True) -> None:
    if with_kind:
        p.add_argument("--kind", choices=[k.value for k in UfnKind],
                       help="structure kind")
    p.add_argument("--n", type=int, required=True, help="sub-block width in bits")
    p.add_argument("--k", type=int, required=True, help="block ratio")


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=None,
                   help=f"run seed (falls back to ${SEED_ENV_VAR}, then a fresh one)")
    p.add_argument("--out", default=None, help="write output to this file instead of stdout")


def _add_trial_flags(p: argparse.ArgumentParser) -> None:
    _add_common_flags(p)
    p.add_argument("--jobs", type=_positive_int, default=1,
                   help="worker processes for trial loops, at most the usable CPUs "
                        "(deterministic aggregation)")


def build_parser() -> _Parser:
    parser = _Parser(prog="feistel-lab",
                     description="Unbalanced Feistel permutation laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("encrypt", "decrypt"):
        p = sub.add_parser(name, help=f"{name} one block")
        p.add_argument("--kind", choices=[k.value for k in UfnKind], required=True)
        p.add_argument("--n", type=int, required=True, help="sub-block width in bits")
        p.add_argument("--k", type=int, required=True, help="block ratio")
        p.add_argument("--rounds", type=int, required=True)
        p.add_argument("--key", required=True, help="hex master key")
        p.add_argument("--in", dest="block", required=True, help="block as width:hex")
        p.add_argument("--prf", choices=["ggm", "ideal"], default="ggm",
                       help="round-function realization keyed from --key")
        p.add_argument("--expander", choices=["fast", "bbs"], default="fast",
                       help="generator behind the ggm realization")
        p.add_argument("--out", default=None)
        p.set_defaults(func=_cmd_crypt)

    p = sub.add_parser("attack", help="run a distinguisher against its target build and an ideal permutation")
    p.add_argument("--name", choices=sorted(_ATTACKS), required=True)
    _add_structure_flags(p, with_kind=False)
    p.add_argument("--rounds", type=int, default=None,
                   help="rounds of the target build (default: the attackable count)")
    p.add_argument("--trials", type=_positive_int, default=10000)
    _add_trial_flags(p)
    p.set_defaults(func=_cmd_game, kind=None)

    p = sub.add_parser("advantage", help="acceptance-gap game at an explicit round count")
    p.add_argument("--name", choices=sorted(_ATTACKS), required=True)
    _add_structure_flags(p)
    p.add_argument("--rounds", type=int, required=True)
    p.add_argument("--trials", type=_positive_int, default=10000)
    _add_trial_flags(p)
    p.set_defaults(func=_cmd_game)

    p = sub.add_parser("badprob", help="empirical collision-event probability vs its bound")
    _add_structure_flags(p)
    p.add_argument("--m", type=int, required=True, help="oracle queries per trial")
    p.add_argument("--trials", type=_positive_int, default=10000)
    p.add_argument("--shaping", choices=["adversarial", "uniform"], default="adversarial")
    _add_trial_flags(p)
    p.set_defaults(func=_cmd_badprob)

    p = sub.add_parser("uniformity", help="chi-square output uniformity over fresh keys")
    _add_structure_flags(p)
    p.add_argument("--rounds", type=int, default=None,
                   help="rounds (default: the minimal secure count)")
    p.add_argument("--trials", type=_positive_int, default=100000)
    p.add_argument("--significance", type=_open_unit_float, default=0.01)
    _add_trial_flags(p)
    p.set_defaults(func=_cmd_uniformity)

    p = sub.add_parser("matrix", help="rank of the widened-structure mixing matrix")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_matrix)

    p = sub.add_parser("bench", help="memory/time comparison across structures")
    p.add_argument("--mode", choices=["mem", "ggm"], required=True)
    _add_structure_flags(p, with_kind=False)
    p.add_argument("--workload", type=int, default=256)
    p.add_argument("--ell", type=int, default=None, help="total key bits shared by all structures")
    p.add_argument("--analytic", action="store_true",
                   help="skip table exhaustion; report closed-form figures")
    p.add_argument("--csv", default=None, help="also write a CSV mirror here")
    _add_common_flags(p)
    p.set_defaults(func=_cmd_bench)

    return parser


@functools.cache
def _shared_parser() -> _Parser:
    """One parser per process: ``main`` may run many commands in one process
    (tests, the benchmark), and building the parser costs more than many of
    those commands. Parsing does not modify it."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    parser = _shared_parser()
    try:
        args = parser.parse_args(argv)
        outputs = [args.out, _bench_csv_path(args) if args.command == "bench" else None]
        for path in filter(None, outputs):
            _check_writable(path)
        return args.func(args)
    except (UsageError, ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CheckFailure as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
