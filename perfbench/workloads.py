"""Seeded command lists for the four benchmark workloads, and their output checks.

A workload is a fixed list of ``feistel-lab`` command lines. Every per-command
``--seed``, key and block is derived from the workload seed, so one seed always
gives the same list (``digest`` proves it). A run repeats whole cycles of the
list. Each command carries the number of work units it completes, which is
what ``ops_per_s`` and ``cpu_us_per_op`` count.

The checks reject anything a researcher could not trust: output that is not
strict JSON with ``"schema": 1``, echoed ``trials``/``seed`` values that do not
match the command, and broken identities the paper guarantees (accept rate 1
at the vulnerable round counts, the chi-square verdict, the closed-form
collision bound, decrypt(encrypt(x)) == x, the generator-bit cost model). A
statistical rejection (exit 2) is a verdict, not a failure.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field

# Token in a decrypt command that stands for the output of the command before it.
PREV_OUTPUT = "@prev"

# Tail percentile of command wall time for each workload. It is fixed, not
# chosen from the sample count of a run, so it means the same thing on every
# commit; each is the highest that leaves at least ten commands beyond it in a
# 20-second run of the seed code, also when the machine runs 25 % slow.
TAIL_PERCENTILE = {"uniformity": 85, "games": 80, "collisions": 75, "treewalk": 98}

WORKLOADS = tuple(TAIL_PERCENTILE)


@dataclass(frozen=True)
class Command:
    """One CLI invocation, its work units, and the facts its output must show."""

    argv: tuple[str, ...]
    units: int
    expect: dict = field(default_factory=dict, compare=False)

    @property
    def sub(self) -> str:
        return self.argv[0]

    def resolve(self, prev_output: str | None) -> list[str]:
        """argv with the previous command's output substituted for PREV_OUTPUT."""
        return [prev_output if a == PREV_OUTPUT else a for a in self.argv]


class _SeedStream:
    """Deterministic stream of integers and hex strings from one workload seed."""

    def __init__(self, workload: str, seed: int) -> None:
        self._prefix = f"perfbench:{workload}:{seed}"
        self._counter = 0

    def _block(self) -> bytes:
        self._counter += 1
        return hashlib.sha256(f"{self._prefix}:{self._counter}".encode()).digest()

    def seed(self) -> int:
        return int.from_bytes(self._block()[:8], "big") >> 1

    def hex(self, digits: int) -> str:
        out = ""
        while len(out) < digits:
            out += self._block().hex().upper()
        return out[:digits]


def _scaled(trials: int, scale: float) -> int:
    return max(1, int(trials * scale))


def _uniformity(stream: _SeedStream, scale: float) -> list[Command]:
    # Acceptance criterion 6 grid: (kind, n, k, rounds).
    grid = [("source-heavy", 2, 2, 4), ("target-heavy", 2, 2, 4), ("ufn2", 2, 3, 7)]
    trials = _scaled(2000, scale)
    cmds = []
    for kind, n, k, r in grid:
        seed = stream.seed()
        argv = ("uniformity", "--kind", kind, "--n", str(n), "--k", str(k),
                "--rounds", str(r), "--trials", str(trials), "--jobs", "1",
                "--seed", str(seed))
        cmds.append(Command(argv, trials, {"trials": trials, "seed": seed, "n": n, "k": k,
                                           "rounds": r, "kind": kind}))
    return cmds


def _vulnerable(name: str, k: int, rounds: int) -> bool:
    """Round counts at which the machine's relation holds with probability 1."""
    if name in ("src-k1", "tgt-k1"):
        return rounds <= k + 1
    if name == "ufn2-2k":
        return rounds == 2 * k
    return name == "ufn2-even"


def _games(stream: _SeedStream, scale: float) -> list[Command]:
    # (name, kind, n, k, rounds). ufn2-2k at r=6 comes first so that the set-up
    # command pays the w-index calibration. Vulnerable counts use `attack` (its
    # default rounds), secure ones `advantage`.
    grid = [
        ("ufn2-2k", "ufn2", 4, 3, 6),
        ("src-k1", "source-heavy", 4, 2, 3),
        ("src-k1", "source-heavy", 4, 2, 4),
        ("tgt-k1", "target-heavy", 4, 2, 3),
        ("tgt-k1", "target-heavy", 4, 2, 4),
        ("ufn2-even", "ufn2", 4, 2, 5),
        ("ufn2-2k", "ufn2", 4, 3, 7),
    ]
    trials = _scaled(2000, scale)
    cmds = []
    for name, kind, n, k, r in grid:
        seed = stream.seed()
        vulnerable = _vulnerable(name, k, r)
        if vulnerable:
            argv = ("attack", "--name", name, "--n", str(n), "--k", str(k))
        else:
            argv = ("advantage", "--name", name, "--kind", kind, "--n", str(n), "--k", str(k),
                    "--rounds", str(r))
        argv += ("--trials", str(trials), "--jobs", "1", "--seed", str(seed))
        cmds.append(Command(argv, trials, {"trials": trials, "seed": seed, "name": name,
                                           "kind": kind, "rounds": r,
                                           "vulnerable": vulnerable}))
    return cmds


def _collisions(stream: _SeedStream, scale: float) -> list[Command]:
    trials = _scaled(400, scale)
    cmds = []
    for k in (2, 3):
        for kind in ("source-heavy", "target-heavy", "ufn2"):
            for shaping in ("adversarial", "uniform"):
                seed = stream.seed()
                argv = ("badprob", "--kind", kind, "--n", "16", "--k", str(k), "--m", "64",
                        "--shaping", shaping, "--trials", str(trials), "--jobs", "2",
                        "--seed", str(seed))
                cmds.append(Command(argv, trials, {"trials": trials, "seed": seed,
                                                   "kind": kind, "n": 16, "k": k, "m": 64}))
    return cmds


def _treewalk(stream: _SeedStream, scale: float) -> list[Command]:
    # (kind, n, k, rounds). Per-round keys are 16 bits, so the hex master key
    # has 4 * rounds digits. The bbs expander comes first so that the set-up
    # command pays the BBS prime search.
    grid = [("balanced", 16, 1, 3), ("source-heavy", 8, 3, 5), ("target-heavy", 8, 3, 5),
            ("ufn2", 8, 3, 7)]
    cmds = []
    for expander in ("bbs", "fast"):
        for kind, n, k, r in grid:
            width = (k + 1) * n
            key = stream.hex(4 * r)
            block = f"{width}:{stream.hex((width + 3) // 4)}"
            base = ("--kind", kind, "--n", str(n), "--k", str(k), "--rounds", str(r),
                    "--key", key, "--expander", expander)
            cmds.append(Command(("encrypt",) + base + ("--in", block), 1, {"width": width}))
            cmds.append(Command(("decrypt",) + base + ("--in", PREV_OUTPUT), 1,
                                {"width": width, "plaintext": block}))
    workload = max(1, int(64 * scale))
    seed = stream.seed()
    argv = ("bench", "--mode", "ggm", "--n", "4", "--k", "2", "--workload", str(workload),
            "--seed", str(seed))
    # run_bench enciphers `workload` blocks for each of the four structures.
    cmds.append(Command(argv, 4 * workload, {"seed": seed, "structures": 4}))
    return cmds


_LISTS = {"uniformity": _uniformity, "games": _games, "collisions": _collisions,
             "treewalk": _treewalk}


def commands(workload: str, seed: int, scale: float = 1.0) -> list[Command]:
    """The workload's command list for ``seed``; ``scale`` shrinks trial counts for tests."""
    if workload not in _LISTS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {list(WORKLOADS)}")
    return _LISTS[workload](_SeedStream(workload, seed), scale)


def digest(cmds: list[Command]) -> str:
    """SHA-256 of the command lines, to show that a seed gives the same inputs."""
    text = "\n".join(" ".join(c.argv) for c in cmds)
    return hashlib.sha256(text.encode()).hexdigest()


def setup_argv(cmd: Command) -> list[str]:
    """The command at one trial (or its single block): what a fresh CLI call pays."""
    argv = list(cmd.argv)
    for flag in ("--trials", "--workload"):
        if flag in argv:
            argv[argv.index(flag) + 1] = "1"
    return argv


# --- output checks -------------------------------------------------------------


class CheckError(Exception):
    pass


def _reject_constant(name: str) -> None:
    raise CheckError(f"non-standard JSON constant {name}")


def _strict_json(stdout: str) -> dict:
    try:
        body = json.loads(stdout, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise CheckError(f"output is not JSON: {exc}") from exc
    if not isinstance(body, dict) or body.get("schema") != 1:
        raise CheckError('output lacks "schema": 1')
    return body


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def _check_echo(body: dict, expect: dict, keys: tuple[str, ...]) -> None:
    for key in keys:
        _require(body.get(key) == expect[key],
                 f"{key} echoed as {body.get(key)!r}, expected {expect[key]!r}")


def _check_game(cmd: Command, rc: int, body: dict) -> None:
    e = cmd.expect
    _require(rc == 0, f"exit code {rc}")
    _check_echo(body, e, ("trials", "seed", "name", "kind", "rounds"))
    a, b = body["accept_a"], body["accept_b"]
    _require(0.0 <= a <= 1.0 and 0.0 <= b <= 1.0, "accept rate outside [0, 1]")
    _require(body["advantage"] == abs(a - b), "advantage != |accept_a - accept_b|")
    if e["vulnerable"]:
        _require(a == 1.0, f"accept_a = {a} at a vulnerable round count")


def _check_uniformity(cmd: Command, rc: int, body: dict) -> None:
    e = cmd.expect
    _check_echo(body, e, ("trials", "seed", "kind", "rounds"))
    state_bits = (e["k"] + 1) * e["n"]
    _require(body["dof"] == (1 << state_bits) - 1, f"dof {body['dof']} != 2^{state_bits} - 1")
    passed = body["statistic"] < body["critical"]
    _require(body["passed"] is passed, "passed != (statistic < critical)")
    _require(rc == (0 if passed else 2), f"exit code {rc} with passed={passed}")


def bad_event_bound(kind: str, n: int, k: int, m: int) -> float:
    """Closed-form collision-event bound, recomputed independently of the program."""
    if kind == "target-heavy":
        return m * m / 2**n
    return (k + 1) * m * m / 2 ** (n + 1)


def _check_badprob(cmd: Command, rc: int, body: dict) -> None:
    e = cmd.expect
    _check_echo(body, e, ("trials", "seed", "kind", "n", "k", "m"))
    bound = bad_event_bound(e["kind"], e["n"], e["k"], e["m"])
    _require(body["bound"] == bound, f"bound {body['bound']} != closed form {bound}")
    _require(0.0 <= body["empirical"] <= 1.0, "empirical rate outside [0, 1]")
    exceeded = body["empirical"] > body["bound"] + 3 * body["ci"]
    _require(rc == (2 if exceeded else 0), f"exit code {rc} with bound exceeded={exceeded}")


def _check_bench(cmd: Command, rc: int, body: dict) -> None:
    _require(rc == 0, f"exit code {rc}")
    _check_echo(body, cmd.expect, ("seed",))
    rows = body["structures"]
    _require(len(rows) == cmd.expect["structures"], f"{len(rows)} structures reported")
    for row in rows:
        _require(row["measured_prbg_bits"] == row["analytic_prbg_bits"],
                 f"{row['kind']}: measured {row['measured_prbg_bits']} generator bits, "
                 f"analytic {row['analytic_prbg_bits']}")


_BLOCK = re.compile(r"(\d+):([0-9A-F]+)\n\Z")


def _check_block(cmd: Command, rc: int, stdout: str) -> None:
    _require(rc == 0, f"exit code {rc}")
    match = _BLOCK.match(stdout)
    _require(match is not None and int(match.group(1)) == cmd.expect["width"],
             f"output {stdout!r} is not a {cmd.expect['width']}-bit block")
    if cmd.sub == "decrypt":
        _require(stdout.strip() == cmd.expect["plaintext"],
                 f"decrypt gave {stdout.strip()}, expected {cmd.expect['plaintext']}")


_JSON_CHECKS = {"attack": _check_game, "advantage": _check_game,
                "uniformity": _check_uniformity, "badprob": _check_badprob,
                "bench": _check_bench}


def check(cmd: Command, rc: int, stdout: str) -> None:
    """Raise CheckError when the command's exit code or output is not trustworthy."""
    _require(rc in (0, 2), f"exit code {rc}")
    if cmd.sub in ("encrypt", "decrypt"):
        _check_block(cmd, rc, stdout)
        return
    body = _strict_json(stdout)
    try:
        _JSON_CHECKS[cmd.sub](cmd, rc, body)
    except (KeyError, TypeError) as exc:
        raise CheckError(f"malformed report: {exc!r}") from exc
