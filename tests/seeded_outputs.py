"""Seeded-output guard: the stdout of every benchmark command, compared across source trees.

    python tests/seeded_outputs.py --tree parent=/path/to/parent/src --tree change=src \
        --seeds 1 2 3 --allow treewalk:encrypt:fast --out outputs.json

Each tree runs in its own interpreter and runs, through ``cli.main``, every command of
every ``perfbench`` workload list at each seed, and then the ``extra`` list of commands
that no workload runs (``extra_commands``), in list order: a ``decrypt`` reads the
output of the ``encrypt`` before it, as in a benchmark cycle. The report keeps the
SHA-256 of each command's stdout per tree, and the text of one-line outputs. A command
whose stdout differs between the trees is allowed only if it matches an ``--allow``
pattern ``LIST:SUBCOMMAND[:MODE]``, LIST a workload or ``extra`` and MODE the value of
the command's ``--expander`` or ``--prf``; any other difference exits with status 1.
pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import io
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench import workloads  # noqa: E402  after the repository root is on the path

# (kind, n, k, rounds) of the ideal-round encrypt and decrypt in the extra list.
_IDEAL_CIPHERS = (("balanced", 8, 1, 3), ("source-heavy", 4, 3, 5),
                  ("target-heavy", 4, 3, 5), ("ufn2", 4, 3, 7))


def extra_commands(seed: int) -> list[workloads.Command]:
    """Commands that no workload runs: ``bench --mode mem`` at (n, k) in (4, 2), (7, 1)
    and (4, 3), workloads 0 and 256, with and without ``--analytic``; an ``--prf ideal``
    encrypt of each kind and the decrypt of its output; a tree-walk encrypt under each
    expander at 64-bit round keys (balanced n=8, k=1, three rounds), wider than the
    ``treewalk`` workload's 16 bits, and the decrypt of its output; ``matrix`` at
    k = 1..6; and two runs of the ideal permutation's repeat paths at 12-bit states: a
    uniform ``badprob`` at m = 64, where about 39 % of the lanes draw a candidate twice,
    and a two-query ``advantage`` of 8,192 trials."""
    stream = workloads._SeedStream("seeded-outputs", seed)
    cmds = [workloads.Command(("bench", "--mode", "mem", "--n", str(n), "--k", str(k),
                               "--workload", str(load), "--seed", str(seed), *analytic), 1)
            for n, k in ((4, 2), (7, 1), (4, 3)) for load in (0, 256)
            for analytic in ((), ("--analytic",))]
    for kind, n, k, r in _IDEAL_CIPHERS:
        width = (k + 1) * n
        base = ("--kind", kind, "--n", str(n), "--k", str(k), "--rounds", str(r),
                "--key", stream.hex(16), "--prf", "ideal")
        block = f"{width}:{stream.hex(width // 4)}"
        cmds.append(workloads.Command(("encrypt", *base, "--in", block), 1))
        cmds.append(workloads.Command(("decrypt", *base, "--in", workloads.PREV_OUTPUT), 1))
    for expander in ("fast", "bbs"):
        base = ("--kind", "balanced", "--n", "8", "--k", "1", "--rounds", "3",
                "--key", stream.hex(48), "--expander", expander)
        cmds.append(workloads.Command(("encrypt", *base, "--in", f"16:{stream.hex(4)}"), 1))
        cmds.append(workloads.Command(("decrypt", *base, "--in", workloads.PREV_OUTPUT), 1))
    cmds += [workloads.Command(("matrix", "--k", str(k)), 1) for k in range(1, 7)]
    cmds.append(workloads.Command(("badprob", "--kind", "target-heavy", "--n", "4", "--k", "2",
                                   "--m", "64", "--shaping", "uniform", "--trials", "1024",
                                   "--seed", str(seed)), 1024))
    cmds.append(workloads.Command(("advantage", "--name", "src-k1", "--kind", "source-heavy",
                                   "--n", "4", "--k", "2", "--rounds", "4", "--trials", "8192",
                                   "--seed", str(seed)), 8192))
    return cmds


def run_lists(seeds: list[int]) -> dict[str, list[dict]]:
    """``"<list>:<seed>" ->`` one record per command, in this interpreter's
    ``feistel_lab``; a list is a workload or ``extra``."""
    from feistel_lab import cli

    lists = {w: functools.partial(workloads.commands, w) for w in workloads.WORKLOADS}
    lists["extra"] = extra_commands
    out: dict[str, list[dict]] = {}
    for name, commands in lists.items():
        for seed in seeds:
            records, prev = [], None
            for cmd in commands(seed):
                argv = cmd.resolve(prev and prev.strip())
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                    rc = cli.main(argv)
                prev = buf.getvalue()
                record = {"argv": " ".join(cmd.argv), "rc": rc,
                          "sha256": hashlib.sha256(prev.encode()).hexdigest()}
                if prev.count("\n") == 1 and len(prev) <= 80:
                    record["stdout"] = prev.strip()
                records.append(record)
            out[f"{name}:{seed}"] = records
    return out


def _allowed(key: str, argv: str, patterns: list[str]) -> bool:
    """True iff a pattern ``LIST:SUBCOMMAND[:MODE]`` names the list of ``key``, the
    subcommand of ``argv`` and, if given, the value of its ``--expander`` or ``--prf``."""
    words = argv.split()
    for pattern in patterns:
        name, sub, *mode = pattern.split(":")
        if key.split(":")[0] != name or words[0] != sub:
            continue
        if not mode or any(flag in words and words[words.index(flag) + 1] == mode[0]
                           for flag in ("--expander", "--prf")):
            return True
    return False


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", action="append", default=[],
                        help="LABEL=SRC: a source tree holding the feistel_lab package")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--allow", action="append", default=[],
                        help="LIST:SUBCOMMAND[:MODE] whose stdout may differ, MODE an "
                        "--expander or --prf value")
    parser.add_argument("--out")
    parser.add_argument("--one", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.one:
        print(json.dumps(run_lists(args.seeds)))
        return 0
    trees = dict(spec.split("=", 1) for spec in args.tree)
    runs = {}
    for label, src in trees.items():
        env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
        done = subprocess.run([sys.executable, __file__, "--one", "--seeds", *map(str, args.seeds)],
                              env=env, check=True, capture_output=True, text=True)
        runs[label] = json.loads(done.stdout)
    first, *others = trees
    lists, unexpected = {}, []
    for key, records in runs[first].items():
        rows = []
        for i, record in enumerate(records):
            row = {"argv": record["argv"], "rc": {first: record["rc"]},
                   "sha256": {first: record["sha256"]}}
            if "stdout" in record:
                row["stdout"] = {first: record["stdout"]}
            for label in others:
                other = runs[label][key][i]
                row["rc"][label] = other["rc"]
                row["sha256"][label] = other["sha256"]
                if "stdout" in other:
                    row.setdefault("stdout", {})[label] = other["stdout"]
            row["identical"] = len(set(row["sha256"].values())) == 1
            if not row["identical"] and not _allowed(key, record["argv"], args.allow):
                unexpected.append(f"{key} {record['argv']}")
            rows.append(row)
        lists[key] = {"commands": len(rows), "identical": sum(r["identical"] for r in rows),
                      "rows": rows}
    report = {
        "trees": trees,
        "seeds": args.seeds,
        "allowed_to_differ": args.allow,
        "unexpected_differences": unexpected,
        "lists": lists,
    }
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(json.dumps(report, indent=1) + "\n")
    for key, entry in lists.items():
        print(f"{key:14} {entry['identical']:3} of {entry['commands']:3} commands identical")
    for line in unexpected:
        print(f"unexpected difference: {line}")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
