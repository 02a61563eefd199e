"""Seeded-output guard: the stdout of every benchmark command, compared across source trees.

    python tests/seeded_outputs.py --tree parent=/path/to/parent/src --tree change=src \
        --seeds 1 2 3 --allow treewalk:encrypt:fast --out outputs.json

Each tree runs in its own interpreter and runs, through ``cli.main``, every command of
every ``perfbench`` workload list at each seed, in list order: a ``decrypt`` reads the
output of the ``encrypt`` before it, as in a benchmark cycle. The report keeps the
SHA-256 of each command's stdout per tree, and the text of one-line outputs. A command
whose stdout differs between the trees is allowed only if it matches an ``--allow``
pattern ``WORKLOAD:SUBCOMMAND[:EXPANDER]``; any other difference exits with status 1.
pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_lists(seeds: list[int]) -> dict[str, list[dict]]:
    """``"<workload>:<seed>" ->`` one record per command, in this interpreter's
    ``feistel_lab``."""
    sys.path.insert(0, ROOT)
    from feistel_lab import cli
    from perfbench import workloads

    out: dict[str, list[dict]] = {}
    for workload in workloads.WORKLOADS:
        for seed in seeds:
            records, prev = [], None
            for cmd in workloads.commands(workload, seed):
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
            out[f"{workload}:{seed}"] = records
    return out


def _allowed(key: str, argv: str, patterns: list[str]) -> bool:
    words = argv.split()
    for pattern in patterns:
        workload, sub, *expander = pattern.split(":")
        if key.split(":")[0] != workload or words[0] != sub:
            continue
        if not expander or ("--expander" in words
                            and words[words.index("--expander") + 1] == expander[0]):
            return True
    return False


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", action="append", default=[],
                        help="LABEL=SRC: a source tree holding the feistel_lab package")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--allow", action="append", default=[],
                        help="WORKLOAD:SUBCOMMAND[:EXPANDER] whose stdout may differ")
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
