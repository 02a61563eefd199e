"""Layer timings (ROADMAP layers L0 to L2 and some L3 items) of source trees, written as JSON.

    python tests/layer_timings.py --tree parent=/path/to/parent/src --tree change=src \
        --out BENCH_layers_pr20.json

Each pass starts one interpreter per tree and times the items one at a time,
each item on every tree before the next item, the tree order alternating from
item to item and from pass to pass, so that a change in the machine's load
falls on all trees alike. Every item is timed with ``timeit`` after a warm-up
call: per pass, the minimum over 5 repeats of the mean over ``number`` calls.
The JSON keeps, per item and tree, the median and the quartiles over
``--passes`` passes, in microseconds per call; for each tree after the first, also
the median and quartiles over passes of that pass's time ratio to the first tree,
which a change in the machine's speed from pass to pass moves far less. An item that
a tree lacks is timed on the other trees only, with no ratio.
pytest does not collect this file.

Items: one round ``feistel._forward`` per kind on an int, on 256-lane ``bits.Lanes``
and on a 2,000-element numpy ``uint64`` array; one ``encrypt`` per kind at its
secure round count; ``prbg.derive_seed``; one ``prbg.state_stream`` expander step
on a state of 128, 1,280 and 14,284 bits; ``ggm.<mode>.key<bits>``, one
``prf.GgmFunctionOracle.eval_int`` at a ``treewalk`` shape (``fast`` and ``bbs`` at a
16-bit key with 16-bit input and output, as in balanced n=16, and ``fast`` at the
1,280-bit balanced round key of ``bench --mode ggm --n 4 --k 2`` with 6-bit input and
output); one SplitMix64 pass
at 1 and 256 lanes; one ``prf.SplitMixRound`` evaluation at out_bits 4 and 16, and a
count of the zero lanes by ``Lanes.zeros`` (on a tree that has it) and by
``tolist().count(0)``, each at 256 and 512 lanes; the fork-to-join time of
``bits.run_chunks`` (``cli._run_chunked`` on a tree from before it moved) at two jobs
with a no-op worker (two trials, the usable CPU count pinned at 2), a cost that no span
of the benchmark tracer covers; ``game.<attack>.r<rounds>`` (L2), one
``distinguisher.advantage_counts`` batch of the tree's own ``bits.LANE_BATCH`` trials at
each point of the benchmark's ``games`` workload, reported per trial; ``game.pair.w12``,
one two-query ``advantage_counts`` batch (``src-k1``, n=4, k=2, r=4) at seed 1, per
trial; ``badprob.<kind>.k<k>.<shaping>`` (L2), one ``statcheck.bad_event_counts`` call
of 200 trials (one ``--jobs 2`` chunk) at each point of the ``collisions`` workload,
reported per trial; ``start.<subcommand>`` (L3), the spawn-to-exit time of a fresh
interpreter on the tree's ``src`` running one benchmark workload's one-trial set-up
command, which the benchmark's ``setup_s`` times up to the first output line; and
``ideal.query256.w12``, 256 fresh queries of one ``bits.LANE_BATCH``-lane
``distinguisher.IdealPermutationOracle`` at a 12-bit state, each drawing one more
answer (``distinct``) while every lane repeats candidates. A tree whose rounds take
block tuples (``UfnParams.block_count`` exists) gets its round input as a block tuple,
so its round numbers leave out the split at entry and the join at exit.

Each tree runs from a copy of its ``src`` without ``__pycache__`` and writes no
bytecode, so every start compiles the package from source, as a fresh checkout does
where ``PYTHONDONTWRITEBYTECODE`` is set, while the standard library keeps its installed
bytecode. A tree's own ``__pycache__`` would bias the starts: current bytecode skips the
compile, and bytecode from before an edit is recompiled for the edited modules alone. An
empty ``PYTHONPYCACHEPREFIX`` would not do, as it hides the standard library's bytecode
too: a start then takes about four times as long.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import timeit
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# (kind, n, k): the int and lane rounds run on 64-bit states, the array rounds on
# 12-bit states as in the uniformity check.
LANE_SHAPES = {"balanced": (32, 1), "source-heavy": (16, 3), "target-heavy": (16, 3),
               "ufn2": (16, 3)}
ARRAY_SHAPES = {"balanced": (6, 1), "source-heavy": (4, 2), "target-heavy": (4, 2),
                "ufn2": (4, 2)}
# Benchmark workloads whose set-up commands the start.<subcommand> items run.
START_WORKLOADS = ("treewalk", "games", "collisions", "uniformity")
START_CODE = "import sys; from feistel_lab.cli import main; sys.exit(main())"


def _time(fn, number: int, per: int = 1) -> float:
    """Microseconds per call of ``fn``, or per unit when a call does ``per`` units."""
    fn()
    return min(timeit.repeat(fn, number=number, repeat=5)) / number / per * 1e6


def _noop_chunk(start: int, count: int) -> int:
    return count


def _start(argv: list[str]) -> None:
    """Run one CLI command in a fresh interpreter on this interpreter's PYTHONPATH."""
    proc = subprocess.run([sys.executable, "-c", START_CODE, *argv], cwd=ROOT,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    if proc.returncode not in (0, 2):  # 2 is a check's verdict, not a failure
        raise SystemExit(f"{argv[0]} exited with {proc.returncode}: {proc.stderr.strip()}")


def items() -> dict[str, tuple]:
    """Item name -> (callable, calls per repeat[, units per call]), in this interpreter's
    ``feistel_lab``."""
    import numpy as np

    from feistel_lab import bits, cli, distinguisher, feistel, statcheck
    from feistel_lab.bits import BitString, Lanes, split_blocks
    from feistel_lab.feistel import UfnKind, UfnParams, ideal_ufn
    from feistel_lab.prbg import derive_seed, state_stream
    from feistel_lab.prf import GgmFunctionOracle, SplitMixRound, splitmix

    blocks = hasattr(UfnParams, "block_count")
    out: dict[str, tuple] = {}

    def round_item(name, params, f, x, number):
        if blocks:
            x = split_blocks(x, params.n, params.k + 1)
        out[name] = (lambda: feistel._forward(params, f, x), number)

    for kind in UfnKind:
        n, k = LANE_SHAPES[kind.value]
        params = UfnParams(kind, n, k, 1)
        x = 0x0123456789ABCDEF
        f = ideal_ufn(params, 1).rounds[0]  # a memo-table round, on every tree
        round_item(f"round.{kind.value}.int", params, f, x, 20000)
        keys = Lanes.of(range(1, 257))
        f = SplitMixRound(params.round_in_bits, params.round_out_bits, keys)
        round_item(f"round.{kind.value}.lanes256", params, f, Lanes.of([x - t for t in range(256)]),
                   500)
        n, k = ARRAY_SHAPES[kind.value]
        params = UfnParams(kind, n, k, 1)
        keys = np.arange(1, 2001, dtype=np.uint64)
        f = SplitMixRound(params.round_in_bits, params.round_out_bits, keys)
        round_item(f"round.{kind.value}.numpy2000", params, f,
                   np.arange(2000, dtype=np.uint64) % (1 << params.state_bits), 500)
    for kind in UfnKind:
        n, k = LANE_SHAPES[kind.value]
        r = 2 * k + 1 if kind is UfnKind.UFN2 else k + 2
        perm = ideal_ufn(UfnParams(kind, n, k, r), 7)
        block = BitString(perm.width, 0x0123456789ABCDEF)
        out[f"encrypt.{kind.value}"] = (lambda perm=perm, block=block: perm.encrypt(block), 5000)
    out["derive_seed"] = (lambda: derive_seed("ideal-ufn", 123456789), 20000)
    for width, number in ((128, 20000), (1280, 5000), (14284, 500)):
        step = state_stream(width, 2 * width, derive_seed("ggm-expand", 0))
        state = (1 << width) // 3
        out[f"state_stream.step{width}"] = (lambda step=step, state=state: step(state), number)
    for mode, key_bits, io_bits, number in (("fast", 16, 16, 2000), ("bbs", 16, 16, 200),
                                            ("fast", 1280, 6, 2000)):
        f = GgmFunctionOracle(io_bits, io_bits, BitString(key_bits, (1 << key_bits) // 3),
                              mode=mode, salt=derive_seed("ggm-round", 0))
        x = (1 << io_bits) // 5
        out[f"ggm.{mode}.key{key_bits}"] = (lambda f=f, x=x: f.eval_int(x), number)
    for lanes in (1, 256):
        keys = Lanes.of(range(1, lanes + 1))
        out[f"splitmix.lanes{lanes}"] = (lambda keys=keys: splitmix(12345, keys), 2000)
    for lanes in (256, 512):
        keys = Lanes.of(range(1, lanes + 1))
        x = Lanes.of(t % 3 for t in range(lanes))
        for out_bits in (4, 16):
            f = SplitMixRound(8, out_bits, keys)
            out[f"splitmix_round.out{out_bits}.lanes{lanes}"] = (
                lambda f=f, x=x: f.eval_int(x), 2000)
        if hasattr(Lanes, "zeros"):
            out[f"zeros.lanes{lanes}"] = (x.zeros, 20000)
        out[f"tolist_count0.lanes{lanes}"] = (lambda x=x: x.tolist().count(0), 20000)
    # This interpreter only measures, so the usable CPU count can be pinned here.
    if hasattr(bits, "run_chunks"):
        bits.usable_cpus = lambda: 2
        out["run_chunked.jobs2"] = (lambda: bits.run_chunks(_noop_chunk, (), 2, 2), 20)
    else:  # a tree from before the fork seam moved from cli into bits
        os.cpu_count = lambda: 2
        out["run_chunked.jobs2"] = (lambda: cli._run_chunked(_noop_chunk, (), 2, 2, list), 20)
    sys.path.insert(0, str(ROOT))
    from perfbench import workloads

    for cmd in workloads.commands("games", 1):
        name, kind, rounds = cmd.expect["name"], cmd.expect["kind"], cmd.expect["rounds"]
        n, k = (int(cmd.argv[cmd.argv.index(flag) + 1]) for flag in ("--n", "--k"))
        machine = getattr(distinguisher, cli._ATTACKS[name][1])(n, k)
        trials = functools.partial(distinguisher.advantage_counts, machine,
                                   UfnParams(UfnKind(kind), n, k, rounds), cmd.expect["seed"])
        out[f"game.{name}.r{rounds}"] = (functools.partial(trials, 0, bits.LANE_BATCH), 20,
                                         bits.LANE_BATCH)
    # One two-query game batch at a 12-bit state.
    params = UfnParams(UfnKind.SOURCE_HEAVY, 4, 2, 4)
    out["game.pair.w12"] = (functools.partial(distinguisher.advantage_counts,
                                              distinguisher.attack_leading_block(4, 2), params,
                                              1, 0, bits.LANE_BATCH), 20, bits.LANE_BATCH)
    for cmd in workloads.commands("collisions", 1):
        kind, k, shaping = (cmd.argv[cmd.argv.index(flag) + 1]
                            for flag in ("--kind", "--k", "--shaping"))
        spec = statcheck.BadEventSpec(UfnKind(kind), cmd.expect["n"], int(k), cmd.expect["m"],
                                      shaping)
        out[f"badprob.{kind}.k{k}.{shaping}"] = (
            functools.partial(statcheck.bad_event_counts, spec, cmd.expect["seed"], 0, 200), 4, 200)
    for workload in START_WORKLOADS:
        argv = workloads.setup_argv(workloads.commands(workload, 1)[0])
        out[f"start.{argv[0]}"] = (lambda argv=argv: _start(argv), 1)

    # Item 14's gate: 256 fresh queries of one ideal-permutation batch at a 12-bit state,
    # where every lane repeats candidates. Timed last: where it takes seconds, the heap it
    # leaves would slow the items after it in the same interpreter.
    def query256(trials=Lanes.of(range(1, bits.LANE_BATCH + 1))):
        perm = distinguisher.IdealPermutationOracle(12, 99, trials)
        for x in range(256):
            perm.query(x)

    out["ideal.query256.w12"] = (query256, 1)
    return out


def serve() -> None:
    """Print the item names as one JSON line, then time each item named on stdin."""
    table = items()
    print(json.dumps(list(table)), flush=True)
    for line in sys.stdin:
        print(json.dumps(_time(*table[line.strip()])), flush=True)


def _summary(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 3), "q1": round(q1, 3), "q3": round(q3, 3)}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", action="append", default=[],
                        help="LABEL=SRC: a source tree holding the feistel_lab package")
    parser.add_argument("--passes", type=int, default=5, help="at least 2, for the quartiles")
    parser.add_argument("--out")
    parser.add_argument("--one", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.passes < 2:
        parser.exit(2, f"error: --passes must be at least 2 for the quartiles, got {args.passes}\n")
    if args.one:
        serve()
        return
    trees = dict(spec.split("=", 1) for spec in args.tree)
    runs: dict[str, dict[str, list[float]]] = {label: {} for label in trees}
    first = next(iter(trees))
    copies = tempfile.TemporaryDirectory()  # each tree's src without __pycache__
    paths = {label: shutil.copytree(src, os.path.join(copies.name, label),
                                    ignore=shutil.ignore_patterns("__pycache__"))
             for label, src in trees.items()}
    for i in range(args.passes):
        procs = {label: subprocess.Popen(
                     [sys.executable, __file__, "--one"], text=True,
                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                     env={**os.environ, "PYTHONPATH": path, "PYTHONDONTWRITEBYTECODE": "1"})
                 for label, path in paths.items()}
        names = {label: json.loads(proc.stdout.readline()) for label, proc in procs.items()}
        # An item that only some trees have (a new function) is timed on those alone.
        for j, name in enumerate(dict.fromkeys(n for tree in names.values() for n in tree)):
            for label in (list(trees) if (i + j) % 2 == 0 else list(trees)[::-1]):
                if name not in names[label]:
                    continue
                procs[label].stdin.write(name + "\n")
                procs[label].stdin.flush()
                runs[label].setdefault(name, []).append(
                    json.loads(procs[label].stdout.readline()))
        for proc in procs.values():
            proc.stdin.close()
            if proc.wait():
                raise SystemExit(f"a timing interpreter exited with {proc.returncode}")
    copies.cleanup()
    report = {
        "unit": "us per call (per start for start.*, per trial for game.* and badprob.*); "
                "median and quartiles over passes of the best of 5 timeit repeats, the trees "
                "interleaved item by item; ratio: over passes, that pass's time over the first "
                "tree's",
        "passes": args.passes,
        "python": platform.python_version(),
        "machine": f"{os.cpu_count()} cores, {platform.machine()}",
        "trees": {label: {"src": trees[label]} for label in trees},
        "items": {name: {label: _summary(runs[label][name]) for label in trees
                         if name in runs[label]}
                  for name in dict.fromkeys(n for tree in runs.values() for n in tree)},
    }
    for name, by_tree in report["items"].items():
        for label in list(trees)[1:]:
            if first in by_tree and label in by_tree:
                by_tree[label]["ratio"] = _summary(
                    [t / t0 for t, t0 in zip(runs[label][name], runs[first][name])])
    text = json.dumps(report, indent=1)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    print(text)


if __name__ == "__main__":
    main()
