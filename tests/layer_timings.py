"""Layer timings (ROADMAP layers L0, L1 and one L3 item) of source trees, written as JSON.

    python tests/layer_timings.py --tree parent=/path/to/parent/src --tree change=src \
        --out BENCH_layers_pr18.json

Each pass starts one interpreter per tree and times the items one at a time,
each item on every tree before the next item, the tree order alternating from
item to item and from pass to pass, so that a change in the machine's load
falls on all trees alike. Every item is timed with ``timeit`` after a warm-up
call: per pass, the minimum over 5 repeats of the mean over ``number`` calls.
The JSON keeps, per item and tree, the median and the quartiles over
``--passes`` passes, in microseconds per call. pytest does not collect this file.

Items: one round ``feistel._forward`` per kind on an int, on 256-lane ``bits.Lanes``
and on a 2,000-element numpy ``uint64`` array; one ``encrypt`` per kind at its
secure round count; ``prbg.derive_seed``; one ``prbg.state_stream`` expander step
on a state of 128, 1,280 and 14,284 bits (the widest round key); one SplitMix64 pass
at 1 and 256 lanes; the fork-to-join time of ``bits.run_chunks`` (``cli._run_chunked``
on a tree from before it moved) at two jobs with a no-op worker (two trials, the usable
CPU count pinned at 2), a cost that no span of the benchmark tracer covers. A tree whose rounds take block tuples
(``UfnParams.block_count`` exists) gets its round input as a block tuple, so its
round numbers leave out the split at entry and the join at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import timeit

# (kind, n, k): the int and lane rounds run on 64-bit states, the array rounds on
# 12-bit states as in the uniformity check.
LANE_SHAPES = {"balanced": (32, 1), "source-heavy": (16, 3), "target-heavy": (16, 3),
               "ufn2": (16, 3)}
ARRAY_SHAPES = {"balanced": (6, 1), "source-heavy": (4, 2), "target-heavy": (4, 2),
                "ufn2": (4, 2)}


def _time(fn, number: int) -> float:
    fn()
    return min(timeit.repeat(fn, number=number, repeat=5)) / number * 1e6


def _noop_chunk(start: int, count: int) -> int:
    return count


def items() -> dict[str, tuple]:
    """Item name -> (callable, calls per repeat), in this interpreter's ``feistel_lab``."""
    import numpy as np

    from feistel_lab import bits, cli, feistel
    from feistel_lab.bits import BitString, Lanes, split_blocks
    from feistel_lab.feistel import UfnKind, UfnParams, ideal_ufn
    from feistel_lab.prbg import derive_seed, state_stream
    from feistel_lab.prf import SplitMixRound, ideal_oracle, splitmix

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
        f = ideal_oracle(params.round_in_bits, params.round_out_bits, 1)
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
    for lanes in (1, 256):
        keys = Lanes.of(range(1, lanes + 1))
        out[f"splitmix.lanes{lanes}"] = (lambda keys=keys: splitmix(12345, keys), 2000)
    # This interpreter only measures, so the usable CPU count can be pinned here.
    if hasattr(bits, "run_chunks"):
        bits.usable_cpus = lambda: 2
        out["run_chunked.jobs2"] = (lambda: bits.run_chunks(_noop_chunk, (), 2, 2), 20)
    else:  # a tree from before the fork seam moved from cli into bits
        os.cpu_count = lambda: 2
        out["run_chunked.jobs2"] = (lambda: cli._run_chunked(_noop_chunk, (), 2, 2, list), 20)
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
    parser.add_argument("--passes", type=int, default=5)
    parser.add_argument("--out")
    parser.add_argument("--one", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.one:
        serve()
        return
    trees = dict(spec.split("=", 1) for spec in args.tree)
    runs: dict[str, dict[str, list[float]]] = {label: {} for label in trees}
    for i in range(args.passes):
        procs = {label: subprocess.Popen(
                     [sys.executable, __file__, "--one"], text=True,
                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                     env={**os.environ, "PYTHONPATH": os.path.abspath(src)})
                 for label, src in trees.items()}
        names = [json.loads(proc.stdout.readline()) for proc in procs.values()]
        for j, name in enumerate(n for n in names[0] if all(n in other for other in names)):
            for label in (list(trees) if (i + j) % 2 == 0 else list(trees)[::-1]):
                procs[label].stdin.write(name + "\n")
                procs[label].stdin.flush()
                runs[label].setdefault(name, []).append(
                    json.loads(procs[label].stdout.readline()))
        for proc in procs.values():
            proc.stdin.close()
            if proc.wait():
                raise SystemExit(f"a timing interpreter exited with {proc.returncode}")
    report = {
        "unit": "us per call; median and quartiles over passes of the best of 5 timeit "
                "repeats, the trees interleaved item by item",
        "passes": args.passes,
        "python": platform.python_version(),
        "machine": f"{os.cpu_count()} cores, {platform.machine()}",
        "trees": {label: {"src": trees[label]} for label in trees},
        "items": {name: {label: _summary(runs[label][name]) for label in trees}
                  for name in runs[next(iter(trees))]},
    }
    text = json.dumps(report, indent=1)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    print(text)


if __name__ == "__main__":
    main()
