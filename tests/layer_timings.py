"""Layer timings (ROADMAP layers L0 and L1) of one or more source trees, written as JSON.

    python tests/layer_timings.py --tree parent=/path/to/parent/src --tree change=src \
        --out BENCH_layers_pr17.json

Each tree runs in its own interpreter, the trees in alternating order, ``--passes``
times. Every item is timed with ``timeit`` after a warm-up call: per pass, the
minimum over 5 repeats of the mean over ``number`` calls; the JSON keeps the
median over passes, in microseconds per call. pytest does not collect this file.

Items: one round ``feistel._forward`` per kind on an int, on 256-lane ``bits.Lanes``
and on a 2,000-element numpy ``uint64`` array; one ``encrypt`` per kind at its
secure round count; ``prbg.derive_seed``; one ``prbg.state_stream`` expander step
on a state of 128, 1,280 and 14,284 bits (the widest round key); one SplitMix64 pass
at 1 and 256 lanes. A tree whose rounds take block tuples
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


def measure() -> dict[str, float]:
    """Microseconds per call of every item, in this interpreter's ``feistel_lab``."""
    import numpy as np

    from feistel_lab import feistel
    from feistel_lab.bits import BitString, Lanes, split_blocks
    from feistel_lab.feistel import UfnKind, UfnParams, ideal_ufn
    from feistel_lab.prbg import derive_seed, state_stream
    from feistel_lab.prf import SplitMixRound, ideal_oracle, splitmix

    blocks = hasattr(UfnParams, "block_count")
    out: dict[str, float] = {}

    def round_item(name, params, f, x, number):
        if blocks:
            x = split_blocks(x, params.n, params.k + 1)
        out[name] = _time(lambda: feistel._forward(params, f, x), number)

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
        out[f"encrypt.{kind.value}"] = _time(lambda: perm.encrypt(block), 5000)
    out["derive_seed"] = _time(lambda: derive_seed("ideal-ufn", 123456789), 20000)
    for width, number in ((128, 20000), (1280, 5000), (14284, 500)):
        step = state_stream(width, 2 * width, derive_seed("ggm-expand", 0))
        state = (1 << width) // 3
        out[f"state_stream.step{width}"] = _time(lambda: step(state), number)
    for lanes in (1, 256):
        keys = Lanes.of(range(1, lanes + 1))
        out[f"splitmix.lanes{lanes}"] = _time(lambda: splitmix(12345, keys), 2000)
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", action="append", default=[],
                        help="LABEL=SRC: a source tree holding the feistel_lab package")
    parser.add_argument("--passes", type=int, default=5)
    parser.add_argument("--out")
    parser.add_argument("--one", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.one:
        print(json.dumps(measure()))
        return
    trees = dict(spec.split("=", 1) for spec in args.tree)
    runs: dict[str, list[dict]] = {label: [] for label in trees}
    for i in range(args.passes):
        for label in (list(trees) if i % 2 == 0 else list(trees)[::-1]):
            env = {**os.environ, "PYTHONPATH": os.path.abspath(trees[label])}
            done = subprocess.run([sys.executable, __file__, "--one"], env=env, check=True,
                                  capture_output=True, text=True)
            runs[label].append(json.loads(done.stdout))
    report = {
        "unit": "us per call; median over passes of the best of 5 timeit repeats",
        "passes": args.passes,
        "python": platform.python_version(),
        "machine": f"{os.cpu_count()} cores, {platform.machine()}",
        "trees": {label: {"src": trees[label]} for label in trees},
        "items": {name: {label: round(statistics.median(r[name] for r in runs[label]), 3)
                         for label in trees}
                  for name in runs[next(iter(trees))][0]},
    }
    text = json.dumps(report, indent=1)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    print(text)


if __name__ == "__main__":
    main()
