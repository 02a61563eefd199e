"""Line reach: the executable lines of ``src/feistel_lab`` that a run never reaches.

    python tests/reach.py tier1       # the tier-1 suite (tests/ and perfbench/)
    python tests/reach.py commands    # the acceptance suite, then every command of every
                                      # perfbench workload at seeds 1-3 through cli.main

Prints, per module, its executable lines, how many the run reached, and the unreached
ones as line ranges. A line is executable when a code object compiled from the module
starts an instruction on it (``co_lines``); it is reached when a ``sys.settrace`` line
event fires on it, or when it is the first line of a code object that is called. The
tracer is installed before ``feistel_lab`` is imported, so module-level lines count.

Forked ``--jobs`` children (``bits.run_chunks``) and the subprocesses that some tests
start are not traced: a line that only such a child runs reads as unreached. The run
needs no package beyond the test suite's own. pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import collections
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "feistel_lab")


def executable_lines(path: str) -> set[int]:
    """Lines on which some code object compiled from ``path`` starts an instruction."""
    with open(path) as fh:
        todo = [compile(fh.read(), path, "exec")]
    lines = set()
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # None or 0: no source line
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def traced(run) -> dict[str, set[int]]:
    """``run()`` under a tracer: the reached lines of each file under ``SRC``."""
    reached: dict[str, set[int]] = collections.defaultdict(set)
    prefix = SRC + os.sep

    def local(frame, event, _arg):
        if event == "line":
            reached[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, _event, _arg):
        code = frame.f_code
        if not code.co_filename.startswith(prefix):
            return None
        reached[code.co_filename].add(code.co_firstlineno)
        return local

    sys.settrace(call)
    try:
        run()
    finally:
        sys.settrace(None)
    return reached


def _ranges(lines: list[int]) -> str:
    spans = []
    for line in lines:
        if spans and spans[-1][1] == line - 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def report(reached: dict[str, set[int]]) -> str:
    rows, total, missed = [], 0, 0
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(SRC, name)
        lines = executable_lines(path)
        unreached = sorted(lines - reached.get(path, set()))
        total += len(lines)
        missed += len(unreached)
        rows.append(f"{name:18} {len(lines) - len(unreached):4} of {len(lines):4} reached"
                    + (f"; unreached: {_ranges(unreached)}" if unreached else ""))
    rows.append(f"{'total':18} {total - missed:4} of {total:4} reached, {missed} unreached")
    return "\n".join(rows)


def _pytest(*paths: str) -> None:
    import pytest

    code = pytest.main(["-q", "-p", "no:cacheprovider", "--rootdir", ROOT,
                        *(os.path.join(ROOT, p) for p in paths)])
    if code != 0:
        raise SystemExit(f"pytest exited with status {code}")


def _commands() -> None:
    _pytest("tests/test_acceptance.py")
    sys.path.insert(0, os.path.join(ROOT, "tests"))
    from seeded_outputs import run_lists

    run_lists([1, 2, 3])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("case", choices=["tier1", "commands"])
    args = parser.parse_args()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    run = (lambda: _pytest("tests", "perfbench")) if args.case == "tier1" else _commands
    print(report(traced(run)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
