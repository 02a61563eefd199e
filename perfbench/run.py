"""Benchmark of the feistel-lab CLI trial loops.

    python3 perfbench/run.py --workload games --seed 1 --seconds 20 --trace 0

Generates the workload's command list from ``--seed`` and runs whole cycles
of it in-process through ``feistel_lab.cli.main``: a closed loop with one
client, which waits for each result before it issues the next command.
Every output is checked (see ``workloads.check``). One untimed warm-up cycle
pays the in-process one-off costs first; those are reported only through
``setup_s``.

Wall and CPU times are reported at the machine's full speed: a fixed
reference job timed after each command measures how much the shared
machine is slowed at that moment (see ``reference_job``); the times as
measured are printed next to them.

``--trace 0`` measures the end-to-end metrics with tracing off. ``--trace 1``
runs an untraced pass and then a traced pass, and reports the per-layer
metrics per cycle of the traced pass, the tracing overhead and the part of
the traced command time that no layer span covers. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it print the same metrics with
their units and sample counts, and the run metadata.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

if __package__ in (None, ""):
    sys.path.insert(0, str(ROOT))
from perfbench import workloads  # noqa: E402
from perfbench.tracing import SPAN_NAMES, PoolTimer, Tracer  # noqa: E402

# Seconds spent starting fresh interpreters to measure setup_s (at least one
# start); the median start-up is reported. One start takes 0.15 s, or 1.3 s
# when it imports scipy, and single starts vary by a third.
SETUP_SECONDS = 4.0
# Shares of --seconds for the untraced and the traced pass of a --trace 1 run.
TRACE_SHARES = (0.4, 0.45)
# Spans whose call counts are reported next to their self times.
CALLS_REPORTED = ("prbg.derive_seed", "prbg.generator_init", "prbg.bbs_params",
                  "feistel.build", "feistel.encrypt", "feistel.decrypt", "feistel.trace_states")

# The bad-input cases of ROADMAP item 5. Each should end in exit 1 with a
# one-line message.
BAD_INPUTS = (
    ("attack", "--name", "src-k1", "--n", "4", "--k", "2", "--trials", "0", "--seed", "1"),
    ("uniformity", "--kind", "source-heavy", "--n", "2", "--k", "2", "--rounds", "4",
     "--trials", "10", "--significance", "2", "--seed", "1"),
    ("badprob", "--kind", "ufn2", "--n", "4", "--k", "1", "--m", "2", "--trials", "10",
     "--jobs", "0", "--seed", "1"),
)

# Seconds one reference_job takes on the machine the bounds were set on when it
# runs at full speed (2 shared Xeon cores, Python 3.11).
REFERENCE_NOMINAL_S = 0.0024

END_TO_END_UNITS = {"ops_per_s": "1/s", "cmd_ms.p50": "ms", "cmd_ms.tail": "ms",
                    "cpu_us_per_op": "us", "setup_s": "s", "peak_rss_mb": "MB"}


def _cpu() -> float:
    """CPU seconds of this process and of its reaped children (the pool workers)."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + usage.ru_utime + usage.ru_stime


def reference_job() -> int:
    """A fixed pure-Python job that shares no code with the program.

    The shared machine slows down by up to 40 % for minutes at a time, and
    everything on it slows alike. Timing this job next to each command
    measures that slowdown, so command times can be reported at the
    machine's full speed (``Cycle.speed``). It mixes what the trial loops do:
    hashing, generator seeding, dict updates and modular powers.
    """
    acc = 0
    table: dict[int, int] = {}
    for i in range(200):
        digest = hashlib.sha256(b"perfbench-reference:%d" % i).digest()
        x = random.Random(int.from_bytes(digest[:8], "big")).getrandbits(64)
        table[x & 255] = table.get(x & 255, 0) ^ x
        acc ^= pow(x | 1, 65537, (1 << 61) - 1)
    return acc ^ len(table)


def reference_s() -> float:
    started = time.perf_counter()
    reference_job()
    return time.perf_counter() - started


@dataclass
class Cycle:
    """One pass over the command list: wall and CPU seconds of each command, and
    the reference job's time after each command."""

    cmd_s: list[float]
    cpu_s: list[float]
    ref_s: list[float]
    units: int

    @property
    def speed(self) -> float:
        """Machine speed during the cycle relative to full speed (1.0)."""
        return REFERENCE_NOMINAL_S / statistics.median(self.ref_s)

    def at_full_speed(self, attr: str) -> list[float]:
        """``cmd_s`` or ``cpu_s`` as they would read with the machine at full speed."""
        return [v * self.speed for v in getattr(self, attr)]


@dataclass
class Runner:
    """Runs commands through ``cli.main``, checks them and keeps the tallies."""

    cmds: list[workloads.Command]
    attempted: int = 0
    failed: int = 0
    rejected: int = 0
    failures: list[str] = field(default_factory=list)
    _outputs: dict[int, str] = field(default_factory=dict)

    def run(self, index: int, cmd: workloads.Command, argv: list[str]
            ) -> tuple[str, float, float]:
        """Run one command; returns its stdout, wall seconds and CPU seconds."""
        from feistel_lab import cli

        out, err = io.StringIO(), io.StringIO()
        error = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            cpu0 = _cpu()
            started = time.perf_counter()
            try:
                rc = cli.main(argv)
            except Exception as exc:  # a traceback is a failed command, not a crash
                rc, error = None, f"{type(exc).__name__}: {exc}"
            wall = time.perf_counter() - started
            cpu = _cpu() - cpu0
        stdout = out.getvalue()
        self.record(index, cmd, rc, stdout, error or err.getvalue().strip())
        return stdout, wall, cpu

    def record(self, index: int, cmd: workloads.Command, rc: int | None, stdout: str,
               stderr: str) -> None:
        self.attempted += 1
        try:
            workloads.check(cmd, rc, stdout)
            first = self._outputs.setdefault(index, stdout)
            if first != stdout:
                raise workloads.CheckError("output differs from an earlier run of the command")
        except workloads.CheckError as exc:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(f"{' '.join(cmd.argv)}: {exc} {stderr[-300:]}")
        if rc == 2:
            self.rejected += 1

    def cycle(self, cmds: list[workloads.Command] | None = None) -> Cycle:
        cmds = self.cmds if cmds is None else cmds
        cycle = Cycle([], [], [], sum(c.units for c in cmds))
        prev = None
        for index, cmd in enumerate(cmds):
            prev, wall, cpu = self.run(index, cmd, cmd.resolve(prev and prev.strip()))
            cycle.cmd_s.append(wall)
            cycle.cpu_s.append(cpu)
            cycle.ref_s.append(reference_s())
        return cycle

    def cycles_for(self, seconds: float, cmds: list[workloads.Command] | None = None
                   ) -> list[Cycle]:
        """Whole cycles, stopping at the cycle boundary nearest to ``seconds``."""
        done = []
        started = time.perf_counter()
        while True:
            done.append(self.cycle(cmds))
            elapsed = time.perf_counter() - started
            if elapsed * (1 + 0.5 / len(done)) >= seconds:
                return done


def with_jobs(cmds: list[workloads.Command], jobs: int) -> list[workloads.Command]:
    out = []
    for cmd in cmds:
        argv = list(cmd.argv)
        if "--jobs" in argv:
            argv[argv.index("--jobs") + 1] = str(jobs)
        out.append(workloads.Command(tuple(argv), cmd.units, cmd.expect))
    return out


def typical(cycles: list[Cycle], attr: str) -> float:
    """Seconds of a typical cycle at full machine speed: the sum over command
    positions of each position's median, so that one slow command in one cycle
    does not move it."""
    columns = zip(*(c.at_full_speed(attr) for c in cycles))
    return sum(statistics.median(col) for col in columns)


def ops_per_s(cycles: list[Cycle]) -> float:
    return cycles[0].units / typical(cycles, "cmd_s")


def percentile(values: list[float], pct: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(pct) - 1]


def measure_setup(runner: Runner, cmd: workloads.Command, seconds: float
                  ) -> tuple[list[float], float]:
    """Start-up times of ``cmd`` at one trial, as a CLI user pays them on every
    call, and the machine speed while they were taken.

    Each time runs from starting a fresh interpreter to the command's first
    output line. Start-ups repeat until ``seconds`` have passed (at least
    once); three reference jobs follow each one.
    """
    setup_cmd = workloads.Command(tuple(workloads.setup_argv(cmd)), 1,
                                  dict(cmd.expect, trials=1))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = "import sys; from feistel_lab.cli import main; sys.exit(main())"
    times, refs = [], []
    started_all = time.perf_counter()
    while not times or time.perf_counter() - started_all < seconds:
        started = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", code, *setup_cmd.argv], cwd=ROOT,
                              env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True) as proc:
            first = proc.stdout.readline()
            times.append(time.perf_counter() - started)
            try:
                rest, err = proc.communicate(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                rest, err = proc.communicate()
        runner.record(-1, setup_cmd, proc.returncode, first + rest, err.strip())
        refs.extend(reference_s() for _ in range(3))
    return times, REFERENCE_NOMINAL_S / statistics.median(refs)


def probe_bad_inputs() -> list[tuple[str, str]]:
    """Outcome of each bad input: ("clean", message) or ("defect", what happened)."""
    from feistel_lab import cli

    outcomes = []
    for argv in BAD_INPUTS:
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(list(argv))
        except Exception as exc:  # the defect being probed for
            outcomes.append(("defect", f"uncaught {type(exc).__name__}"))
            continue
        lines = err.getvalue().strip().splitlines()
        if rc == 1 and len(lines) == 1 and not out.getvalue():
            outcomes.append(("clean", lines[0]))
        else:
            shown = out.getvalue().strip()[:80] or "no output"
            outcomes.append(("defect", f"exit {rc}, stdout: {shown}"))
    return outcomes


def git_revision() -> str:
    """HEAD of the checkout, read from .git without starting git (no child process
    may count towards peak_rss_mb)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_metadata() -> dict:
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = "absent"
    return {"git_rev": git_revision(), "python": platform.python_version(), **versions,
            "nproc": os.cpu_count()}


def load_average() -> str:
    try:
        return Path("/proc/loadavg").read_text().split()[0]
    except OSError:
        return "unknown"


def _line(name: str, value: float, unit: str, note: str = "") -> None:
    print(f"{name:34s} {value:14.6g} {unit:12s} {note}")


def end_to_end(runner: Runner, workload: str, seconds: float, setup_seconds: float) -> dict:
    timed = runner.cycles_for(seconds)
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    usage += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    setup, setup_speed = measure_setup(runner, runner.cmds[0], setup_seconds)
    cmd_ms = [t * 1e3 for c in timed for t in c.at_full_speed("cmd_s")]
    tail = workloads.TAIL_PERCENTILE[workload]
    tail_ms = percentile(cmd_ms, tail)
    beyond = sum(1 for t in cmd_ms if t > tail_ms)
    units = sum(c.units for c in timed)
    metrics = {
        "ops_per_s": ops_per_s(timed),
        "cmd_ms.p50": percentile(cmd_ms, 50),
        "cmd_ms.tail": tail_ms,
        "cpu_us_per_op": typical(timed, "cpu_s") / timed[0].units * 1e6,
        "setup_s": statistics.median(setup) * setup_speed,
        "peak_rss_mb": usage / 1024,
    }
    notes = {
        "ops_per_s": f"per-command medians of {len(timed)} cycles, {units} units; "
                     f"{statistics.median(c.units / sum(c.cmd_s) for c in timed):.6g} "
                     "as timed",
        "cmd_ms.p50": f"n={len(cmd_ms)} commands",
        "cmd_ms.tail": f"p{tail}, n={len(cmd_ms)}, {beyond} beyond",
        "cpu_us_per_op": f"per-command medians of {len(timed)} cycles, with pool workers",
        "setup_s": f"median of {len(setup)} fresh interpreters, "
                   f"{statistics.median(setup):.6g} as timed",
        "peak_rss_mb": "benchmark process plus its largest pool worker",
    }
    for name, value in metrics.items():
        _line(name, value, END_TO_END_UNITS[name], notes[name])
    _line("machine.speed", statistics.median(c.speed for c in timed), "ratio",
          "median over cycles of the reference job's full-speed time over its time; "
          f"{setup_speed:.3f} during the start-ups")
    return {name: {"value": value, "unit": END_TO_END_UNITS[name]}
            for name, value in metrics.items()}


def per_layer(runner: Runner, workload: str, seconds: float, tag: str) -> dict:
    """Untraced pass, traced pass and, for pooled commands, one pool-timed cycle."""
    pooled = any("--jobs" in c.argv and c.argv[c.argv.index("--jobs") + 1] != "1"
                 for c in runner.cmds)
    serial = with_jobs(runner.cmds, 1)
    plain = runner.cycles_for(seconds * TRACE_SHARES[0], serial)
    tracer = Tracer()
    tracer.install()
    try:
        traced = runner.cycles_for(seconds * TRACE_SHARES[1], serial)
    finally:
        tracer.uninstall()
    tracer.write(OUT_DIR / tag)
    pool = PoolTimer()
    if pooled:
        pool.install()
        try:
            runner.cycle()
        finally:
            pool.uninstall()

    n = len(traced)
    counts = tracer.counts
    values = {f"{name}.self_ms": (tracer.self_ms(name) / n, "ms/cycle") for name in SPAN_NAMES}
    values.update({f"{name}.calls": (tracer.call_count(name) / n, "count/cycle")
                   for name in CALLS_REPORTED})
    values.update({name: (count / n, "count/cycle") for name, count in counts.items()})
    evals, misses = counts["prf.ideal.evals"], counts["prf.ideal.misses"]
    values["prf.ideal.hit_ratio"] = ((evals - misses) / evals if evals else 0.0, "ratio")
    values["prf.ideal.table_entries.max"] = (tracer.table_entries_max, "count")
    values["stats.reject_ratio"] = (runner.rejected / runner.attempted, "ratio")
    values["cli.worker_wait_ms"] = (pool.wait_ns / 1e6, "ms/cycle")
    notes = {"stats.reject_ratio": f"exit-2 verdicts of {runner.attempted} commands",
             "cli.worker_wait_ms": f"one cycle at the workload's --jobs, {pool.pools} pools"}
    for name in sorted(values):
        _line(name, *values[name], notes.get(name, ""))

    wall_ms = sum(sum(c.cmd_s) for c in traced) * 1e3
    uncovered = wall_ms - tracer.total_self_ms()
    overhead = ops_per_s(plain) / ops_per_s(traced) - 1
    _line("trace.cycles", n, "count", f"traced at --jobs 1; {len(plain)} untraced cycles")
    _line("trace.command_ms", wall_ms / n, "ms/cycle", "traced command wall time")
    _line("trace.uncovered_ms", uncovered / n, "ms/cycle",
          f"{uncovered / wall_ms:.2%} of the command wall time is in no span")
    _line("trace.overhead", overhead, "ratio",
          f"untraced {ops_per_s(plain):.6g} vs traced {ops_per_s(traced):.6g} ops/s")
    _line("trace.spans_kept", tracer.spans_kept, "count",
          f"{tracer.spans_dropped} dropped; written to "
          f"{os.path.relpath(OUT_DIR / tag, ROOT)}.spans")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def bad_input_metrics(outcomes: list[tuple[str, str]]) -> dict:
    clean = sum(1 for verdict, _ in outcomes if verdict == "clean")
    for argv, (verdict, what) in zip(BAD_INPUTS, outcomes):
        print(f"bad input {' '.join(argv[:1] + argv[-4:-2])}: {verdict}: {what}")
    _line("cli.bad_input_clean", clean, "count", "exit 1 with a one-line message")
    _line("cli.bad_input_total", len(outcomes), "count", "bad inputs probed, untimed")
    return {"cli.bad_input_clean": {"value": clean, "unit": "count"},
            "cli.bad_input_total": {"value": len(outcomes), "unit": "count"}}


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool, scale: float = 1.0,
                  setup_seconds: float = SETUP_SECONDS) -> dict:
    """Run one benchmark pass and return its result object (also printed)."""
    if not (SRC / "feistel_lab" / "cli.py").is_file():
        raise FileNotFoundError(f"program source not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import feistel_lab.cli  # noqa: F401  (imported before the warm-up, like any CLI call)

    cmds = workloads.commands(workload, seed, scale)
    meta = run_metadata()
    load_start = load_average()
    print(f"perfbench workload={workload} seed={seed} seconds={seconds} trace={int(trace)}")
    print("meta " + " ".join(f"{k}={v}" for k, v in meta.items()) + f" load1_start={load_start}")
    print(f"commands {len(cmds)} per cycle, sha256={workloads.digest(cmds)}")

    runner = Runner(cmds)
    warm = runner.cycle()
    print(f"warm-up 1 cycle, {sum(warm.cmd_s):.3f} s untimed")
    if trace:
        metrics = per_layer(runner, workload, seconds, f"{workload}-seed{seed}")
    else:
        metrics = end_to_end(runner, workload, seconds, setup_seconds)
    bad = bad_input_metrics(probe_bad_inputs())
    if trace:
        metrics.update(bad)
    _line("fail_ratio", runner.failed / runner.attempted, "ratio",
          f"{runner.failed} failed of {runner.attempted} attempted")
    if not trace:
        _line("stats.reject_ratio", runner.rejected / runner.attempted, "ratio",
              "exit-2 verdicts at significance 0.01 (uniformity) or the badprob bound")
    for message in runner.failures:
        print(f"FAILED {message}", file=sys.stderr)
    print(f"meta load1_end={load_average()}")
    return {"correct": runner.failed == 0, "attempted": runner.attempted,
            "failed": runner.failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
