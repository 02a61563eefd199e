"""Spans and counters around the layers of ``feistel_lab``, installed from outside.

``Tracer.install`` replaces public functions and methods with timing wrappers:
a function is replaced in every module that binds it (``statcheck.ideal_ufn``,
``distinguisher.derive_seed``, ...), a method on its class. ``uninstall``
puts the originals back. Each span records its name, start, end and parent;
a span's self time is its duration minus the time covered by its child
spans, so the self times of all spans add up to the time of the root spans
(``cli.main``). Functions cheaper than a microsecond per call
(``BitString`` construction, generator draws, round steps) are counted
without a span.

Spans are kept in memory, up to ``SPAN_CAP`` of them, and ``write`` saves
them when the benchmark ends. Self times and counts cover every span, kept or
not.
"""

from __future__ import annotations

import inspect
import json
import time
from array import array
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

SPAN_FIELDS = ("id", "name", "start_ns", "end_ns", "parent_id")
# Spans kept in memory: 16 MB of int64 rows; a traced collisions pass makes
# about 2 million, so later ones only add to the totals.
SPAN_CAP = 400_000

# Spans with a self-time metric, in report order. Their self times add up to
# the traced command wall time, less the uncovered remainder.
SPAN_NAMES = (
    "prbg.derive_seed",
    "prbg.generator_init",
    "prbg.bbs_params",
    "prbg.bbs_stream",
    "prf.ideal",
    "prf.ggm",
    "feistel.build",
    "feistel.encrypt",
    "feistel.decrypt",
    "feistel.trace_states",
    "distinguisher.trial_loop",
    "distinguisher.ideal_perm",
    "distinguisher.machine",
    "distinguisher.calibrate",
    "statcheck.trial_loop",
    "stats.chi_square",
    "bench.run_bench",
    "cli",
)

# Counters, all zero until the traced code runs.
COUNTER_NAMES = (
    "prbg.bits_drawn",
    "prf.ideal.evals",
    "prf.ideal.misses",
    "prf.ggm.evals",
    "prf.ggm.walk_steps",
    "prf.ggm.bits_generated",
    "bits.bitstrings_created",
    "feistel.round_evals",
    "distinguisher.trials",
    "distinguisher.perm_queries",
    "distinguisher.machine.runs",
    "statcheck.trials",
    "statcheck.queries",
)


class Tracer:
    """In-memory span recorder with per-name self time, call counts and counters."""

    def __init__(self) -> None:
        self.names = list(SPAN_NAMES)
        self.self_ns = [0] * len(self.names)
        self.calls = [0] * len(self.names)
        self.counts = dict.fromkeys(COUNTER_NAMES, 0)
        self.table_entries_max = 0
        self.spans = array("q")
        self.spans_dropped = 0
        # One frame per open span: [span id, nanoseconds covered by children].
        self._stack = [[-1, 0]]
        self._next_id = 0
        self._statcheck_depth = 0
        self._patches: list[tuple[object, str, object]] = []

    # --- recording -------------------------------------------------------------

    def wrap(self, name: str, fn):
        """``fn`` inside a span called ``name``."""
        idx = self.names.index(name)
        self_ns, calls, stack, spans = self.self_ns, self.calls, self._stack, self.spans
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1]
            frame = [sid, 0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                self_ns[idx] += dur - frame[1]
                calls[idx] += 1
                parent[1] += dur
                if len(spans) < SPAN_CAP * len(SPAN_FIELDS):
                    spans.extend((sid, idx, t0, t1, parent[0]))
                else:
                    self.spans_dropped += 1

        return traced

    def self_ms(self, name: str) -> float:
        return self.self_ns[self.names.index(name)] / 1e6

    def call_count(self, name: str) -> int:
        return self.calls[self.names.index(name)]

    def total_self_ms(self) -> float:
        return sum(self.self_ns) / 1e6

    @property
    def spans_kept(self) -> int:
        return len(self.spans) // len(SPAN_FIELDS)

    def write(self, path: Path) -> None:
        """Save the kept spans as little-endian int64 rows, described by a JSON sidecar."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path.with_suffix(".spans"), "wb") as fh:
            self.spans.tofile(fh)
        meta = {"fields": SPAN_FIELDS, "dtype": "int64", "names": self.names,
                "kept": self.spans_kept, "dropped": self.spans_dropped}
        path.with_suffix(".json").write_text(json.dumps(meta, indent=1) + "\n")

    # --- patching --------------------------------------------------------------

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind(self, modules, original, replacement) -> None:
        """Replace ``original`` wherever a module binds it at top level."""
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap the layer boundaries of every ``feistel_lab`` module."""
        import feistel_lab
        from feistel_lab import (bench, bits, cli, distinguisher, feistel, prbg, prf,
                                 statcheck, stats)

        modules = (feistel_lab, bits, prbg, prf, feistel, distinguisher, statcheck, stats,
                   bench, cli)
        counts = self.counts

        def rebind(original, replacement):
            self._rebind(modules, original, replacement)

        def rebind_span(name, original):
            rebind(original, self.wrap(name, original))

        # L0: bits, prbg, prf.
        post_init = bits.BitString.__post_init__

        def counted_post_init(obj):
            counts["bits.bitstrings_created"] += 1
            post_init(obj)

        self._set(bits.BitString, "__post_init__", counted_post_init)

        rebind_span("prbg.derive_seed", prbg.derive_seed)
        rebind_span("prbg.bbs_params", prbg.generate_bbs_params)
        fast = prbg.FastBitGenerator
        self._set(fast, "__init__", self.wrap("prbg.generator_init", fast.__init__))
        next_int, next_bits = fast.next_int, fast.next_bits

        def counted_next_int(gen, nbits):
            counts["prbg.bits_drawn"] += nbits
            return next_int(gen, nbits)

        def counted_next_bits(gen, count):
            counts["prbg.bits_drawn"] += count
            return next_bits(gen, count)

        self._set(fast, "next_int", counted_next_int)
        self._set(fast, "next_bits", counted_next_bits)
        bbs_next = self.wrap("prbg.bbs_stream", prbg.BbsGenerator.next_bits)

        def counted_bbs_next(gen, count):
            counts["prbg.bits_drawn"] += count
            return bbs_next(gen, count)

        self._set(prbg.BbsGenerator, "next_bits", counted_bbs_next)

        ideal_eval = self.wrap("prf.ideal", prf.IdealFunctionOracle.eval_int)

        def counted_ideal_eval(oracle, x):
            before = oracle.table_size
            y = ideal_eval(oracle, x)
            after = oracle.table_size
            counts["prf.ideal.evals"] += 1
            counts["prf.ideal.misses"] += after - before
            if after > self.table_entries_max:
                self.table_entries_max = after
            return y

        self._set(prf.IdealFunctionOracle, "eval_int", counted_ideal_eval)

        ggm_eval = self.wrap("prf.ggm", prf.ggm_eval)

        def counted_ggm_eval(key, x):
            counts["prf.ggm.evals"] += 1
            counts["prf.ggm.walk_steps"] += x.width
            return ggm_eval(key, x)

        rebind(prf.ggm_eval, counted_ggm_eval)
        ggm_oracle_eval = prf.GgmFunctionOracle.eval_int

        def counted_ggm_oracle_eval(oracle, x):
            before = oracle.bits_generated
            y = ggm_oracle_eval(oracle, x)
            counts["prf.ggm.bits_generated"] += oracle.bits_generated - before
            return y

        self._set(prf.GgmFunctionOracle, "eval_int", counted_ggm_oracle_eval)

        # L1: feistel.
        rebind_span("feistel.build", feistel.ideal_ufn)
        rebind_span("feistel.build", feistel.ggm_ufn)
        for step in (feistel._forward, feistel._inverse):
            rebind(step, self._counted(step, "feistel.round_evals"))
        perm = feistel.UfnPermutation
        for method in ("encrypt", "decrypt", "trace_states"):
            traced = self.wrap(f"feistel.{method}", getattr(perm, method))
            self._set(perm, method, self._statcheck_query(traced))
        self._set(perm, "query", self._counted(perm.query, "distinguisher.perm_queries"))

        # L2: distinguisher, statcheck.
        rebind(distinguisher.advantage_counts,
               self._trial_loop("distinguisher.trial_loop", distinguisher.advantage_counts,
                                "distinguisher.trials"))
        rebind_span("distinguisher.ideal_perm", distinguisher.ideal_permutation)
        rebind_span("distinguisher.calibrate", distinguisher.calibrate_w_index)
        ideal_perm = distinguisher.IdealPermutationOracle
        self._set(ideal_perm, "query",
                  self._counted(self.wrap("distinguisher.ideal_perm", ideal_perm.query),
                                "distinguisher.perm_queries"))
        for cls in vars(distinguisher).values():
            if (isinstance(cls, type) and issubclass(cls, distinguisher.OracleMachine)
                    and "run" in vars(cls) and cls is not distinguisher.OracleMachine):
                self._set(cls, "run", self._counted(
                    self.wrap("distinguisher.machine", cls.run), "distinguisher.machine.runs"))
        for loop in (statcheck.bad_event_counts, statcheck.uniformity_counts):
            rebind(loop, self._statcheck_loop(loop))

        # L3: stats, bench, cli.
        rebind_span("stats.chi_square", stats.chi_square_statistic)
        rebind_span("stats.chi_square", stats.chi_square_critical)
        rebind_span("bench.run_bench", bench.run_bench)
        rebind_span("cli", cli.main)

    def _counted(self, fn, counter: str):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return counted

    def _trial_loop(self, name: str, fn, counter: str):
        """Span around a trial loop that also adds its ``count`` argument to ``counter``."""
        traced = self.wrap(name, fn)
        signature = inspect.signature(fn)

        def loop(*args, **kwargs):
            self.counts[counter] += signature.bind(*args, **kwargs).arguments["count"]
            return traced(*args, **kwargs)

        return loop

    def _statcheck_loop(self, fn):
        loop = self._trial_loop("statcheck.trial_loop", fn, "statcheck.trials")

        def marked(*args, **kwargs):
            self._statcheck_depth += 1
            try:
                return loop(*args, **kwargs)
            finally:
                self._statcheck_depth -= 1

        return marked

    def _statcheck_query(self, fn):
        """Count permutation queries that a statcheck trial loop makes."""
        counts = self.counts

        def query(*args, **kwargs):
            if self._statcheck_depth:
                counts["statcheck.queries"] += 1
            return fn(*args, **kwargs)

        return query


class PoolTimer:
    """Times each process pool that ``cli`` opens, from creation to shutdown.

    While a pool is open the parent only submits chunks and waits for their
    results, so this is the parent's time waiting on workers.
    """

    def __init__(self) -> None:
        self.wait_ns = 0
        self.pools = 0
        self._saved = None

    def install(self) -> None:
        from feistel_lab import cli

        timer = self

        class TimedPool(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs) -> None:
                self._opened = time.perf_counter_ns()
                super().__init__(*args, **kwargs)

            def shutdown(self, *args, **kwargs) -> None:
                try:
                    super().shutdown(*args, **kwargs)
                finally:
                    timer.wait_ns += time.perf_counter_ns() - self._opened
                    timer.pools += 1

        self._saved = cli.ProcessPoolExecutor
        cli.ProcessPoolExecutor = TimedPool

    def uninstall(self) -> None:
        from feistel_lab import cli

        if self._saved is not None:
            cli.ProcessPoolExecutor = self._saved
            self._saved = None
