import io
import json
import os
import signal
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

import feistel_lab
from feistel_lab import bits, cli, distinguisher, statcheck
from feistel_lab.cli import SEED_ENV_VAR, main


@pytest.fixture(autouse=True)
def _no_env_seed(monkeypatch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_help_lists_every_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for name in ("encrypt", "decrypt", "attack", "advantage", "badprob",
                 "uniformity", "matrix", "bench"):
        assert name in out


def test_subcommand_help_lists_flags(capsys):
    expected = {
        "encrypt": ["--kind", "--n", "--k", "--rounds", "--key", "--in", "--prf",
                    "--expander", "--out"],
        "decrypt": ["--kind", "--n", "--k", "--rounds", "--key", "--in"],
        "attack": ["--name", "--n", "--k", "--rounds", "--trials", "--seed",
                   "--out", "--jobs"],
        "advantage": ["--name", "--kind", "--n", "--k", "--rounds", "--trials"],
        "badprob": ["--kind", "--n", "--k", "--m", "--trials", "--shaping", "--seed"],
        "uniformity": ["--kind", "--n", "--k", "--rounds", "--trials", "--significance"],
        "matrix": ["--k"],
        "bench": ["--mode", "--n", "--k", "--workload", "--ell", "--analytic",
                  "--csv", "--seed", "--out"],
    }
    for sub, flags in expected.items():
        with pytest.raises(SystemExit) as exc:
            main([sub, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for flag in flags:
            assert flag in out, (sub, flag)


def test_matrix_output(capsys):
    code, out, _ = run_cli(capsys, "matrix", "--k", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["k"] == 3
    assert payload["nonsingular"] is True
    assert payload["schema"] == 1

    code, out, _ = run_cli(capsys, "matrix", "--k", "2")
    assert code == 0
    assert json.loads(out)["nonsingular"] is False


def test_encrypt_decrypt_round_trip(capsys):
    base = ["--kind", "ufn2", "--n", "2", "--k", "2", "--rounds", "5",
            "--key", "A3F2C12345"]
    code, out, _ = run_cli(capsys, "encrypt", *base, "--in", "6:2D")
    assert code == 0
    ct = out.strip()
    assert ct.startswith("6:")
    code, out, _ = run_cli(capsys, "decrypt", *base, "--in", ct)
    assert code == 0
    assert out.strip() == "6:2D"


@pytest.mark.parametrize("expander, expected", [("bbs", "32:3856A90C"), ("fast", "32:2BCD4024")])
def test_encrypt_tree_walk_golden(capsys, expander, expected):
    # The bbs ciphertext was computed with tests/scalar_twins.py's bbs stream, which
    # seeds each step from a 128-bit SHAKE-256 digest of the state's bytes; its moduli
    # are pinned in test_prf.py. The fast ciphertext pins the SHAKE-256 tree-walk
    # stream over the state's bytes.
    base = ["--kind", "source-heavy", "--n", "8", "--k", "3", "--rounds", "5",
            "--key", "0123456789ABCDEF0123", "--expander", expander]
    code, out, _ = run_cli(capsys, "encrypt", *base, "--in", "32:DEADBEEF")
    assert code == 0 and out.strip() == expected
    code, out, _ = run_cli(capsys, "decrypt", *base, "--in", expected)
    assert code == 0 and out.strip() == "32:DEADBEEF"


def test_encrypt_ideal_prf_round_trip(capsys):
    # Each command builds its cipher afresh, so decrypt only inverts encrypt
    # when a round's values do not depend on the order the rounds run in.
    for kind, rounds in (("source-heavy", "3"), ("target-heavy", "4"), ("ufn2", "5")):
        base = ["--kind", kind, "--n", "2", "--k", "2", "--rounds", rounds,
                "--key", "BEEF", "--prf", "ideal"]
        for block in ("6:00", "6:2D", "6:3F", "6:11"):
            code, out, _ = run_cli(capsys, "encrypt", *base, "--in", block)
            assert code == 0
            ct = out.strip()
            code, out, _ = run_cli(capsys, "decrypt", *base, "--in", ct)
            assert code == 0
            assert out.strip() == block


def test_encrypt_usage_errors(capsys):
    base = ["--kind", "ufn2", "--n", "2", "--k", "2", "--rounds", "5"]
    code, _, err = run_cli(capsys, "encrypt", *base, "--key", "XYZ", "--in", "6:2D")
    assert code == 1 and "hex" in err
    code, _, err = run_cli(capsys, "encrypt", *base, "--key", "A3F2C1", "--in", "6:2D")
    assert code == 1 and "divisible" in err
    code, _, err = run_cli(capsys, "encrypt", *base, "--key", "A3F2C12345", "--in", "4:A")
    assert code == 1 and "state" in err
    code, _, err = run_cli(capsys, "encrypt", *base, "--key", "A3F2C12345", "--in", "nope")
    assert code == 1


# The widest bit string whose values Python writes within its default limit of 4,300
# decimal digits: 2^14284 - 1 has 4,300 digits and 2^14285 - 1 has 4,301. Keys and
# states are hashed as hex text or bytes, so the cases on either side of it agree.
_WIDEST_KEY = 14284


@pytest.fixture
def default_digit_limit():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("expander", ["fast", "bbs"])
@pytest.mark.parametrize("width", [_WIDEST_KEY, _WIDEST_KEY + 1])
def test_tree_walk_round_trips_round_keys_past_the_decimal_digit_limit(capsys,
                                                                       default_digit_limit,
                                                                       expander, width):
    # Four rounds cut the 4 * width-bit key into round keys of width bits each.
    base = ["--kind", "balanced", "--n", "2", "--k", "1", "--rounds", "4",
            "--key", "F" * width, "--expander", expander]
    for block in ("4:0", "4:5", "4:A")[:1 if expander == "bbs" else 3]:
        code, out, err = run_cli(capsys, "encrypt", *base, "--in", block)
        assert code == 0 and err == ""
        code, out, err = run_cli(capsys, "decrypt", *base, "--in", out.strip())
        assert code == 0 and out.strip() == block and err == ""


@pytest.mark.parametrize("digits", [_WIDEST_KEY // 4, _WIDEST_KEY // 4 + 1])
def test_ideal_prf_round_trips_keys_past_the_decimal_digit_limit(capsys, default_digit_limit,
                                                                 digits):
    # The ideal rounds hash the whole key: 3,571 hex digits are 14,284 bits.
    base = ["--kind", "balanced", "--n", "2", "--k", "1", "--rounds", "1",
            "--key", "F" * digits, "--prf", "ideal"]
    code, out, err = run_cli(capsys, "encrypt", *base, "--in", "4:A")
    assert code == 0 and out.startswith("4:") and err == ""
    code, out, err = run_cli(capsys, "decrypt", *base, "--in", out.strip())
    assert code == 0 and out.strip() == "4:A" and err == ""


@pytest.mark.parametrize("width", [_WIDEST_KEY, _WIDEST_KEY + 1])
def test_bench_takes_round_keys_past_the_decimal_digit_limit(capsys, default_digit_limit, width):
    # At n=2, k=1 every structure runs three rounds, so each round key is ell / 3 bits.
    code, out, err = run_cli(capsys, "bench", "--mode", "ggm", "--n", "2", "--k", "1",
                             "--workload", "1", "--ell", str(3 * width), "--seed", "1")
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["ell"] == 3 * width
    for row in report["structures"]:
        assert row["measured_prbg_bits"] == row["analytic_prbg_bits"]


@pytest.mark.parametrize("width", [_WIDEST_KEY, _WIDEST_KEY + 1])
def test_ideal_prf_round_trips_round_inputs_past_the_decimal_digit_limit(capsys,
                                                                         default_digit_limit,
                                                                         width):
    # Source-heavy at n=1 feeds each round the low k bits of its k+1-bit state. The
    # ideal round's stream writes its input as bytes, so no round input is too wide.
    state = width + 1
    base = ["--kind", "source-heavy", "--n", "1", "--k", str(width), "--rounds", "1",
            "--key", "BEEF", "--prf", "ideal"]
    block = f"{state}:{'0' * ((state + 3) // 4)}"
    code, out, err = run_cli(capsys, "encrypt", *base, "--in", block)
    assert code == 0 and err == ""
    code, out, _ = run_cli(capsys, "decrypt", *base, "--in", out.strip())
    assert code == 0 and out.strip() == block


@pytest.mark.parametrize("shape", [("--n", "40", "--k", "30", "--workload", "1", "--analytic"),
                                   ("--n", "64", "--k", "20")])
def test_bench_refuses_a_memory_ratio_past_the_float_range(capsys, shape):
    # The source-heavy table outgrows the least one by more than 2^1024.
    code, out, err = run_cli(capsys, "bench", "--mode", "mem", *shape, "--seed", "1")
    assert (code, out) == (1, "")
    assert err.startswith("error: memory_ratio reaches 2^")
    assert err.endswith(", which does not fit a float\n") and err.count("\n") == 1


@pytest.mark.parametrize("n", [14268, 14269])
def test_bench_refuses_a_figure_past_the_decimal_digit_limit(capsys, default_digit_limit, n):
    # At k=1 each structure's table is 3 * 2^n * n bits: 4,300 digits at n=14268, 4,301 at 14269.
    code, out, err = run_cli(capsys, "bench", "--mode", "mem", "--n", str(n), "--k", "1",
                             "--analytic", "--workload", "0", "--seed", "1")
    if n == 14268:
        assert code == 0
        assert len(str(json.loads(out)["structures"][0]["analytic_table_bits"])) == 4300
        return
    assert (code, out) == (1, "")
    assert err == (f"error: analytic_table_bits of balanced at --n {n} --k 1 has more than "
                   "4300 decimal digits, past the int-to-str limit\n")


def test_seed_env_that_is_not_an_int_is_a_one_line_error(capsys, monkeypatch):
    monkeypatch.setenv(SEED_ENV_VAR, "abc")
    code, out, err = run_cli(capsys, "attack", "--name", "src-k1", "--n", "4", "--k", "2",
                             "--trials", "50")
    assert (code, out) == (1, "")
    assert err == f"error: {SEED_ENV_VAR} must be an integer, got 'abc'\n"


def test_unknown_flag_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "matrix", "--k", "3", "--frobnicate")
    assert code == 1


def test_attack_json_report(capsys):
    code, out, _ = run_cli(capsys, "attack", "--name", "src-k1", "--n", "4",
                           "--k", "2", "--trials", "400", "--seed", "7")
    assert code == 0
    payload = json.loads(out)
    assert payload["accept_a"] == 1.0
    assert payload["rounds"] == 3
    assert payload["schema"] == 1
    for key in ("accept_b", "advantage", "ci", "trials", "seed", "name", "kind"):
        assert key in payload


def test_attack_parity_usage_errors(capsys):
    code, _, err = run_cli(capsys, "attack", "--name", "ufn2-even", "--n", "4",
                           "--k", "3", "--trials", "10", "--seed", "1")
    assert code == 1 and "even" in err
    code, _, err = run_cli(capsys, "attack", "--name", "ufn2-2k", "--n", "4",
                           "--k", "2", "--trials", "10", "--seed", "1")
    assert code == 1 and "odd" in err


def test_advantage_at_secure_rounds(capsys):
    code, out, _ = run_cli(capsys, "advantage", "--name", "src-k1", "--n", "4",
                           "--k", "2", "--rounds", "4", "--trials", "400", "--seed", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["rounds"] == 4
    assert payload["advantage"] <= 3 * payload["ci"]


def test_badprob_passes_and_reports(capsys):
    code, out, _ = run_cli(capsys, "badprob", "--kind", "source-heavy", "--n", "8",
                           "--k", "2", "--m", "4", "--trials", "500", "--seed", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["bound"] == 0.09375
    assert payload["empirical"] <= payload["bound"] + 3 * payload["ci"]
    assert payload["watched_rounds"] == [1, 2, 3]


def test_badprob_rejects_balanced(capsys):
    code, _, err = run_cli(capsys, "badprob", "--kind", "balanced", "--n", "8",
                           "--k", "1", "--m", "2", "--trials", "10", "--seed", "1")
    assert code == 1


def test_uniformity_pass_and_failure_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "uniformity", "--kind", "source-heavy", "--n", "2",
                           "--k", "2", "--trials", "20000", "--seed", "11")
    assert code == 0
    assert json.loads(out)["passed"] is True

    # Even ratio: the conserved XOR-sum wrecks uniformity -> check failure.
    code, out, err = run_cli(capsys, "uniformity", "--kind", "ufn2", "--n", "2",
                             "--k", "2", "--trials", "2000", "--seed", "12")
    assert code == 2
    assert json.loads(out)["passed"] is False
    assert "check failed" in err


def test_uniformity_rejects_large_state(capsys):
    code, _, err = run_cli(capsys, "uniformity", "--kind", "ufn2", "--n", "4",
                           "--k", "3", "--trials", "10", "--seed", "1")
    assert code == 1 and "too large" in err


def test_seeded_runs_are_byte_identical(capsys):
    args = ("attack", "--name", "tgt-k1", "--n", "4", "--k", "2",
            "--trials", "300", "--seed", "13")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


@pytest.mark.parametrize("base", [
    ("attack", "--name", "src-k1", "--n", "4", "--k", "2", "--trials", "300"),
    ("badprob", "--kind", "target-heavy", "--n", "4", "--k", "2", "--m", "4",
     "--trials", "301"),
    ("badprob", "--kind", "target-heavy", "--n", "2", "--k", "2", "--m", "8",
     "--shaping", "uniform", "--trials", "304"),
    ("uniformity", "--kind", "source-heavy", "--n", "2", "--k", "2", "--trials", "302"),
    ("advantage", "--name", "src-k1", "--n", "4", "--k", "2", "--rounds", "4",
     "--trials", "303"),
], ids=["attack", "badprob", "badprob-uniform", "uniformity", "advantage"])
def test_jobs_do_not_change_results(capsys, monkeypatch, base):
    # Three chunks on any machine: --jobs is capped at the usable CPU count.
    monkeypatch.setattr(bits, "usable_cpus", lambda: 3)
    _, serial, _ = run_cli(capsys, *base, "--seed", "17", "--jobs", "1")
    _, parallel, _ = run_cli(capsys, *base, "--seed", "17", "--jobs", "3")
    assert serial == parallel
    assert json.loads(serial)["trials"] == int(base[-1])


def test_jobs_are_capped_at_the_cpu_count(capsys, monkeypatch):
    args = ("attack", "--name", "src-k1", "--n", "4", "--k", "2", "--trials", "50",
            "--seed", "19")
    _, serial, _ = run_cli(capsys, *args)

    def no_fork():
        raise AssertionError("a worker process was forked")

    monkeypatch.setattr(bits, "usable_cpus", lambda: 1)
    monkeypatch.setattr(os, "fork", no_fork)
    code, out, _ = run_cli(capsys, *args, "--jobs", "4")
    assert code == 0
    assert out == serial


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU affinity here")
def test_jobs_are_capped_at_the_usable_cpus(capsys, monkeypatch):
    args = ("attack", "--name", "src-k1", "--n", "4", "--k", "2", "--trials", "50",
            "--seed", "19")
    _, serial, _ = run_cli(capsys, *args)

    def no_fork():
        raise AssertionError("a worker process was forked")

    # Two CPUs in the machine, one of them usable by this process.
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(os, "fork", no_fork)
    assert run_cli(capsys, *args, "--jobs", "2") == (0, serial, "")
    # Without an affinity set, the cap is the CPU count.
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    assert run_cli(capsys, *args, "--jobs", "2") == (0, serial, "")


_BADPROB = ("badprob", "--kind", "target-heavy", "--n", "4", "--k", "2", "--m", "4",
            "--trials", "40", "--seed", "3")


class UnloadableError(Exception):
    """Pickles, but loading it calls ``__init__`` with one argument of two."""

    def __init__(self, a, b):
        super().__init__(a)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def failing_in(chunk_start, failure):
    """``bad_event_counts`` that calls ``failure()`` in the chunk starting at ``chunk_start``."""
    real = statcheck.bad_event_counts

    def counts(spec, seed, start, count):
        if count and start == chunk_start:
            failure()
        return real(spec, seed, start, count)

    return counts


def test_forked_jobs_leave_no_child_behind(capsys, monkeypatch):
    monkeypatch.setattr(bits, "usable_cpus", lambda: 2)
    _, serial, _ = run_cli(capsys, *_BADPROB, "--jobs", "1")
    assert run_cli(capsys, *_BADPROB, "--jobs", "2") == (0, serial, "")
    assert_no_child_left()


def test_child_exception_is_raised_in_the_parent(capsys, monkeypatch):
    def fail():
        raise ValueError("chunk 1 refused")

    monkeypatch.setattr(bits, "usable_cpus", lambda: 2)
    monkeypatch.setattr(statcheck, "bad_event_counts", failing_in(20, fail))
    assert run_cli(capsys, *_BADPROB, "--jobs", "2") == (1, "", "error: chunk 1 refused\n")
    assert_no_child_left()


def test_child_without_a_result_is_a_one_line_error(capsys, monkeypatch):
    monkeypatch.setattr(bits, "usable_cpus", lambda: 2)
    monkeypatch.setattr(statcheck, "bad_event_counts", failing_in(20, lambda: os._exit(3)))
    code, out, err = run_cli(capsys, *_BADPROB, "--jobs", "2")
    assert (code, out) == (1, "")
    assert err == "error: a --jobs worker ended without a result (exit status 3)\n"
    assert_no_child_left()


def test_child_result_that_does_not_load_is_a_one_line_error(capsys, monkeypatch):
    def fail():
        raise UnloadableError("chunk 1 refused", "twice")

    monkeypatch.setattr(bits, "usable_cpus", lambda: 3)
    monkeypatch.setattr(statcheck, "bad_event_counts", failing_in(13, fail))
    code, out, err = run_cli(capsys, *_BADPROB, "--jobs", "3")
    assert (code, out) == (1, "")
    assert err == "error: a --jobs worker ended without a result (exit status 0)\n"
    assert_no_child_left()


def test_interrupt_while_joining_kills_and_reaps_the_children(capsys, monkeypatch):
    real = statcheck.bad_event_counts

    def counts(spec, seed, start, count):
        if count and start:
            time.sleep(60)
        return real(spec, seed, start, count)

    def interrupt(signum, frame):
        raise KeyboardInterrupt

    monkeypatch.setattr(bits, "usable_cpus", lambda: 3)
    monkeypatch.setattr(statcheck, "bad_event_counts", counts)
    previous = signal.signal(signal.SIGALRM, interrupt)
    began = time.monotonic()
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.5)
        with pytest.raises(KeyboardInterrupt):
            run_cli(capsys, *_BADPROB, "--jobs", "3")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert time.monotonic() - began < 10
    assert_no_child_left()


def test_failing_parent_chunk_kills_and_reaps_the_children(capsys, monkeypatch):
    real = statcheck.bad_event_counts

    def counts(spec, seed, start, count):
        if count:
            if start == 0:
                raise ValueError("chunk 0 refused")
            time.sleep(60)
        return real(spec, seed, start, count)

    monkeypatch.setattr(bits, "usable_cpus", lambda: 3)
    monkeypatch.setattr(statcheck, "bad_event_counts", counts)
    began = time.monotonic()
    assert run_cli(capsys, *_BADPROB, "--jobs", "3") == (1, "", "error: chunk 0 refused\n")
    assert time.monotonic() - began < 10
    assert_no_child_left()


def test_jobs_without_fork_run_in_one_process(capsys, monkeypatch):
    monkeypatch.setattr(bits, "usable_cpus", lambda: 2)
    _, serial, _ = run_cli(capsys, *_BADPROB, "--jobs", "1")
    monkeypatch.delattr(os, "fork")
    assert run_cli(capsys, *_BADPROB, "--jobs", "2") == (0, serial, "")


@settings(max_examples=8, deadline=None)
@given(
    shape=hs.sampled_from([("balanced", "4", "1"), ("source-heavy", "2", "2"),
                           ("target-heavy", "2", "3"), ("ufn2", "3", "1")]),
    trials=hs.integers(2, 400),
    seed=hs.integers(0, 2**64 - 1),
)
def test_uniformity_json_does_not_depend_on_jobs(shape, trials, seed):
    kind, n, k = shape
    argv = ["uniformity", "--kind", kind, "--n", n, "--k", k, "--trials", str(trials),
            "--seed", str(seed)]
    outputs = []
    with pytest.MonkeyPatch.context() as mp:
        # Two chunks on any machine: --jobs is capped at the usable CPU count.
        mp.setattr(bits, "usable_cpus", lambda: 2)
        for jobs in ("1", "2"):
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = main(argv + ["--jobs", jobs])
            outputs.append((code, buf.getvalue()))
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0][1])["trials"] == trials


_TRIAL_BASES = {
    "badprob-adversarial": ("badprob", "--kind", "source-heavy", "--n", "4", "--k", "2",
                            "--m", "6"),
    "badprob-uniform": ("badprob", "--kind", "ufn2", "--n", "2", "--k", "2", "--m", "8",
                        "--shaping", "uniform"),
    "attack": ("attack", "--name", "tgt-k1", "--n", "4", "--k", "2"),
    "advantage": ("advantage", "--name", "ufn2-2k", "--kind", "ufn2", "--n", "3", "--k", "3",
                  "--rounds", "5"),
}


@pytest.mark.parametrize("command", list(_TRIAL_BASES))
@settings(max_examples=6, deadline=None)
@given(trials=hs.integers(1, 400), seed=hs.integers(0, 2**64 - 1))
def test_trial_json_does_not_depend_on_jobs(command, trials, seed):
    argv = [*_TRIAL_BASES[command], "--trials", str(trials), "--seed", str(seed)]
    outputs = []
    with pytest.MonkeyPatch.context() as mp:
        # Up to three chunks on any machine: --jobs is capped at the usable CPU count.
        mp.setattr(bits, "usable_cpus", lambda: 3)
        for jobs in ("1", "2", "3"):
            buf = io.StringIO()
            with redirect_stdout(buf), redirect_stderr(io.StringIO()):
                code = main(argv + ["--jobs", jobs])
            outputs.append((code, buf.getvalue()))
    assert outputs[0] == outputs[1] == outputs[2]
    assert json.loads(outputs[0][1])["trials"] == trials


def test_parser_is_built_once_per_process(capsys, monkeypatch):
    builds = []
    real_build = cli.build_parser

    def counted_build():
        builds.append(1)
        return real_build()

    monkeypatch.setattr(cli, "build_parser", counted_build)
    cli._shared_parser.cache_clear()
    args = ("attack", "--name", "src-k1", "--n", "4", "--k", "2", "--trials", "50",
            "--seed", "3")
    first = run_cli(capsys, *args)
    code, _, err = run_cli(capsys, "attack", "--name", "nope", "--n", "4", "--k", "2")
    assert code == 1 and err.startswith("error: ")
    second = run_cli(capsys, *args)
    matrix = run_cli(capsys, "matrix", "--k", "3")
    assert matrix[:2] == (0, '{"k":3,"nonsingular":true,"schema":1}\n')
    assert first == second and first[0] == 0
    assert len(builds) == 1
    assert real_build() is not real_build()


_RUN_COMMAND = "from feistel_lab.cli import main; rc = main(sys.argv[1:])"


def _fresh_modules(argv, run=_RUN_COMMAND):
    """The modules a fresh interpreter has loaded after ``run`` (by default one command)."""
    script = f"import sys; {run}; print(*sorted(sys.modules), file=sys.stderr); sys.exit(rc)"
    src = str(Path(feistel_lab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stderr.strip().splitlines()[-1].split())


def _heavy_modules_loaded(argv):
    """Which of numpy and scipy a fresh interpreter has loaded after one command."""
    return str(sorted({"numpy", "scipy"} & _fresh_modules(argv)))


@pytest.mark.parametrize("argv", [
    ("attack", "--name", "src-k1", "--n", "4", "--k", "2", "--trials", "50", "--seed", "1"),
    ("badprob", "--kind", "source-heavy", "--n", "8", "--k", "2", "--m", "4",
     "--trials", "100", "--seed", "5"),
    ("badprob", "--kind", "ufn2", "--n", "4", "--k", "3", "--m", "8", "--shaping", "uniform",
     "--trials", "100", "--seed", "5"),
    ("encrypt", "--kind", "ufn2", "--n", "2", "--k", "2", "--rounds", "5",
     "--key", "A3F2C12345", "--in", "6:2D"),
], ids=["attack", "badprob", "badprob-uniform", "encrypt"])
def test_trial_games_and_crypt_do_not_load_numpy(argv):
    # numpy adds about 11 MB to a process; only the uniformity check needs it.
    assert _heavy_modules_loaded(argv) == "[]"


def test_uniformity_loads_numpy_but_not_scipy():
    # scipy serves only as the tests' reference for the chi-square critical value.
    assert _heavy_modules_loaded(("uniformity", "--kind", "ufn2", "--n", "2", "--k", "3",
                                  "--trials", "2000", "--seed", "1")) == "['numpy']"


_BADPROB_FRESH = ("badprob", "--kind", "ufn2", "--n", "4", "--k", "3", "--m", "8",
                  "--trials", "100", "--seed", "5")
_CRYPT_UNUSED = {"feistel_lab.statcheck", "feistel_lab.distinguisher", "concurrent.futures",
                 "pickle"}


@pytest.mark.parametrize("argv,unused", [
    (("encrypt", "--kind", "ufn2", "--n", "2", "--k", "2", "--rounds", "5",
      "--key", "A3F2C12345", "--in", "6:2D"), _CRYPT_UNUSED),
    (("bench", "--mode", "ggm", "--n", "4", "--k", "2", "--workload", "1", "--seed", "1"),
     _CRYPT_UNUSED),
    (("attack", "--name", "src-k1", "--n", "4", "--k", "2", "--trials", "50", "--seed", "1"),
     {"feistel_lab.statcheck", "feistel_lab.bench", "concurrent.futures"}),
    (_BADPROB_FRESH + ("--jobs", "1"), {"feistel_lab.bench", "concurrent.futures", "pickle"}),
    # Forked chunks pickle their results, so only a --jobs 2 run loads pickle.
    (_BADPROB_FRESH + ("--jobs", "2"), {"feistel_lab.bench", "concurrent.futures"}),
], ids=["encrypt", "bench-ggm", "attack", "badprob-jobs1", "badprob-jobs2"])
def test_a_fresh_command_loads_only_the_modules_it_runs(argv, unused):
    # Every fresh process pays for each module it loads; see the README on start-up cost.
    loaded = {m for m in _fresh_modules(argv)
              if m.startswith("feistel_lab.") or m in ("concurrent.futures", "pickle")}
    assert not loaded & unused, sorted(loaded)


def test_importing_the_package_loads_no_submodule():
    loaded = _fresh_modules((), run="import feistel_lab; rc = 0")
    assert "feistel_lab" in loaded
    assert not {m for m in loaded if m.startswith("feistel_lab.")}, sorted(loaded)


@pytest.mark.parametrize("argv", [
    ("attack", "--name", "src-k1", "--n", "4", "--k", "2", "--trials", "0"),
    ("advantage", "--name", "src-k1", "--n", "4", "--k", "2", "--rounds", "4",
     "--trials", "-5"),
    ("badprob", "--kind", "ufn2", "--n", "4", "--k", "1", "--m", "2", "--trials", "0"),
    ("uniformity", "--kind", "source-heavy", "--n", "2", "--k", "2", "--trials", "0"),
    ("attack", "--name", "src-k1", "--n", "4", "--k", "2", "--trials", "10", "--jobs", "0"),
    ("badprob", "--kind", "ufn2", "--n", "4", "--k", "1", "--m", "2", "--trials", "10",
     "--jobs", "0"),
    ("uniformity", "--kind", "source-heavy", "--n", "2", "--k", "2", "--trials", "10",
     "--jobs", "-1"),
    ("uniformity", "--kind", "source-heavy", "--n", "2", "--k", "2", "--rounds", "4",
     "--trials", "10", "--significance", "2"),
    ("uniformity", "--kind", "source-heavy", "--n", "2", "--k", "2", "--trials", "10",
     "--significance", "0"),
    ("uniformity", "--kind", "source-heavy", "--n", "2", "--k", "2", "--trials", "10",
     "--significance", "1"),
    ("uniformity", "--kind", "source-heavy", "--n", "2", "--k", "2", "--trials", "10",
     "--significance", "nan"),
    *[("encrypt", "--kind", "ufn2", "--n", "4", "--k", "1", "--rounds", "2",
       "--key", key, "--in", block)
      for key, block in (("0x1F", "8:0F"), ("1_F", "8:0F"), ("", "8:0F"),
                         ("001F", "8:+F"), ("001F", "8: F"), ("001F", "+8:0F"))],
    ("badprob", "--kind", "ufn2", "--n", "4", "--k", "3", "--m", "17"),
    ("badprob", "--kind", "target-heavy", "--n", "2", "--k", "2", "--m", "65",
     "--shaping", "uniform"),
    ("badprob", "--kind", "ufn2", "--n", "17", "--k", "3", "--m", "2"),
    ("attack", "--name", "src-k1", "--n", "17", "--k", "3"),
    ("advantage", "--name", "ufn2-2k", "--kind", "ufn2", "--n", "11", "--k", "5",
     "--rounds", "11"),
])
def test_bad_input_exits_1_before_any_trial(capsys, monkeypatch, argv):
    def no_trials(*_args):
        raise AssertionError("a trial loop started")

    monkeypatch.setattr(distinguisher, "advantage_counts", no_trials)
    for name in ("bad_event_counts", "uniformity_counts"):
        monkeypatch.setattr(statcheck, name, no_trials)
    seed = () if argv[0] == "encrypt" else ("--seed", "1")
    code, out, err = run_cli(capsys, *argv, *seed)
    assert code == 1
    assert out == ""
    assert len(err.strip().splitlines()) == 1 and err.startswith("error: ")
    assert "unrecognized arguments" not in err


def test_seed_env_fallback(capsys, monkeypatch):
    monkeypatch.setenv(SEED_ENV_VAR, "4242")
    code, out, _ = run_cli(capsys, "attack", "--name", "src-k1", "--n", "4",
                           "--k", "2", "--trials", "50")
    assert code == 0
    assert json.loads(out)["seed"] == 4242


def test_generated_seed_is_printed_and_used(capsys):
    code, out, err = run_cli(capsys, "attack", "--name", "src-k1", "--n", "4",
                             "--k", "2", "--trials", "50")
    assert code == 0
    assert "seed:" in err
    printed = int(err.split("seed:")[1].split()[0])
    assert json.loads(out)["seed"] == printed


def test_bench_writes_json_and_csv(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, _, _ = run_cli(capsys, "bench", "--mode", "mem", "--n", "4", "--k", "2",
                         "--workload", "8", "--seed", "2", "--out", str(out_path))
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["mode"] == "memoized"
    assert len(payload["structures"]) == 4
    csv_text = (tmp_path / "report.csv").read_text()
    assert csv_text.startswith("structure,")


def test_bench_json_is_reproducible(capsys):
    args = ("bench", "--mode", "mem", "--n", "4", "--k", "2",
            "--workload", "8", "--seed", "2")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


@pytest.mark.parametrize("flag", [("--jobs", "2"), ("--table-cap", "100")])
def test_bench_has_no_jobs_or_table_cap_flag(capsys, flag):
    code, out, err = run_cli(capsys, "bench", "--mode", "ggm", "--n", "4", "--k", "2",
                             "--workload", "0", "--seed", "1", *flag)
    assert code == 1 and out == ""
    assert "unrecognized arguments" in err


@pytest.mark.parametrize("target", ["out-dir", "csv-missing-dir", "out-missing-dir",
                                    "derived-csv-dir", "derived-csv-is-out", "csv-is-out"])
def test_unwritable_output_path_is_a_one_line_error(capsys, monkeypatch, tmp_path, target):
    def no_trials(*_args):
        raise AssertionError("a trial loop started")

    monkeypatch.setattr(distinguisher, "advantage_counts", no_trials)
    for name in ("bad_event_counts", "uniformity_counts"):
        monkeypatch.setattr(statcheck, name, no_trials)
    bench = ("bench", "--mode", "ggm", "--n", "4", "--k", "2", "--workload", "0",
             "--seed", "1")
    if target == "out-dir":
        argv = ("matrix", "--k", "3", "--out", str(tmp_path))
    elif target == "csv-missing-dir":
        argv = (*bench, "--csv", str(tmp_path / "missing" / "report.csv"))
    elif target == "out-missing-dir":
        argv = ("attack", "--name", "src-k1", "--n", "4", "--k", "2", "--trials", "100000",
                "--seed", "7", "--out", str(tmp_path / "missing" / "x.json"))
    elif target == "derived-csv-dir":
        (tmp_path / "report.csv").mkdir()
        argv = (*bench, "--out", str(tmp_path / "report.json"))
    elif target == "derived-csv-is-out":
        argv = (*bench, "--out", str(tmp_path / "report.csv"))
    else:  # the same file named once absolute, once relative
        monkeypatch.chdir(tmp_path)
        argv = (*bench, "--out", str(tmp_path / "report.json"), "--csv", "report.json")
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert len(err.strip().splitlines()) == 1 and err.startswith("error: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == (
        ["report.csv"] if target == "derived-csv-dir" else [])


# Seeded stdout of each trial command; --jobs 2 gives the same bytes as one process.
_GOLDEN_JSON = {
    "attack": (
        ("attack", "--name", "ufn2-2k", "--n", "4", "--k", "3", "--trials", "300",
         "--seed", "7"),
        '{"accept_a":1.0,"accept_b":0.08666666666666667,"advantage":0.9133333333333333,'
        '"ci":0.03838501620037556,"ci_a":0.00632148561227297,"ci_b":0.03206353058810259,'
        '"k":3,"kind":"ufn2","n":4,"name":"ufn2-2k","rounds":6,"schema":1,"seed":7,'
        '"trials":300}\n',
    ),
    "attack-tgt-k1": (
        ("attack", "--name", "tgt-k1", "--n", "4", "--k", "2", "--trials", "300", "--seed", "8",
         "--jobs", "2"),
        '{"accept_a":1.0,"accept_b":0.04,"advantage":0.96,"ci":0.029109930887621833,'
        '"ci_a":0.00632148561227297,"ci_b":0.022788445275348863,"k":2,"kind":"target-heavy",'
        '"n":4,"name":"tgt-k1","rounds":3,"schema":1,"seed":8,"trials":300}\n',
    ),
    "attack-ufn2-even": (
        ("attack", "--name", "ufn2-even", "--n", "4", "--k", "2", "--trials", "300", "--seed",
         "9"),
        '{"accept_a":1.0,"accept_b":0.06,"advantage":0.94,"ci":0.03359802342638116,'
        '"ci_a":0.00632148561227297,"ci_b":0.027276537814108187,"k":2,"kind":"ufn2","n":4,'
        '"name":"ufn2-even","rounds":5,"schema":1,"seed":9,"trials":300}\n',
    ),
    "advantage": (
        ("advantage", "--name", "src-k1", "--kind", "source-heavy", "--n", "4", "--k", "2",
         "--rounds", "4", "--trials", "300", "--seed", "7", "--jobs", "2"),
        '{"accept_a":0.056666666666666664,"accept_b":0.06666666666666667,'
        '"advantage":0.010000000000000002,"ci":0.0551720127650709,'
        '"ci_a":0.02659424077959256,"ci_b":0.028577771985478343,'
        '"k":2,"kind":"source-heavy","n":4,"name":"src-k1","rounds":4,"schema":1,"seed":7,'
        '"trials":300}\n',
    ),
    "badprob": (
        ("badprob", "--kind", "ufn2", "--n", "4", "--k", "3", "--m", "4", "--trials", "300",
         "--seed", "5", "--shaping", "uniform"),
        '{"bound":2.0,"ci":0.04594466092181593,"empirical":0.79,"k":3,"kind":"ufn2","m":4,'
        '"n":4,"schema":1,"seed":5,"shaping":"uniform","trials":300,'
        '"watched_rounds":[3,4,5,6]}\n',
    ),
    "uniformity": (
        ("uniformity", "--kind", "source-heavy", "--n", "2", "--k", "2", "--trials", "2000",
         "--seed", "11"),
        '{"critical":92.01002361413191,"dof":63,"k":2,"kind":"source-heavy","n":2,'
        '"passed":true,"rounds":4,"schema":1,"seed":11,"significance":0.01,'
        '"statistic":68.8,"trials":2000}\n',
    ),
}


@pytest.mark.parametrize("command", list(_GOLDEN_JSON))
def test_trial_json_golden(capsys, command):
    argv, expected = _GOLDEN_JSON[command]
    assert run_cli(capsys, *argv) == (0, expected, "")


def test_missing_subcommand_is_usage_error(capsys):
    code = main([])
    assert code == 1
