"""Tests of the benchmark itself: metric coverage, output checks, seeded inputs."""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stdout

import pytest

from feistel_lab import bits, cli, distinguisher, feistel, prbg, prf, statcheck
from perfbench import run, workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _names(section: str) -> set[str]:
    return {m["name"] for m in SPEC[section]}


def _bindings() -> dict:
    """Every top-level binding the tracer may replace, to check that it restores them."""
    mods = (cli, distinguisher, feistel, prbg, prf, statcheck)
    snap = {(m.__name__, k): v for m in mods for k, v in vars(m).items()}
    for cls in (bits.BitString, prbg.FastBitGenerator, prbg.BbsGenerator,
                prf.IdealFunctionOracle, prf.GgmFunctionOracle, feistel.UfnPermutation,
                distinguisher.IdealPermutationOracle):
        snap.update({(cls.__name__, k): v for k, v in vars(cls).items()})
    return snap


def test_spec_lists_the_workloads_and_keeps_the_contract_keys():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert "setup_s" in _names("end_to_end")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_reports_every_metric(workload, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    before = _bindings()
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        printed = io.StringIO()
        with redirect_stdout(printed):
            result = run.run_benchmark(workload, seed=3, seconds=0.01, trace=trace,
                                       scale=0.01, setup_seconds=0)
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert set(result["metrics"]) == _names(section)
        units = {m["name"]: m["unit"] for m in SPEC[section]}
        for name, metric in result["metrics"].items():
            assert metric["unit"] == units[name]
            assert name in printed.getvalue()
        json.dumps(result, allow_nan=False)
    assert _bindings() == before


def _corrupting_main(edit):
    real = cli.main

    def main(argv):
        buf = io.StringIO()
        with redirect_stdout(buf):
            rc = real(argv)
        sys.stdout.write(edit(buf.getvalue()))
        return rc

    return main


def _flip_verdict(text: str) -> str:
    return text.replace('"passed":true', '"passed":@').replace(
        '"passed":false', '"passed":true').replace('"passed":@', '"passed":false')


@pytest.mark.parametrize("edit,failed", [
    (lambda s: s, 0),
    (lambda s: s.replace('"schema":1', '"schema":2'), 1),
    (_flip_verdict, 1),
    (lambda s: s.replace('"critical":', '"critical":NaN,"was":'), 1),
    (lambda s: s.replace('"trials":20', '"trials":21'), 1),
], ids=["intact", "schema", "verdict", "nan", "trials"])
def test_corrupted_output_counts_as_failed(edit, failed, monkeypatch):
    cmds = workloads.commands("uniformity", 5, scale=0.01)[:1]
    monkeypatch.setattr(cli, "main", _corrupting_main(edit))
    runner = run.Runner(cmds)
    runner.cycle()
    assert (runner.failed, runner.attempted) == (failed, 1)


def test_broken_identities_are_failures():
    games = workloads.commands("games", 2, scale=0.01)
    vulnerable = next(c for c in games if c.expect["vulnerable"])
    e = vulnerable.expect
    report = {"schema": 1, "trials": e["trials"], "seed": e["seed"], "name": e["name"],
              "kind": e["kind"], "rounds": e["rounds"], "accept_a": 0.5, "accept_b": 0.5,
              "advantage": 0.0}
    with pytest.raises(workloads.CheckError, match="vulnerable"):
        workloads.check(vulnerable, 0, json.dumps(report))
    walk = workloads.commands("treewalk", 2)
    decrypt = next(c for c in walk if c.sub == "decrypt")
    with pytest.raises(workloads.CheckError, match="decrypt gave"):
        workloads.check(decrypt, 0, "32:00000000\n")
    collide = next(c for c in workloads.commands("collisions", 2) if c.expect["k"] == 2)
    e = collide.expect
    report = {"schema": 1, "trials": e["trials"], "seed": e["seed"], "kind": e["kind"],
              "n": e["n"], "k": e["k"], "m": e["m"], "bound": 0.5, "empirical": 0.0, "ci": 0.0}
    with pytest.raises(workloads.CheckError, match="closed form"):
        workloads.check(collide, 0, json.dumps(report))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_the_same_command_digest(workload):
    first = workloads.digest(workloads.commands(workload, 11))
    assert first == workloads.digest(workloads.commands(workload, 11))
    assert first != workloads.digest(workloads.commands(workload, 12))


def test_refuses_to_run_without_the_program(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SRC", tmp_path)
    with pytest.raises(FileNotFoundError):
        run.run_benchmark("games", seed=1, seconds=0.01, trace=False)


def test_times_are_scaled_to_full_machine_speed():
    slowed = run.Cycle(cmd_s=[0.2, 0.4], cpu_s=[0.2, 0.2],
                       ref_s=[2 * run.REFERENCE_NOMINAL_S] * 2, units=30)
    assert slowed.speed == 0.5
    assert slowed.at_full_speed("cmd_s") == [0.1, 0.2]
    assert run.ops_per_s([slowed]) == pytest.approx(100.0)
