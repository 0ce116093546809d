"""Tests of the benchmark's own checks and tracing.

    python3 -m pytest -q perfbench

Each check must turn a wrong-but-fast program into a counted failure, and
each traced name must be seen by the workload expected to call it. The
workloads run here at reduced sizes so the suite stays fast.
"""

from __future__ import annotations

import json
import subprocess
import sys

import numpy as np
import pytest

import bfel
import bfel.cli
from bfel import ledger, simulator
from perfbench import checks, expectations, tracing, workloads
from perfbench import run
from perfbench.run import ROOT, closed_loop, end_to_end, per_layer, tail

SMALL = {
    "fedcurv-mlp": dict(rounds=2, acc_floor=None),  # too few rounds to learn
    "fedavg-mlp": dict(rounds=2, acc_floor=None),
    "fedcurv-cnn": dict(),
    "chain-gossip": dict(blocks=3),
}


def make(name, tmp_path, seed=0):
    return workloads.WORKLOADS[name](bfel, tmp_path, seed, **SMALL[name])


@pytest.fixture
def tracer():
    t = tracing.Tracer()
    yield t
    t.uninstall()


def test_each_workload_passes_its_checks(tmp_path, tracer):
    for name in workloads.WORKLOADS:
        workdir = tmp_path / name
        workdir.mkdir()
        workload = make(name, workdir)
        for _ in range(2):
            result = workload.run_op(tracer)
            assert result.problems == [], name
            assert result.rounds_s and result.setup_s and result.validate_s


def test_nonzero_exit_is_a_failure(tmp_path, tracer, monkeypatch):
    workload = make("fedavg-mlp", tmp_path)

    def bad_config(config):
        raise simulator.ConfigError("rejected")

    monkeypatch.setattr(simulator, "run_experiment", bad_config)
    monkeypatch.setattr(bfel.cli, "run_experiment", bad_config)
    result = workload.run_op(tracer)
    assert "exit code 2" in result.problems


def test_exception_is_counted_and_reported(tmp_path, tracer, monkeypatch):
    workload = make("fedcurv-mlp", tmp_path)

    def blow_up(*args, **kwargs):
        raise bfel.models.NumericalError("loss/gradient not finite")

    monkeypatch.setattr(bfel.fedcurv, "run_round", blow_up)
    logged = []
    result = workloads.run_checked(workload, tracer, logged.append)
    assert result.problems and "NumericalError" in result.problems[0]
    assert "Traceback" in logged[0]
    assert tracer.active is False


def test_nondeterministic_rerun_is_a_failure(tmp_path, tracer, monkeypatch):
    workload = make("fedavg-mlp", tmp_path)
    assert workload.run_op(tracer).problems == []
    original = bfel.data.synth_blobs

    def jittered(*args, **kwargs):
        ds = original(*args, **kwargs)
        return bfel.data.Dataset(ds.samples + 1e-12, ds.labels, ds.class_count)

    monkeypatch.setattr(bfel.data, "synth_blobs", jittered)
    problems = workload.run_op(tracer).problems
    assert any("differs from the first call" in p for p in problems)


def test_short_or_wrong_outputs_are_failures(tmp_path, tracer, monkeypatch):
    workload = make("fedavg-mlp", tmp_path)
    original = simulator.save_model

    def truncated(params, path):
        original(params.with_values(params.values), path)
        with open(path, "r+b") as f:
            f.truncate(100)

    monkeypatch.setattr(simulator, "save_model", truncated)
    problems = workload.run_op(tracer).problems
    assert any("model.bin" in p for p in problems)


def test_tampered_training_chain_is_a_failure(tmp_path, tracer):
    workload = make("fedcurv-mlp", tmp_path)
    assert workload.run_op(tracer).problems == []
    blob = bytearray((tmp_path / "out" / "chain.log").read_bytes())
    blob[-10] ^= 0x01
    assert checks.check_validates(ledger, bytes(blob))


def test_tamper_check_finds_the_flipped_block():
    key = ledger.keygen(1)
    chain = ledger.new_chain()
    for b in range(4):
        tx = ledger.make_transaction(ledger.TxKind.CLIENT_UPDATE, bytes(32), key, b)
        chain = ledger.append_block(chain, [tx], key, timestamp=b)
    blob = ledger.export_chain(chain)
    rng = np.random.default_rng(0)
    for _ in range(40):
        assert checks.check_tamper_detected(ledger, blob, rng) == []


def test_validation_that_skips_signatures_is_a_failure(tmp_path, tracer,
                                                       monkeypatch):
    workload = make("chain-gossip", tmp_path)
    monkeypatch.setattr(ledger.SignedTransaction, "verified", lambda tx: True)
    monkeypatch.setattr(ledger, "verify", lambda public, msg, sig: True)
    problems = workload.run_op(tracer).problems
    assert any("forged signature" in p for p in problems)
    # the tamper check flips one bit; unsigned bits now pass in some blocks
    blob = ledger.export_chain(_small_chain())
    rng = np.random.default_rng(3)
    found = [checks.check_tamper_detected(ledger, blob, rng) for _ in range(40)]
    assert any(found)


def _small_chain():
    key = ledger.keygen(2)
    chain = ledger.new_chain()
    for b in range(3):
        tx = ledger.make_transaction(ledger.TxKind.CLIENT_UPDATE, bytes(32), key, b)
        chain = ledger.append_block(chain, [tx], key, timestamp=b)
    return chain


def test_forged_transaction_is_rejected_by_the_program():
    key = ledger.keygen(3)
    txs = [ledger.make_transaction(ledger.TxKind.CLIENT_UPDATE, bytes(32), key, 1)]
    rng = np.random.default_rng(0)
    assert checks.check_forgery_rejected(
        ledger, ledger.new_chain(), txs, key, 1, rng) == []


def test_tracer_rebinds_from_imports_and_skips_private_names(tracer):
    private = {
        "_fedavg_round": simulator._fedavg_round,
        "_load_datasets": simulator._load_datasets,
    }
    tracer.install()
    for short, mod in tracer.modules.items():
        for attr, obj in vars(mod).items():
            if (callable(obj) and getattr(obj, "__module__", "").startswith("bfel.")
                    and not attr.startswith("_") and not isinstance(obj, type)):
                assert hasattr(obj, "__wrapped__"), f"{short}.{attr} not wrapped"
    assert bfel.fedcurv.shuffled_batches is bfel.fedavg.shuffled_batches
    assert bfel.cli.run_experiment is simulator.run_experiment
    for name, fn in private.items():
        assert getattr(simulator, name) is fn
    tracer.uninstall()
    assert not hasattr(simulator.run_experiment, "__wrapped__")
    assert not hasattr(bfel.data.Dataset.subset, "__wrapped__")


def test_deleted_name_is_reported_absent(tracer, monkeypatch):
    monkeypatch.delattr(bfel.models, "per_sample_loglik_grad")
    tracer.install()
    names = ["models.per_sample_loglik_grad.calls", "models.forward.calls"]
    result = workloads.OpResult([], run_s=1.0, rounds_s=[1.0])
    values, absent, problems = per_layer(names, tracer, [(result, {})], [result])
    assert absent == ["models.per_sample_loglik_grad"]
    assert values["models.per_sample_loglik_grad.calls"] == 0
    assert problems == []


def traced_calls(name, tmp_path, tracer):
    workload = make(name, tmp_path)
    workload.run_op(tracer)  # untraced warm-up sets the reference
    tracer.install()
    mark = len(tracer.spans)
    result = workload.run_op(tracer)
    tracer.uninstall()
    assert result.problems == []
    return tracer.stats(mark)


def test_every_layer_is_called_where_expected(tmp_path, tracer):
    for name in workloads.WORKLOADS:
        workdir = tmp_path / name
        workdir.mkdir()
        stats = traced_calls(name, workdir, tracer)
        for span, (_, where) in expectations.LAYERS.items():
            calls = stats.get(span, {}).get("calls", 0)
            if name in where:
                assert calls > 0, f"{span} not seen on {name}"
            else:
                assert calls == 0, f"{span} seen on {name}"


def test_call_counts_repeat_exactly(tmp_path, tracer):
    counts = []
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        stats = traced_calls("fedcurv-cnn", tmp_path / sub, tracer)
        counts.append({k: v["calls"] for k, v in stats.items()})
    assert counts[0] == counts[1]


def test_self_time_excludes_children(tracer):
    tracer.active = True
    tracer.spans[:] = [
        ["outer", 0.0, 10.0, -1, True],
        ["inner", 1.0, 4.0, 0, True],
        ["inner", 5.0, 6.0, 0, True],
    ]
    stats = tracer.stats()
    assert stats["outer"] == {"calls": 1, "self_s": 6.0, "total_s": 10.0}
    assert stats["inner"] == {"calls": 2, "self_s": 4.0, "total_s": 4.0}


def test_tail_rule():
    assert tail(list(range(100)), 100) == (89, 90.0, 10)
    assert tail(list(range(1000)), 100) == (899, 90.0, 100)
    assert tail(list(range(40)), 40) == (29, 75.0, 10)
    assert tail([3.0], 40) == (3.0, 75.0, 0)


def test_tail_percentile_does_not_depend_on_the_run_length():
    def results(ops):
        return [workloads.OpResult([], setup_s=[1.0], run_s=1.0,
                                   rounds_s=[float(i) for i in range(10)],
                                   validate_s=[1.0]) for _ in range(ops)]

    short = end_to_end(results(5), "round", 30, [run.REFERENCE_S])
    long = end_to_end(results(50), "round", 30, [run.REFERENCE_S])
    assert short[0]["round_s_tail"] == long[0]["round_s_tail"] == 6.0
    assert "p66.67: 16 of 50 rounds beyond" in short[1]["round_s_tail"]
    assert "p66.67: 166 of 500 rounds beyond" in long[1]["round_s_tail"]


def test_timings_are_means_scaled_to_the_reference_host():
    calls = [workloads.OpResult([], setup_s=[x], run_s=10 * x,
                                rounds_s=[x, 3 * x], validate_s=[x])
             for x in (1.0, 2.0)]
    host_s = [2 * run.REFERENCE_S] * 10 + [4 * run.REFERENCE_S] * 20
    values, notes, _ = end_to_end(calls, "round", 30, host_s)
    assert values["run_s"] == pytest.approx(15.0 * 0.3)  # by the mean
    assert values["round_s"] == pytest.approx(3.0 * 0.3)
    assert values["round_s_tail"] == pytest.approx(3.0 / 4)  # by the p66.67
    assert notes["run_s"] == "mean of 2; median 15; unscaled 15"
    assert notes["round_s"] == "mean of 4; median 2.5; unscaled 3"


def test_untraced_run_goes_on_to_the_tail_sample_count(tracer):
    class OneRound:
        tail_samples = 7

        def run_op(self, tracer):
            return workloads.OpResult([], rounds_s=[0.0])

    warm, ops, host_s = closed_loop(OneRound(), tracer, 0, 0, print)
    assert len(ops) == 7 and len(host_s) == 3 * 8  # before each operation
    warm, ops, _ = closed_loop(OneRound(), tracer, 0, 1, print)
    assert len(ops) == 2  # traced runs report no tail


def test_every_per_layer_metric_is_described():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for metric in spec["per_layer"]:
        assert expectations.describe(metric["name"]).startswith("moves ")


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fedcurv-mlp",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_result_line_holds_every_declared_metric(trace, section):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fedavg-mlp",
         "--seed", "0", "--seconds", "0", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    if section == "end_to_end":
        assert all(v["value"] > 0 for v in result["metrics"].values())
