import os
import re
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from bfel import cli, data, fedcurv, gossip, ledger, models, simulator
from bfel.data import Dataset
from bfel.models import ModelSpec
from bfel.simulator import (
    ChainSelfCheckError,
    ConfigError,
    ExperimentConfig,
    parse_config,
    run_experiment,
)
from reference import gossip_broadcast, sequential_broadcast


def flip_written_signature(monkeypatch, block):
    """Make `ledger.export_chain` flip a bit of `block`'s first transaction
    signature, so that the written chain.log fails validation there."""
    export = ledger.export_chain

    def flipping(chain):
        blob = bytearray(export(chain))
        blob[blob.find(chain[block].transactions[0].signature)] ^= 1
        return bytes(blob)

    monkeypatch.setattr(ledger, "export_chain", flipping)


def write_config(tmp_path, **overrides):
    defaults = dict(
        algorithm="fedcurv",
        model="mlp",
        mlp_hidden="6",
        dataset="synth",
        synth_classes=3,
        synth_per_class=40,
        synth_dim=3,
        synth_spread=0.2,
        clients=3,
        partition="noniid_shards",
        shards_per_client=2,
        rounds=3,
        epochs=1,
        eta_local=0.1,
        eta_global=0.05,
        batch_size=8,
        seed=5,
        output_dir=str(tmp_path / "out"),
    )
    defaults.update(overrides)
    defaults["lambda"] = defaults.pop("lam", 0.1)
    path = tmp_path / "config.txt"
    path.write_text(
        "# test config\n"
        + "\n".join(f"{k} = {v}" for k, v in defaults.items())
        + "\n"
    )
    return path


class TestConfig:
    def test_parse_round_trip(self, tmp_path):
        path = write_config(tmp_path, rounds=7, lr_decay="true", epochs=3)
        config = parse_config(path)
        assert config.rounds == 7
        assert config.local_epochs == 3
        assert config.lam == 0.1
        assert config.lr_decay is True
        assert config.mlp_hidden == (6,)

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("nonsense = 1\n")
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(path)

    def test_bad_value(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("rounds = soon\n")
        with pytest.raises(ConfigError, match="bad value"):
            parse_config(path)

    def test_missing_referenced_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            ExperimentConfig(dataset="idx", idx_images=str(tmp_path / "nope.idx"))

    def test_invalid_rounds(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(rounds=0)

    @pytest.mark.parametrize("settings", [
        dict(partition="iid", shards_per_client=0),
        dict(dataset="idx", synth_per_class=0),
        dict(dataset="idx", synth_classes=0),
        dict(dataset="bfeldata", synth_per_class=0),
        dict(dataset="bfeldata", synth_dim=-1),
    ])
    def test_counts_are_checked_where_they_have_no_effect_too(self, settings):
        key = list(settings)[-1]
        with pytest.raises(ConfigError, match=f"{key} must be finite and >= 1"):
            ExperimentConfig(**settings)

    def test_training_settings_are_checked_when_parsed(self, tmp_path):
        with pytest.raises(ConfigError, match="eta_local must be finite and >= 0"):
            parse_config(write_config(tmp_path, eta_local=-0.1))

    @pytest.mark.parametrize("seed", [0, 2**63 - 1])
    def test_seed_range_bounds_are_accepted(self, seed):
        assert ExperimentConfig(seed=seed).seed == seed

    @pytest.mark.parametrize("first, second", [
        ("seed = 1", "seed = 2"),
        ("lambda = 0.1", "lam = 0.2"),
        ("epochs = 1", "local_epochs = 2"),
        ("ledger = true", "ledger_enabled = false"),
    ])
    def test_key_given_twice_names_both_lines(self, tmp_path, first, second):
        path = tmp_path / "twice.txt"
        path.write_text(f"{first}\nrounds = 2\n# a comment\n{second}\n")
        with pytest.raises(ConfigError) as caught:
            parse_config(path)
        name = second.split()[0]
        assert str(caught.value) == (
            f"{path}:4: duplicate key {name!r}: "
            f"{simulator._FIELD_ALIASES.get(name, name)!r} is already set on line 1"
        )

    def test_readme_block_names_every_key_with_its_default(self, tmp_path):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        section = readme[readme.index("## Config format"):]
        start = section.index("```ini\n") + len("```ini\n")
        block = section[start : section.index("```", start)]
        named = set()
        for line in block.splitlines():
            named.add(line.split("=", 1)[0].strip())
            named.update(re.findall(r"# or (\w+)", line))
        accepted = set(ExperimentConfig.__dataclass_fields__)
        assert named == accepted | set(simulator._FIELD_ALIASES)
        path = tmp_path / "readme.txt"
        path.write_text(block)
        assert parse_config(path) == ExperimentConfig()


class TestRunExperiment:
    def test_outputs_and_round_numbering(self, tmp_path):
        config = parse_config(write_config(tmp_path, rounds=4))
        result = run_experiment(config)
        lines = (tmp_path / "out" / "metrics.csv").read_text().splitlines()
        assert lines[0] == simulator.CSV_HEADER
        rounds = [int(line.split(",")[1]) for line in lines[1:]]
        assert rounds == [1, 2, 3, 4]
        accs = [float(line.split(",")[2]) for line in lines[1:]]
        assert all(0.0 <= a <= 1.0 for a in accs)
        assert result["final_global_acc"] == accs[-1]

    def test_determinism_byte_identical_csv(self, tmp_path):
        config = parse_config(write_config(tmp_path))
        run_experiment(config)
        first = (tmp_path / "out" / "metrics.csv").read_bytes()
        first_model = (tmp_path / "out" / "model.bin").read_bytes()
        run_experiment(config)
        assert (tmp_path / "out" / "metrics.csv").read_bytes() == first
        assert (tmp_path / "out" / "model.bin").read_bytes() == first_model

    def test_chain_length_and_validity(self, tmp_path):
        config = parse_config(write_config(tmp_path, rounds=5, ledger="true"))
        result = run_experiment(config)
        chain = ledger.import_chain(
            (tmp_path / "out" / "chain.log").read_bytes()
        )
        assert len(chain) == 5 + 1  # genesis + one block per round
        ok, _ = ledger.validate_chain(chain)
        assert ok
        # every round block carries client digests plus the global model digest
        for block in chain[1:]:
            kinds = [tx.kind for tx in block.transactions]
            assert kinds.count(ledger.TxKind.GLOBAL_MODEL) == 1
            assert kinds.count(ledger.TxKind.CLIENT_UPDATE) >= 1

    def test_training_set_is_released_before_the_rounds(self, tmp_path, monkeypatch):
        # only partition reads the whole training set; local SGD's epoch
        # copy of the clients' data must not come on top of it
        partition, run_round, refs, alive = data.partition, fedcurv.run_round, [], []

        def spy_partition(dataset, *args):
            refs.append(weakref.ref(dataset))
            return partition(dataset, *args)

        def spy_round(*args, **kwargs):
            alive.append(refs[0]() is not None)
            return run_round(*args, **kwargs)

        monkeypatch.setattr(data, "partition", spy_partition)
        monkeypatch.setattr(fedcurv, "run_round", spy_round)
        run_experiment(parse_config(write_config(tmp_path, algorithm="fedavg")))
        assert len(refs) == 1
        assert alive == [False] * 3

    def test_ledger_off(self, tmp_path):
        config = parse_config(write_config(tmp_path, ledger="false"))
        result = run_experiment(config)
        assert set(result) == {"metrics_csv", "final_global_acc", "rounds"}
        assert not (tmp_path / "out" / "chain.log").exists()

    @pytest.mark.parametrize("ledger_on", [False, True])
    def test_keys_are_derived_only_for_a_chain(self, tmp_path, monkeypatch, ledger_on):
        keygen, seeds = ledger.keygen, []

        def counting(seed):
            seeds.append(seed)
            return keygen(seed)

        monkeypatch.setattr(ledger, "keygen", counting)
        config = parse_config(write_config(tmp_path, ledger=str(ledger_on).lower()))
        run_experiment(config)
        assert len(seeds) == (config.clients + 1 if ledger_on else 0)

    def test_self_check_reads_the_written_bytes(self, tmp_path, monkeypatch):
        # a signature bit flipped on the way to bytes: the in-memory chain
        # is sound, the written one fails at the flip's block
        flip_written_signature(monkeypatch, block=2)
        config = parse_config(write_config(tmp_path, rounds=3, ledger="true"))
        with pytest.raises(ChainSelfCheckError, match="at block 2$") as raised:
            run_experiment(config)
        assert raised.value.block_index == 2

    @pytest.mark.parametrize("algorithm, clients, setting, values", [
        # "base": the one-client baseline, run as FedAvg with clients = 1
        pytest.param("fedavg", 1, "client_fraction", (1.0, 0.5),
                     id="base-client_fraction"),
        ("fedavg", 3, "lam", (0.0, 0.7)),
    ])
    def test_setting_without_effect_leaves_every_output_byte(
        self, tmp_path, algorithm, clients, setting, values
    ):
        # one client is sampled at any fraction; FedAvg has no anchor
        outputs = []
        for value in values:
            out = tmp_path / f"{setting}-{value}"
            run_experiment(parse_config(write_config(
                tmp_path, algorithm=algorithm, clients=clients,
                output_dir=str(out), **{setting: value},
            )))
            outputs.append([(out / name).read_bytes()
                            for name in ("metrics.csv", "model.bin", "chain.log")])
        assert outputs[0] == outputs[1]

    def test_algorithm_switch_shares_partition_and_sampling(self, tmp_path):
        # identical seeds: both algorithms must sample the same clients
        results = {}
        for algo in ("fedcurv", "fedavg"):
            cfg = parse_config(
                write_config(
                    tmp_path, algorithm=algo, client_fraction=0.67,
                    output_dir=str(tmp_path / algo),
                )
            )
            run_experiment(cfg)
            chain = ledger.import_chain(
                (tmp_path / algo / "chain.log").read_bytes()
            )
            results[algo] = [len(b.transactions) for b in chain[1:]]
        assert results["fedcurv"] == results["fedavg"]

    def test_model_file_round_trip(self, tmp_path):
        config = parse_config(write_config(tmp_path, rounds=2))
        run_experiment(config)
        values = simulator.load_model_values(tmp_path / "out" / "model.bin")
        assert values.ndim == 1 and values.size > 0
        assert np.all(np.isfinite(values))

    def test_model_file_short_header(self, tmp_path):
        path = tmp_path / "model.bin"
        path.write_bytes(simulator.MODEL_MAGIC + b"\x01\x00\x00\x00")
        with pytest.raises(ConfigError, match="header"):
            simulator.load_model_values(path)

    def test_model_file_truncated_payload(self, tmp_path):
        spec = ModelSpec(kind="mlp", input_shape=(3,), classes=2, hidden=(2,))
        path = tmp_path / "model.bin"
        simulator.save_model(models.init_params(spec, 0), path)
        path.write_bytes(path.read_bytes()[:-16])
        with pytest.raises(ConfigError, match="payload"):
            simulator.load_model_values(path)

    def test_bfeldata_source(self, tmp_path):
        ds = data.synth_blobs(2, 30, 3, 0.2, seed=9)
        train_path = tmp_path / "train.bfel"
        data.save_bfeldata(ds, train_path)
        config = parse_config(
            write_config(
                tmp_path, dataset="bfeldata",
                bfeldata_train=str(train_path), clients=2, rounds=2,
                partition="iid",
            )
        )
        result = run_experiment(config)
        assert result["rounds"] == 2


class TestEarlierOutputs:
    """A run removes an earlier run's three files from output_dir before its
    first round; a set-up error leaves them as they were."""

    NAMES = ("metrics.csv", "model.bin", "chain.log")

    def earlier_run(self, tmp_path):
        run_experiment(parse_config(write_config(tmp_path, algorithm="fedavg")))
        return {name: (tmp_path / "out" / name).read_bytes() for name in self.NAMES}

    def test_ledger_off_rerun_leaves_no_chain_log(self, tmp_path, capsys):
        self.earlier_run(tmp_path)
        path = write_config(tmp_path, algorithm="fedavg", ledger="false")
        assert cli.main(["run", "--config", str(path)]) == 0
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
            "metrics.csv", "model.bin"
        ]

    def test_round_blow_up_leaves_none_of_them(self, tmp_path, capsys):
        self.earlier_run(tmp_path)
        # one full-batch step of 1e308 overflows every client's model
        path = write_config(tmp_path, algorithm="fedavg", eta_local=1e308,
                            batch_size=1000000, synth_spread=1e100, rounds=1)
        assert cli.main(["run", "--config", str(path)]) == 3
        assert "numerical blow-up in round 1" in capsys.readouterr().err
        assert list((tmp_path / "out").iterdir()) == []

    @pytest.mark.parametrize("setting, message", [
        (dict(batch_size=0), "batch_size must be"),
        (dict(test_fraction=1.0), "none of 120 samples"),
    ])
    def test_set_up_error_leaves_them_byte_for_byte(
        self, tmp_path, capsys, setting, message
    ):
        before = self.earlier_run(tmp_path)
        path = write_config(tmp_path, algorithm="fedavg", **setting)
        assert cli.main(["run", "--config", str(path)]) == 2
        assert message in capsys.readouterr().err
        after = {p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()}
        assert after == before


def stiffness_warnings(err: str) -> list[tuple[int, float]]:
    """(round, eta_local * lambda * max Fisher) of each warning line."""
    found = []
    for line in err.splitlines():
        assert line.startswith("warning: round "), line
        head, value = line.split(" = ", 1)
        found.append((int(head.split()[2].rstrip(":")), float(value.split()[0])))
    return found


class TestRounds:
    """`rounds(config)` yields the rounds that run_experiment writes."""

    @pytest.mark.parametrize("name", ["fedcurv", "cnn-fedavg"])
    def test_records_give_the_written_files_byte_for_byte(self, tmp_path, name):
        # golden configs, whose digests skip on other builds: this check
        # holds on every numpy build
        from test_golden import CONFIGS, write_images

        out = tmp_path / "out"
        settings = dict(CONFIGS[name], output_dir=str(out))
        if settings.get("dataset") == "bfeldata":
            settings["bfeldata_train"] = str(write_images(tmp_path / "train.bfel"))
        config = ExperimentConfig(**settings)
        records = list(simulator.rounds(config))
        assert not out.exists()  # the stream writes nothing
        run_experiment(config)

        assert len(records) == config.rounds
        rows = [simulator.CSV_HEADER]
        for i, (round_idx, theta, updates, metrics, elapsed, chain) in enumerate(records):
            assert round_idx == i
            assert len(chain) == i + 2  # genesis, then one block per round
            assert len(chain[-1].transactions) == len(updates.client_ids) + 1
            accs = metrics["client_accuracy"]
            rows.append(",".join(map(repr, (
                simulator.CSV_SCHEMA_VERSION, i + 1, metrics["global_accuracy"],
                float(np.mean(accs)), float(np.min(accs)), float(np.max(accs)),
                metrics["divergence"], elapsed,
            ))))
        assert (out / "metrics.csv").read_text() == "\n".join(rows) + "\n"
        *_, theta, _, _, _, chain = records[-1]
        simulator.save_model(theta, tmp_path / "model.bin")
        assert (tmp_path / "model.bin").read_bytes() == (out / "model.bin").read_bytes()
        assert ledger.export_chain(chain) == (out / "chain.log").read_bytes()
        assert chain[:2] == records[0][5]  # a later round left round 1's as it was

    @pytest.mark.parametrize("case", ["no idx files", "no training left", "unfit test set"])
    def test_set_up_errors_raise_from_the_call_before_output_dir(self, tmp_path, case):
        out = tmp_path / "out"
        if case == "no idx files":
            settings, message = dict(dataset="idx"), "needs idx_images"
        elif case == "no training left":
            settings, message = dict(test_fraction=1.0), "none of 200 samples"
        else:
            train, test = tmp_path / "train.bfel", tmp_path / "test.bfel"
            data.save_bfeldata(data.synth_blobs(2, 10, 3, 0.2, seed=1), train)
            data.save_bfeldata(data.synth_blobs(2, 10, 4, 0.2, seed=1), test)
            settings = dict(dataset="bfeldata", bfeldata_train=str(train),
                            bfeldata_test=str(test))
            message = "does not fit"
        config = ExperimentConfig(output_dir=str(out), **settings)
        with pytest.raises(ConfigError, match=message):
            simulator.rounds(config)  # raised by the call, not by a step
        assert not out.exists()


class TestWallClock:
    """`clock = wall` changes only the elapsed_ms column: the model, the
    chain and every other metrics.csv column keep their bytes."""

    def test_wall_run_matches_the_simulated_run_but_for_elapsed_ms(self, tmp_path):
        out = {}
        for clock in ("simulated", "wall"):
            out[clock] = tmp_path / clock
            path = tmp_path / f"{clock}.txt"
            path.write_text(f"rounds = 3\nclock = {clock}\noutput_dir = {out[clock]}\n")
            run_experiment(parse_config(path))
        for name in ("model.bin", "chain.log"):
            simulated, wall = ((out[c] / name).read_bytes() for c in out)
            assert wall == simulated, name
        rows = {
            clock: [row.split(",") for row in (d / "metrics.csv").read_text().split()]
            for clock, d in out.items()
        }
        assert len(rows["wall"]) == 4  # the header and three rounds
        assert [r[:-1] for r in rows["wall"]] == [r[:-1] for r in rows["simulated"]]
        elapsed = [float(r[-1]) for r in rows["wall"][1:]]
        assert 0.0 <= elapsed[0] and elapsed == sorted(elapsed)


class TestDefaultConfig:
    """A config file that sets only the seed and output_dir trains FedCurv
    as far as FedAvg, with no stiffness warning. Seed 1 is left out: at the
    default eta_local, 20 rounds under-train under either algorithm."""

    @pytest.mark.parametrize("seed", [0, 2])
    def test_fedcurv_reaches_fedavg_accuracy_without_a_warning(
        self, tmp_path, capsys, seed
    ):
        final = {}
        for algorithm in ("fedcurv", "fedavg"):
            path = tmp_path / f"{algorithm}.txt"
            lines = [f"seed = {seed}", f"output_dir = {tmp_path / algorithm}"]
            if algorithm == "fedavg":
                lines.append("algorithm = fedavg")
            path.write_text("\n".join(lines) + "\n")
            final[algorithm] = run_experiment(parse_config(path))["final_global_acc"]
        assert capsys.readouterr().err == ""
        assert final["fedcurv"] == final["fedavg"] == 1.0


class TestStiffnessWarning:
    """FedCurv warns on stderr in each round where eta_local * lambda *
    max_k max F_k reaches 2, and the run goes on as before."""

    def test_healthy_golden_mlp_run_prints_nothing(self, tmp_path, capsys):
        from test_golden import CONFIGS, golden_outputs

        golden_outputs(tmp_path, CONFIGS["fedcurv"])
        assert capsys.readouterr().err == ""

    def test_golden_mlp_decay_run_warns_in_round_2(self, tmp_path, capsys):
        # at eta_local 15, round 1 stays under the threshold (0.95), and
        # round 1's merged model sharpens the Fisher past it
        from test_golden import CONFIGS, golden_outputs

        golden_outputs(tmp_path, dict(CONFIGS["fedcurv-fraction-decay"], eta_local=15))
        [(round_no, stiffness)] = stiffness_warnings(capsys.readouterr().err)
        assert round_no == 2
        assert stiffness == pytest.approx(2.22, abs=0.005)

    def test_golden_cnn_images_warn_a_round_before_the_blow_up(
        self, tmp_path, capsys
    ):
        from test_golden import CNN, golden_outputs

        config = dict(CNN, algorithm="fedcurv", epsilon=1e-3, eta_global=1.0,
                      rounds=3, eta_local=10, local_epochs=3)
        with pytest.raises(fedcurv.RoundNumericalError, match="round 3, local SGD"):
            golden_outputs(tmp_path, config)
        warnings = stiffness_warnings(capsys.readouterr().err)
        assert [round_no for round_no, _ in warnings] == [2, 3]
        assert warnings[0][1] == pytest.approx(2.41e6, rel=0.01)


class TestCli:
    def test_run_and_validate(self, tmp_path, capsys):
        path = write_config(tmp_path, rounds=2)
        assert cli.main(["run", "--config", str(path)]) == 0
        assert cli.main(
            ["validate-chain", "--chain", str(tmp_path / "out" / "chain.log")]
        ) == 0
        out = capsys.readouterr().out
        assert "valid" in out

    def test_validate_tampered_chain(self, tmp_path, capsys):
        path = write_config(tmp_path, rounds=2)
        cli.main(["run", "--config", str(path)])
        chain_path = tmp_path / "out" / "chain.log"
        blob = bytearray(chain_path.read_bytes())
        blob[-1] ^= 0xFF
        chain_path.write_bytes(bytes(blob))
        assert cli.main(["validate-chain", "--chain", str(chain_path)]) == 1

    def test_failed_self_check_exits_1_with_one_error_line(
        self, tmp_path, monkeypatch, capsys
    ):
        flip_written_signature(monkeypatch, block=2)
        path = write_config(tmp_path, rounds=3)
        assert cli.main(["run", "--config", str(path)]) == 1
        assert capsys.readouterr() == (
            "", "error: chain failed self-validation at block 2\n"
        )

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("rounds = zero\n")
        assert cli.main(["run", "--config", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("batch_size", [0, -5])
    def test_bad_batch_size_exits_before_training(self, tmp_path, capsys, batch_size):
        path = write_config(tmp_path, algorithm="fedavg", rounds=2,
                            batch_size=batch_size)
        assert cli.main(["run", "--config", str(path)]) == 2
        assert "batch_size" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("setting", [
        "eta_local=-0.1", "eta_local=inf", "eta_global=-1", "eta_global=nan",
        "epsilon=nan", "lam=nan",
        "test_fraction=nan", "test_fraction=inf", "test_fraction=-inf",
        "test_fraction=0", "test_fraction=-0.0", "test_fraction=-0.5",
        "test_fraction=1e308",
        "synth_spread=nan", "synth_spread=inf", "synth_spread=-inf",
        "synth_spread=-1",
        "mlp_hidden=0", "mlp_hidden=-3", "mlp_hidden=8,0",
        "seed=-1", f"seed={2**63}", f"seed={10**40}",
        "rounds=0", "clients=0", "shards_per_client=0", "synth_classes=0",
        "synth_per_class=0", "synth_dim=0", "algorithm=base",
        "algorithm=sgd", "model=rnn", "dataset=mnist", "partition=dirichlet",
        "clock=cpu",
    ])
    def test_bad_hyperparameter_exits_before_training(self, tmp_path, capsys, setting):
        # the last key=value is the bad one; any before it set the context
        settings = dict(pair.split("=") for pair in setting.split(";"))
        path = write_config(tmp_path, **settings)
        assert cli.main(["run", "--config", str(path)]) == 2
        assert list(settings)[-1] in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("where", ["run --config", "bfeldata_train",
                                       "validate-chain --chain"])
    def test_directory_path_exits_2_without_traceback(
        self, tmp_path, capsys, monkeypatch, where
    ):
        monkeypatch.chdir(tmp_path)  # the default output_dir is ./out
        folder = tmp_path / "a-directory"
        folder.mkdir()
        if where == "run --config":
            argv = ["run", "--config", str(folder)]
        elif where == "bfeldata_train":
            path = write_config(tmp_path, dataset="bfeldata",
                                bfeldata_train=str(folder))
            argv = ["run", "--config", str(path)]
        else:
            argv = ["validate-chain", "--chain", str(folder)]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_forged_dataset_count_exits_before_output(self, tmp_path, capsys):
        train_path = tmp_path / "train.bfel"
        data.save_bfeldata(data.synth_blobs(2, 10, 3, 0.2, seed=1), train_path)
        blob = bytearray(train_path.read_bytes())
        blob[12:20] = (2**61).to_bytes(8, "little")  # declared sample count
        train_path.write_bytes(bytes(blob))
        path = write_config(tmp_path, dataset="bfeldata",
                            bfeldata_train=str(train_path), clients=2)
        assert cli.main(["run", "--config", str(path)]) == 2
        assert "truncated" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_forged_class_count_exits_before_output(self, tmp_path, capsys):
        train_path = tmp_path / "train.bfel"
        data.save_bfeldata(data.synth_blobs(2, 10, 3, 0.2, seed=1), train_path)
        blob = bytearray(train_path.read_bytes())
        blob[32:36] = (2**31 + 2).to_bytes(4, "little")  # one flipped bit
        train_path.write_bytes(bytes(blob))
        path = write_config(tmp_path, dataset="bfeldata",
                            bfeldata_train=str(train_path), clients=2)
        tracemalloc.start()
        try:
            assert cli.main(["run", "--config", str(path)]) == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert "class count" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "case",
        ["empty test file", "empty training file", "too many shards",
         "test samples of another shape", "no holdout left to train on",
         "training file not set"],
    )
    def test_bad_data_exits_before_output(self, tmp_path, capsys, case):
        train_path, test_path = tmp_path / "train.bfel", tmp_path / "test.bfel"
        ds = data.synth_blobs(2, 10, 3, 0.2, seed=1)
        train, test = ds, ds
        overrides = dict(bfeldata_test=str(test_path))
        if case == "empty test file":
            test = ds.subset(np.arange(0))
            want = f"bfeldata_test: no samples in {test_path}"
        elif case == "empty training file":
            train = ds.subset(np.arange(0))
            want = f"bfeldata_train: no samples in {train_path}"
        elif case == "too many shards":
            overrides["shards_per_client"] = 11
            want = "22 shards requested from 20 samples"
        elif case == "test samples of another shape":
            test = data.synth_blobs(2, 10, 4, 0.2, seed=1)
            want = "does not fit the model's input (3,)"
        elif case == "no holdout left to train on":
            overrides = dict(test_fraction=1.0)
            want = "leaves none of 20 samples to train on"
        else:
            overrides["bfeldata_train"] = ""
            want = "dataset = bfeldata needs bfeldata_train"
        data.save_bfeldata(train, train_path)
        data.save_bfeldata(test, test_path)
        overrides.setdefault("bfeldata_train", str(train_path))
        path = write_config(tmp_path, dataset="bfeldata", clients=2, **overrides)
        assert cli.main(["run", "--config", str(path)]) == 2
        assert want in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("dataset", ["bfeldata", "idx"])
    def test_zero_size_samples_exit_before_output(self, tmp_path, capsys, dataset):
        from test_data import write_idx_pair, zero_size_bfeldata

        # 40 samples of shape (0,) or (0, 6)
        if dataset == "bfeldata":
            bad = zero_size_bfeldata(tmp_path / "train.bfel")
            files = dict(bfeldata_train=str(bad))
        else:
            bad, labels = write_idx_pair(tmp_path, np.zeros((40, 0, 6)), np.arange(40) % 2)
            files = dict(idx_images=str(bad), idx_labels=str(labels))
        path = write_config(tmp_path, dataset=dataset, model="mlp", clients=2, **files)
        assert cli.main(["run", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"error: {bad}: sample shape" in err and "holds no values" in err
        assert not (tmp_path / "out").exists()

    def test_non_finite_dataset_exits_before_output(self, tmp_path, capsys):
        ds = data.synth_blobs(2, 10, 3, 0.2, seed=1)
        train_path = tmp_path / "train.bfel"
        data.save_bfeldata(ds, train_path)
        blob = bytearray(train_path.read_bytes())
        at = len(blob) - 2 * len(ds) - 8  # the last sample value
        blob[at : at + 8] = np.float64(np.nan).tobytes()
        train_path.write_bytes(bytes(blob))
        path = write_config(tmp_path, dataset="bfeldata",
                            bfeldata_train=str(train_path), clients=2)
        assert cli.main(["run", "--config", str(path)]) == 2
        assert "NaN/Inf" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_blow_up_in_one_client_exits_3_naming_it(
        self, tmp_path, capsys, monkeypatch
    ):
        # one training sample carries a marker value; the gradient rows of
        # every stacked step whose batch holds it are made non-finite
        marker = 123.0
        ds = data.synth_blobs(3, 20, 3, 0.2, seed=4)
        samples = ds.samples.copy()
        samples[17, 0] = marker
        train_path, test_path = tmp_path / "train.bfel", tmp_path / "test.bfel"
        data.save_bfeldata(Dataset(samples, ds.labels, 3), train_path)
        data.save_bfeldata(ds, test_path)
        [owner] = [
            cid for cid, part in enumerate(data.partition(
                Dataset(samples, ds.labels, 3), 4, "iid", 2, seed=5))
            if (part.samples == marker).any()
        ]
        stacked = models.stacked_loss_and_grad
        sizes = []

        def poisoned(spec, thetas, inputs, labels):
            losses, grads = stacked(spec, thetas, inputs, labels)
            sizes.append(len(thetas))
            hit = (inputs == marker).reshape(len(inputs), -1).any(axis=1)
            grads[hit] = np.nan
            return losses, grads

        monkeypatch.setattr(models, "stacked_loss_and_grad", poisoned)
        path = write_config(
            tmp_path, algorithm="fedavg", dataset="bfeldata",
            bfeldata_train=str(train_path), bfeldata_test=str(test_path),
            clients=4, partition="iid", batch_size=5,
        )
        assert cli.main(["run", "--config", str(path)]) == 3
        err = capsys.readouterr().err
        assert f"round 1, local SGD, client(s) [{owner}]:" in err
        assert "not finite" in err and "Traceback" not in err
        assert sizes[-1] > 1  # the failing call stacked several clients

    @pytest.mark.parametrize("algorithm", ["fedavg", "fedcurv"])
    def test_blow_up_in_the_last_sgd_step_is_charged_to_local_sgd(
        self, tmp_path, capsys, algorithm
    ):
        # one full-batch step of 1e308 times a finite gradient overflows
        # every client's model, which only the returned models show
        path = tmp_path / "config.txt"
        path.write_text(
            f"algorithm = {algorithm}\neta_local = 1e308\nbatch_size = 1000000\n"
            f"synth_spread = 1e100\nrounds = 1\noutput_dir = {tmp_path / 'out'}\n"
        )
        assert cli.main(["run", "--config", str(path)]) == 3
        assert (
            "error: numerical blow-up in round 1, local SGD, client(s) "
            "[0, 1, 2, 3, 4]: local model not finite"
        ) in capsys.readouterr().err

    def test_blow_up_prints_the_error_and_no_numpy_warning(self, tmp_path):
        # lambda 1000 makes the anchor penalty stiff enough that every
        # client's local SGD overflows in round 2. Run in a child process, so
        # that numpy's warnings meet the default filters a user's shell would.
        config = tmp_path / "config.txt"
        config.write_text(
            "algorithm = fedcurv\ndataset = synth\nsynth_classes = 3\n"
            "mlp_hidden = 8,5\nclients = 6\nbatch_size = 6\nepochs = 2\n"
            "lr_decay = true\nlambda = 1000\nrounds = 3\nseed = 0\n"
            f"output_dir = {tmp_path / 'out'}\n"
        )
        src = str(Path(simulator.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        env.pop("PYTHONWARNINGS", None)
        done = subprocess.run(
            [sys.executable, "-m", "bfel.cli", "run", "--config", str(config)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 3, done.stderr
        assert "round 2, local SGD, client(s) [0, 1, 2, 3, 4, 5]:" in done.stderr
        assert "RuntimeWarning" not in done.stderr
        assert "Traceback" not in done.stderr

    @pytest.mark.parametrize("kind", ["numpy", "python"])
    @pytest.mark.parametrize("where", ["set-up", "round"])
    def test_out_of_memory_exits_4_with_one_error_line(
        self, tmp_path, capsys, monkeypatch, where, kind
    ):
        def exhausted(*args, **kwargs):
            if kind == "numpy":
                np.empty(2**57)  # 1 EiB: fails at once, allocating nothing
            raise MemoryError

        if where == "set-up":
            monkeypatch.setattr(data, "synth_blobs", exhausted)
        else:
            monkeypatch.setattr(fedcurv, "run_round", exhausted)
        assert cli.main(["run", "--config", str(write_config(tmp_path))]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory: ") and err.count("\n") == 1
        if kind == "numpy":
            assert "Unable to allocate" in err
        if where == "set-up":
            assert not (tmp_path / "out").exists()

    def test_fewer_samples_than_clients_names_both_counts(self, tmp_path, capsys):
        # 2 samples, 1 held out for testing: 1 left for 2 clients
        path = tmp_path / "run.cfg"
        path.write_text(
            "algorithm = fedavg\nclients = 2\nsynth_per_class = 1\nrounds = 1\n"
            f"output_dir = {tmp_path / 'out'}\n"
        )
        assert cli.main(["run", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == "error: 2 clients requested from 1 samples\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("seeds", ["0", "-1"])
    def test_gossip_sim_without_seeds_exits_2(self, seeds, capsys):
        code = cli.main(["gossip-sim", "--nodes", "16", "--fanout", "2",
                         "--seeds", seeds])
        out, err = capsys.readouterr()
        assert code == 2
        assert err.startswith("error: --seeds must be >= 1")
        assert out == ""  # no seed lines and no median_hops=nan

    def test_bench_latency_with_a_negative_seed_names_the_flag(self, capsys):
        code = cli.main(["bench-latency", "--concurrency", "4", "--seed", "-1"])
        out, err = capsys.readouterr()
        assert code == 2
        assert err == "error: --seed must be >= 0, got -1\n"
        assert out == ""  # no latency rows

    def test_gossip_and_latency_commands(self, tmp_path, capsys):
        assert cli.main(["gossip-sim", "--nodes", "16", "--fanout", "2",
                         "--seeds", "3"]) == 0
        out_csv = tmp_path / "lat.csv"
        assert cli.main(["bench-latency", "--concurrency", "4",
                         "--output", str(out_csv)]) == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "request_id,T,trd_ms,vtr_ms,tct_ms,end_to_end_ms"
        assert len(lines) == 5

    def test_bench_latency_no_gossip_swaps_only_the_broadcast(self, tmp_path, capsys):
        # the requests are the same; the total is the slowest request plus
        # the last receive time of the broadcast that the flag picks
        args = ["bench-latency", "--concurrency", "6", "--nodes", "20", "--seed", "3"]
        for name, flags in (("gossip", []), ("sequential", ["--no-gossip"])):
            csv = str(tmp_path / f"{name}.csv")
            assert cli.main(args + flags + ["--output", csv]) == 0
        totals = [
            float(re.search(r"total_elapsed_ms=(\S+)", line).group(1))
            for line in capsys.readouterr().out.splitlines()[::2]
        ]
        rows = (tmp_path / "sequential.csv").read_text().splitlines()
        assert rows == (tmp_path / "gossip.csv").read_text().splitlines()
        slowest = max(float(row.split(",")[-1]) for row in rows[1:])
        net = gossip.GossipNetwork(node_count=20, fanout=2, seed=3)
        for total, broadcast in zip(totals, (gossip_broadcast, sequential_broadcast)):
            last = float(broadcast(net, origin=0)[1].max())
            assert total == float(f"{slowest + last:.2f}")
        assert totals[1] > totals[0]

    def test_bench_latency_prints_a_measured_verify_time(self, tmp_path, capsys):
        assert cli.main(["bench-latency", "--concurrency", "4",
                         "--output", str(tmp_path / "lat.csv")]) == 0
        simulated, measured = capsys.readouterr().out.splitlines()
        assert re.fullmatch(
            r"median_end_to_end_ms=\d+\.\d\d total_elapsed_ms=\d+\.\d\d", simulated
        )
        assert re.fullmatch(
            r"measured_median_verify_ms=\d+\.\d{4} verifies=101 "
            r"simulated_vtr_base_ms=35\.00",
            measured,
        )
        assert float(measured.split()[0].split("=")[1]) > 0
