import tracemalloc
import weakref

import numpy as np
import pytest

from bfel import cli, data, fedcurv, ledger, models, simulator
from bfel.data import Dataset
from bfel.models import ModelSpec
from bfel.simulator import ConfigError, ExperimentConfig, parse_config, run_experiment


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
        path = write_config(tmp_path, rounds=7, lr_decay="true")
        config = parse_config(path)
        assert config.rounds == 7
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

        def spy_partition(dataset, plan):
            refs.append(weakref.ref(dataset))
            return partition(dataset, plan)

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
        assert "chain_log" not in result
        assert not (tmp_path / "out" / "chain.log").exists()

    def test_base_equals_single_client_fedavg(self, tmp_path):
        base_cfg = parse_config(
            write_config(
                tmp_path, algorithm="base", output_dir=str(tmp_path / "base")
            )
        )
        fedavg_cfg = parse_config(
            write_config(
                tmp_path, algorithm="fedavg", clients=1, partition="iid",
                client_fraction=1.0, output_dir=str(tmp_path / "favg"),
            )
        )
        r_base = run_experiment(base_cfg)
        r_favg = run_experiment(fedavg_cfg)
        assert r_base["final_global_acc"] == r_favg["final_global_acc"]
        base_csv = (tmp_path / "base" / "metrics.csv").read_bytes()
        favg_csv = (tmp_path / "favg" / "metrics.csv").read_bytes()
        assert base_csv == favg_csv

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
    ])
    def test_bad_hyperparameter_exits_before_training(self, tmp_path, capsys, setting):
        key, value = setting.split("=")
        path = write_config(tmp_path, **{key: value})
        assert cli.main(["run", "--config", str(path)]) == 2
        assert key in capsys.readouterr().err
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
        plan = data.PartitionPlan(4, data.PartitionMode.IID, seed=5)
        [owner] = [
            cid for cid, part in enumerate(data.partition(
                Dataset(samples, ds.labels, 3), plan))
            if (part.samples == marker).any()
        ]
        stacked = models.stacked_loss_and_grad
        sizes = []

        def poisoned(spec, layout, thetas, inputs, labels):
            losses, grads = stacked(spec, layout, thetas, inputs, labels)
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

    @pytest.mark.parametrize("seeds", ["0", "-1"])
    def test_gossip_sim_without_seeds_exits_2(self, seeds, capsys):
        code = cli.main(["gossip-sim", "--nodes", "16", "--fanout", "2",
                         "--seeds", seeds])
        out, err = capsys.readouterr()
        assert code == 2
        assert err.startswith("error: --seeds must be >= 1")
        assert out == ""  # no seed lines and no median_hops=nan

    def test_gossip_and_latency_commands(self, tmp_path, capsys):
        assert cli.main(["gossip-sim", "--nodes", "16", "--fanout", "2",
                         "--seeds", "3"]) == 0
        out_csv = tmp_path / "lat.csv"
        assert cli.main(["bench-latency", "--concurrency", "4",
                         "--output", str(out_csv)]) == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "request_id,T,trd_ms,vtr_ms,tct_ms,end_to_end_ms"
        assert len(lines) == 5
