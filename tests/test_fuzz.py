"""Seeded fuzz: flipped bits and truncations in each file the program reads.

BFELDATA training files and IDX image/label pairs go through `bfel run`,
model files through `load_model_values` and chain logs through
`bfel validate-chain`. Every
case must end in a documented exit code or a typed error; an uncaught
exception fails the test.
"""

from __future__ import annotations

import numpy as np
import pytest

from bfel import cli, data, models, simulator

BFELDATA_HEADER = 8 + 16 + 8 + 4  # magic, version/count/ndim, one dim, classes
IDX_HEADERS = {"images": 16, "labels": 8}  # magic and count, then rows, cols


def flipped(blob: bytes, bit: int) -> bytes:
    out = bytearray(blob)
    out[bit // 8] ^= 1 << (bit % 8)
    return bytes(out)


def cut_lengths(blob: bytes, count: int, seed: int) -> list[int]:
    rng = np.random.default_rng(seed)
    return sorted(set(int(n) for n in rng.integers(0, len(blob), count)))


def write_run_config(tmp_path, name: str, **data_keys) -> tuple:
    out_dir = tmp_path / f"out-{name}"
    config = tmp_path / f"{name}.cfg"
    config.write_text(
        "".join(f"{key} = {value}\n" for key, value in data_keys.items())
        + "clients = 2\npartition = iid\nrounds = 1\nmlp_hidden = 4\n"
        "batch_size = 4\nepsilon = 1e-3\n"
        f"output_dir = {out_dir}\n"
    )
    return config, out_dir


class TestBfeldataThroughRun:
    @pytest.fixture(scope="class")
    def blob(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("bfel") / "train.bfel"
        data.save_bfeldata(data.synth_blobs(2, 6, 3, 0.2, seed=1), path)
        return path.read_bytes()

    def check_run(self, tmp_path, capsys, name, blob):
        train = tmp_path / f"{name}.bfel"
        train.write_bytes(blob)
        config, out_dir = write_run_config(
            tmp_path, name, dataset="bfeldata", bfeldata_train=train
        )
        code = cli.main(["run", "--config", str(config)])
        err = capsys.readouterr().err
        if code == 0:
            data.load_bfeldata(train)  # only a file that still loads may run
        else:
            assert code == 2, err
            assert str(train) in err  # the message names the file
            assert not out_dir.exists()
        return code

    def test_every_header_bit_flip(self, tmp_path, capsys, blob):
        assert len(blob) > BFELDATA_HEADER
        codes = [
            self.check_run(tmp_path, capsys, f"bit{bit}", flipped(blob, bit))
            for bit in range(8 * BFELDATA_HEADER)
        ]
        # some class-count flips leave a valid file; most flips do not
        assert 0 < codes.count(0) < codes.count(2)

    def test_seeded_truncations(self, tmp_path, capsys, blob):
        for n in cut_lengths(blob, 30, seed=11):
            assert self.check_run(tmp_path, capsys, f"cut{n}", blob[:n]) == 2

    def test_seeded_payload_exponent_flips(self, tmp_path, capsys, blob):
        # Bit 62 is the top exponent bit. Every payload value lies in
        # [2**-510, 2), so a flip makes it Inf, NaN or at least 2**513,
        # above data.SAMPLE_MAGNITUDE_BOUND (about 2**512).
        values = np.frombuffer(blob, "<f8", count=12 * 3, offset=BFELDATA_HEADER)
        assert np.all((np.abs(values) >= 2.0**-510) & (np.abs(values) < 2.0))
        rng = np.random.default_rng(16)
        for i in rng.choice(values.size, 20, replace=False):
            bit = 8 * (BFELDATA_HEADER + 8 * int(i)) + 62
            code = self.check_run(tmp_path, capsys, f"exp{i}", flipped(blob, bit))
            assert code == 2


class TestIdxThroughRun:
    @pytest.fixture(scope="class")
    def blobs(self, tmp_path_factory):
        rng = np.random.default_rng(17)
        dataset = data.Dataset(rng.random((40, 6, 6)), np.arange(40) % 2, 2)
        folder = tmp_path_factory.mktemp("idx")
        paths = {"images": folder / "images.idx", "labels": folder / "labels.idx"}
        data.save_idx(dataset, paths["images"], paths["labels"])
        return {part: path.read_bytes() for part, path in paths.items()}

    def run(self, tmp_path, capsys, name, blobs) -> int:
        paths = {}
        for part, blob in blobs.items():
            paths[part] = tmp_path / f"{name}-{part}.idx"
            paths[part].write_bytes(blob)
        config, out_dir = write_run_config(
            tmp_path, name, dataset="idx", idx_images=paths["images"],
            idx_labels=paths["labels"],
        )
        code = cli.main(["run", "--config", str(config)])
        err = capsys.readouterr().err
        if code != 0:
            assert code == 2, err
            assert len(err.splitlines()) == 1 and err.startswith("error: "), err
            assert not out_dir.exists()
        return code

    def test_intact_pair_runs(self, tmp_path, capsys, blobs):
        assert self.run(tmp_path, capsys, "intact", blobs) == 0

    @pytest.mark.parametrize("part", sorted(IDX_HEADERS))
    def test_every_header_bit_flip_exits_2(self, tmp_path, capsys, blobs, part):
        # every flip breaks the magic, or a count or side that the payload
        # length or the other file's count must match
        for bit in range(8 * IDX_HEADERS[part]):
            bad = dict(blobs, **{part: flipped(blobs[part], bit)})
            assert self.run(tmp_path, capsys, f"{part}{bit}", bad) == 2

    @pytest.mark.parametrize("part, seed", [("images", 18), ("labels", 19)])
    def test_seeded_truncations_exit_2(self, tmp_path, capsys, blobs, part, seed):
        for n in cut_lengths(blobs[part], 200, seed):
            bad = dict(blobs, **{part: blobs[part][:n]})
            assert self.run(tmp_path, capsys, f"{part}-cut{n}", bad) == 2


class TestModelFile:
    @pytest.fixture(scope="class")
    def blob(self, tmp_path_factory):
        spec = models.ModelSpec(kind="mlp", input_shape=(3,), classes=2)
        path = tmp_path_factory.mktemp("model") / "model.bin"
        simulator.save_model(models.init_params(spec, 0), path)
        return path.read_bytes()

    def load(self, tmp_path, blob):
        path = tmp_path / "model.bin"
        path.write_bytes(blob)
        try:
            return simulator.load_model_values(path)
        except simulator.ConfigError:
            return None

    def test_seeded_bit_flips(self, tmp_path, blob):
        size = (len(blob) - 20) // 8  # after magic, version and count
        rng = np.random.default_rng(12)
        outcomes = []
        for bit in rng.integers(0, 8 * len(blob), 200):
            values = self.load(tmp_path, flipped(blob, int(bit)))
            outcomes.append(values is not None)
            if values is not None:  # a payload flip: the same count
                assert values.shape == (size,)
        assert any(outcomes) and not all(outcomes)

    def test_seeded_truncations(self, tmp_path, blob):
        for n in cut_lengths(blob, 30, seed=13):
            assert self.load(tmp_path, blob[:n]) is None


class TestChainLog:
    @pytest.fixture(scope="class")
    def blob(self, tmp_path_factory):
        out_dir = tmp_path_factory.mktemp("chain")
        simulator.run_experiment(
            simulator.ExperimentConfig(
                synth_classes=2, synth_per_class=6, clients=2, rounds=2,
                batch_size=4, output_dir=str(out_dir),
            )
        )
        return (out_dir / "chain.log").read_bytes()

    def validate(self, tmp_path, capsys, blob) -> int:
        path = tmp_path / "chain.log"
        path.write_bytes(blob)
        code = cli.main(["validate-chain", "--chain", str(path)])
        out = capsys.readouterr().out
        assert out.startswith("valid" if code == 0 else "invalid first_invalid_index=")
        return code

    def test_intact_chain_is_valid(self, tmp_path, capsys, blob):
        assert self.validate(tmp_path, capsys, blob) == 0

    def test_seeded_bit_flips_are_invalid(self, tmp_path, capsys, blob):
        rng = np.random.default_rng(14)
        for bit in rng.integers(0, 8 * len(blob), 150):
            assert self.validate(tmp_path, capsys, flipped(blob, int(bit))) == 1

    def test_seeded_truncations_are_invalid(self, tmp_path, capsys, blob):
        for n in cut_lengths(blob, 30, seed=15):
            assert self.validate(tmp_path, capsys, blob[:n]) == 1
