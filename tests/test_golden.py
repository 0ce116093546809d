"""Golden outputs: SHA-256 of metrics.csv, model.bin and chain.log.

Small MLP and CNN runs whose output bytes must not move when the code is
refactored or sped up. The digests were captured with numpy 2.4.6 on
scipy-openblas 0.3.31.188.0 (OpenBLAS DYNAMIC_ARCH, x86-64, Python 3.11).
Another numpy or BLAS build may round matrix products differently, so on
such a build a mismatch skips with both build names instead of failing; on
the capturing build every mismatch fails.

`PYTHONPATH=src python tests/test_golden.py` prints this build's digests
as a GOLDEN dict, for a deliberate re-capture.
"""

from __future__ import annotations

import hashlib
import tempfile
from pathlib import Path

import numpy as np
import pytest

from bfel import data, simulator

CAPTURED_ON = "numpy 2.4.6, scipy-openblas 0.3.31.188.0"

MLP = dict(
    dataset="synth", synth_classes=4, synth_per_class=30, synth_dim=5,
    clients=4, partition="noniid_shards", rounds=3, batch_size=7,
    mlp_hidden=(8,), seed=3, epsilon=1e-3, eta_local=0.05, lam=0.1,
)

# 40 seeded 12x12 images (see write_images), the smallest the CNN accepts.
# epsilon 0.1 and eta_global 0.1 date from an earlier server step that
# divided by F + epsilon; under the merge, epsilon 1e-3 and eta_global 1
# also keep FedCurv's divergence near 0.15.
CNN = dict(
    model="cnn", dataset="bfeldata", clients=4, partition="noniid_shards",
    rounds=2, batch_size=5, seed=3, epsilon=0.1, eta_local=0.05,
    eta_global=0.1, lam=0.1,
)

CONFIGS = {
    "fedcurv": dict(MLP, algorithm="fedcurv"),
    "fedavg": dict(MLP, algorithm="fedavg"),
    "base": dict(MLP, algorithm="fedavg", clients=1),
    "fedcurv-fraction-decay": dict(
        MLP, algorithm="fedcurv", client_fraction=0.5, lr_decay=True, local_epochs=2
    ),
    "cnn-fedcurv": dict(CNN, algorithm="fedcurv"),
    "cnn-fedavg": dict(CNN, algorithm="fedavg"),
    "cnn-fedcurv-fraction": dict(CNN, algorithm="fedcurv", client_fraction=0.5),
}

GOLDEN = {
    "base": {
        "metrics.csv": "57f40a8727ea0a8de8f4f819abea26ae4b17edc10698bc397a5e315f23c439a7",
        "model.bin": "3b48ecce70a98164b9b82ec4cae52815018ddd7e4b8fee083d8ff18bec0d01fc",
        "chain.log": "00af87219ab9bcc4ad57d1a05ee75d0630061fa7cdd6bec6b797c1020cb8daa3",
    },
    "fedavg": {
        "metrics.csv": "3f1bf04ef6ce66be5df8fbd25d97af19369fd823bd6dc0c1311f9e7059cf67ed",
        "model.bin": "4f0d112a165705b71603965662f166c768798fed1f4889b012f2a52c4a83725f",
        "chain.log": "f638683537bdfcc32c00b27add6ea1e62daa400363e09ba41c9f7cd2592b9e23",
    },
    "fedcurv": {
        "metrics.csv": "1b5b251d288de14ba6cec3679e73449249719bc7787e2be283dbb98c80cd34da",
        "model.bin": "eef1ed941f1bfea6e1eaab5734121a5c829af90757dc49348471f97ebd1f61a1",
        "chain.log": "7b3292054879ab7cd1513ae95d49ca410c7be38b61542bc1287f6d71c5a7516b",
    },
    "fedcurv-fraction-decay": {
        "metrics.csv": "c6f12c9393160143eda01c14c020605e0172b78aab46179f695e19d29e7ff51f",
        "model.bin": "75a209b053b25db3fcd39e32b0eb0266e2446501f08637060f8d20fd3a88ef36",
        "chain.log": "047b0d19f90cbe19bb7cb4bb47616b16922fe31cbd91afb60ea1a48b2a13c66d",
    },
    "cnn-fedavg": {
        "metrics.csv": "a3ec1d23f9f8d750c0fd4c3711982cd8a5e50d2065863d22680169d9da58fbce",
        "model.bin": "38e947a539713c4e690a8abfe7ba2bee71d88ad8ef0859097d1e43ed6789b8f1",
        "chain.log": "9af7ffe659113390d014dcb413cc606666504351887a195ed46b6bb14800c896",
    },
    "cnn-fedcurv": {
        "metrics.csv": "29d571af4a01825b9bc018772b497e2b42365e979bc8abeaaed1775aa07973b3",
        "model.bin": "c7458c44b72d4877f9b69fec45fa1ea2637941f3bf014f92346a0c0c5a0fc4e3",
        "chain.log": "ba74cf1efbb73bc816db975f7560174dd9d77d5b46aa4b78a79a1cee388a86af",
    },
    "cnn-fedcurv-fraction": {
        "metrics.csv": "81a1673a1872855530219f74d6a7feca95dac1cba41de771842336b2f2d8cc13",
        "model.bin": "6f72800dd0655357c940aaa3f04b6f3f99824ce51debe82d5c307acbf990de86",
        "chain.log": "67c356e904eb718b7b4983616fab7d892a49b3aa6d48435e7c7ad763f03ac38b",
    },
}


def numpy_build() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"numpy {np.__version__}, {blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # older numpy has no dict mode
        return f"numpy {np.__version__}, unknown BLAS"


def write_images(path, count=40, classes=4, side=12, seed=5):
    """Seeded images: a random pixel template per class, plus noise."""
    rng = np.random.default_rng(seed)
    templates = (rng.random((classes, side, side)) < 0.25).astype(np.float64)
    labels = np.arange(count) % classes
    images = templates[labels] + 0.1 * rng.standard_normal((count, side, side))
    data.save_bfeldata(data.Dataset(images, labels, classes), path)
    return path


def output_digests(tmp_path, config: dict) -> dict:
    out_dir = tmp_path / "out"
    if config.get("dataset") == "bfeldata":
        train = write_images(tmp_path / "train.bfel")
        config = dict(config, bfeldata_train=str(train))
    simulator.run_experiment(
        simulator.ExperimentConfig(output_dir=str(out_dir), **config)
    )
    return {
        name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        for name in ("metrics.csv", "model.bin", "chain.log")
    }


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_outputs_match_golden_digests(tmp_path, name):
    digests = output_digests(tmp_path, CONFIGS[name])
    if digests != GOLDEN[name] and numpy_build() != CAPTURED_ON:
        pytest.skip(f"digests captured on {CAPTURED_ON}; this is {numpy_build()}")
    assert digests == GOLDEN[name]


if __name__ == "__main__":
    print(f"# {numpy_build()}")
    print("GOLDEN = {")
    with tempfile.TemporaryDirectory() as tmp:
        for name in GOLDEN:
            run_dir = Path(tmp) / name
            run_dir.mkdir()
            print(f'    "{name}": {{')
            for file, digest in output_digests(run_dir, CONFIGS[name]).items():
                print(f'        "{file}": "{digest}",')
            print("    },")
    print("}")
