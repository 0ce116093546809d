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
# At epsilon 1e-3 and eta_global 1, FedCurv's divergence on them reaches
# 7e12 in round 2; epsilon 0.1 and eta_global 0.1 keep it near 0.25.
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
        "metrics.csv": "81342c4db328d152ea265bd45b6adcdeaf5292b304767930ff1791071b2870f4",
        "model.bin": "6d4ce2c1c3df12db8e74f0ad8e1e12afc2adab7861af8d383e6a4751a653e1c0",
        "chain.log": "f2eaa70a05d1423fac07a30595d303a1b5cfe819bd07edbf4725892306384978",
    },
    "fedcurv-fraction-decay": {
        "metrics.csv": "ee952c505676783f7346b2f2236936904cbfcd9de7e74fe95ad8dc3db9739b5a",
        "model.bin": "db1290970989392fbb85fb481c307448457d4c8bec3c1f8358d6abb564ae1f33",
        "chain.log": "b5be92a17901d1620ac212b31afd2488a839dad0362c9d90529e787a29f53c8e",
    },
    "cnn-fedavg": {
        "metrics.csv": "a3ec1d23f9f8d750c0fd4c3711982cd8a5e50d2065863d22680169d9da58fbce",
        "model.bin": "38e947a539713c4e690a8abfe7ba2bee71d88ad8ef0859097d1e43ed6789b8f1",
        "chain.log": "9af7ffe659113390d014dcb413cc606666504351887a195ed46b6bb14800c896",
    },
    "cnn-fedcurv": {
        "metrics.csv": "95a4819192d32894774ebd451c1aed5e710ce7874086bb8302343c9da582bfb9",
        "model.bin": "ca3e35bd846fe78237a5922ea66a872f01b86768458b2c52099db08b5c833df6",
        "chain.log": "fdc29d24dd80600e61845de86006c849bcc5c8b6235c549228d248f20690da91",
    },
    "cnn-fedcurv-fraction": {
        "metrics.csv": "26874989a654dff4c3195270b69ec5082a45c84d98120ada3ddf9d116a2e66b5",
        "model.bin": "ab37ed3d064afe08ecde0e9578022402c4f5f9a8023a05cd8b99af08c8750ea5",
        "chain.log": "5574d5e47c534c70ca31d16972bb11bb3b4cb20111d8bd6769c428661afb054d",
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
