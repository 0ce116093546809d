"""Golden outputs: SHA-256 of metrics.csv, model.bin and chain.log, and
the numbers beside them.

Small MLP and CNN runs whose output bytes must not move when the code is
refactored or sped up. Beside each run's digests, GOLDEN_NUMBERS holds its
metrics.csv text and the L2 norm and largest magnitude of its model.bin.
Both were captured with numpy 2.4.6 on scipy-openblas 0.3.31.188.0
(OpenBLAS DYNAMIC_ARCH, x86-64, Python 3.11) running its SkylakeX kernels,
and on that build every mismatch fails. A DYNAMIC_ARCH OpenBLAS picks its
kernels from the CPU, or from OPENBLAS_CORETYPE, when it loads, so the
build key names the kernels read at run time. Another numpy, BLAS or
kernel set may round matrix products differently, so there a mismatch
skips, and the skip reason names both builds and the largest difference
in each metrics.csv column and in each norm; no tolerance is set yet.

`PYTHONPATH=src python tests/test_golden.py` prints this build's digests
and numbers as GOLDEN and GOLDEN_NUMBERS dicts, for a deliberate
re-capture.
"""

from __future__ import annotations

import ctypes
import hashlib
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from bfel import data, simulator

CAPTURED_ON = "numpy 2.4.6, scipy-openblas 0.3.31.188.0, SkylakeX"

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


GOLDEN_NUMBERS = {
    "base": {
        "metrics.csv": (
            "schema_version,round,global_acc,client_acc_mean,client_acc_min,client_acc_max,divergence,elapsed_ms\n"
            "1,1,0.2916666666666667,0.2916666666666667,0.2916666666666667,0.2916666666666667,0.0,101.44823821327117\n"
            "1,2,0.375,0.375,0.375,0.375,0.0,203.53095438331695\n"
            "1,3,0.375,0.375,0.375,0.375,0.0,306.2273982110904\n"
        ),
        "model_l2": 3.3671424876344127,
        "model_max_abs": 0.7663623183686552,
    },
    "fedavg": {
        "metrics.csv": (
            "schema_version,round,global_acc,client_acc_mean,client_acc_min,client_acc_max,divergence,elapsed_ms\n"
            "1,1,0.25,0.23958333333333331,0.16666666666666666,0.3333333333333333,0.18974064092027884,401.44823821327117\n"
            "1,2,0.25,0.26041666666666663,0.16666666666666666,0.3333333333333333,0.1818726956044019,803.530954383317\n"
            "1,3,0.25,0.28125,0.16666666666666666,0.375,0.17659429358653067,1206.2273982110905\n"
        ),
        "model_l2": 3.2514134769191507,
        "model_max_abs": 0.662262948425066,
    },
    "fedcurv": {
        "metrics.csv": (
            "schema_version,round,global_acc,client_acc_mean,client_acc_min,client_acc_max,divergence,elapsed_ms\n"
            "1,1,0.20833333333333334,0.23958333333333331,0.16666666666666666,0.3333333333333333,0.18943327675535213,401.44823821327117\n"
            "1,2,0.20833333333333334,0.32291666666666663,0.16666666666666666,0.375,0.1752278432986925,803.530954383317\n"
            "1,3,0.20833333333333334,0.3333333333333333,0.16666666666666666,0.4583333333333333,0.1672639579840077,1206.2273982110905\n"
        ),
        "model_l2": 3.3103723556962596,
        "model_max_abs": 0.6735396035925614,
    },
    "fedcurv-fraction-decay": {
        "metrics.csv": (
            "schema_version,round,global_acc,client_acc_mean,client_acc_min,client_acc_max,divergence,elapsed_ms\n"
            "1,1,0.125,0.29166666666666663,0.125,0.4583333333333333,0.3119287159834434,201.44823821327117\n"
            "1,2,0.5,0.3333333333333333,0.20833333333333334,0.4583333333333333,0.2762443083265668,403.53095438331695\n"
            "1,3,0.5416666666666666,0.5416666666666666,0.4583333333333333,0.625,0.18061225076543447,606.2273982110904\n"
        ),
        "model_l2": 3.326591509549057,
        "model_max_abs": 0.6928462856911702,
    },
    "cnn-fedavg": {
        "metrics.csv": (
            "schema_version,round,global_acc,client_acc_mean,client_acc_min,client_acc_max,divergence,elapsed_ms\n"
            "1,1,0.5,0.34375,0.125,0.625,0.14552161362348984,401.44823821327117\n"
            "1,2,0.625,0.3125,0.125,0.5,0.15363480281374114,803.530954383317\n"
        ),
        "model_l2": 6.884989492424708,
        "model_max_abs": 0.2984722297264789,
    },
    "cnn-fedcurv": {
        "metrics.csv": (
            "schema_version,round,global_acc,client_acc_mean,client_acc_min,client_acc_max,divergence,elapsed_ms\n"
            "1,1,0.5,0.34375,0.125,0.625,0.14549268940862922,401.44823821327117\n"
            "1,2,0.5,0.28125,0.125,0.375,0.15062512517617133,803.530954383317\n"
        ),
        "model_l2": 6.879208103680356,
        "model_max_abs": 0.2970838204704835,
    },
    "cnn-fedcurv-fraction": {
        "metrics.csv": (
            "schema_version,round,global_acc,client_acc_mean,client_acc_min,client_acc_max,divergence,elapsed_ms\n"
            "1,1,0.375,0.1875,0.125,0.25,0.13442557695919372,201.44823821327117\n"
            "1,2,0.25,0.25,0.125,0.375,0.12922503250557188,403.53095438331695\n"
        ),
        "model_l2": 6.87941627136295,
        "model_max_abs": 0.2969532231095535,
    },
}


def openblas_kernels() -> str | None:
    """The name of the kernel set that numpy's bundled scipy-openblas runs
    in this process, or None where that library or its symbol is missing."""
    libs = (Path(np.__file__).parent.parent / "numpy.libs").glob(
        "libscipy_openblas64_*.so"
    )
    try:
        corename = ctypes.CDLL(str(min(libs))).scipy_openblas_get_corename64_
    except (ValueError, OSError, AttributeError):  # no library, or no symbol
        return None
    corename.restype = ctypes.c_char_p
    return corename().decode()


def numpy_build() -> str:
    kernels = openblas_kernels() or "unknown kernels"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"numpy {np.__version__}, {blas['name']} {blas['version']}, {kernels}"
    except (TypeError, KeyError):  # older numpy has no dict mode
        return f"numpy {np.__version__}, unknown BLAS, {kernels}"


def write_images(path, count=40, classes=4, side=12, seed=5):
    """Seeded images: a random pixel template per class, plus noise."""
    rng = np.random.default_rng(seed)
    templates = (rng.random((classes, side, side)) < 0.25).astype(np.float64)
    labels = np.arange(count) % classes
    images = templates[labels] + 0.1 * rng.standard_normal((count, side, side))
    data.save_bfeldata(data.Dataset(images, labels, classes), path)
    return path


def golden_outputs(tmp_path, config: dict) -> tuple[dict, dict]:
    """Run `config`; return its output digests and its numbers."""
    out_dir = tmp_path / "out"
    if config.get("dataset") == "bfeldata":
        train = write_images(tmp_path / "train.bfel")
        config = dict(config, bfeldata_train=str(train))
    simulator.run_experiment(
        simulator.ExperimentConfig(output_dir=str(out_dir), **config)
    )
    digests = {
        name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        for name in ("metrics.csv", "model.bin", "chain.log")
    }
    theta = simulator.load_model_values(out_dir / "model.bin")
    numbers = {
        "metrics.csv": (out_dir / "metrics.csv").read_text(),
        # fsum: the norm itself rounds the same way on every build
        "model_l2": math.sqrt(math.fsum(theta * theta)),
        "model_max_abs": float(np.abs(theta).max()),
    }
    return digests, numbers


def largest_differences(got: dict, want: dict) -> str:
    """The largest absolute difference in each metrics.csv column and in
    each model norm, as "name difference" pairs."""
    header, *want_rows = want["metrics.csv"].splitlines()
    got_rows = got["metrics.csv"].splitlines()[1:]
    if len(got_rows) != len(want_rows):
        parts = [f"{len(got_rows)} metrics.csv rows, not {len(want_rows)}"]
    else:
        diffs = np.abs(
            np.array([row.split(",") for row in got_rows], dtype=float)
            - np.array([row.split(",") for row in want_rows], dtype=float)
        ).max(axis=0)
        parts = [f"{col} {d:.3g}" for col, d in zip(header.split(","), diffs)]
    parts += [f"{key} {abs(got[key] - want[key]):.3g}"
              for key in ("model_l2", "model_max_abs")]
    return ", ".join(parts)


def check_golden(name: str, digests: dict, numbers: dict) -> None:
    """Fail on any mismatch on the capturing build; elsewhere, skip with
    the largest differences."""
    want = GOLDEN[name], GOLDEN_NUMBERS[name]
    if (digests, numbers) != want and numpy_build() != CAPTURED_ON:
        pytest.skip(
            f"{name}: captured on {CAPTURED_ON}; this is {numpy_build()}; "
            f"largest differences: {largest_differences(numbers, want[1])}"
        )
    assert digests == want[0]
    assert numbers == want[1]


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_outputs_match_golden_digests(tmp_path, name):
    check_golden(name, *golden_outputs(tmp_path, CONFIGS[name]))


def moved_numbers(name: str) -> dict:
    """The golden numbers of `name` with global_acc 0.25 higher in the last
    row and the L2 norm 0.5 higher."""
    numbers = dict(GOLDEN_NUMBERS[name])
    header, *rows = numbers["metrics.csv"].splitlines()
    last = rows[-1].split(",")
    column = header.split(",").index("global_acc")
    last[column] = repr(float(last[column]) + 0.25)
    rows[-1] = ",".join(last)
    numbers["metrics.csv"] = "\n".join([header, *rows]) + "\n"
    numbers["model_l2"] += 0.5
    return numbers


def test_another_build_skips_naming_the_largest_differences(monkeypatch):
    monkeypatch.setitem(globals(), "numpy_build", lambda: "numpy 0.0, x")
    with pytest.raises(pytest.skip.Exception) as skipped:
        check_golden("fedcurv", GOLDEN["fedcurv"], moved_numbers("fedcurv"))
    reason = str(skipped.value)
    assert "this is numpy 0.0, x" in reason
    assert "global_acc 0.25, client_acc_mean 0, " in reason
    assert reason.endswith("model_l2 0.5, model_max_abs 0")


def test_the_capturing_build_fails_on_moved_numbers(monkeypatch):
    monkeypatch.setitem(globals(), "numpy_build", lambda: CAPTURED_ON)
    with pytest.raises(AssertionError):
        check_golden("fedcurv", GOLDEN["fedcurv"], moved_numbers("fedcurv"))


def test_the_build_names_the_kernels_that_run():
    if openblas_kernels() is None:
        pytest.skip(f"no OpenBLAS kernel name to read on {numpy_build()}")
    tests = Path(__file__).resolve().parent
    path = os.pathsep.join([str(tests), str(tests.parent / "src")])
    child = subprocess.run(
        [sys.executable, "-c", "import test_golden; print(test_golden.numpy_build())"],
        env=dict(os.environ, OPENBLAS_CORETYPE="Haswell", PYTHONPATH=path),
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert child.stdout.endswith(", Haswell\n")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        outputs = {}
        for name in GOLDEN:
            run_dir = Path(tmp) / name
            run_dir.mkdir()
            outputs[name] = golden_outputs(run_dir, CONFIGS[name])
    print(f"# {numpy_build()}")
    print("GOLDEN = {")
    for name, (digests, _) in outputs.items():
        print(f'    "{name}": {{')
        for file, digest in digests.items():
            print(f'        "{file}": "{digest}",')
        print("    },")
    print("}")
    print("GOLDEN_NUMBERS = {")
    for name, (_, numbers) in outputs.items():
        print(f'    "{name}": {{')
        print('        "metrics.csv": (')
        for line in numbers["metrics.csv"].splitlines():
            print(f'            "{line}\\n"')
        print("        ),")
        for key in ("model_l2", "model_max_abs"):
            print(f'        "{key}": {numbers[key]!r},')
        print("    },")
    print("}")
