"""Experiment orchestration: config parsing, round loop, metrics, ledger.

Configs are flat key=value text files. Each run emits a versioned metrics
CSV, a binary final-model file, and (optionally) a signed chain log with
one block per round. Runs are bit-reproducible under a fixed seed: the
clock defaults to a simulated one.
"""

from __future__ import annotations

import struct
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import data as data_mod
from . import fedavg, fedcurv, ledger, models

CSV_HEADER = (
    "schema_version,round,global_acc,client_acc_mean,client_acc_min,"
    "client_acc_max,divergence,elapsed_ms"
)
CSV_SCHEMA_VERSION = 1
MODEL_MAGIC = b"BFELMODL"
MODEL_VERSION = 1


class ConfigError(ValueError):
    """Bad or missing configuration; reported before any training starts."""


@dataclass(frozen=True)
class ExperimentConfig(fedcurv.HyperParams):
    """A run's settings; it is the HyperParams every round is given."""

    algorithm: str = "fedcurv"
    model: str = "mlp"
    mlp_hidden: tuple[int, ...] = (64,)
    dataset: str = "synth"
    idx_images: str = ""
    idx_labels: str = ""
    idx_test_images: str = ""
    idx_test_labels: str = ""
    bfeldata_train: str = ""
    bfeldata_test: str = ""
    synth_classes: int = 2
    synth_per_class: int = 100
    synth_dim: int = 2
    synth_spread: float = 0.15
    test_fraction: float = 0.2
    clients: int = 5
    partition: str = "iid"
    shards_per_client: int = 2
    rounds: int = 20
    ledger_enabled: bool = True
    clock: str = "simulated"
    seed: int = 0
    output_dir: str = "out"

    BOUNDS = {**fedcurv.HyperParams.BOUNDS, "rounds": (1, False),
              "clients": (1, False), "shards_per_client": (1, False),
              "synth_classes": (1, False), "synth_per_class": (1, False),
              "synth_dim": (1, False), "synth_spread": (0, False),
              "test_fraction": (0, True), "seed": (0, False)}
    CHOICES = {"algorithm": ("fedcurv", "fedavg"), "model": ("mlp", "cnn"),
               "dataset": ("synth", "idx", "bfeldata"),
               "partition": ("iid", "noniid_shards"), "clock": ("simulated", "wall")}

    def __post_init__(self):
        try:
            super().__post_init__()
        except ValueError as e:
            raise ConfigError(str(e)) from None
        # the seeds derived from it must fit numpy's and the ledger's
        if self.seed >= 2**63:
            raise ConfigError(f"seed must be in [0, 2**63), got {self.seed}")
        for key, choices in self.CHOICES.items():
            value = getattr(self, key)
            if value not in choices:
                raise ConfigError(f"{key} must be one of {choices}, got {value!r}")
        if any(width < 1 for width in self.mlp_hidden):
            raise ConfigError(f"mlp_hidden widths must be >= 1, got {self.mlp_hidden!r}")
        if "\0" in self.output_dir:  # no file system takes it
            raise ConfigError(f"output_dir holds a NUL byte: {self.output_dir!r}")
        for key in ("idx_images", "idx_labels", "idx_test_images",
                    "idx_test_labels", "bfeldata_train", "bfeldata_test"):
            path = getattr(self, key)
            if path and not Path(path).exists():
                raise ConfigError(f"{key}: file not found: {path}")


_BOOL = {"true": True, "false": False, "1": True, "0": False,
         "yes": True, "no": False, "on": True, "off": False}

_FIELD_ALIASES = {
    "lambda": "lam", "epochs": "local_epochs", "ledger": "ledger_enabled"
}


def parse_config(path) -> ExperimentConfig:
    """Parse a flat key=value config file (# starts a comment); a key may
    be given once, under either of its spellings."""
    kwargs, set_on = {}, {}
    fields = ExperimentConfig.__dataclass_fields__
    blob = Path(path).read_bytes()
    try:
        text = blob.decode()
    except UnicodeDecodeError as e:  # the bad byte's line as splitlines counts
        lineno = len((blob[: e.start].decode() + "x").splitlines())
        raise ConfigError(
            f"{path}:{lineno}: byte 0x{blob[e.start]:02x} is not UTF-8 text"
        ) from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        name, value = (part.strip() for part in line.split("=", 1))
        key = _FIELD_ALIASES.get(name, name)
        if key not in fields:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in set_on:
            raise ConfigError(
                f"{path}:{lineno}: duplicate key {name!r}: {key!r} is already "
                f"set on line {set_on[key]}"
            )
        set_on[key] = lineno
        default = fields[key].default
        try:
            if isinstance(default, bool):
                kwargs[key] = _BOOL[value.lower()]
            elif isinstance(default, int):
                kwargs[key] = int(value)
            elif isinstance(default, float):
                kwargs[key] = float(value)
            elif isinstance(default, tuple):
                kwargs[key] = tuple(int(v) for v in value.split(",") if v.strip())
            else:
                kwargs[key] = value
        except (KeyError, ValueError):
            raise ConfigError(
                f"{path}:{lineno}: bad value {value!r} for {key!r}"
            ) from None
    return ExperimentConfig(**kwargs)


def save_model(params: models.ParameterVector, path) -> None:
    with open(path, "wb") as f:
        f.write(MODEL_MAGIC)
        f.write(struct.pack("<IQ", MODEL_VERSION, params.values.shape[0]))
        f.write(params.values.astype("<f8").tobytes())


def load_model_values(path) -> np.ndarray:
    blob = Path(path).read_bytes()
    if blob[:8] != MODEL_MAGIC:
        raise ConfigError(f"{path}: not a model file")
    if len(blob) < 20:
        raise ConfigError(f"{path}: model header cut short")
    version, count = struct.unpack("<IQ", blob[8:20])
    if version != MODEL_VERSION:
        raise ConfigError(f"{path}: unsupported model version {version}")
    if len(blob) - 20 != 8 * count:
        raise ConfigError(f"{path}: payload does not hold {count} values")
    return np.frombuffer(blob[20:], dtype="<f8").copy()


def _load(load, config: ExperimentConfig, *keys: str):
    """load() on the files named by config keys; an empty set is an error."""
    paths = [getattr(config, key) for key in keys]
    for key, path in zip(keys, paths):
        if not path:
            raise ConfigError(f"dataset = {config.dataset} needs {key}")
    dataset = load(*paths)
    if len(dataset) == 0:
        raise ConfigError(f"{keys[0]}: no samples in {paths[0]}")
    return dataset


def _load_datasets(config: ExperimentConfig):
    if config.dataset == "idx":
        train = _load(data_mod.load_idx, config, "idx_images", "idx_labels")
        if config.idx_test_images or config.idx_test_labels:
            return train, _load(
                data_mod.load_idx, config, "idx_test_images", "idx_test_labels"
            )
    elif config.dataset == "bfeldata":
        train = _load(data_mod.load_bfeldata, config, "bfeldata_train")
        if config.bfeldata_test:
            return train, _load(data_mod.load_bfeldata, config, "bfeldata_test")
    else:
        train = data_mod.synth_blobs(
            config.synth_classes,
            config.synth_per_class,
            config.synth_dim,
            config.synth_spread,
            seed=config.seed,
        )
    # no explicit test set: seeded holdout split
    n = len(train)
    rng = np.random.default_rng([config.seed, 0x7E57])
    order = rng.permutation(n)
    # a fraction above 1 leaves nothing to train on; capping it first keeps
    # a huge one from overflowing the int conversion
    n_test = max(1, int(round(min(config.test_fraction, 1.0) * n)))
    if n_test >= n:
        raise ConfigError(f"test_fraction leaves none of {n} samples to train on")
    return train.subset(np.sort(order[n_test:])), train.subset(np.sort(order[:n_test]))


def rounds(config: ExperimentConfig):
    """Set up a run, raising any config or data error, and return an
    iterator that makes the model, RNG streams, keys and chain on its first
    step, then yields each finished round as (round index from 0, theta,
    updates, metrics, elapsed_ms, chain); chain, None with the ledger off,
    ends in that round's signed block."""
    train, test = _load_datasets(config)
    spec = models.ModelSpec(
        kind=config.model, input_shape=train.samples.shape[1:],
        classes=train.class_count,
        hidden=config.mlp_hidden if config.model == "mlp" else models.CNN_HIDDEN,
    )
    if test.samples.shape[1:] != spec.input_shape or test.labels.max() >= spec.classes:
        raise ConfigError(
            f"the test set does not fit the model's input {spec.input_shape} "
            f"and {spec.classes} classes"
        )
    clients = data_mod.partition(
        train, config.clients, config.partition, config.shards_per_client, config.seed
    )
    # only partition reads the whole set: it goes with this frame, before
    # the rounds, whose local SGD makes one more copy of the clients' data
    return _round_stream(config, spec, clients, test)


def _round_stream(config: ExperimentConfig, spec, clients, test):
    algo = fedcurv if config.algorithm == "fedcurv" else fedavg
    theta = models.init_params(spec, config.seed)
    rng = np.random.default_rng([config.seed, 0x1A])
    clock_rng = np.random.default_rng([config.seed, 0x2B])

    chain = None
    if config.ledger_enabled:
        base = config.seed * 100003  # the server's key; client k's is base + k + 1
        keys = [ledger.keygen(base + i) for i in range(len(clients) + 1)]
        server_key, client_keys = keys[0], keys[1:]
        chain = ledger.new_chain()

    sim_clock_ms = 0.0
    wall_start = time.monotonic()
    for round_idx in range(config.rounds):
        theta, updates, metrics = fedcurv.run_round(
            spec, theta, round_idx, clients, config, rng, test_set=test,
            client_step=algo.client_round, server_step=algo.server_step,
        )

        if config.clock == "wall":
            elapsed = (time.monotonic() - wall_start) * 1000.0
        else:
            sim_clock_ms += 100.0 * len(updates.thetas) + 10.0 * float(clock_rng.random())
            elapsed = sim_clock_ms

        if chain is not None:
            ts = (round_idx + 1) * 1000
            txs = [
                ledger.make_transaction(
                    ledger.TxKind.CLIENT_UPDATE, ledger.digest_update(updates, k),
                    client_keys[cid], ts,
                )
                for k, cid in enumerate(updates.client_ids)
            ]
            txs.append(ledger.make_transaction(
                ledger.TxKind.GLOBAL_MODEL,
                ledger.digest_global_model(theta.values, round_idx + 1), server_key, ts,
            ))
            chain = ledger.append_block(chain, txs, server_key, timestamp=ts)
        yield round_idx, theta, updates, metrics, elapsed, chain


def run_experiment(config: ExperimentConfig) -> dict:
    """Run the configured algorithm; write metrics CSV, model, chain log.

    Config and data errors are raised before output_dir is touched; then
    an earlier run's three files there are removed, so a run that fails in
    a round leaves none of them, and one with the ledger off no chain.log.
    """
    stream = rounds(config)
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name in ("metrics.csv", "model.bin", "chain.log"):
        (out_dir / name).unlink(missing_ok=True)
    rows = [CSV_HEADER]  # metrics.csv, one line per round
    for round_idx, theta, _, metrics, elapsed, chain in stream:
        accs = metrics["client_accuracy"]
        row = (CSV_SCHEMA_VERSION, round_idx + 1, metrics["global_accuracy"],
               float(np.mean(accs)), float(np.min(accs)), float(np.max(accs)),
               metrics["divergence"], elapsed)
        rows.append(",".join(map(repr, row)))

    metrics_path = out_dir / "metrics.csv"
    metrics_path.write_text("\n".join(rows) + "\n")
    save_model(theta, out_dir / "model.bin")
    if chain is not None:
        blob = ledger.export_chain(chain)
        (out_dir / "chain.log").write_bytes(blob)
        ok, bad = ledger.validate_chain_bytes(blob)  # as validate-chain reads it
        if not ok:
            raise RuntimeError(f"chain failed self-validation at block {bad}")
    return {
        "metrics_csv": str(metrics_path),
        "final_global_acc": metrics["global_accuracy"],
        "rounds": config.rounds,
    }
