"""The four workloads: their seeded inputs and one checked operation each.

`run.py` drives them in a closed loop: one process, one caller, each
operation starting when the previous one has ended; no thread is started.
An operation is one `bfel run` call (training workloads) or one whole
chain: key generation, block commits with gossip, export and validation
(chain-gossip). Checks run after each operation, outside the timed region
and with tracing paused.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import shutil
import struct
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from . import checks

VALIDATE_REPEATS = 3  # validations of each training call's short chain
SETUP_REPEATS = 10  # key-generation set-ups per chain, as one is under 1 ms


@dataclass
class OpResult:
    """Measurements of one operation and the problems its checks found."""

    problems: list
    setup_s: list = field(default_factory=list)
    run_s: float = 0.0
    rounds_s: list = field(default_factory=list)  # rounds, or block commits
    validate_s: list = field(default_factory=list)
    chain_bytes: int = 0
    hops: int = 0
    final_acc: float | None = None


class _ClockProbe:
    """Stands in for the `time` module inside `bfel.simulator`.

    It records the program's clock reads. With `clock = wall` the first
    read marks the start of the round loop, which ends set-up, and the
    later ones are the `elapsed_ms` round boundaries. No bfel function is
    wrapped, so an untraced run pays nothing per call.
    """

    def __init__(self):
        self.reads = []

    def monotonic(self):
        t = time.monotonic()
        self.reads.append(t)
        return t

    def __getattr__(self, name):
        return getattr(time, name)


# --- training workloads ---------------------------------------------------


def mlp_layout_size(dims):
    return sum(a * b + b for a, b in zip(dims, dims[1:]))


def cnn_layout_size(side, classes, channels=(8, 16), k=3, fc=64):
    size, in_c = 0, 1
    for out_c in channels:
        size += out_c * in_c * k * k + out_c
        side = (side - k + 1) // 2
        in_c = out_c
    return size + (in_c * side * side) * fc + fc + fc * classes + classes


def write_bfeldata(path, samples, labels, classes):
    """The BFELDATA container, written without bfel's own writer."""
    with open(path, "wb") as f:
        f.write(b"BFELDATA")
        f.write(struct.pack("<IQI", 1, samples.shape[0], samples.ndim - 1))
        for dim in samples.shape[1:]:
            f.write(struct.pack("<Q", dim))
        f.write(struct.pack("<I", classes))
        f.write(samples.astype("<f8").tobytes())
        f.write(labels.astype("<u2").tobytes())


def stroke_images(seed, count, classes=10, side=28):
    """Seeded 28x28 images: per-class bar templates, shifted, plus noise."""
    rng = np.random.default_rng([seed, 0xC22])
    templates = np.zeros((classes, side, side))
    for c in range(classes):
        for _ in range(3):  # three bars, each horizontal or vertical
            r, q = rng.integers(4, side - 8, size=2)
            h, w = rng.integers(2, 4), rng.integers(8, 16)
            if rng.random() < 0.5:
                h, w = w, h
            templates[c, r:r + h, q:q + w] = 1.0
    labels = np.arange(count) % classes
    shifts = rng.integers(-2, 3, size=(count, 2))
    images = np.stack([
        np.roll(templates[y], tuple(s), axis=(0, 1)) for y, s in zip(labels, shifts)
    ])
    images = np.clip(images + 0.1 * rng.standard_normal(images.shape), 0.0, 1.0)
    return images, labels


class TrainingWorkload:
    """Repeated in-process `bfel run` calls on one config."""

    kind = "training"
    step = "round"

    def __init__(self, bfel, workdir, seed, settings, rounds, layout_size,
                 acc_floor, tail_samples):
        self.bfel = bfel
        self.tail_samples = tail_samples
        self.rounds = rounds
        self.layout_size = layout_size
        self.acc_floor = acc_floor
        self.out_dir = workdir / "out"
        self.config_path = workdir / "experiment.txt"
        settings = dict(settings, rounds=rounds, seed=seed, clock="wall",
                        ledger="true", output_dir=str(self.out_dir))
        self.config_path.write_text(
            "".join(f"{k} = {v}\n" for k, v in settings.items())
        )
        self.probe = _ClockProbe()
        self.reference = None

    def run_op(self, tracer):
        shutil.rmtree(self.out_dir, ignore_errors=True)
        self.probe.reads.clear()
        simulator = self.bfel.simulator
        simulator.time = self.probe
        try:
            tracer.active = True
            start = time.monotonic()
            with contextlib.redirect_stdout(io.StringIO()):
                code = self.bfel.cli.main(["run", "--config", str(self.config_path)])
            end = time.monotonic()
            tracer.active = False
        finally:
            simulator.time = time

        files = {}
        for name in ("metrics.csv", "model.bin", "chain.log"):
            path = self.out_dir / name
            files[name] = path.read_bytes() if path.exists() else None
        problems, outputs = checks.check_training_outputs(
            code, files, self.rounds, self.layout_size, self.acc_floor
        )
        if outputs is None:
            return OpResult(problems)
        problems += checks.check_same("outputs", self.reference, outputs.fingerprint)
        self.reference = self.reference or outputs.fingerprint
        validate_s = []
        for _ in range(VALIDATE_REPEATS):
            t0 = time.perf_counter()
            invalid = checks.check_validates(self.bfel.ledger, outputs.chain_log)
            validate_s.append(time.perf_counter() - t0)
        problems += invalid
        elapsed = [ms / 1000.0 for ms in outputs.elapsed_ms]
        # Row k's clock read precedes round k's block append, so the gap
        # between rows k and k+1 is one whole round, append included. A
        # one-round call has only its row, which leaves out that round's
        # signing and append (under 1% of a CNN round).
        rounds_s = np.diff(elapsed).tolist() if len(elapsed) > 1 else elapsed
        return OpResult(
            problems,
            setup_s=[self.probe.reads[0] - start],
            run_s=end - start,
            rounds_s=rounds_s,
            validate_s=validate_s,
            chain_bytes=len(outputs.chain_log),
            final_acc=outputs.final_acc,
        )


MLP_SETTINGS = {
    "model": "mlp", "mlp_hidden": "64", "dataset": "synth",
    "synth_classes": 10, "synth_per_class": 600, "synth_dim": 64,
    "synth_spread": 1.5, "clients": 10, "partition": "noniid_shards",
    "shards_per_client": 2, "client_fraction": 1.0, "batch_size": 20,
    "lambda": 0.1, "eta_local": 0.01, "eta_global": 1.0, "epsilon": 1e-3,
}
# Five rounds, so that one call is short and a run holds dozens of them.
MLP_ROUNDS = 5
MLP_ACC_FLOOR = 0.2  # chance is 0.1; on seeds 0-29 FedAvg reaches 0.28-0.39
# The tail percentile is high enough to fall among the rounds run in the
# host's slow state, so that the share of those does not move it.
MLP_TAIL_SAMPLES = 200  # p95; 25 seconds hold 160-280 rounds
# 100 images make one CNN call about 0.35 s, so a run holds about 70.
CNN_IMAGES = 100
CNN_TAIL_SAMPLES = 100  # p90; 25 seconds hold about 70 rounds


def fedcurv_mlp(bfel, workdir, seed, rounds=MLP_ROUNDS, acc_floor=MLP_ACC_FLOOR):
    return TrainingWorkload(
        bfel, workdir, seed, dict(MLP_SETTINGS, algorithm="fedcurv"), rounds,
        mlp_layout_size([64, 64, 10]), acc_floor, MLP_TAIL_SAMPLES,
    )


def fedavg_mlp(bfel, workdir, seed, rounds=MLP_ROUNDS, acc_floor=MLP_ACC_FLOOR):
    return TrainingWorkload(
        bfel, workdir, seed, dict(MLP_SETTINGS, algorithm="fedavg"), rounds,
        mlp_layout_size([64, 64, 10]), acc_floor, MLP_TAIL_SAMPLES,
    )


def fedcurv_cnn(bfel, workdir, seed, images=CNN_IMAGES):
    data_path = workdir / "images.bfeldata"
    samples, labels = stroke_images(seed, count=images)
    write_bfeldata(data_path, samples, labels, 10)
    settings = {
        "algorithm": "fedcurv", "model": "cnn", "dataset": "bfeldata",
        "bfeldata_train": str(data_path), "test_fraction": 0.2, "clients": 5,
        "partition": "noniid_shards", "shards_per_client": 2,
        "batch_size": 20, "lambda": 0.1, "eta_local": 0.01,
        "eta_global": 1.0, "epsilon": 1e-3,
    }
    # Multi-round FedCurv on this data blows up (a known defect), so each
    # call is one round and no accuracy floor applies.
    return TrainingWorkload(
        bfel, workdir, seed, settings, 1, cnn_layout_size(28, 10), None,
        CNN_TAIL_SAMPLES,
    )


# --- chain-gossip ---------------------------------------------------------


class ChainWorkload:
    """Signed blocks of one 10-client round each, gossiped to 128 nodes."""

    kind = "chain"
    step = "block commit"
    tail_samples = 200  # p95; 25 seconds hold 2000-3000 commits
    CLIENTS = 10
    NODES = 128
    FANOUT = 2

    def __init__(self, bfel, seed, blocks):
        self.bfel = bfel
        self.seed = seed
        self.blocks = blocks
        rng = np.random.default_rng([seed, 0xB10C])
        self.digests = [
            [rng.bytes(32) for _ in range(self.CLIENTS + 1)] for _ in range(blocks)
        ]
        self.gossip_seeds = rng.integers(2**63, size=blocks).tolist()
        self.check_rng = np.random.default_rng([seed, 0xC4EC])
        self.reference = None

    def run_op(self, tracer):
        ledger, gossip = self.bfel.ledger, self.bfel.gossip
        update, model = ledger.TxKind.CLIENT_UPDATE, ledger.TxKind.GLOBAL_MODEL
        base = self.seed * 100003
        setup_s = []
        for repeat in range(SETUP_REPEATS):
            tracer.active = repeat == SETUP_REPEATS - 1  # trace one set-up
            start = time.perf_counter()
            server, *clients = [
                ledger.keygen(base + j) for j in range(self.CLIENTS + 1)
            ]
            setup_end = time.perf_counter()
            setup_s.append(setup_end - start)
        chain = ledger.new_chain()
        commits, hops, reached = [], [], True
        for b, digests in enumerate(self.digests):
            t0 = time.perf_counter()
            ts = (b + 1) * 1000
            txs = [
                ledger.make_transaction(update, d, key, ts)
                for d, key in zip(digests, clients)
            ]
            txs.append(ledger.make_transaction(model, digests[-1], server, ts))
            chain = ledger.append_block(chain, txs, server, timestamp=ts)
            net = gossip.GossipNetwork(
                node_count=self.NODES, fanout=self.FANOUT, seed=self.gossip_seeds[b]
            )
            n_hops, times = gossip.gossip_broadcast(net, origin=0)
            commits.append(time.perf_counter() - t0)
            hops.append(n_hops)
            reached = reached and bool(np.isfinite(times).all())
        blob = ledger.export_chain(chain)
        v0 = time.perf_counter()
        ok, bad = ledger.validate_chain_bytes(blob)
        end = time.perf_counter()
        tracer.active = False

        problems = [] if reached else ["gossip left a node unreached"]
        if not ok:
            problems.append(f"chain failed validation at block {bad}")
        if len(chain) != self.blocks + 1:
            problems.append(f"chain holds {len(chain)} blocks")
        if ledger.export_chain(ledger.import_chain(blob)) != blob:
            problems.append("export(import(chain)) differs from the chain")
        fingerprint = (hashlib.sha256(blob).hexdigest(), tuple(hops))
        problems += checks.check_same("chain and hops", self.reference, fingerprint)
        self.reference = self.reference or fingerprint
        problems += checks.check_tamper_detected(ledger, blob, self.check_rng)
        problems += checks.check_forgery_rejected(
            ledger, chain, txs, server, ts + 1000, self.check_rng
        )
        return OpResult(
            problems,
            setup_s=setup_s,
            run_s=end - start,
            rounds_s=commits,
            validate_s=[end - v0],
            chain_bytes=len(blob),
            hops=sum(hops),
        )


# A whole chain stays short (about 0.25 s with its checks), so that a run
# holds about 80; the per-block work is the same at any length.
CHAIN_BLOCKS = 25


def chain_gossip(bfel, workdir, seed, blocks=CHAIN_BLOCKS):
    return ChainWorkload(bfel, seed, blocks)


WORKLOADS = {
    "fedcurv-mlp": fedcurv_mlp,
    "fedavg-mlp": fedavg_mlp,
    "fedcurv-cnn": fedcurv_cnn,
    "chain-gossip": chain_gossip,
}


# --- failures ---------------------------------------------------------------


def run_checked(workload, tracer, log):
    """One operation; an exception is a failed operation, reported in full."""
    try:
        return workload.run_op(tracer)
    except Exception:  # a failed operation must count, not end the run
        tracer.active = False
        log(traceback.format_exc())
        return OpResult(["raised " + traceback.format_exc().splitlines()[-1]])
