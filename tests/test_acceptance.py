"""Acceptance suite: one test per exit criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The full-size MNIST trend check needs local IDX files (set
BFEL_MNIST_DIR); a desk-scale surrogate on the scikit-learn digits images
runs unconditionally through the same IDX + partition + training pipeline.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from bfel import data, fedavg, fedcurv, gossip, ledger, models, simulator
from bfel.data import Dataset, PartitionMode, PartitionPlan
from bfel.fedcurv import HyperParams
from bfel.models import ModelSpec, ParameterVector, build_layout
from reference import regularized_gradient, regularized_loss, shuffled_batches


def ok(line):
    print(f"ACCEPTANCE PASS: {line}")


def logistic_spec():
    return ModelSpec(kind="mlp", input_shape=(1,), classes=2, bias=False)


def logistic_probs(w, x):
    z = np.asarray(w, dtype=float) * x
    e = np.exp(z - z.max())
    return e / e.sum()


def logistic_loglik_grad(w, x, y):
    return (np.eye(2)[y] - logistic_probs(w, x)) * x


def logistic_loss_grad(w, xs, ys):
    """Mean cross-entropy gradient, closed form."""
    return -np.mean([logistic_loglik_grad(w, x, y) for x, y in zip(xs, ys)], axis=0)


def test_c01_gradient_oracle():
    """Criterion 1: regularized gradient vs finite differences, 20+ instances."""
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    checked = 0
    worst = 0.0
    while checked < 20:
        hidden = () if checked % 3 == 0 else (int(rng.integers(2, 8)),)
        spec = ModelSpec(
            kind="mlp",
            input_shape=(int(rng.integers(2, 6)),),
            classes=int(rng.integers(2, 5)),
            hidden=hidden,
        )
        if build_layout(spec).size > 200:
            continue
        lam = [0.0, 0.1, 1.0][checked % 3]
        theta_g = models.init_params(spec, int(rng.integers(1 << 30)))
        theta = theta_g.with_values(
            theta_g.values + 0.1 * rng.standard_normal(theta_g.values.size)
        )
        n = int(rng.integers(2, 6))
        x = rng.random((n,) + spec.input_shape)
        labels = rng.integers(0, spec.classes, n)
        fisher = theta.with_values(rng.random(theta.values.size))
        grad = regularized_gradient(
            spec, theta, theta_g, fisher, x, labels, lam
        )
        h = 1e-5
        fd = np.zeros_like(theta.values)
        for i in range(theta.values.size):
            vp, vm = theta.values.copy(), theta.values.copy()
            vp[i] += h
            vm[i] -= h
            fd[i] = (
                regularized_loss(
                    spec, theta.with_values(vp), theta_g, fisher, x, labels, lam
                )
                - regularized_loss(
                    spec, theta.with_values(vm), theta_g, fisher, x, labels, lam
                )
            ) / (2 * h)
        rel = np.abs(grad.values - fd) / np.maximum(np.abs(fd), 1e-8)
        worst = max(worst, float(rel.max()))
        checked += 1
    elapsed = time.monotonic() - start
    assert worst < 1e-5
    assert elapsed < 10.0
    ok(f"C1 gradient oracle: {checked} instances, max rel err {worst:.2e}, "
       f"{elapsed:.1f}s")


def test_c02_fisher_oracle():
    """Criterion 2: Fisher diagonal vs brute-force squared-gradient average."""
    w = np.array([0.6, -0.3])
    xs = [0.8, -1.5, 2.0]
    ys = [1, 0, 1]
    # independent brute force: closed-form logistic gradients, squared, averaged
    expected = np.mean(
        [logistic_loglik_grad(w, x, y) ** 2 for x, y in zip(xs, ys)], axis=0
    )
    ds = Dataset(np.array(xs).reshape(-1, 1), np.array(ys), 2)
    params = ParameterVector(w, build_layout(logistic_spec()))
    got = fedcurv.compute_fisher_diagonal(logistic_spec(), params, ds)
    err = float(np.abs(got.values - expected).max())
    assert err < 1e-10
    ok(f"C2 fisher oracle: max abs err {err:.2e}")


def test_c03_algebraic_identities():
    """Criterion 3: lambda-zero equivalence, zero penalty, fixed point, 1/eps."""
    spec = ModelSpec(kind="mlp", input_shape=(2,), classes=2, hidden=(3,))
    theta_g = models.init_params(spec, 0)
    ds = data.synth_blobs(2, 8, 2, 0.3, seed=1)
    hp = HyperParams(lam=0.0, eta_local=0.1, local_epochs=3, batch_size=5)
    fisher = fedcurv.compute_fisher_diagonal(spec, theta_g, ds)
    [curv] = fedcurv.local_train(spec, theta_g, [fisher], [ds], hp, seeds=[7])
    # reference: plain mini-batch SGD, written out here
    plain, rng = theta_g, np.random.default_rng(7)
    for _ in range(hp.local_epochs):
        for idx in shuffled_batches(len(ds), hp.batch_size, rng):
            _, grad = models.loss_and_grad(
                spec, plain, ds.samples[idx], ds.labels[idx]
            )
            plain = plain.with_values(plain.values - hp.eta_local * grad.values)
    assert np.array_equal(curv.values, plain.values)

    plain_loss, _ = models.loss_and_grad(spec, theta_g, ds.samples, ds.labels)
    assert regularized_loss(
        spec, theta_g, theta_g, fisher, ds.samples, ds.labels, lam=5.0
    ) == plain_loss

    theta = ParameterVector(np.array([0.2, -0.2]), build_layout(logistic_spec()))
    hp = HyperParams(eta_global=1.0, epsilon=1e-8)

    def step(theta, fisher_vals, grad_vals):
        update = fedcurv.ClientUpdate(
            0, 0, theta, 1,
            fisher=theta.with_values(np.array(fisher_vals)),
            gradient=theta.with_values(np.array(grad_vals)),
        )
        return fedcurv.server_step(theta, [update], hp)

    out = step(theta, [1.0, 2.0], [0.0, 0.0])
    assert np.array_equal(out.values, theta.values)

    # from theta = 0 with g = 1 and eta = 1 the step is -1/(F + eps)
    inv = -step(theta.with_values(np.zeros(2)), [0.0, 3.0], [1.0, 1.0]).values
    assert inv[0] == 1.0 / 1e-8
    ok("C3 algebraic identities: lambda-0 bitwise, zero penalty, fixed point, 1/eps")


def test_c04_one_round_end_to_end_oracle():
    """Criterion 4: run_round vs straight-line evaluation of the protocol."""
    spec = logistic_spec()
    layout = build_layout(spec)
    w0 = np.array([0.5, -0.4])
    client_data = [
        ([0.9, -1.2, 0.3], [0, 1, 0]),
        ([1.5, -0.7, 2.0, -0.2, 0.6], [1, 0, 1, 1, 0]),
    ]
    datasets = [
        Dataset(np.array(xs).reshape(-1, 1), np.array(ys), 2)
        for xs, ys in client_data
    ]
    hp = HyperParams(
        lam=0.1, local_epochs=1, eta_local=0.05, eta_global=0.2,
        epsilon=1e-6, batch_size=8, client_fraction=1.0,
    )
    rng = np.random.default_rng(5)
    theta, updates, _ = fedcurv.run_round(
        spec, ParameterVector(w0, layout), 0, datasets, hp, rng
    )

    # straight-line: fisher at anchor, one full-batch step, server gradient,
    # unweighted means, damped inverse, scaled global step
    fishers, grads = [], []
    for xs, ys in client_data:
        f_k = np.mean(
            [logistic_loglik_grad(w0, x, y) ** 2 for x, y in zip(xs, ys)], axis=0
        )
        theta_local = w0 - hp.eta_local * logistic_loss_grad(w0, xs, ys)
        g_k = logistic_loss_grad(theta_local, xs, ys)
        fishers.append(f_k)
        grads.append(g_k)
    f_global = np.mean(fishers, axis=0)
    g_global = np.mean(grads, axis=0)
    theta_new = w0 - hp.eta_global * (1.0 / (f_global + hp.epsilon)) * g_global

    err = float(np.abs(theta.values - theta_new).max())
    assert err < 1e-10
    ok(f"C4 one-round oracle: max abs err {err:.2e}")


def test_c04_fedavg_one_round_oracle():
    """Criterion 4, FedAvg steps: run_round vs a sample-weighted average."""
    spec = logistic_spec()
    w0 = np.array([0.5, -0.4])
    client_data = [
        ([0.9, -1.2, 0.3], [0, 1, 0]),
        ([1.5, -0.7, 2.0, -0.2, 0.6], [1, 0, 1, 1, 0]),
    ]
    datasets = [
        Dataset(np.array(xs).reshape(-1, 1), np.array(ys), 2)
        for xs, ys in client_data
    ]
    # lam is set to show that FedAvg ignores the anchor penalty
    hp = HyperParams(lam=0.7, local_epochs=1, eta_local=0.05, batch_size=8)
    theta, updates, _ = fedcurv.run_round(
        spec, ParameterVector(w0, build_layout(spec)), 0, datasets, hp,
        np.random.default_rng(5),
        client_step=fedavg.client_round, server_step=fedavg.server_step,
    )

    # straight-line: one full-batch plain step per client, then the mean of
    # the local models weighted by sample count
    n_total = sum(len(xs) for xs, _ in client_data)
    theta_new = sum(
        len(xs) / n_total * (w0 - hp.eta_local * logistic_loss_grad(w0, xs, ys))
        for xs, ys in client_data
    )

    assert [u.sample_count for u in updates] == [3, 5]
    err = float(np.abs(theta.values - theta_new).max())
    assert err < 1e-10
    ok(f"C4 FedAvg one-round oracle: max abs err {err:.2e}")


def _digits_as_idx(tmp_path):
    sklearn_datasets = pytest.importorskip("sklearn.datasets")
    digits = sklearn_datasets.load_digits()
    full = Dataset(digits.images / 16.0, digits.target, 10)
    img, lab = tmp_path / "digits-images.idx", tmp_path / "digits-labels.idx"
    data.save_idx(full, img, lab)
    return data.load_idx(img, lab)


def _trend_run(algo, train, test, seed, hp, spec, rounds=20):
    clients = data.partition(
        train, PartitionPlan(5, PartitionMode.NONIID_SHARDS, 2, seed)
    )
    theta = models.init_params(spec, seed)
    rng = np.random.default_rng([seed, 2])
    steps = {} if algo == "fedcurv" else dict(
        client_step=fedavg.client_round, server_step=fedavg.server_step
    )
    accs, divs = [], []
    for round_no in range(rounds):
        theta, _, m = fedcurv.run_round(
            spec, theta, round_no, clients, hp, rng, test_set=test, **steps
        )
        accs.append(m["global_accuracy"])
        divs.append(m["divergence"])
    return accs[-1], float(np.mean(divs[9:]))


TREND_HP = HyperParams(
    lam=0.1, local_epochs=1, eta_local=0.003, eta_global=0.02,
    epsilon=1e-3, batch_size=10, client_fraction=1.0,
)


def test_c05_desk_scale_trend_surrogate(tmp_path):
    """Criterion 5 (surrogate): digits via IDX, 5 non-iid clients, 20 rounds."""
    full = _digits_as_idx(tmp_path)
    spec = ModelSpec(kind="mlp", input_shape=(8, 8), classes=10, hidden=(64,))
    finals, div_pairs = [], []
    for seed in (0, 1, 2):
        order = np.random.default_rng([seed, 1]).permutation(len(full))
        train = full.subset(np.sort(order[:1400]))
        test = full.subset(np.sort(order[1400:1700]))
        fc_acc, fc_div = _trend_run("fedcurv", train, test, seed, TREND_HP, spec)
        _, fa_div = _trend_run("fedavg", train, test, seed, TREND_HP, spec)
        finals.append(fc_acc)
        div_pairs.append((fc_div, fa_div))
    mean_final = float(np.mean(finals))
    assert mean_final >= 0.85
    for fc_div, fa_div in div_pairs:
        assert fc_div < fa_div
    ok(f"C5 trend (digits surrogate): fedcurv mean final acc {mean_final:.3f}, "
       f"divergence below fedavg in all {len(div_pairs)} seeds")


@pytest.mark.skipif(
    not os.environ.get("BFEL_MNIST_DIR"),
    reason="set BFEL_MNIST_DIR to a directory with the mnist IDX files",
)
def test_c05_desk_scale_trend_mnist():
    """Criterion 5: mnist MLP, 5 non-iid clients, 20 rounds, 3 seeds."""
    start = time.monotonic()
    root = Path(os.environ["BFEL_MNIST_DIR"])
    train_full = data.load_idx(
        root / "train-images-idx3-ubyte", root / "train-labels-idx1-ubyte"
    )
    test_full = data.load_idx(
        root / "t10k-images-idx3-ubyte", root / "t10k-labels-idx1-ubyte"
    )
    spec = ModelSpec(kind="mlp", input_shape=(28, 28), classes=10, hidden=(64,))
    finals, div_pairs = [], []
    for seed in (0, 1, 2):
        # desk scale: seeded subsample keeps the 3-seed run under 10 minutes
        order = np.random.default_rng([seed, 1]).permutation(len(train_full))
        train = train_full.subset(np.sort(order[:10_000]))
        t_order = np.random.default_rng([seed, 3]).permutation(len(test_full))
        test = test_full.subset(np.sort(t_order[:2_000]))
        fc_acc, fc_div = _trend_run("fedcurv", train, test, seed, TREND_HP, spec)
        _, fa_div = _trend_run("fedavg", train, test, seed, TREND_HP, spec)
        finals.append(fc_acc)
        div_pairs.append((fc_div, fa_div))
    mean_final = float(np.mean(finals))
    elapsed = time.monotonic() - start
    assert mean_final >= 0.85
    for fc_div, fa_div in div_pairs:
        assert fc_div < fa_div
    assert elapsed < 600
    ok(f"C5 trend (mnist): fedcurv mean final acc {mean_final:.3f}, "
       f"divergence below fedavg in all seeds, {elapsed:.0f}s")


def test_c06_ledger_tamper_suite():
    """Criterion 6: 100 random single-bit flips, all detected, no false negatives."""
    proposer = ledger.keygen(0)
    sender = ledger.keygen(1)
    chain = ledger.new_chain()
    for b in range(10):
        txs = [
            ledger.make_transaction(
                ledger.TxKind.CLIENT_UPDATE,
                ledger.digest_global_model(np.array([float(b), 1.0]), b),
                sender,
                timestamp=b,
            )
        ]
        chain = ledger.append_block(chain, txs, proposer, timestamp=b)
    blob = ledger.export_chain(chain)
    offsets = []
    pos = 12
    for i in range(len(chain)):
        length = int.from_bytes(blob[pos : pos + 4], "little")
        offsets.append((i, pos, pos + 4 + length))
        pos += 4 + length
    rng = np.random.default_rng(123)
    detected = 0
    for _ in range(100):
        block_idx, lo, hi = offsets[int(rng.integers(len(offsets)))]
        mutated = bytearray(blob)
        mutated[int(rng.integers(lo, hi))] ^= 1 << int(rng.integers(8))
        valid, bad = ledger.validate_chain_bytes(bytes(mutated))
        assert not valid
        assert bad is not None and bad <= block_idx
        detected += 1
    ok(f"C6 tamper suite: {detected}/100 flips detected, no false negatives")


def test_c07_pos_fairness():
    """Criterion 7: stakes [3,1], 10^4 draws, node-0 frequency 0.75 +/- 0.03."""
    hits = sum(
        ledger.select_proposer([3.0, 1.0], r, seed=42) == 0 for r in range(10_000)
    )
    freq = hits / 10_000
    assert abs(freq - 0.75) <= 0.03
    ok(f"C7 PoS fairness: node-0 frequency {freq:.4f}")


def test_c08_gossip_coverage():
    """Criterion 8: full coverage on 100 seeds, median hops <= 14, gossip faster."""
    hops = []
    for seed in range(100):
        net = gossip.GossipNetwork(node_count=128, fanout=2, seed=seed)
        h, times = gossip.gossip_broadcast(net, origin=0)
        assert np.all(np.isfinite(times))  # 100% coverage
        hops.append(h)
    median = float(np.median(hops))
    assert median <= 14
    net = gossip.GossipNetwork(node_count=50, fanout=2, seed=0)
    with_gossip = gossip.measure_latencies(50, net=net, use_gossip=True, seed=0)
    without = gossip.measure_latencies(50, net=net, use_gossip=False, seed=0)
    assert with_gossip.total_elapsed_ms <= without.total_elapsed_ms
    ok(f"C8 gossip: 100/100 coverage, median hops {median:.0f}, "
       f"gossip {with_gossip.total_elapsed_ms:.0f}ms <= "
       f"sequential {without.total_elapsed_ms:.0f}ms")


def test_c09_concurrency_latency_direction():
    """Criterion 9: median end-to-end at T=100 >= T=5 on the simulated clock."""
    lo = gossip.measure_latencies(5, seed=0).median_end_to_end()
    hi = gossip.measure_latencies(100, seed=0).median_end_to_end()
    assert hi >= lo
    ok(f"C9 latency direction: median(T=100)={hi:.1f}ms >= median(T=5)={lo:.1f}ms")


def test_c10_experiment_determinism(tmp_path):
    """Criterion 10: identical config + seed => byte-identical metrics CSV."""
    config = simulator.ExperimentConfig(
        algorithm="fedcurv", model="mlp", mlp_hidden=(6,),
        dataset="synth", synth_classes=3, synth_per_class=40, synth_dim=3,
        clients=3, partition="noniid_shards", rounds=3,
        eta_local=0.05, eta_global=0.02, batch_size=8,
        seed=11, output_dir=str(tmp_path / "a"),
    )
    simulator.run_experiment(config)
    first = (tmp_path / "a" / "metrics.csv").read_bytes()
    simulator.run_experiment(config)
    assert (tmp_path / "a" / "metrics.csv").read_bytes() == first
    ok("C10 determinism: rerun produced byte-identical metrics CSV")
