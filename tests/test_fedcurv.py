import numpy as np
import pytest

from bfel import data, fedcurv, models
from bfel.data import Dataset
from bfel.fedcurv import (
    AggregationError,
    ClientUpdate,
    EmptyDatasetError,
    HyperParams,
)
from bfel.models import (
    LayoutMismatchError,
    ModelSpec,
    ParameterVector,
    build_layout,
)
from reference import (
    regularized_gradient,
    regularized_loss,
    sgd_step,
    shuffled_batches,
)


def logistic_spec():
    # softmax over 2 classes on scalar input, no bias: 2 trainable weights
    return ModelSpec(kind="mlp", input_shape=(1,), classes=2, bias=False)


def logistic_params(w):
    return ParameterVector(np.asarray(w, dtype=float), build_layout(logistic_spec()))


def logistic_probs(w, x):
    z = np.asarray(w) * x
    e = np.exp(z - z.max())
    return e / e.sum()


def logistic_loglik_grad(w, x, y):
    onehot = np.eye(2)[y]
    return (onehot - logistic_probs(w, x)) * x


def small_dataset(seed=0, n=12, classes=3, dim=2):
    return data.synth_blobs(classes, n // classes, dim, 0.3, seed)


def make_hp(**kw):
    return HyperParams(**kw)


def plain_sgd(spec, theta, ds, hp, seed):
    """Reference: mini-batch SGD on the unregularized loss, no decay."""
    rng = np.random.default_rng(seed)
    for _ in range(hp.local_epochs):
        for idx in shuffled_batches(len(ds), hp.batch_size, rng):
            _, grad = models.loss_and_grad(spec, theta, ds.samples[idx], ds.labels[idx])
            theta = theta.with_values(theta.values - hp.eta_local * grad.values)
    return theta


class TestComputeFisher:
    def test_perfect_prediction_gives_zero_fisher(self):
        spec = ModelSpec(kind="mlp", input_shape=(1,), classes=2)
        layout = build_layout(spec)
        params = ParameterVector(np.zeros(layout.size), layout)
        pv = params.with_values(params.values.copy())
        pv.segment("fc0", "bias")[...] = [1000.0, -1000.0]
        ds = Dataset(np.ones((4, 1)), np.zeros(4, dtype=int), 2)
        f = fedcurv.compute_fisher_diagonal(spec, pv, ds)
        assert np.array_equal(f.values, np.zeros(layout.size))

    def test_logistic_brute_force_oracle(self):
        w = [0.4, -0.2]
        xs = [1.0, -2.0, 0.5]
        ys = [0, 1, 1]
        ds = Dataset(np.array(xs).reshape(-1, 1), np.array(ys), 2)
        # brute force: average of squared closed-form log-likelihood gradients
        expected = np.mean(
            [logistic_loglik_grad(w, x, y) ** 2 for x, y in zip(xs, ys)], axis=0
        )
        f = fedcurv.compute_fisher_diagonal(logistic_spec(), logistic_params(w), ds)
        assert np.allclose(f.values, expected, atol=1e-15)

    def test_duplicated_dataset_mean_invariance(self):
        spec = ModelSpec(kind="mlp", input_shape=(2,), classes=2, hidden=(3,))
        params = models.init_params(spec, 0)
        ds = small_dataset(seed=1, n=6, classes=2)
        doubled = Dataset(
            np.concatenate([ds.samples, ds.samples]),
            np.concatenate([ds.labels, ds.labels]),
            ds.class_count,
        )
        f1 = fedcurv.compute_fisher_diagonal(spec, params, ds)
        f2 = fedcurv.compute_fisher_diagonal(spec, params, doubled)
        assert np.allclose(f1.values, f2.values, atol=1e-15)

    def test_nonnegative_on_random_inputs(self):
        spec = ModelSpec(kind="mlp", input_shape=(2,), classes=3, hidden=(4,))
        for seed in range(5):
            params = models.init_params(spec, seed)
            ds = small_dataset(seed=seed)
            f = fedcurv.compute_fisher_diagonal(spec, params, ds)
            assert np.all(f.values >= 0)

    def test_empty_dataset(self):
        spec = logistic_spec()
        ds = Dataset(np.zeros((0, 1)), np.zeros(0, dtype=int), 2)
        with pytest.raises(EmptyDatasetError):
            fedcurv.compute_fisher_diagonal(spec, logistic_params([0, 0]), ds)


class TestRegularizedLoss:
    def setup_method(self):
        self.spec = ModelSpec(kind="mlp", input_shape=(2,), classes=2, hidden=(3,))
        self.theta_g = models.init_params(self.spec, 0)
        self.ds = small_dataset(seed=2, n=8, classes=2)
        self.x, self.y = self.ds.samples, self.ds.labels
        self.fisher = fedcurv.compute_fisher_diagonal(self.spec, self.theta_g, self.ds)

    def test_anchor_point_penalty_is_zero(self):
        plain, _ = models.loss_and_grad(self.spec, self.theta_g, self.x, self.y)
        reg = regularized_loss(
            self.spec, self.theta_g, self.theta_g, self.fisher, self.x, self.y, lam=2.5
        )
        assert reg == plain

    def test_lambda_zero_is_plain_loss(self):
        theta = self.theta_g.with_values(self.theta_g.values + 0.3)
        plain, _ = models.loss_and_grad(self.spec, theta, self.x, self.y)
        reg = regularized_loss(
            self.spec, theta, self.theta_g, self.fisher, self.x, self.y, lam=0.0
        )
        assert reg == plain

    def test_unit_fisher_unit_offset_adds_n(self):
        n = self.theta_g.values.size
        ones_fisher = self.theta_g.with_values(np.ones(n))
        theta = self.theta_g.with_values(self.theta_g.values + 1.0)
        plain, _ = models.loss_and_grad(self.spec, theta, self.x, self.y)
        reg = regularized_loss(
            self.spec, theta, self.theta_g, ones_fisher, self.x, self.y, lam=2.0
        )
        # (lam/2) * sum(1 * 1^2) = n for lam=2
        assert reg == pytest.approx(plain + n, rel=1e-14)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        theta = self.theta_g.with_values(
            self.theta_g.values + 0.1 * rng.standard_normal(self.theta_g.values.size)
        )
        lam = 0.7
        grad = regularized_gradient(
            self.spec, theta, self.theta_g, self.fisher, self.x, self.y, lam
        )
        h = 1e-5
        fd = np.zeros_like(theta.values)
        for i in range(theta.values.size):
            vp, vm = theta.values.copy(), theta.values.copy()
            vp[i] += h
            vm[i] -= h
            fd[i] = (
                regularized_loss(
                    self.spec, theta.with_values(vp), self.theta_g, self.fisher,
                    self.x, self.y, lam,
                )
                - regularized_loss(
                    self.spec, theta.with_values(vm), self.theta_g, self.fisher,
                    self.x, self.y, lam,
                )
            ) / (2 * h)
        rel = np.abs(grad.values - fd) / np.maximum(np.abs(fd), 1e-8)
        assert rel.max() < 1e-5

    def test_gradient_trivial_cases_equal_plain(self):
        _, plain_grad = models.loss_and_grad(self.spec, self.theta_g, self.x, self.y)
        at_anchor = regularized_gradient(
            self.spec, self.theta_g, self.theta_g, self.fisher, self.x, self.y, lam=3.0
        )
        assert np.array_equal(at_anchor.values, plain_grad.values)
        theta = self.theta_g.with_values(self.theta_g.values - 0.2)
        _, plain_off = models.loss_and_grad(self.spec, theta, self.x, self.y)
        lam_zero = regularized_gradient(
            self.spec, theta, self.theta_g, self.fisher, self.x, self.y, lam=0.0
        )
        assert np.array_equal(lam_zero.values, plain_off.values)


class TestLocalTrain:
    def setup_method(self):
        self.spec = ModelSpec(kind="mlp", input_shape=(2,), classes=2, hidden=(3,))
        self.theta_g = models.init_params(self.spec, 4)
        self.ds = small_dataset(seed=5, n=10, classes=2)
        self.fisher = fedcurv.compute_fisher_diagonal(self.spec, self.theta_g, self.ds)

    def train(self, hp, seed):
        [out] = fedcurv.local_train(
            self.spec, self.theta_g, [self.fisher], [self.ds], hp, [seed]
        )
        return out

    def test_zero_lr_returns_anchor(self):
        hp = make_hp(eta_local=0.0, local_epochs=3, batch_size=4)
        out = self.train(hp, 0)
        assert np.array_equal(out.values, self.theta_g.values)

    def test_lambda_zero_matches_plain_sgd_bitwise(self):
        hp = make_hp(lam=0.0, eta_local=0.05, local_epochs=2, batch_size=3)
        curv = self.train(hp, 42)
        plain = plain_sgd(self.spec, self.theta_g, self.ds, hp, 42)
        assert np.array_equal(curv.values, plain.values)

    def test_single_full_batch_step_closed_form(self):
        hp = make_hp(lam=0.5, eta_local=0.1, local_epochs=1, batch_size=len(self.ds))
        out = self.train(hp, 0)
        # penalty gradient vanishes at the anchor: one plain full-batch step
        _, grad = models.loss_and_grad(
            self.spec, self.theta_g, self.ds.samples, self.ds.labels
        )
        expected = self.theta_g.values - 0.1 * grad.values
        assert np.allclose(out.values, expected, atol=1e-14)


class TestServerGradient:
    def test_definitional_equality(self):
        spec = ModelSpec(kind="mlp", input_shape=(2,), classes=3, hidden=(3,))
        params = models.init_params(spec, 6)
        ds = small_dataset(seed=7)
        _, expected = models.loss_and_grad(spec, params, ds.samples, ds.labels)
        got = fedcurv.server_gradient(spec, params, ds)
        assert np.array_equal(got.values, expected.values)

    def test_logistic_closed_form(self):
        w = [0.2, -0.5]
        xs, ys = [1.0, 2.0], [0, 1]
        ds = Dataset(np.array(xs).reshape(-1, 1), np.array(ys), 2)
        expected = -np.mean(
            [logistic_loglik_grad(w, x, y) for x, y in zip(xs, ys)], axis=0
        )
        got = fedcurv.server_gradient(logistic_spec(), logistic_params(w), ds)
        assert np.allclose(got.values, expected, atol=1e-15)


def make_update(client_id, fisher_vals, grad_vals, layout, round_no=0):
    return ClientUpdate(
        client_id=client_id,
        round=round_no,
        theta_local=ParameterVector(np.zeros(layout.size), layout),
        sample_count=1,
        fisher=ParameterVector(np.asarray(fisher_vals, dtype=float), layout),
        gradient=ParameterVector(np.asarray(grad_vals, dtype=float), layout),
    )


def aggregate(updates, layout):
    """The clients' mean Fisher and gradient, from `client_sum`."""
    theta = ParameterVector(np.zeros(layout.size), layout)
    f_sum = fedcurv.client_sum(theta, updates, "fisher")
    g_sum = fedcurv.client_sum(theta, updates, "gradient")
    return (
        theta.with_values(f_sum / len(updates)),
        theta.with_values(g_sum / len(updates)),
    )


class TestAggregation:
    def setup_method(self):
        self.layout = build_layout(logistic_spec())

    def test_single_update_identity(self):
        u = make_update(0, [2.0, 0.0], [1.0, -1.0], self.layout)
        f, g = aggregate([u], self.layout)
        assert np.array_equal(f.values, [2.0, 0.0])
        assert np.array_equal(g.values, [1.0, -1.0])

    def test_elementwise_means(self):
        u1 = make_update(0, [2.0, 0.0], [1.0, -1.0], self.layout)
        u2 = make_update(1, [0.0, 2.0], [-1.0, 1.0], self.layout)
        f, g = aggregate([u1, u2], self.layout)
        assert np.array_equal(f.values, [1.0, 1.0])
        assert np.array_equal(g.values, [0.0, 0.0])

    def test_identical_updates_idempotent(self):
        us = [make_update(i, [3.0, 1.0], [0.5, 0.5], self.layout) for i in range(4)]
        assert np.allclose(aggregate(us, self.layout)[0].values, [3.0, 1.0])

    def test_three_gradients_by_hand(self):
        us = [
            make_update(0, [0, 0], [3.0, 0.0], self.layout),
            make_update(1, [0, 0], [0.0, 3.0], self.layout),
            make_update(2, [0, 0], [3.0, 3.0], self.layout),
        ]
        assert np.array_equal(aggregate(us, self.layout)[1].values, [2.0, 2.0])

    def test_permutation_invariance(self):
        rng = np.random.default_rng(8)
        us = [
            make_update(i, rng.random(2), rng.standard_normal(2), self.layout)
            for i in range(5)
        ]
        fwd = aggregate(us, self.layout)
        rev = aggregate(us[::-1], self.layout)
        assert np.array_equal(fwd[0].values, rev[0].values)
        assert np.array_equal(fwd[1].values, rev[1].values)

    def test_empty_and_mixed_round_errors(self):
        with pytest.raises(AggregationError):
            aggregate([], self.layout)
        u1 = make_update(0, [0, 0], [0, 0], self.layout, round_no=0)
        u2 = make_update(1, [0, 0], [0, 0], self.layout, round_no=1)
        with pytest.raises(AggregationError):
            aggregate([u1, u2], self.layout)


    def test_update_takes_fisher_and_gradient_together(self):
        theta = ParameterVector(np.zeros(2), self.layout)
        fisher = ParameterVector(np.ones(2), self.layout)
        with pytest.raises(ValueError, match="together"):
            ClientUpdate(0, 0, theta, 1, fisher=fisher)


def layout_check_cases():
    """One call per layout check, each given a vector of the wrong layout.

    `other` has theta's size but another layout, so only a layout check,
    not a length check, can reject it.
    """
    spec = logistic_spec()
    theta = logistic_params([0.0, 0.0])
    other = ParameterVector(np.ones(2), build_layout(
        ModelSpec(kind="mlp", input_shape=(2,), classes=1, bias=False)
    ))
    ds = Dataset(np.array([[1.0], [-1.0]]), np.array([0, 1]), 2)
    x, labels = ds.samples, ds.labels
    return {
        "vector-length": lambda: ParameterVector(np.zeros(3), theta.layout),
        "model-spec": lambda: models.loss_and_grad(spec, other, x, labels),
        "wide-thetas": lambda: models.stacked_loss_and_grad(
            spec, theta.layout, np.zeros((2, 2 + 5)), np.stack([x, x]),
            np.stack([labels, labels]),
        ),
        "client-sum": lambda: fedcurv.client_sum(
            theta, [ClientUpdate(0, 0, theta, 2, fisher=other, gradient=theta)],
            "fisher",
        ),
        "local-train": lambda: fedcurv.local_train(
            spec, theta, [other], [ds], make_hp(), [0]
        ),
    }


@pytest.mark.parametrize("case", [
    "vector-length", "model-spec", "wide-thetas", "client-sum", "local-train",
])
def test_layout_check_raises(case):
    call = layout_check_cases()[case]
    with pytest.raises(LayoutMismatchError):
        call()


def round_with_updates(theta, updates, hp):
    """The global model after a round 0 of the logistic model from theta,
    by `run_round` with a client step that returns `updates`."""

    def given_updates(spec, theta_global, datasets, hp, client_ids, round_no,
                      seeds):
        return updates

    one = Dataset(np.zeros((1, 1)), np.zeros(1, dtype=int), 2)
    new_theta, _, _ = fedcurv.run_round(
        logistic_spec(), theta, 0, [one], hp, np.random.default_rng(0),
        client_step=given_updates,
    )
    return new_theta


def server_step(theta, fisher_vals, grad_vals, eta_global, epsilon):
    """The FedCurv server step for one client update of these F and g."""
    u = make_update(0, fisher_vals, grad_vals, theta.layout)
    return round_with_updates(
        theta, [u], make_hp(eta_global=eta_global, epsilon=epsilon)
    )


class TestInvertFisher:
    """1/(F + epsilon), read off a step from theta = 0 with g = 1, eta = 1."""

    def setup_method(self):
        self.theta = ParameterVector(np.zeros(2), build_layout(logistic_spec()))

    def invert(self, fisher_vals, epsilon):
        return -server_step(self.theta, fisher_vals, [1.0, 1.0], 1.0, epsilon).values

    def test_zero_entry_gives_one_over_epsilon(self):
        inv = self.invert([0.0, 1.0], 1e-8)
        assert inv[0] == 1e8

    def test_one_minus_epsilon(self):
        eps = 1e-6
        inv = self.invert([1.0 - eps, 0.5], eps)
        assert inv[0] == 1.0

    def test_monotone_decreasing(self):
        rng = np.random.default_rng(9)
        a = rng.random(2) + 1.0
        b = a - 0.5
        inv_a = self.invert(a, 1e-8)
        inv_b = self.invert(b, 1e-8)
        assert np.all(inv_a < inv_b)
        assert np.all(np.isfinite(inv_a)) and np.all(inv_a > 0)


class TestGlobalUpdate:
    def setup_method(self):
        layout = build_layout(logistic_spec())
        self.theta = ParameterVector(np.array([1.0, -1.0]), layout)

    def test_zero_gradient_fixed_point(self):
        out = server_step(self.theta, [0.2, 0.2], [0.0, 0.0], 1.0, 1e-8)
        assert np.array_equal(out.values, self.theta.values)

    def test_constant_fisher_is_scaled_sgd(self):
        c, eps, eta = 4.0, 1e-8, 0.5
        g = np.array([1.0, -2.0])
        out = server_step(self.theta, [c, c], g, eta, eps)
        expected = self.theta.values - (eta / (c + eps)) * g
        assert np.allclose(out.values, expected, rtol=1e-15)

    def test_high_curvature_moves_less(self):
        out = server_step(self.theta, [10.0, 0.1], [1.0, 1.0], 0.1, 1e-8)
        moves = np.abs(out.values - self.theta.values)
        assert moves[0] < moves[1]


class TestRunRound:
    def setup_method(self):
        self.spec = ModelSpec(kind="mlp", input_shape=(2,), classes=2, hidden=(3,))
        self.theta = models.init_params(self.spec, 10)
        self.ds = small_dataset(seed=11, n=12, classes=2)

    def test_identical_clients_symmetry(self):
        rng = np.random.default_rng(12)
        # per-client seeds differ, so use one full-batch epoch to make the
        # two identical-data trajectories comparable
        hp = make_hp(lam=0.1, eta_local=0.05, local_epochs=1, batch_size=len(self.ds))
        _, updates, _ = fedcurv.run_round(
            self.spec, self.theta, 0, [self.ds, self.ds], hp, rng
        )
        assert len(updates) == 2
        assert np.allclose(updates[0].theta_local.values, updates[1].theta_local.values)
        assert np.allclose(updates[0].fisher.values, updates[1].fisher.values)
        _, agg = aggregate(updates, self.theta.layout)
        assert np.allclose(agg.values, updates[0].gradient.values)

    def test_deterministic_under_fixed_seed(self):
        hp = make_hp(lam=0.1, eta_local=0.05, local_epochs=2, batch_size=4,
                     client_fraction=0.5)
        clients = [small_dataset(seed=s, n=9, classes=2) for s in range(4)]
        runs = []
        for _ in range(2):
            rng = np.random.default_rng(99)
            theta, _, metrics = fedcurv.run_round(
                self.spec, self.theta, 0, clients, hp, rng
            )
            runs.append((theta.values, metrics["sampled_clients"]))
        assert np.array_equal(runs[0][0], runs[1][0])
        assert runs[0][1] == runs[1][1]

    def test_single_client_zero_lr_pure_scaled_step(self):
        hp = make_hp(lam=0.1, eta_local=0.0, local_epochs=1, batch_size=4,
                     client_fraction=0.5, eta_global=0.3, epsilon=1e-8)
        rng = np.random.default_rng(13)
        theta, updates, _ = fedcurv.run_round(
            self.spec, self.theta, 0, [self.ds, self.ds], hp, rng
        )
        assert len(updates) == 1
        u = updates[0]
        # theta_local == theta_global, so g_k is evaluated at the anchor
        assert np.array_equal(u.theta_local.values, self.theta.values)
        f_inv = 1.0 / (u.fisher.values + hp.epsilon)
        expected = self.theta.values - 0.3 * f_inv * u.gradient.values
        assert np.allclose(theta.values, expected, atol=1e-15)

    def test_infinite_weight_is_an_evaluation_error(self):
        def infinite_clients(spec, theta_global, datasets, hp, client_ids,
                             round_no, seeds):
            values = theta_global.values.copy()
            values[-1] = np.inf  # the last logit's bias
            return [
                ClientUpdate(cid, round_no, theta_global.with_values(values), len(ds))
                for cid, ds in zip(client_ids, datasets)
            ]

        def keep_global(theta, updates, hp):
            return theta

        with np.errstate(all="ignore"), pytest.raises(
            fedcurv.RoundNumericalError
        ) as info:
            fedcurv.run_round(
                self.spec, self.theta, 0, [self.ds, self.ds], make_hp(),
                np.random.default_rng(0),
                test_set=self.ds, client_step=infinite_clients,
                server_step=keep_global,
            )
        assert info.value.phase == "evaluation"
        assert info.value.client_ids == ()
        assert "logits not finite" in str(info.value)

    def test_anchor_fixed_point_when_all_gradients_zero(self):
        layout = build_layout(logistic_spec())
        theta = ParameterVector(np.array([0.5, -0.5]), layout)
        us = [make_update(i, [1.0, 2.0], [0.0, 0.0], layout) for i in range(3)]
        hp = make_hp(eta_global=1.0, epsilon=1e-8)
        out = round_with_updates(theta, us, hp)
        assert np.array_equal(out.values, theta.values)


LOCKSTEP_SPECS = {
    "mlp": ModelSpec(kind="mlp", input_shape=(3,), classes=3, hidden=(5,)),
    "cnn": ModelSpec(
        kind="cnn", input_shape=(10, 10), classes=3, conv_channels=(2, 3),
        fc_hidden=5,
    ),
}


def ragged_clients(spec, sizes, seed):
    rng = np.random.default_rng(seed)
    return [
        Dataset(
            rng.random((n,) + spec.input_shape),
            rng.integers(0, spec.classes, n),
            spec.classes,
        )
        for n in sizes
    ]


def train_alone(spec, theta_g, fisher, ds, hp, seed, epoch_offset):
    """Reference: one client's anchored SGD, one loss_and_grad per batch."""
    rng = np.random.default_rng(seed)
    theta = theta_g
    for epoch in range(hp.local_epochs):
        lr = models.lr_schedule(hp.eta_local, epoch_offset + epoch)
        for idx in shuffled_batches(len(ds), hp.batch_size, rng):
            _, grad = models.loss_and_grad(spec, theta, ds.samples[idx], ds.labels[idx])
            penalty = hp.lam * fisher.values * (theta.values - theta_g.values)
            theta = sgd_step(theta, grad.with_values(grad.values + penalty), lr)
    return theta


class TestLocalTrainInputs:
    @pytest.mark.parametrize("kind", sorted(LOCKSTEP_SPECS))
    def test_read_only_datasets_and_anchor_are_read_and_kept(self, kind):
        spec = LOCKSTEP_SPECS[kind]
        theta_g = models.init_params(spec, 5)
        clients = ragged_clients(spec, [10, 7, 10, 9], seed=6)
        fishers = [
            fedcurv.compute_fisher_diagonal(spec, theta_g, ds) for ds in clients
        ]
        hp = make_hp(lam=0.3, eta_local=0.05, local_epochs=2, batch_size=4)
        writable = fedcurv.local_train(
            spec, theta_g, fishers, clients, hp, [11, 12, 13, 14]
        )
        arrays = [theta_g.values] + [f.values for f in fishers]
        arrays += [a for ds in clients for a in (ds.samples, ds.labels)]
        before = [a.tobytes() for a in arrays]
        for a in arrays:
            a.flags.writeable = False
        thetas = fedcurv.local_train(
            spec, theta_g, fishers, clients, hp, [11, 12, 13, 14]
        )
        assert [a.tobytes() for a in arrays] == before
        for got, want in zip(thetas, writable):
            assert np.array_equal(got.values, want.values)


class TestLockstep:
    """Stacked local SGD gives every client the bits it would get alone."""

    # batch 4 divides no size; the decay step falls between epochs 4 and 5
    HP = dict(lam=0.3, eta_local=0.05, local_epochs=2, batch_size=4,
              lr_decay=True)
    ROUND = 2  # the decay schedule starts at epoch 4

    def spy_widths(self, monkeypatch):
        stacked, widths = models.stacked_loss_and_grad, []

        def spy(spec, layout, thetas, inputs, labels):
            widths.append(len(thetas))
            return stacked(spec, layout, thetas, inputs, labels)

        monkeypatch.setattr(models, "stacked_loss_and_grad", spy)
        return widths

    def assert_alone(self, spec, theta_g, clients, hp, pairs):
        for cid, seed, theta in pairs:
            ds = clients[cid]
            fisher = fedcurv.compute_fisher_diagonal(spec, theta_g, ds)
            alone = train_alone(
                spec, theta_g, fisher, ds, hp, seed, self.ROUND * hp.local_epochs
            )
            assert np.array_equal(theta.values, alone.values), cid

    @pytest.mark.parametrize("kind", sorted(LOCKSTEP_SPECS))
    def test_round_with_sampling_matches_training_alone(self, kind, monkeypatch):
        spec = LOCKSTEP_SPECS[kind]
        theta_g = models.init_params(spec, 3)
        clients = ragged_clients(spec, [10, 7, 10, 9, 6, 11, 5, 10], seed=8)
        hp = make_hp(client_fraction=0.5, **self.HP)
        widths = self.spy_widths(monkeypatch)
        _, updates, _ = fedcurv.run_round(
            spec, theta_g, self.ROUND, clients, hp, np.random.default_rng(21)
        )
        monkeypatch.undo()
        rng = np.random.default_rng(21)
        sampled = fedcurv.sample_clients(len(clients), 0.5, rng)
        seeds = [int(rng.integers(2**63)) for _ in sampled]
        assert [u.client_id for u in updates] == sampled
        assert max(widths) > 1
        self.assert_alone(
            spec, theta_g, clients, hp,
            [(u.client_id, s, u.theta_local) for u, s in zip(updates, seeds)],
        )

    @pytest.mark.parametrize("kind", sorted(LOCKSTEP_SPECS))
    def test_ragged_groups_match_training_alone(self, kind, monkeypatch):
        # batch sizes per step: (4,4,4,4), (4,3,4,4), (2,-,2,1); a call
        # holds at most 10 samples (the largest client), so the calls are
        # [0,1] [2,3] | [0,2] [3] [1] | [0,2] [3]: runs of clients, gathered
        # non-adjacent pairs and lone clients
        spec = LOCKSTEP_SPECS[kind]
        theta_g = models.init_params(spec, 5)
        clients = ragged_clients(spec, [10, 7, 10, 9], seed=6)
        hp = make_hp(**self.HP)
        fishers = [
            fedcurv.compute_fisher_diagonal(spec, theta_g, ds) for ds in clients
        ]
        seeds = [11, 12, 13, 14]
        widths = self.spy_widths(monkeypatch)
        thetas = fedcurv.local_train(
            spec, theta_g, fishers, clients, hp, seeds, self.ROUND
        )
        monkeypatch.undo()
        assert widths == [2, 2, 2, 1, 1, 2, 1] * 2
        self.assert_alone(spec, theta_g, clients, hp, zip(range(4), seeds, thetas))

    def test_blow_up_names_the_sampled_client(self, monkeypatch):
        spec = LOCKSTEP_SPECS["mlp"]
        clients = ragged_clients(spec, [8] * 6, seed=2)
        rng = np.random.default_rng(4)
        sampled = fedcurv.sample_clients(6, 0.5, np.random.default_rng(4))
        target = sampled[-1]
        assert sampled.index(target) != target  # position and id differ
        stacked = models.stacked_loss_and_grad

        def poisoned(spec, layout, thetas, inputs, labels):
            losses, grads = stacked(spec, layout, thetas, inputs, labels)
            for row, x in enumerate(inputs):
                if np.isin(x, clients[target].samples).all():
                    grads[row, 0] = np.inf
            return losses, grads

        monkeypatch.setattr(models, "stacked_loss_and_grad", poisoned)
        hp = make_hp(client_fraction=0.5, batch_size=4)
        theta = models.init_params(spec, 0)
        with pytest.raises(fedcurv.RoundNumericalError) as info:
            fedcurv.run_round(spec, theta, 6, clients, hp, rng)
        assert info.value.phase == "local SGD"
        assert info.value.client_ids == (target,)
        assert info.value.round == 6
        assert str(info.value).startswith(f"round 7, local SGD, client(s) [{target}]")
