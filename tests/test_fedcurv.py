import numpy as np
import pytest

from bfel import data, fedavg, fedcurv, models
from bfel.data import Dataset
from bfel.fedcurv import AggregationError, ClientUpdates, HyperParams
from bfel.models import (
    LayoutMismatchError,
    ModelSpec,
    ParameterVector,
    ShapeMismatchError,
    build_layout,
)
from reference import (
    Update,
    divergence,
    fedavg_average,
    fedcurv_merge,
    fisher_diagonal,
    loss_and_grad,
    regularized_gradient,
    regularized_loss,
    sgd_step,
    shuffled_batches,
    slot,
)


def logistic_spec():
    # softmax over 2 classes on scalar input: weights w_0, w_1, biases b_0, b_1
    return ModelSpec(kind="mlp", input_shape=(1,), classes=2)


def pair_spec():
    # one weight and one bias: a model of two coordinates
    return ModelSpec(kind="mlp", input_shape=(1,), classes=1)


def logistic_params(w):
    return ParameterVector(np.asarray(w, dtype=float), build_layout(logistic_spec()))


def logistic_probs(w, x):
    z = np.asarray(w[:2]) * x + np.asarray(w[2:])
    e = np.exp(z - z.max())
    return e / e.sum()


def logistic_loglik_grad(w, x, y):
    # d log p(y|x) / dw_c = (1[y == c] - p_c) * x, and / db_c without the x
    delta = np.eye(2)[y] - logistic_probs(w, x)
    return np.concatenate([delta * x, delta])


def small_dataset(seed=0, n=12, classes=3, dim=2):
    return data.synth_blobs(classes, n // classes, dim, 0.3, seed)


def make_hp(**kw):
    return HyperParams(**kw)


def plain_sgd(spec, theta, ds, hp, seed):
    """Reference: mini-batch SGD on the unregularized loss, no decay."""
    rng = np.random.default_rng(seed)
    for _ in range(hp.local_epochs):
        for idx in shuffled_batches(len(ds), hp.batch_size, rng):
            _, grad = loss_and_grad(spec, theta, ds.samples[idx], ds.labels[idx])
            theta = theta.with_values(theta.values - hp.eta_local * grad.values)
    return theta


class TestComputeFisher:
    def test_perfect_prediction_gives_zero_fisher(self):
        spec = ModelSpec(kind="mlp", input_shape=(1,), classes=2)
        layout = build_layout(spec)
        params = ParameterVector(np.zeros(layout.size), layout)
        pv = params.with_values(params.values.copy())
        slot(pv, "fc0", "bias")[...] = [1000.0, -1000.0]
        ds = Dataset(np.ones((4, 1)), np.zeros(4, dtype=int), 2)
        f = fisher_diagonal(spec, pv, ds)
        assert np.array_equal(f.values, np.zeros(layout.size))

    def test_logistic_brute_force_oracle(self):
        w = [0.4, -0.2, 0.1, -0.3]
        xs = [1.0, -2.0, 0.5]
        ys = [0, 1, 1]
        ds = Dataset(np.array(xs).reshape(-1, 1), np.array(ys), 2)
        # brute force: average of squared closed-form log-likelihood gradients
        expected = np.mean(
            [logistic_loglik_grad(w, x, y) ** 2 for x, y in zip(xs, ys)], axis=0
        )
        f = fisher_diagonal(logistic_spec(), logistic_params(w), ds)
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
        f1 = fisher_diagonal(spec, params, ds)
        f2 = fisher_diagonal(spec, params, doubled)
        assert np.allclose(f1.values, f2.values, atol=1e-15)

    def test_nonnegative_on_random_inputs(self):
        spec = ModelSpec(kind="mlp", input_shape=(2,), classes=3, hidden=(4,))
        for seed in range(5):
            params = models.init_params(spec, seed)
            ds = small_dataset(seed=seed)
            f = fisher_diagonal(spec, params, ds)
            assert np.all(f.values >= 0)

    def test_empty_dataset(self):
        # the model call's input check rejects it before any division by n
        spec = logistic_spec()
        ds = Dataset(np.zeros((0, 1)), np.zeros(0, dtype=int), 2)
        with pytest.raises(ShapeMismatchError, match="at least one sample"):
            fisher_diagonal(spec, logistic_params([0, 0, 0, 0]), ds)


class TestRegularizedLoss:
    def setup_method(self):
        self.spec = ModelSpec(kind="mlp", input_shape=(2,), classes=2, hidden=(3,))
        self.theta_g = models.init_params(self.spec, 0)
        self.ds = small_dataset(seed=2, n=8, classes=2)
        self.x, self.y = self.ds.samples, self.ds.labels
        self.fisher = fisher_diagonal(self.spec, self.theta_g, self.ds)

    def test_anchor_point_penalty_is_zero(self):
        plain, _ = loss_and_grad(self.spec, self.theta_g, self.x, self.y)
        reg = regularized_loss(
            self.spec, self.theta_g, self.theta_g, self.fisher, self.x, self.y, lam=2.5
        )
        assert reg == plain

    def test_lambda_zero_is_plain_loss(self):
        theta = self.theta_g.with_values(self.theta_g.values + 0.3)
        plain, _ = loss_and_grad(self.spec, theta, self.x, self.y)
        reg = regularized_loss(
            self.spec, theta, self.theta_g, self.fisher, self.x, self.y, lam=0.0
        )
        assert reg == plain

    def test_unit_fisher_unit_offset_adds_n(self):
        n = self.theta_g.values.size
        ones_fisher = self.theta_g.with_values(np.ones(n))
        theta = self.theta_g.with_values(self.theta_g.values + 1.0)
        plain, _ = loss_and_grad(self.spec, theta, self.x, self.y)
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
        _, plain_grad = loss_and_grad(self.spec, self.theta_g, self.x, self.y)
        at_anchor = regularized_gradient(
            self.spec, self.theta_g, self.theta_g, self.fisher, self.x, self.y, lam=3.0
        )
        assert np.array_equal(at_anchor.values, plain_grad.values)
        theta = self.theta_g.with_values(self.theta_g.values - 0.2)
        _, plain_off = loss_and_grad(self.spec, theta, self.x, self.y)
        lam_zero = regularized_gradient(
            self.spec, theta, self.theta_g, self.fisher, self.x, self.y, lam=0.0
        )
        assert np.array_equal(lam_zero.values, plain_off.values)


class TestLocalTrain:
    def setup_method(self):
        self.spec = ModelSpec(kind="mlp", input_shape=(2,), classes=2, hidden=(3,))
        self.theta_g = models.init_params(self.spec, 4)
        self.ds = small_dataset(seed=5, n=10, classes=2)
        self.fisher = fisher_diagonal(self.spec, self.theta_g, self.ds)

    def train(self, hp, seed, round_no=0):
        [out] = fedcurv.local_train(
            self.spec, self.theta_g, self.fisher.values[None], [self.ds], hp,
            [seed], round_no,
        )
        return self.theta_g.with_values(out)

    def test_zero_lr_returns_anchor(self):
        hp = make_hp(eta_local=0.0, local_epochs=3, batch_size=4)
        out = self.train(hp, 0)
        assert np.array_equal(out.values, self.theta_g.values)

    def test_lambda_zero_matches_plain_sgd_bitwise(self):
        hp = make_hp(lam=0.0, eta_local=0.05, local_epochs=2, batch_size=3)
        curv = self.train(hp, 42)
        plain = plain_sgd(self.spec, self.theta_g, self.ds, hp, 42)
        assert np.array_equal(curv.values, plain.values)

    def test_decay_far_into_a_run_finishes(self):
        # round 3235 starts the schedule at epoch 3235, past 3**647 > float max;
        # a rate of about 2e-311 moves no weight by more than 1e-300
        hp = make_hp(eta_local=0.01, batch_size=4, lr_decay=True)
        out = self.train(hp, 0, round_no=3235)
        assert np.allclose(out.values, self.theta_g.values, rtol=0, atol=1e-300)

    def test_single_full_batch_step_closed_form(self):
        hp = make_hp(lam=0.5, eta_local=0.1, local_epochs=1, batch_size=len(self.ds))
        out = self.train(hp, 0)
        # penalty gradient vanishes at the anchor: one plain full-batch step
        _, grad = loss_and_grad(
            self.spec, self.theta_g, self.ds.samples, self.ds.labels
        )
        expected = self.theta_g.values - 0.1 * grad.values
        assert np.allclose(out.values, expected, atol=1e-14)

    def test_empty_client_takes_no_step(self):
        # local_train has no empty check of its own: a round's Fisher pass
        # or its ClientUpdates rejects an empty client (TestEmptyClient)
        hp = make_hp(lam=0.5, eta_local=0.1, local_epochs=2, batch_size=4)
        empty = self.ds.subset(np.arange(0))
        trained, anchor = fedcurv.local_train(
            self.spec, self.theta_g, np.stack([self.fisher.values] * 2),
            [self.ds, empty], hp, [3, 4],
        )
        assert anchor.tobytes() == self.theta_g.values.tobytes()
        assert trained.tobytes() == self.train(hp, 3).values.tobytes()

    def test_logistic_gradient_closed_form(self):
        # the plain gradient local SGD steps on, against its closed form
        w = [0.2, -0.5, -0.1, 0.3]
        xs, ys = [1.0, 2.0], [0, 1]
        ds = Dataset(np.array(xs).reshape(-1, 1), np.array(ys), 2)
        expected = -np.mean(
            [logistic_loglik_grad(w, x, y) for x, y in zip(xs, ys)], axis=0
        )
        _, got = loss_and_grad(
            logistic_spec(), logistic_params(w), ds.samples, ds.labels
        )
        assert np.allclose(got.values, expected, atol=1e-15)


class TestEmptyClient:
    """A round with an empty client raises, under either algorithm."""

    def setup_method(self):
        self.spec = ModelSpec(kind="mlp", input_shape=(2,), classes=2, hidden=(3,))
        self.theta = models.init_params(self.spec, 4)
        self.ds = small_dataset(seed=5, n=10, classes=2)
        self.hp = make_hp(eta_local=0.1, batch_size=4)

    def run_round(self, algo):
        empty = self.ds.subset(np.arange(0))
        return fedcurv.run_round(
            self.spec, self.theta, 0, [self.ds, empty], self.hp,
            np.random.default_rng(0), client_step=algo.client_round,
            server_step=algo.server_step,
        )

    def test_fedcurv_fisher_pass_rejects_it(self):
        with pytest.raises(ShapeMismatchError, match="at least one sample"):
            self.run_round(fedcurv)

    def test_fedavg_update_rejects_it(self):
        # FedAvg's local SGD hands the empty client the anchor back; the
        # round's ClientUpdates then rejects its sample count
        with pytest.raises(AggregationError, match="sample_count must be >= 1"):
            self.run_round(fedavg)


class TestClientRound:
    def test_fisher_is_the_mean_squared_gradient_at_the_anchor(self):
        # a client's F_k is the mean squared log-likelihood gradient at the
        # anchor, not at its trained model
        spec = ModelSpec(kind="mlp", input_shape=(2,), classes=3, hidden=(3,))
        params = models.init_params(spec, 6)
        ds = small_dataset(seed=7)
        thetas, fishers = fedcurv.client_round(
            spec, params, [ds], make_hp(batch_size=5), [3], 0, [8]
        )
        assert thetas.shape == fishers.shape == (1, params.layout.size)
        assert not np.array_equal(thetas[0], params.values)
        fisher = fisher_diagonal(spec, params, ds)
        assert np.array_equal(fishers[0], fisher.values)

    def stiff_round(self, capsys, round_no, lr_decay):
        # lam puts eta_local * lam * max F_k at 3 for this client and anchor
        spec = ModelSpec(kind="mlp", input_shape=(2,), classes=3, hidden=(3,))
        params = models.init_params(spec, 6)
        ds = small_dataset(seed=7)
        max_f = float(fisher_diagonal(spec, params, ds).values.max())
        hp = make_hp(lam=3 / (0.01 * max_f), eta_local=0.01, batch_size=12,
                     lr_decay=lr_decay)
        fedcurv.client_round(spec, params, [ds], hp, [0], round_no, [8])
        return capsys.readouterr().err

    def test_stiffness_warning_reads_the_rounds_first_rate(self, capsys):
        # with one epoch a round, round 6 starts the schedule at epoch 5:
        # eta_local / 3 takes the product from 3 to 1, so no step can overshoot
        assert self.stiff_round(capsys, 5, lr_decay=True) == ""
        assert self.stiff_round(capsys, 4, lr_decay=True).startswith(
            "warning: round 5: eta_local * lambda * max Fisher = 3 >= 2"
        )
        assert self.stiff_round(capsys, 5, lr_decay=False).startswith(
            "warning: round 6: eta_local * lambda * max Fisher = 3 >= 2"
        )


def means(fishers, thetas):
    """The clients' mean Fisher and mean model, from `row_sum`."""
    fishers, thetas = np.asarray(fishers, float), np.asarray(thetas, float)
    return (fedcurv.row_sum(fishers) / len(fishers),
            fedcurv.row_sum(thetas) / len(thetas))


class TestAggregation:
    def test_single_update_identity(self):
        f, theta = means([[2.0, 0.0]], [[1.0, -1.0]])
        assert np.array_equal(f, [2.0, 0.0])
        assert np.array_equal(theta, [1.0, -1.0])

    def test_elementwise_means(self):
        f, theta = means([[2.0, 0.0], [0.0, 2.0]], [[1.0, -1.0], [-1.0, 1.0]])
        assert np.array_equal(f, [1.0, 1.0])
        assert np.array_equal(theta, [0.0, 0.0])

    def test_identical_updates_idempotent(self):
        f, theta = means([[3.0, 1.0]] * 4, [[0.5, 0.5]] * 4)
        assert np.allclose(f, [3.0, 1.0])
        assert np.allclose(theta, [0.5, 0.5])

    def test_three_models_by_hand(self):
        thetas = [[3.0, 0.0], [0.0, 3.0], [3.0, 3.0]]
        assert np.array_equal(means([[0, 0]] * 3, thetas)[1], [2.0, 2.0])

    def test_per_coordinate_weights(self):
        # each weight multiplies its own row, coordinate by coordinate
        thetas = np.array([[4.0, 8.0], [1.0, 2.0]])
        weights = [np.array([0.5, 0.25]), np.array([1.0, 0.0])]
        assert np.array_equal(fedcurv.row_sum(thetas, weights), [3.0, 2.0])


def layout_check_cases():
    """One call per layout check, each given a vector of the wrong layout.

    `other` has theta's size but another layout, so only a layout check,
    not a length check, can reject it.
    """
    spec = logistic_spec()
    theta = logistic_params([0.0, 0.0, 0.0, 0.0])
    other = ParameterVector(np.ones(4), build_layout(
        ModelSpec(kind="mlp", input_shape=(3,), classes=1)
    ))
    ds = Dataset(np.array([[1.0], [-1.0]]), np.array([0, 1]), 2)
    x, labels = ds.samples, ds.labels
    return {
        "vector-length": lambda: ParameterVector(np.zeros(3), theta.layout),
        "model-spec": lambda: models.forward(spec, other, x, labels),
        "model-spec-accuracy": lambda: models.accuracy(spec, other, x, labels),
        "model-spec-fisher": lambda: models.sum_squared_loglik_grads(
            spec, other, x, labels
        ),
        "model-spec-per-sample": lambda: models.per_sample_loglik_grad(
            spec, other, x[:1], labels[:1]
        ),
        "model-spec-fedavg": lambda: fedcurv.local_train(
            spec, other, None, [ds], make_hp(), [0]
        ),
        "wide-thetas": lambda: models.stacked_loss_and_grad(
            spec, np.zeros((2, 4 + 5)), np.stack([x, x]),
            np.stack([labels, labels]),
        ),
        "local-train": lambda: fedcurv.local_train(
            spec, theta, np.ones((1, 3)), [ds], make_hp(), [0]
        ),
    }


@pytest.mark.parametrize("case", [
    "vector-length", "model-spec", "model-spec-accuracy", "model-spec-fisher",
    "model-spec-per-sample", "model-spec-fedavg", "wide-thetas", "local-train",
])
def test_layout_check_raises(case):
    call = layout_check_cases()[case]
    with pytest.raises(LayoutMismatchError):
        call()


def merge(theta, fishers, thetas, eta_global=1.0, epsilon=1e-8):
    """The global model after a round 0 of the two-coordinate model from theta,
    by `run_round` with a client step that returns the stacks of F_k and
    theta_k, client k having id k."""

    def given_stacks(spec, theta_global, datasets, hp, client_ids, round_no,
                     seeds):
        return np.asarray(thetas, dtype=float), np.asarray(fishers, dtype=float)

    one = Dataset(np.zeros((1, 1)), np.zeros(1, dtype=int), 1)
    new_theta, _, _ = fedcurv.run_round(
        pair_spec(), theta, 0, [one] * len(thetas),
        make_hp(eta_global=eta_global, epsilon=epsilon), np.random.default_rng(0),
        client_step=given_stacks,
    )
    return new_theta.values


class TestMerge:
    """theta + eta_global * (merged - theta), merged the Fisher-weighted
    mean of the client models."""

    def setup_method(self):
        layout = build_layout(pair_spec())
        self.theta = ParameterVector(np.array([1.0, -1.0]), layout)

    def test_two_clients_by_hand(self):
        # coordinate 0: (3 * 1 + 1 * 5 + eps * (1 + 5)) / (3 + 1 + 2 eps);
        # coordinate 1: (0 * 2 + 2 * 4 + eps * (2 + 4)) / (0 + 2 + 2 eps)
        eps = 1e-3
        out = merge(self.theta, [[3.0, 0.0], [1.0, 2.0]], [[1.0, 2.0], [5.0, 4.0]],
                    epsilon=eps)
        want = [(8 + 6 * eps) / (4 + 2 * eps), (8 + 6 * eps) / (2 + 2 * eps)]
        assert np.allclose(out, want, rtol=1e-15)

    def test_high_fisher_client_pulls_its_coordinate_towards_its_model(self):
        # client 0 is sure of coordinate 0 and client 1 of coordinate 1
        out = merge(self.theta, [[100.0, 0.01], [0.01, 100.0]],
                    [[1.0, 1.0], [-1.0, -1.0]])
        assert out[0] > 0.999 and out[1] < -0.999

    def test_equal_fishers_give_the_plain_mean(self):
        out = merge(self.theta, [[0.5, 7.0]] * 3, [[1.0, 2.0], [2.0, 4.0], [6.0, 0.0]])
        assert np.allclose(out, [3.0, 2.0], rtol=1e-15)

    def test_zero_fisher_coordinate_gets_the_plain_mean(self):
        # epsilon alone weighs coordinate 1, equally for every client
        out = merge(self.theta, [[1.0, 0.0], [9.0, 0.0]], [[0.0, 1.0], [1.0, 4.0]])
        assert out[1] == pytest.approx(2.5, rel=1e-15)
        assert out[0] == pytest.approx(0.9, rel=1e-8)  # (9 + eps) / (10 + 2 eps)

    def test_identical_client_models_are_a_fixed_point(self):
        out = merge(self.theta, [[0.2, 3.0], [1e-9, 0.0]], [self.theta.values] * 2)
        assert np.allclose(out, self.theta.values, rtol=1e-15, atol=0)

    def test_stays_within_the_client_models(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            k = int(rng.integers(1, 6))
            fishers = rng.random((k, 2)) * 10.0 ** rng.integers(-12, 4, size=(k, 2))
            thetas = rng.standard_normal((k, 2))
            out = merge(self.theta, fishers, thetas)
            # a few roundings of the largest magnitude, |theta| = 1 included
            slack = 4 * np.finfo(float).eps * np.maximum(np.abs(thetas).max(axis=0), 1)
            assert np.all(out >= thetas.min(axis=0) - slack)
            assert np.all(out <= thetas.max(axis=0) + slack)


class TestDivergence:
    @pytest.mark.parametrize("spec", [
        ModelSpec(kind="mlp", input_shape=(64,), classes=10, hidden=(64,)),
        ModelSpec(kind="cnn", input_shape=(28, 28), classes=10, hidden=(64,)),
    ])
    @pytest.mark.parametrize("clients", [1, 3, 10])
    def test_equals_stacked_norm_formula_bitwise(self, spec, clients):
        size = build_layout(spec).size
        rng = np.random.default_rng(clients)
        stack = rng.standard_normal(size) + 10.0 ** rng.integers(
            -3, 3, size=(clients, 1)
        ) * rng.standard_normal((clients, size))
        mean = fedcurv.row_sum(stack) / clients
        want = float(np.linalg.norm(stack - mean, axis=1).mean())
        got = fedcurv.divergence(stack)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


def random_uploads(k, seed):
    """A round's (K, P) stacks of models and Fisher diagonals, and sample
    counts: one model row is all -0.0, coordinate 1 is -0.0 in every
    model, coordinate 2 is 0 in every F_k, and magnitudes span decades."""
    rng = np.random.default_rng(seed)
    thetas = rng.standard_normal((k, 40)) * 10.0 ** rng.integers(-6, 6, (k, 40))
    fishers = rng.random((k, 40)) * 10.0 ** rng.integers(-9, 3, (k, 40))
    thetas[k // 2] = -0.0
    thetas[:, 1] = -0.0
    fishers[:, 2] = 0.0
    return thetas, fishers, [int(n) for n in rng.integers(1, 50, k)]


class TestSumOrder:
    """The stacked server steps and divergence add the rows in client-id
    order from +0.0: the same bits as the per-client loops of reference.py,
    on any numpy build."""

    @pytest.mark.parametrize("k", [1, 2, 5, 16])
    def test_stacked_steps_match_the_client_loops(self, k):
        thetas, fishers, counts = random_uploads(k, seed=k)
        rng = np.random.default_rng(100 + k)
        # 7 * 5 weights and 5 biases: the uploads' 40 coordinates
        layout = build_layout(ModelSpec(kind="mlp", input_shape=(7,), classes=5))
        theta = ParameterVector(rng.standard_normal(layout.size), layout)
        ids = sorted(int(i) for i in rng.choice(100, size=k, replace=False))
        # the loops sort by client id, so hand them the clients reversed
        loose = [Update(*u) for u in zip(ids, counts, thetas, fishers)][::-1]
        hp = make_hp(eta_global=0.7, epsilon=1e-6)
        pairs = [
            (fedcurv.server_step(
                theta, ClientUpdates(3, tuple(ids), tuple(counts), thetas, fishers), hp
            ).values, fedcurv_merge(theta.values, loose, 0.7, 1e-6)),
            (fedavg.server_step(
                theta, ClientUpdates(3, tuple(ids), tuple(counts), thetas), hp
            ).values, fedavg_average(loose)),
            (np.float64(fedcurv.divergence(thetas)), np.float64(divergence(loose))),
        ]
        for got, want in pairs:
            assert got.tobytes() == want.tobytes()

    def test_an_all_negative_zero_coordinate_sums_to_positive_zero(self):
        thetas, _, _ = random_uploads(3, seed=0)
        assert np.signbit(thetas[:, 1]).all()
        assert not np.signbit(fedcurv.row_sum(thetas)[1])


def mangled(algo, change):
    """algo's client step with its (thetas, fishers) passed through change."""
    def client_step(*args, **kwargs):
        return change(*algo.client_round(*args, **kwargs))
    return client_step


def extra_column(stack):
    return np.hstack([stack, stack[:, :1]])


# case: (algorithm, change to the client step's stacks, sampled ids or
# None, the error the round raises)
BAD_CLIENT_STEPS = {
    "thetas-missing-a-row": (fedcurv, lambda t, f: (t[1:], f), None,
                             LayoutMismatchError),
    "thetas-one-row-only": (fedcurv, lambda t, f: (t[0], f), None,
                            LayoutMismatchError),
    "thetas-extra-column": (fedcurv, lambda t, f: (extra_column(t), f), None,
                            LayoutMismatchError),
    "fedavg-thetas-extra-column": (fedavg, lambda t, f: (extra_column(t), f),
                                   None, LayoutMismatchError),
    "fishers-missing-a-row": (fedcurv, lambda t, f: (t, f[1:]), None,
                              LayoutMismatchError),
    "fishers-extra-column": (fedcurv, lambda t, f: (t, extra_column(f)), None,
                             LayoutMismatchError),
    "ids-descending": (fedcurv, lambda t, f: (t, f), [2, 0], AggregationError),
    "ids-repeated": (fedavg, lambda t, f: (t, f), [1, 1], AggregationError),
}


@pytest.mark.parametrize("case", list(BAD_CLIENT_STEPS))
def test_bad_client_step_is_a_typed_error(case, monkeypatch):
    algo, change, ids, error = BAD_CLIENT_STEPS[case]
    if ids is not None:
        monkeypatch.setattr(fedcurv, "sample_clients", lambda n, f, rng: ids)

    def server_step(theta, updates, hp):
        raise AssertionError("the server step ran")

    spec = ModelSpec(kind="mlp", input_shape=(2,), classes=2, hidden=(3,))
    clients = [small_dataset(seed=s, n=6, classes=2) for s in range(3)]
    with pytest.raises(error):
        fedcurv.run_round(
            spec, models.init_params(spec, 0), 0, clients, make_hp(batch_size=4),
            np.random.default_rng(0), client_step=mangled(algo, change),
            server_step=server_step,
        )


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
        theta, updates, _ = fedcurv.run_round(
            self.spec, self.theta, 0, [self.ds, self.ds], hp, rng
        )
        assert updates.client_ids == (0, 1)
        assert np.allclose(updates.thetas[0], updates.thetas[1])
        assert np.allclose(updates.fishers[0], updates.fishers[1])
        assert np.allclose(theta.values, updates.thetas[0], rtol=1e-14)

    def test_deterministic_under_fixed_seed(self):
        hp = make_hp(lam=0.1, eta_local=0.05, local_epochs=2, batch_size=4,
                     client_fraction=0.5)
        clients = [small_dataset(seed=s, n=9, classes=2) for s in range(4)]
        runs = []
        for _ in range(2):
            rng = np.random.default_rng(99)
            theta, updates, _ = fedcurv.run_round(
                self.spec, self.theta, 0, clients, hp, rng
            )
            runs.append((theta.values, updates.client_ids))
        assert np.array_equal(runs[0][0], runs[1][0])
        assert runs[0][1] == runs[1][1]

    def test_single_client_zero_lr_is_a_fixed_point(self):
        hp = make_hp(lam=0.1, eta_local=0.0, local_epochs=1, batch_size=4,
                     client_fraction=0.5, eta_global=0.3, epsilon=1e-8)
        rng = np.random.default_rng(13)
        theta, updates, _ = fedcurv.run_round(
            self.spec, self.theta, 0, [self.ds, self.ds], hp, rng
        )
        assert len(updates.client_ids) == 1
        assert np.array_equal(updates.thetas[0], self.theta.values)
        # merging one client's model gives that model: the anchor
        assert np.allclose(theta.values, self.theta.values, rtol=1e-15, atol=0)

    def test_infinite_weight_is_an_evaluation_error(self):
        def infinite_clients(spec, theta_global, datasets, hp, client_ids,
                             round_no, seeds):
            thetas = np.tile(theta_global.values, (len(datasets), 1))
            thetas[:, -1] = np.inf  # the last logit's bias
            return thetas, None

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


class TestSampleClients:
    # the 891 pairs of a two-decimal fraction and 100, 200, ..., 900 clients
    # hold 51 of the 141 pairs (up to 1,000 clients) whose float product
    # rounds up past an integer, such as 0.07 * 100 = 7.000000000000001
    @pytest.mark.parametrize("clients", range(100, 1000, 100))
    def test_count_is_the_ceiling_of_the_exact_product(self, clients):
        rng = np.random.default_rng(clients)
        for percent in range(1, 100):
            sampled = fedcurv.sample_clients(clients, percent / 100, rng)
            assert len(sampled) == max(1, -(-percent * clients // 100)), percent
            assert sampled == sorted(set(sampled))
            assert 0 <= sampled[0] and sampled[-1] < clients

    @pytest.mark.parametrize("fraction, clients, count", [
        (0.07, 100, 7), (0.14, 50, 7), (0.28, 25, 7), (0.55, 100, 55),
        (0.5, 4, 2), (0.67, 3, 3), (0.01, 7, 1), (1.0, 10, 10),
    ])
    def test_count_examples(self, fraction, clients, count):
        rng = np.random.default_rng(0)
        assert len(fedcurv.sample_clients(clients, fraction, rng)) == count


LOCKSTEP_SPECS = {
    "mlp": ModelSpec(kind="mlp", input_shape=(3,), classes=3, hidden=(5,)),
    "cnn": ModelSpec(kind="cnn", input_shape=(10, 10), classes=3, hidden=(5,)),
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
            _, grad = loss_and_grad(spec, theta, ds.samples[idx], ds.labels[idx])
            penalty = hp.lam * fisher.values * (theta.values - theta_g.values)
            theta = sgd_step(theta, grad.with_values(grad.values + penalty), lr)
    return theta


class TestLocalTrainInputs:
    @pytest.mark.parametrize("kind", sorted(LOCKSTEP_SPECS))
    def test_read_only_datasets_and_anchor_are_read_and_kept(self, kind):
        spec = LOCKSTEP_SPECS[kind]
        theta_g = models.init_params(spec, 5)
        clients = ragged_clients(spec, [10, 7, 10, 9], seed=6)
        fishers = np.stack(
            [fisher_diagonal(spec, theta_g, ds).values for ds in clients]
        )
        hp = make_hp(lam=0.3, eta_local=0.05, local_epochs=2, batch_size=4)
        writable = fedcurv.local_train(
            spec, theta_g, fishers, clients, hp, [11, 12, 13, 14]
        )
        arrays = [theta_g.values, fishers]
        arrays += [a for ds in clients for a in (ds.samples, ds.labels)]
        before = [a.tobytes() for a in arrays]
        for a in arrays:
            a.flags.writeable = False
        thetas = fedcurv.local_train(
            spec, theta_g, fishers, clients, hp, [11, 12, 13, 14]
        )
        assert [a.tobytes() for a in arrays] == before
        assert np.array_equal(thetas, writable)


class TestLockstep:
    """Stacked local SGD gives every client the bits it would get alone."""

    # batch 4 divides no size; the decay step falls between epochs 4 and 5
    HP = dict(lam=0.3, eta_local=0.05, local_epochs=2, batch_size=4,
              lr_decay=True)
    ROUND = 2  # the decay schedule starts at epoch 4

    def spy_widths(self, monkeypatch):
        stacked, widths = models.stacked_loss_and_grad, []

        def spy(spec, thetas, inputs, labels):
            widths.append(len(thetas))
            return stacked(spec, thetas, inputs, labels)

        monkeypatch.setattr(models, "stacked_loss_and_grad", spy)
        return widths

    def assert_alone(self, spec, theta_g, clients, hp, pairs):
        for cid, seed, theta in pairs:
            ds = clients[cid]
            fisher = fisher_diagonal(spec, theta_g, ds)
            alone = train_alone(
                spec, theta_g, fisher, ds, hp, seed, self.ROUND * hp.local_epochs
            )
            assert np.array_equal(theta, alone.values), cid

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
        assert updates.client_ids == tuple(sampled)
        assert max(widths) > 1
        self.assert_alone(
            spec, theta_g, clients, hp, zip(sampled, seeds, updates.thetas)
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
        fishers = np.stack(
            [fisher_diagonal(spec, theta_g, ds).values for ds in clients]
        )
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

        def poisoned(spec, thetas, inputs, labels):
            losses, grads = stacked(spec, thetas, inputs, labels)
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
