from dataclasses import replace

import numpy as np
import pytest

from bfel import data, fedavg, fedcurv, models
from bfel.fedcurv import AggregationError, ClientUpdates, HyperParams
from bfel.models import ModelSpec, ParameterVector, build_layout
from reference import fisher_diagonal, loss_and_grad


def tiny_spec():
    return ModelSpec(kind="mlp", input_shape=(1,), classes=2)


class TestLocalTrainPlain:
    """FedAvg's client step: unregularized local SGD, whatever lam says."""

    def setup_method(self):
        self.spec = ModelSpec(kind="mlp", input_shape=(2,), classes=2, hidden=(3,))
        self.theta = models.init_params(self.spec, 0)
        self.ds = data.synth_blobs(2, 6, 2, 0.3, seed=1)

    def train(self, hp, seed):
        thetas, fishers = fedavg.client_round(
            self.spec, self.theta, [self.ds], hp, [4], 0, [seed]
        )
        assert fishers is None
        assert thetas.shape == (1, self.theta.layout.size)
        return self.theta.with_values(thetas[0])

    def test_zero_lr_is_identity(self):
        hp = HyperParams(eta_local=0.0, local_epochs=2, batch_size=4)
        out = self.train(hp, 0)
        assert np.array_equal(out.values, self.theta.values)

    def test_matches_fedcurv_lambda_zero(self):
        hp = HyperParams(lam=0.5, eta_local=0.1, local_epochs=3, batch_size=5)
        fisher = fisher_diagonal(self.spec, self.theta, self.ds)
        plain = self.train(hp, 77)
        [curv] = fedcurv.local_train(
            self.spec, self.theta, fisher.values[None], [self.ds],
            replace(hp, lam=0.0), [77],
        )
        assert np.array_equal(plain.values, curv)

    def test_single_full_batch_step(self):
        hp = HyperParams(eta_local=0.2, local_epochs=1, batch_size=len(self.ds))
        out = self.train(hp, 0)
        _, grad = loss_and_grad(
            self.spec, self.theta, self.ds.samples, self.ds.labels
        )
        assert np.allclose(out.values, self.theta.values - 0.2 * grad.values)


def average_models(thetas, counts):
    """FedAvg's server step over clients 0..K-1 of round 0, which needs the
    global model only for its layout."""
    layout = build_layout(tiny_spec())
    theta = ParameterVector(np.full(layout.size, np.nan), layout)
    updates = ClientUpdates(
        0, tuple(range(len(counts))), tuple(counts), np.asarray(thetas, dtype=float)
    )
    return fedavg.server_step(theta, updates, HyperParams())


class TestAverageModels:
    def test_equal_counts_arithmetic_mean(self):
        out = average_models([[0.0, 2.0, 1.0, -1.0], [2.0, 0.0, 3.0, 1.0]], [5, 5])
        assert np.array_equal(out.values, [1.0, 1.0, 2.0, 0.0])

    def test_single_client(self):
        out = average_models([[3.0, -1.0, 0.5, 2.0]], [9])
        assert np.array_equal(out.values, [3.0, -1.0, 0.5, 2.0])

    def test_weighted_counts(self):
        out = average_models([[0.0, 0.0, 0.0, 0.0], [4.0, 4.0, 4.0, -4.0]], [1, 3])
        assert np.array_equal(out.values, [3.0, 3.0, 3.0, -3.0])

    def test_idempotent_on_identical_models(self):
        out = average_models([[1.5, -2.5, 0.25, 4.0]] * 4, [1, 2, 3, 4])
        assert np.allclose(out.values, [1.5, -2.5, 0.25, 4.0])

    def test_empty_error(self):
        with pytest.raises(AggregationError):
            average_models(np.empty((0, 4)), [])
