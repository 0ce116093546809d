from dataclasses import replace

import numpy as np
import pytest

from bfel import data, fedavg, fedcurv, models
from bfel.fedcurv import AggregationError, ClientUpdate, HyperParams
from bfel.models import ModelSpec, ParameterVector, build_layout
from reference import fisher_diagonal, loss_and_grad


def tiny_spec():
    return ModelSpec(kind="mlp", input_shape=(1,), classes=2, bias=False)


def plain_update(client_id, theta_vals, n, layout):
    return ClientUpdate(
        client_id=client_id,
        round=0,
        theta_local=ParameterVector(np.asarray(theta_vals, dtype=float), layout),
        sample_count=n,
    )


class TestLocalTrainPlain:
    """FedAvg's client step: unregularized local SGD, whatever lam says."""

    def setup_method(self):
        self.spec = ModelSpec(kind="mlp", input_shape=(2,), classes=2, hidden=(3,))
        self.theta = models.init_params(self.spec, 0)
        self.ds = data.synth_blobs(2, 6, 2, 0.3, seed=1)

    def train(self, hp, seed):
        [update] = fedavg.client_round(
            self.spec, self.theta, [self.ds], hp, [4], 0, [seed]
        )
        assert update.client_id == 4
        assert update.fisher is None
        assert update.sample_count == len(self.ds)
        return update.theta_local

    def test_zero_lr_is_identity(self):
        hp = HyperParams(eta_local=0.0, local_epochs=2, batch_size=4)
        out = self.train(hp, 0)
        assert np.array_equal(out.values, self.theta.values)

    def test_matches_fedcurv_lambda_zero(self):
        hp = HyperParams(lam=0.5, eta_local=0.1, local_epochs=3, batch_size=5)
        fisher = fisher_diagonal(self.spec, self.theta, self.ds)
        plain = self.train(hp, 77)
        [curv] = fedcurv.local_train(
            self.spec, self.theta, [fisher], [self.ds], replace(hp, lam=0.0), [77]
        )
        assert np.array_equal(plain.values, curv.values)

    def test_single_full_batch_step(self):
        hp = HyperParams(eta_local=0.2, local_epochs=1, batch_size=len(self.ds))
        out = self.train(hp, 0)
        _, grad = loss_and_grad(
            self.spec, self.theta, self.ds.samples, self.ds.labels
        )
        assert np.allclose(out.values, self.theta.values - 0.2 * grad.values)


def average_models(updates, layout):
    """FedAvg's server step, which needs the global model only for its layout."""
    theta = ParameterVector(np.full(layout.size, np.nan), layout)
    return fedavg.server_step(theta, updates, HyperParams())


class TestAverageModels:
    def setup_method(self):
        self.layout = build_layout(tiny_spec())

    def test_equal_counts_arithmetic_mean(self):
        us = [
            plain_update(0, [0.0, 2.0], 5, self.layout),
            plain_update(1, [2.0, 0.0], 5, self.layout),
        ]
        assert np.array_equal(average_models(us, self.layout).values, [1.0, 1.0])

    def test_single_client(self):
        u = plain_update(0, [3.0, -1.0], 9, self.layout)
        assert np.array_equal(average_models([u], self.layout).values, [3.0, -1.0])

    def test_weighted_counts(self):
        us = [
            plain_update(0, [0.0, 0.0], 1, self.layout),
            plain_update(1, [4.0, 4.0], 3, self.layout),
        ]
        assert np.array_equal(average_models(us, self.layout).values, [3.0, 3.0])

    def test_permutation_invariant(self):
        rng = np.random.default_rng(2)
        us = [
            plain_update(i, rng.standard_normal(2), int(rng.integers(1, 10)), self.layout)
            for i in range(6)
        ]
        assert np.array_equal(
            average_models(us, self.layout).values,
            average_models(us[::-1], self.layout).values,
        )

    def test_idempotent_on_identical_models(self):
        us = [plain_update(i, [1.5, -2.5], i + 1, self.layout) for i in range(4)]
        assert np.allclose(average_models(us, self.layout).values, [1.5, -2.5])

    def test_empty_error(self):
        with pytest.raises(AggregationError):
            average_models([], self.layout)

    def test_mixed_rounds_rejected(self):
        us = [
            plain_update(0, [1.0, 1.0], 2, self.layout),
            replace(plain_update(1, [1.0, 1.0], 2, self.layout), round=1),
        ]
        with pytest.raises(AggregationError, match="multiple rounds"):
            average_models(us, self.layout)
