import math
import tracemalloc

import numpy as np
import pytest

from bfel import data, fedcurv, models
from bfel.models import (
    ModelSpec,
    NumericalError,
    ParameterVector,
    ShapeMismatchError,
    build_layout,
)
from reference import sgd_step

SWEEP_CNN = ModelSpec(
    kind="cnn", input_shape=(10, 10), classes=3, conv_channels=(2, 3), fc_hidden=5
)


def random_batch(spec, n, seed):
    rng = np.random.default_rng(seed)
    x = rng.random((n,) + spec.input_shape)
    y = rng.integers(0, spec.classes, n)
    return x, y


def fd_gradient(f, values, h=1e-5):
    """Central finite differences of a scalar function of a flat vector."""
    out = np.zeros_like(values)
    for i in range(values.size):
        vp = values.copy()
        vp[i] += h
        vm = values.copy()
        vm[i] -= h
        out[i] = (f(vp) - f(vm)) / (2 * h)
    return out


def max_rel_err(got, want, floor=1e-8):
    return float(np.max(np.abs(got - want) / np.maximum(np.abs(want), floor)))


class TestForward:
    def test_identity_linear_mlp(self):
        spec = ModelSpec(kind="mlp", input_shape=(2,), classes=2)
        layout = build_layout(spec)
        values = np.zeros(layout.size)
        params = ParameterVector(values, layout)
        params.segment("fc0", "weight")[...] = np.eye(2)
        logits = models.forward(spec, params, np.array([[1.0, 2.0]]), np.array([0]))
        assert np.array_equal(logits, [[1.0, 2.0]])

    def test_deterministic(self):
        spec = ModelSpec(kind="mlp", input_shape=(3,), classes=4, hidden=(5,))
        params = models.init_params(spec, 3)
        x, y = random_batch(spec, 6, 4)
        a = models.forward(spec, params, x, y)
        b = models.forward(spec, params, x, y)
        assert np.array_equal(a, b)

    def test_hand_computed_222_mlp(self):
        spec = ModelSpec(kind="mlp", input_shape=(2,), classes=2, hidden=(2,))
        params = models.init_params(spec, 0)
        w0 = np.array([[1.0, -2.0], [0.5, 1.0]])
        b0 = np.array([0.1, -0.1])
        w1 = np.array([[2.0, 0.0], [-1.0, 1.0]])
        b1 = np.array([0.0, 0.5])
        params.segment("fc0", "weight")[...] = w0
        params.segment("fc0", "bias")[...] = b0
        params.segment("fc1", "weight")[...] = w1
        params.segment("fc1", "bias")[...] = b1
        x = np.array([1.0, 3.0])
        hidden = np.maximum(x @ w0 + b0, 0.0)
        expected = hidden @ w1 + b1
        logits = models.forward(spec, params, x[None], np.array([0]))
        assert np.allclose(logits[0], expected, rtol=0, atol=0)

    def test_shape_mismatch_names_input(self):
        spec = ModelSpec(kind="mlp", input_shape=(3,), classes=2)
        params = models.init_params(spec, 0)
        with pytest.raises(ShapeMismatchError, match="input"):
            models.forward(spec, params, np.array([[1.0, 2.0]]), np.array([0]))

    def test_label_out_of_range(self):
        spec = ModelSpec(kind="mlp", input_shape=(2,), classes=2)
        params = models.init_params(spec, 0)
        with pytest.raises(ShapeMismatchError):
            models.forward(spec, params, np.array([[1.0, 2.0]]), np.array([5]))


class TestLoss:
    def test_uniform_logits_loss_is_log_c(self):
        for c in (2, 5, 10):
            spec = ModelSpec(kind="mlp", input_shape=(3,), classes=c)
            layout = build_layout(spec)
            params = ParameterVector(np.zeros(layout.size), layout)
            loss, _ = models.loss_and_grad(spec, params, *random_batch(spec, 4, c))
            assert loss == pytest.approx(math.log(c), abs=1e-14)

    def test_gradient_matches_finite_differences(self):
        spec = ModelSpec(kind="mlp", input_shape=(2,), classes=2, hidden=(2,))
        params = models.init_params(spec, 11)
        x, y = random_batch(spec, 4, 12)
        _, grad = models.loss_and_grad(spec, params, x, y)

        def f(v):
            loss, _ = models.loss_and_grad(spec, params.with_values(v), x, y)
            return loss

        fd = fd_gradient(f, params.values)
        assert max_rel_err(grad.values, fd) < 1e-6

    def test_duplicated_batch_mean_invariance(self):
        spec = ModelSpec(kind="mlp", input_shape=(3,), classes=3, hidden=(4,))
        params = models.init_params(spec, 5)
        rng = np.random.default_rng(6)
        x = rng.random((1, 3))
        l1, g1 = models.loss_and_grad(spec, params, x, np.array([1]))
        l2, g2 = models.loss_and_grad(
            spec, params, np.repeat(x, 7, axis=0), np.array([1] * 7)
        )
        assert l1 == pytest.approx(l2, rel=1e-14)
        assert np.allclose(g1.values, g2.values, rtol=1e-13, atol=1e-15)

    def test_softmax_rows_normalized(self):
        spec = ModelSpec(kind="mlp", input_shape=(4,), classes=6, hidden=(8,))
        params = models.init_params(spec, 7)
        logits = models.forward(spec, params, *random_batch(spec, 9, 8))
        probs = np.exp(models._log_softmax(logits))
        assert np.max(np.abs(probs.sum(axis=1) - 1.0)) < 1e-12


class TestPerSampleGrad:
    def test_mean_of_per_sample_grads(self):
        spec = ModelSpec(kind="mlp", input_shape=(2,), classes=3, hidden=(3,))
        params = models.init_params(spec, 1)
        x, y = random_batch(spec, 5, 2)
        _, batch_grad = models.loss_and_grad(spec, params, x, y)
        acc = np.zeros_like(params.values)
        for i in range(len(y)):
            acc += models.per_sample_loglik_grad(
                spec, params, x[i : i + 1], y[i : i + 1]
            ).values
        assert np.allclose(acc / len(y), -batch_grad.values, atol=1e-14)

    def test_perfect_prediction_zero_gradient(self):
        # huge margin toward the true label makes softmax numerically one-hot
        spec = ModelSpec(kind="mlp", input_shape=(2,), classes=2)
        layout = build_layout(spec)
        params = ParameterVector(np.zeros(layout.size), layout)
        params.segment("fc0", "bias")[...] = [1000.0, -1000.0]
        g = models.per_sample_loglik_grad(
            spec, params, np.array([[1.0, 1.0]]), np.array([0])
        )
        assert np.array_equal(g.values, np.zeros_like(g.values))

    def test_logistic_closed_form(self):
        # two-parameter softmax on scalar input reduces to logistic regression:
        # d log p(y|x) / dw_c = (1[y == c] - p_c) * x
        spec = ModelSpec(kind="mlp", input_shape=(1,), classes=2, bias=False)
        layout = build_layout(spec)
        w = np.array([0.3, -0.7])
        params = ParameterVector(w, layout)
        x, y = 1.7, 1
        z = w * x
        p = np.exp(z - z.max())
        p /= p.sum()
        expected = (np.array([0.0, 1.0]) - p) * x
        g = models.per_sample_loglik_grad(spec, params, np.array([[x]]), np.array([y]))
        assert np.allclose(g.values, expected, atol=1e-15)


class TestAccuracy:
    def test_constant_logits_balanced_ten_classes(self):
        # all-zero model: every row ties, argmax resolves to class 0
        spec = ModelSpec(kind="mlp", input_shape=(4,), classes=10)
        layout = build_layout(spec)
        params = ParameterVector(np.zeros(layout.size), layout)
        rng = np.random.default_rng(0)
        x, y = rng.random((100, 4)), np.repeat(np.arange(10), 10)
        assert models.accuracy(spec, params, x, y) == 0.1

    def test_hand_labeled_fixture_three_of_four(self):
        # identity model: logits == inputs, prediction = argmax of the row
        spec = ModelSpec(kind="mlp", input_shape=(3,), classes=3)
        layout = build_layout(spec)
        params = ParameterVector(np.zeros(layout.size), layout)
        pv = params.with_values(params.values.copy())
        pv.segment("fc0", "weight")[...] = np.eye(3)
        x = np.array(
            [[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0], [1.0, 0, 0]]
        )
        labels = np.array([0, 1, 2, 1])  # last one predicted 0, labeled 1
        assert models.accuracy(spec, pv, x, labels) == 0.75

    def test_separable_blobs_trainable_to_perfect(self):
        ds = data.synth_blobs(2, 20, 2, 0.0, seed=1)
        spec = ModelSpec(kind="mlp", input_shape=(2,), classes=2)
        params = models.init_params(spec, 0)
        for _ in range(200):
            _, grad = models.loss_and_grad(spec, params, ds.samples, ds.labels)
            params = sgd_step(params, grad, 0.5)
        assert models.accuracy(spec, params, ds.samples, ds.labels) == 1.0

    def test_empty_dataset(self):
        spec = ModelSpec(kind="mlp", input_shape=(2,), classes=2)
        params = models.init_params(spec, 0)
        empty = data.Dataset(np.zeros((0, 2)), np.zeros(0, dtype=int), 2)
        with pytest.raises(ShapeMismatchError, match="at least one sample"):
            models.accuracy(spec, params, empty.samples, empty.labels)


ONE_MODEL_CALLS = {
    "forward": models.forward,
    "loss_and_grad": models.loss_and_grad,
    "accuracy": models.accuracy,
}


class TestInputChecks:
    SPEC = ModelSpec(kind="mlp", input_shape=(2,), classes=3)

    @pytest.mark.parametrize("call", sorted(ONE_MODEL_CALLS))
    @pytest.mark.parametrize(
        "x,labels,match",
        [
            (np.zeros((4, 2)), np.zeros((4, 1), dtype=int), "one label per sample"),
            (np.zeros((4, 2)), np.zeros(3, dtype=int), "one label per sample"),
            (np.zeros((0, 2)), np.zeros(0, dtype=int), "at least one sample"),
        ],
        ids=["2-d labels", "count differs", "zero samples"],
    )
    def test_bad_labels_are_shape_errors(self, call, x, labels, match):
        params = models.init_params(self.SPEC, 0)
        with pytest.raises(ShapeMismatchError, match=match):
            ONE_MODEL_CALLS[call](self.SPEC, params, x, labels)

    @pytest.mark.parametrize("label", [-1, 3])
    def test_label_out_of_range_either_side(self, label):
        params = models.init_params(self.SPEC, 0)
        with pytest.raises(ShapeMismatchError, match="out of range"):
            models.loss_and_grad(
                self.SPEC, params, np.zeros((2, 2)), np.array([0, label])
            )

    def test_infinite_weight_makes_forward_raise(self):
        params = models.init_params(self.SPEC, 0)
        values = params.values.copy()
        values[-1] = np.inf  # the last logit's bias
        x, y = random_batch(self.SPEC, 4, 2)
        with np.errstate(all="ignore"), pytest.raises(NumericalError, match="logits"):
            models.forward(self.SPEC, params.with_values(values), x, y)


class TestSgdAndSchedule:
    def test_zero_grad_is_identity(self):
        spec = ModelSpec(kind="mlp", input_shape=(2,), classes=2)
        params = models.init_params(spec, 0)
        zero = params.with_values(np.zeros_like(params.values))
        out = sgd_step(params, zero, 0.5)
        assert np.array_equal(out.values, params.values)

    def test_arithmetic(self):
        spec = ModelSpec(kind="mlp", input_shape=(1,), classes=2, bias=False)
        layout = build_layout(spec)
        params = ParameterVector(np.array([1.0, 1.0]), layout)
        grad = ParameterVector(np.array([2.0, -2.0]), layout)
        out = sgd_step(params, grad, 0.5)
        assert np.array_equal(out.values, [0.0, 2.0])

    def test_two_steps_fixed_grad_compose(self):
        spec = ModelSpec(kind="mlp", input_shape=(1,), classes=2, bias=False)
        layout = build_layout(spec)
        params = ParameterVector(np.array([1.0, -3.0]), layout)
        grad = ParameterVector(np.array([0.5, 4.0]), layout)
        a, b = 0.1, 0.3
        stepped = sgd_step(sgd_step(params, grad, a), grad, b)
        assert np.allclose(stepped.values, params.values - (a + b) * grad.values)

    def test_lr_schedule(self):
        assert models.lr_schedule(0.001, 0) == 0.001
        assert models.lr_schedule(0.001, 5) == 0.001 / 3
        assert models.lr_schedule(1e-4, 4) == 1e-4
        assert models.lr_schedule(0.9, 10) == pytest.approx(0.1)


class TestLayout:
    def test_flatten_round_trip_is_bit_exact(self):
        spec = ModelSpec(
            kind="cnn", input_shape=(10, 10), classes=3, conv_channels=(2, 3),
            fc_hidden=5,
        )
        params = models.init_params(spec, 9)
        rebuilt = np.empty_like(params.values)
        for seg in params.layout.segments:
            rebuilt[seg.offset : seg.offset + seg.size] = params.segment(
                seg.layer, seg.role
            ).ravel()
        assert np.array_equal(rebuilt, params.values)

    def test_same_spec_same_layout(self):
        spec = ModelSpec(kind="mlp", input_shape=(4,), classes=3, hidden=(5,))
        assert models.init_params(spec, 0).layout == models.init_params(spec, 1).layout

    def test_layout_is_shared_between_equal_specs(self):
        a = ModelSpec(kind="mlp", input_shape=(4,), classes=3, hidden=(5,))
        b = ModelSpec(kind="mlp", input_shape=[4], classes=3, hidden=[5])
        assert a is not b
        assert build_layout(a) is build_layout(b)

    def test_stacked_views_are_the_segments_of_each_row(self):
        layout = build_layout(SWEEP_CNN)
        stack = np.random.default_rng(3).random((3, layout.size))
        for seg in layout.segments:
            view = layout.stacked(stack, seg.layer, seg.role)
            assert view.shape == (3,) + seg.shape
            for k in range(3):
                row = ParameterVector(stack[k], layout)
                assert np.array_equal(view[k], row.segment(seg.layer, seg.role))
        layout.stacked(stack, "fc1", "bias")[...] = -1.0  # writes through
        start, stop, _ = layout.slots["fc1", "bias"]
        assert (stack[:, start:stop] == -1.0).all()

    def test_unknown_segment_is_a_key_error(self):
        params = models.init_params(SWEEP_CNN, 0)
        with pytest.raises(KeyError, match="fc2"):
            params.segment("fc2", "weight")

    def test_cnn_spec_shape_validation(self):
        with pytest.raises(ShapeMismatchError):
            ModelSpec(kind="cnn", input_shape=(4, 4), classes=2)


class TestStackedLossAndGrad:
    @pytest.mark.parametrize("spec", [
        ModelSpec(kind="mlp", input_shape=(4,), classes=3, hidden=(5, 6)),
        SWEEP_CNN,
    ])
    def test_each_row_is_the_one_model_call_bitwise(self, spec):
        layout = build_layout(spec)
        thetas = np.stack([models.init_params(spec, s).values for s in range(3)])
        batches = [random_batch(spec, 6, seed=10 + k) for k in range(3)]
        losses, grads = models.stacked_loss_and_grad(
            spec, layout, thetas,
            np.stack([x for x, _ in batches]),
            np.stack([y for _, y in batches]),
        )
        for k, (x, y) in enumerate(batches):
            loss, grad = models.loss_and_grad(
                spec, ParameterVector(thetas[k], layout), x, y
            )
            assert losses[k] == loss
            assert np.array_equal(grads[k], grad.values)


class TestReadOnlyInputs:
    """The model calls overwrite only arrays they made themselves."""

    @pytest.mark.parametrize("spec", [
        ModelSpec(kind="mlp", input_shape=(4,), classes=3, hidden=(5, 6)),
        SWEEP_CNN,
    ], ids=["mlp", "cnn"])
    @pytest.mark.parametrize("call", [
        "stacked_loss_and_grad", "sum_squared_loglik_grads", "loss_and_grad",
        "forward", "accuracy",
    ])
    def test_read_only_inputs_are_read_and_kept(self, spec, call):
        layout = build_layout(spec)
        thetas = np.stack([models.init_params(spec, s).values for s in range(2)])
        batches = [random_batch(spec, 6, seed=20 + k) for k in range(2)]
        x = np.stack([b for b, _ in batches])
        labels = np.stack([y for _, y in batches])
        before = [a.tobytes() for a in (thetas, x, labels)]
        for a in (thetas, x, labels):
            a.flags.writeable = False
        if call == "stacked_loss_and_grad":
            models.stacked_loss_and_grad(spec, layout, thetas, x, labels)
        else:
            params = ParameterVector(thetas[0], layout)
            assert not params.values.flags.writeable  # not a copy
            getattr(models, call)(spec, params, x[0], labels[0])
        assert [a.tobytes() for a in (thetas, x, labels)] == before


def traced_peak(call) -> int:
    """Peak traced allocation, in bytes, while `call` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def result_arrays(result) -> list:
    """The arrays a public model call returned, flattened into a list."""
    if isinstance(result, tuple):
        return [a for part in result for a in result_arrays(part)]
    if hasattr(result, "values"):  # ParameterVector
        return [result.values]
    return [np.asarray(result)]


class TestColumnBuffers:
    """The conv stages' im2col buffers are reused across calls, never shared."""

    @pytest.fixture
    def empty(self, monkeypatch):
        """Give models fresh, empty column buffers."""

        def reset():
            monkeypatch.setattr(models, "_COLUMNS", [np.empty(0), np.empty(0)])

        reset()
        return reset

    def test_second_same_shape_call_allocates_no_columns(self, empty):
        spec = ModelSpec(kind="cnn", input_shape=(28, 28), classes=10)
        params = models.init_params(spec, 0)
        x, y = random_batch(spec, 16, 1)
        first = traced_peak(lambda: models.loss_and_grad(spec, params, x, y))
        second = traced_peak(lambda: models.loss_and_grad(spec, params, x, y))
        # both stages' columns: 16 images x (1*9*26*26 + 8*9*11*11) doubles
        columns = 16 * (1 * 9 * 26 * 26 + 8 * 9 * 11 * 11) * 8
        assert columns == 1_893_888
        assert first - second >= columns

    @pytest.mark.parametrize("call", ["accuracy", "server_gradient"])
    def test_full_set_pass_holds_at_most_512_samples_of_columns(self, empty, call):
        spec = ModelSpec(kind="cnn", input_shape=(12, 12), classes=4)
        params = models.init_params(spec, 0)
        x, y = random_batch(spec, 600, 7)
        if call == "accuracy":
            models.accuracy(spec, params, x, y)
        else:
            fedcurv.server_gradient(spec, params, data.Dataset(x, y, spec.classes))
        # columns per sample: 1*9*10*10 in stage 1, 8*9*3*3 in stage 2
        assert 0 < models._COLUMNS[0].size <= 512 * 900
        assert 0 < models._COLUMNS[1].size <= 512 * 648

    def test_interleaved_sizes_match_calls_on_empty_buffers(self, empty):
        spec = ModelSpec(kind="cnn", input_shape=(12, 12), classes=4)
        layout = build_layout(spec)
        params = models.init_params(spec, 2)
        thetas = np.stack([models.init_params(spec, s).values for s in range(3)])
        x16, y16 = random_batch(spec, 16, 3)
        x20, y20 = random_batch(spec, 20, 4)
        xs, ys = random_batch(spec, 3 * 16, 5)
        big = data.Dataset(*random_batch(spec, 520, 6), spec.classes)
        calls = [
            lambda: models.loss_and_grad(spec, params, x16, y16),
            lambda: models.loss_and_grad(spec, params, x20, y20),
            lambda: fedcurv.compute_fisher_diagonal(spec, params, big),
            lambda: models.loss_and_grad(spec, params, x16, y16),
            lambda: models.stacked_loss_and_grad(
                spec, layout, thetas, xs.reshape((3, 16) + xs.shape[1:]),
                ys.reshape(3, 16),
            ),
            lambda: models.forward(spec, params, x20, y20),
            lambda: models.sum_squared_loglik_grads(spec, params, x16, y16),
        ]
        want = []
        for call in calls:
            empty()
            want.append([a.tobytes() for a in result_arrays(call())])
        empty()
        got, buffers = [], []
        for call in calls:
            got.append(result_arrays(call()))
            buffers += models._COLUMNS
        # compared after every call has run: a result held in a buffer
        # would have been overwritten by a later call
        assert [[a.tobytes() for a in arrays] for arrays in got] == want
        for arrays in got:
            for a in arrays:
                assert not any(np.shares_memory(a, b) for b in buffers)


class TestGradientExactnessSweep:
    @pytest.mark.parametrize(
        "spec,seed",
        [
            (ModelSpec(kind="mlp", input_shape=(4,), classes=3, hidden=()), 0),
            (ModelSpec(kind="mlp", input_shape=(3,), classes=4, hidden=(6,)), 1),
            (ModelSpec(kind="mlp", input_shape=(5,), classes=2, hidden=(4, 3)), 2),
            (SWEEP_CNN, 3),
        ],
    )
    def test_analytic_matches_fd(self, spec, seed):
        assert build_layout(spec).size <= 200
        params = models.init_params(spec, seed)
        x, y = random_batch(spec, 3, seed + 100)
        _, grad = models.loss_and_grad(spec, params, x, y)

        def f(v):
            loss, _ = models.loss_and_grad(spec, params.with_values(v), x, y)
            return loss

        fd = fd_gradient(f, params.values)
        assert max_rel_err(grad.values, fd) < 1e-5


def squared_grad_loop(spec, params, x, y):
    """Reference: Python sum of squared one-sample log-likelihood gradients."""
    acc = np.zeros_like(params.values)
    for i in range(len(y)):
        acc += models.per_sample_loglik_grad(
            spec, params, x[i : i + 1], y[i : i + 1]
        ).values ** 2
    return acc


class TestSquaredGradients:
    @pytest.mark.parametrize(
        "spec",
        [
            ModelSpec(kind="mlp", input_shape=(5,), classes=4, hidden=(6, 3)),
            SWEEP_CNN,
            ModelSpec(
                kind="cnn", input_shape=(12, 11), classes=4, conv_channels=(3, 2),
                fc_hidden=6, bias=False,
            ),
            ModelSpec(
                kind="cnn", input_shape=(3, 10, 10), classes=2,
                conv_channels=(4, 3), fc_hidden=5,
            ),
        ],
    )
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_batched_matches_per_sample_loop(self, spec, seed):
        params = models.init_params(spec, seed)
        x, y = random_batch(spec, 7, seed + 50)
        got = models.sum_squared_loglik_grads(spec, params, x, y)
        want = squared_grad_loop(spec, params, x, y)
        for seg in params.layout.segments:  # no layer compares zeros only
            assert np.any(want[seg.offset : seg.offset + seg.size]), seg
        assert max_rel_err(got, want, floor=1e-12) <= 1e-10

    @pytest.mark.parametrize(
        "spec", [ModelSpec(kind="mlp", input_shape=(3,), classes=2), SWEEP_CNN]
    )
    def test_infinite_weight_raises(self, spec):
        params = models.init_params(spec, 0)
        values = params.values.copy()
        values[0] = np.inf
        x, y = random_batch(spec, 4, 1)
        with np.errstate(all="ignore"), pytest.raises(NumericalError):
            models.sum_squared_loglik_grads(spec, params.with_values(values), x, y)

    def test_cnn_fisher_makes_no_per_sample_calls(self, monkeypatch):
        spec = SWEEP_CNN
        params = models.init_params(spec, 4)
        x, y = random_batch(spec, 6, 5)
        client = data.Dataset(x, y, spec.classes)
        want = squared_grad_loop(spec, params, x, y) / len(y)
        batched = models.sum_squared_loglik_grads
        calls = []

        def counted(*args):
            calls.append(args)
            return batched(*args)

        def forbidden(*args):
            raise AssertionError("per-sample gradient called")

        monkeypatch.setattr(models, "sum_squared_loglik_grads", counted)
        monkeypatch.setattr(models, "per_sample_loglik_grad", forbidden)
        fisher = fedcurv.compute_fisher_diagonal(spec, params, client)
        assert len(calls) == 1  # one chunk for the whole client
        assert max_rel_err(fisher.values, want, floor=1e-12) <= 1e-10


class TestMaxPool:
    def test_ties_route_to_first_maximum_in_window_order(self):
        # one 4x5 map: two full 2x2 windows, the last column is dropped
        x = np.array(
            [
                [1.0, 3.0, 2.0, 2.0, 9.0],
                [3.0, 0.0, 2.0, 2.0, 9.0],
                [5.0, 4.0, -1.0, -2.0, 9.0],
                [4.0, 5.0, -2.0, -1.0, 9.0],
            ]
        )[None, None]
        out, idx = models._maxpool2(x)
        assert np.array_equal(out[0, 0], [[3.0, 2.0], [5.0, -1.0]])
        # window order is (0,0), (0,1), (1,0), (1,1): the first tie wins
        assert np.array_equal(idx[0, 0], [[1, 0], [0, 0]])
        dout = np.array([[10.0, 20.0], [30.0, 40.0]])[None, None]
        dx = models._maxpool2_backward(dout, idx, x.shape)
        want = np.zeros_like(x)
        want[0, 0, 0, 1] = 10.0
        want[0, 0, 0, 2] = 20.0
        want[0, 0, 2, 0] = 30.0
        want[0, 0, 2, 2] = 40.0
        assert np.array_equal(dx, want)

    def test_matches_argmax_over_windows(self):
        rng = np.random.default_rng(3)
        x = np.round(rng.standard_normal((3, 2, 7, 6)), 1)  # many ties
        out, idx = models._maxpool2(x)
        windows = (
            x[:, :, :6, :6].reshape(3, 2, 3, 2, 3, 2)
            .transpose(0, 1, 2, 4, 3, 5).reshape(3, 2, 3, 3, 4)
        )
        assert np.array_equal(idx, windows.argmax(axis=-1))
        assert np.array_equal(out, windows.max(axis=-1))
