import math
import sys
import threading
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
from reference import (
    cnn_per_sample,
    cnn_stacked_loss_and_grad,
    col2im,
    im2col,
    loss_and_grad,
    maxpool2,
    maxpool2_backward,
    sgd_step,
    slot,
    window_major,
)

SWEEP_CNN = ModelSpec(kind="cnn", input_shape=(10, 10), classes=3, hidden=(5,))


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
        slot(params, "fc0", "weight")[...] = np.eye(2)
        logits = models.forward(spec, params, np.array([[1.0, 2.0]]), np.array([0]))
        assert np.array_equal(logits, [[1.0, 2.0]])

    def test_deterministic(self):
        spec = ModelSpec(kind="mlp", input_shape=(3,), classes=4, hidden=(5,))
        params = models.init_params(spec, 3)
        x, y = random_batch(spec, 6, 4)
        a = models.forward(spec, params, x, y)
        b = models.forward(spec, params, x, y)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("spec", [
        ModelSpec(kind="mlp", input_shape=(5,), classes=4, hidden=(6, 3)),
        SWEEP_CNN,
        ModelSpec(kind="cnn", input_shape=(28, 28), classes=10, hidden=(64,)),
    ])
    def test_logits_are_the_cached_pass_logits_bitwise(self, spec):
        params = models.init_params(spec, 5)
        x, y = random_batch(spec, 9, 6)
        logits, caches = models._forward_cached(spec, params.values[None], x[None])
        assert len(caches) == len(params.layout.slots) // 2
        got = models.forward(spec, params, x, y)
        assert got.tobytes() == logits[0].tobytes()
        _, kept = models._forward_cached(
            spec, params.values[None], x[None], keep=False
        )
        assert kept == []

    def test_hand_computed_222_mlp(self):
        spec = ModelSpec(kind="mlp", input_shape=(2,), classes=2, hidden=(2,))
        params = models.init_params(spec, 0)
        w0 = np.array([[1.0, -2.0], [0.5, 1.0]])
        b0 = np.array([0.1, -0.1])
        w1 = np.array([[2.0, 0.0], [-1.0, 1.0]])
        b1 = np.array([0.0, 0.5])
        slot(params, "fc0", "weight")[...] = w0
        slot(params, "fc0", "bias")[...] = b0
        slot(params, "fc1", "weight")[...] = w1
        slot(params, "fc1", "bias")[...] = b1
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
            loss, _ = loss_and_grad(spec, params, *random_batch(spec, 4, c))
            assert loss == pytest.approx(math.log(c), abs=1e-14)

    def test_gradient_matches_finite_differences(self):
        spec = ModelSpec(kind="mlp", input_shape=(2,), classes=2, hidden=(2,))
        params = models.init_params(spec, 11)
        x, y = random_batch(spec, 4, 12)
        _, grad = loss_and_grad(spec, params, x, y)

        def f(v):
            loss, _ = loss_and_grad(spec, params.with_values(v), x, y)
            return loss

        fd = fd_gradient(f, params.values)
        assert max_rel_err(grad.values, fd) < 1e-6

    def test_duplicated_batch_mean_invariance(self):
        spec = ModelSpec(kind="mlp", input_shape=(3,), classes=3, hidden=(4,))
        params = models.init_params(spec, 5)
        rng = np.random.default_rng(6)
        x = rng.random((1, 3))
        l1, g1 = loss_and_grad(spec, params, x, np.array([1]))
        l2, g2 = loss_and_grad(
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
        _, batch_grad = loss_and_grad(spec, params, x, y)
        acc = np.zeros_like(params.values)
        for i in range(len(y)):
            acc += models.per_sample_loglik_grad(
                spec, params, x[i : i + 1], y[i : i + 1]
            ).values
        assert np.allclose(acc / len(y), -batch_grad.values, atol=1e-14)

    @pytest.mark.parametrize("spec", [
        ModelSpec(kind="mlp", input_shape=(5,), classes=4, hidden=(6, 3)),
        ModelSpec(kind="cnn", input_shape=(28, 28), classes=10, hidden=(64,)),
    ], ids=["mlp", "cnn-28x28"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_is_the_negated_one_sample_stacked_gradient_bitwise(self, spec, seed):
        params = models.init_params(spec, seed)
        x, y = random_batch(spec, 1, seed + 40)
        _, grads = models.stacked_loss_and_grad(
            spec, params.values[None], x[None], y[None]
        )
        got = models.per_sample_loglik_grad(spec, params, x, y)
        assert got.layout is params.layout
        assert same_bits(got.values, -grads[0])

    def test_non_finite_gradient_raises(self):
        spec = ModelSpec(kind="mlp", input_shape=(3,), classes=2)
        params = models.init_params(spec, 0)
        values = params.values.copy()
        values[0] = np.inf  # a first-layer weight
        x, y = random_batch(spec, 1, 1)
        with np.errstate(all="ignore"), pytest.raises(
            NumericalError, match="loss/gradient not finite"
        ):
            models.per_sample_loglik_grad(spec, params.with_values(values), x, y)

    @pytest.mark.parametrize("n", [0, 2])
    def test_needs_exactly_one_sample(self, n):
        spec = ModelSpec(kind="mlp", input_shape=(3,), classes=2)
        params = models.init_params(spec, 0)
        x, y = random_batch(spec, n, 1)
        with pytest.raises(ShapeMismatchError, match="requires one sample"):
            models.per_sample_loglik_grad(spec, params, x, y)

    def test_perfect_prediction_zero_gradient(self):
        # huge margin toward the true label makes softmax numerically one-hot
        spec = ModelSpec(kind="mlp", input_shape=(2,), classes=2)
        layout = build_layout(spec)
        params = ParameterVector(np.zeros(layout.size), layout)
        slot(params, "fc0", "bias")[...] = [1000.0, -1000.0]
        g = models.per_sample_loglik_grad(
            spec, params, np.array([[1.0, 1.0]]), np.array([0])
        )
        assert np.array_equal(g.values, np.zeros_like(g.values))

    def test_logistic_closed_form(self):
        # two-class softmax on scalar input reduces to logistic regression:
        # d log p(y|x) / dw_c = (1[y == c] - p_c) * x, and / db_c without the x
        spec = ModelSpec(kind="mlp", input_shape=(1,), classes=2)
        layout = build_layout(spec)
        w, b = np.array([0.3, -0.7]), np.array([0.2, -0.1])
        params = ParameterVector(np.concatenate([w, b]), layout)
        x, y = 1.7, 1
        z = w * x + b
        p = np.exp(z - z.max())
        p /= p.sum()
        delta = np.array([0.0, 1.0]) - p
        expected = np.concatenate([delta * x, delta])
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
        slot(pv, "fc0", "weight")[...] = np.eye(3)
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
            _, grad = loss_and_grad(spec, params, ds.samples, ds.labels)
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
    "sum_squared_loglik_grads": models.sum_squared_loglik_grads,
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
            models.sum_squared_loglik_grads(
                self.SPEC, params, np.zeros((2, 2)), np.array([0, label])
            )

    def test_infinite_weight_makes_forward_raise(self):
        params = models.init_params(self.SPEC, 0)
        values = params.values.copy()
        values[-1] = np.inf  # the last logit's bias
        x, y = random_batch(self.SPEC, 4, 2)
        with np.errstate(all="ignore"), pytest.raises(NumericalError, match="logits"):
            models.forward(self.SPEC, params.with_values(values), x, y)

    def test_infinite_conv_weight_makes_forward_raise(self):
        params = models.init_params(SWEEP_CNN, 0)
        values = params.values.copy()
        values[0] = np.inf  # a first-stage conv weight
        x, y = random_batch(SWEEP_CNN, 4, 2)
        with np.errstate(all="ignore"), pytest.raises(NumericalError, match="logits"):
            models.forward(SWEEP_CNN, params.with_values(values), x, y)


class TestSgdAndSchedule:
    def test_zero_grad_is_identity(self):
        spec = ModelSpec(kind="mlp", input_shape=(2,), classes=2)
        params = models.init_params(spec, 0)
        zero = params.with_values(np.zeros_like(params.values))
        out = sgd_step(params, zero, 0.5)
        assert np.array_equal(out.values, params.values)

    def test_arithmetic(self):
        spec = ModelSpec(kind="mlp", input_shape=(1,), classes=2)
        layout = build_layout(spec)
        params = ParameterVector(np.array([1.0, 1.0, 0.5, -0.5]), layout)
        grad = ParameterVector(np.array([2.0, -2.0, 1.0, 3.0]), layout)
        out = sgd_step(params, grad, 0.5)
        assert np.array_equal(out.values, [0.0, 2.0, 0.0, -2.0])

    def test_two_steps_fixed_grad_compose(self):
        spec = ModelSpec(kind="mlp", input_shape=(1,), classes=2)
        layout = build_layout(spec)
        params = ParameterVector(np.array([1.0, -3.0, 0.25, 2.0]), layout)
        grad = ParameterVector(np.array([0.5, 4.0, -1.0, 0.125]), layout)
        a, b = 0.1, 0.3
        stepped = sgd_step(sgd_step(params, grad, a), grad, b)
        assert np.allclose(stepped.values, params.values - (a + b) * grad.values)

    def test_lr_schedule(self):
        assert models.lr_schedule(0.001, 0) == 0.001
        assert models.lr_schedule(0.001, 5) == 0.001 / 3
        assert models.lr_schedule(1e-4, 4) == 1e-4
        assert models.lr_schedule(0.9, 10) == pytest.approx(0.1)

    @pytest.mark.parametrize("lr", [0.01, 0.9, 1e-4, 1e300])
    def test_lr_schedule_is_float_division_while_3_to_the_k_is_exact(self, lr):
        # 3**33 < 2**53, so up to epoch 169 the divisor is an exact float and
        # one correctly rounded division gives the same bits as the exact quotient
        for epoch in range(170):
            assert models.lr_schedule(lr, epoch) == lr / 3 ** (epoch // 5)

    @pytest.mark.parametrize("lr", [0.01, 1e300])
    def test_lr_schedule_past_the_float_range_of_the_divisor(self, lr):
        # epoch 3235 is the first whose 3**(epoch // 5) converts to no float
        assert models.lr_schedule(lr, 3234) == pytest.approx(lr / 3**646, rel=1e-15)
        rate = models.lr_schedule(lr, 3235)
        assert 0 < rate == pytest.approx(lr / 3**646 / 3, rel=1e-9)


class TestLayout:
    def test_flatten_round_trip_is_bit_exact(self):
        spec = ModelSpec(kind="cnn", input_shape=(10, 10), classes=3, hidden=(5,))
        params = models.init_params(spec, 9)
        rebuilt = np.empty_like(params.values)
        for (layer, role), (start, stop, _) in params.layout.slots.items():
            rebuilt[start:stop] = slot(params, layer, role).ravel()
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
        for (layer, role), (start, stop, shape) in layout.slots.items():
            view = layout.stacked(stack, layer, role)
            assert view.shape == (3,) + shape
            for k in range(3):
                assert np.array_equal(view[k].ravel(), stack[k, start:stop])
        layout.stacked(stack, "fc1", "bias")[...] = -1.0  # writes through
        start, stop, _ = layout.slots["fc1", "bias"]
        assert (stack[:, start:stop] == -1.0).all()

    def test_unknown_segment_is_a_key_error(self):
        params = models.init_params(SWEEP_CNN, 0)
        with pytest.raises(KeyError, match="fc2"):
            slot(params, "fc2", "weight")

    def test_cnn_hidden_widths_shape_its_dense_layers(self):
        specs = [
            ModelSpec(kind="cnn", input_shape=(12, 12), classes=4, hidden=hidden)
            for hidden in [(5,), (64,), ()]
        ]
        # 12 -> 10 -> 5 -> 3 -> 1: the second pool gives 16 values
        assert build_layout(specs[0]).slots["fc0", "weight"][2] == (16, 5)
        assert len({build_layout(spec) for spec in specs}) == 3

    def test_cnn_spec_shape_validation(self):
        with pytest.raises(ShapeMismatchError):
            ModelSpec(kind="cnn", input_shape=(4, 4), classes=2, hidden=(64,))

    @pytest.mark.parametrize("width", [-3, 0])
    def test_hidden_width_below_one_is_rejected(self, width):
        with pytest.raises(ValueError, match="hidden"):
            ModelSpec(kind="mlp", input_shape=(2,), classes=2, hidden=(4, width))


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
            spec, thetas,
            np.stack([x for x, _ in batches]),
            np.stack([y for _, y in batches]),
        )
        for k, (x, y) in enumerate(batches):
            loss, grad = loss_and_grad(
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
            models.stacked_loss_and_grad(spec, thetas, x, labels)
        else:
            params = ParameterVector(thetas[0], layout)
            assert not params.values.flags.writeable  # not a copy
            # loss_and_grad is the reference's K=1 stacked_loss_and_grad call
            one_model = (
                loss_and_grad if call == "loss_and_grad" else getattr(models, call)
            )
            one_model(spec, params, x[0], labels[0])
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
            monkeypatch.setattr(
                models._COLUMNS, "buffers", [np.empty(0), np.empty(0)]
            )
            models._scatter_index.cache_clear()

        reset()
        return reset

    def test_second_same_shape_call_allocates_no_columns(self, empty):
        spec = ModelSpec(kind="cnn", input_shape=(28, 28), classes=10, hidden=(64,))
        params = models.init_params(spec, 0)
        x, y = random_batch(spec, 16, 1)
        first = traced_peak(lambda: loss_and_grad(spec, params, x, y))
        second = traced_peak(lambda: loss_and_grad(spec, params, x, y))
        # both stages' columns, window-major: 16 images x (1*9*4*13*13 +
        # 8*9*4*5*5) doubles; stage 2's odd 11th output row and column,
        # which no pool window reads, are not built
        columns = 16 * (1 * 9 * 4 * 13 * 13 + 8 * 9 * 4 * 5 * 5) * 8
        assert columns == 1_700_352
        assert first - second >= columns

    @pytest.mark.parametrize("call", ["accuracy", "sum_squared_loglik_grads"])
    def test_full_set_pass_holds_at_most_512_samples_of_columns(self, empty, call):
        spec = ModelSpec(kind="cnn", input_shape=(12, 12), classes=4, hidden=(64,))
        params = models.init_params(spec, 0)
        x, y = random_batch(spec, 600, 7)
        getattr(models, call)(spec, params, x, y)
        # columns per sample: 1*9*4*5*5 in stage 1; 8*9*4*1*1 in stage 2,
        # whose 3x3 output has one pool window
        assert 0 < models._COLUMNS.buffers[0].size <= 512 * 900
        assert 0 < models._COLUMNS.buffers[1].size <= 512 * 288

    def test_scatter_index_holds_one_sample_per_shape(self, empty):
        spec = ModelSpec(kind="cnn", input_shape=(12, 12), classes=4, hidden=(64,))
        params = models.init_params(spec, 0)
        x, y = random_batch(spec, 600, 7)
        models.sum_squared_loglik_grads(spec, params, x, y)
        # each stage gathers its columns through its index: one sample's
        # 1 x 12 x 12 input as 9 columns of the 4 members of its 5*5 pool
        # windows, and its 8 x 5 x 5 input as 8*9 columns of the 4 members
        # of its one pool window
        index = models._scatter_index
        assert index.cache_info().currsize == 2
        assert index(1, 12, 12, 3).size == 9 * 4 * 5 * 5
        assert index(8, 5, 5, 3).size == 8 * 9 * 4
        misses = index.cache_info().misses
        models.accuracy(spec, params, x, y)  # the same shapes: no new index
        assert index.cache_info().misses == misses
        assert index.cache_info().currsize == 2

    @pytest.mark.parametrize("x_shape", [(3, 2, 7, 6), (2, 3, 12, 11)])
    def test_columns_are_the_reference_columns_window_major(self, empty, x_shape):
        x = np.random.default_rng(sum(x_shape)).standard_normal(x_shape)
        n, c, h, w = x_shape
        rows = im2col(x, 3).reshape(n, c * 9, h - 2, w - 2)
        want = window_major(rows).reshape(n, c * 9, -1)
        assert same_bits(models._im2col(x, 3, 0), want)
        # a strided input, as a slice of a client's shuffled data is
        assert same_bits(models._im2col(x[::-1].copy()[::-1], 3, 1), want)

    def test_interleaved_sizes_match_calls_on_empty_buffers(self, empty):
        spec = ModelSpec(kind="cnn", input_shape=(12, 12), classes=4, hidden=(64,))
        params = models.init_params(spec, 2)
        thetas = np.stack([models.init_params(spec, s).values for s in range(3)])
        x16, y16 = random_batch(spec, 16, 3)
        x20, y20 = random_batch(spec, 20, 4)
        xs, ys = random_batch(spec, 3 * 16, 5)
        xb, yb = random_batch(spec, 520, 6)
        calls = [
            lambda: loss_and_grad(spec, params, x16, y16),
            lambda: loss_and_grad(spec, params, x20, y20),
            lambda: models.sum_squared_loglik_grads(spec, params, xb, yb),
            lambda: loss_and_grad(spec, params, x16, y16),
            lambda: models.stacked_loss_and_grad(
                spec, thetas, xs.reshape((3, 16) + xs.shape[1:]),
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
            buffers += models._COLUMNS.buffers
        # compared after every call has run: a result held in a buffer
        # would have been overwritten by a later call
        assert [[a.tobytes() for a in arrays] for arrays in got] == want
        for arrays in got:
            for a in arrays:
                assert not any(np.shares_memory(a, b) for b in buffers)

    def test_threads_keep_their_own_columns(self):
        # a model call reads its columns again in its backward pass, so a
        # thread must not write another thread's columns in between
        spec = SWEEP_CNN
        thetas = np.stack([models.init_params(spec, s).values for s in range(2)])
        jobs = []
        for seed in range(2):
            x, y = random_batch(spec, 2 * 6, seed)
            jobs.append((x.reshape((2, 6) + x.shape[1:]), y.reshape(2, 6)))

        def results(job):
            losses, grads = models.stacked_loss_and_grad(spec, thetas, *job)
            return [losses.tobytes(), grads.tobytes()]

        want = [results(job) for job in jobs]
        got = [[] for _ in jobs]
        start = threading.Barrier(len(jobs), timeout=60)

        def run(k):
            start.wait()
            for _ in range(50):
                got[k].append(results(jobs[k]))

        threads = [threading.Thread(target=run, args=(k,)) for k in range(len(jobs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for k in range(len(jobs)):
            assert got[k] == [want[k]] * 50


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
        # bounds the sweep's cost at SWEEP_CNN's 1,351 coordinates, of which
        # conv1's weights alone are 1,152 at CONV_CHANNELS
        assert build_layout(spec).size <= 1351
        params = models.init_params(spec, seed)
        x, y = random_batch(spec, 3, seed + 100)
        _, grad = loss_and_grad(spec, params, x, y)

        def f(v):
            loss, _ = loss_and_grad(spec, params.with_values(v), x, y)
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
            ModelSpec(kind="cnn", input_shape=(12, 11), classes=4, hidden=(6,)),
            ModelSpec(kind="cnn", input_shape=(3, 10, 10), classes=2, hidden=(5,)),
        ],
    )
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_batched_matches_per_sample_loop(self, spec, seed):
        params = models.init_params(spec, seed)
        x, y = random_batch(spec, 7, seed + 50)
        got = models.sum_squared_loglik_grads(spec, params, x, y)
        want = squared_grad_loop(spec, params, x, y)
        for slot, (start, stop, _) in params.layout.slots.items():
            assert np.any(want[start:stop]), slot  # no layer compares zeros only
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
        hp = fedcurv.HyperParams(batch_size=3)
        batched = models.sum_squared_loglik_grads
        calls = []

        def counted(*args):
            calls.append(args)
            return batched(*args)

        def forbidden(*args):
            raise AssertionError("per-sample gradient called")

        monkeypatch.setattr(models, "sum_squared_loglik_grads", counted)
        monkeypatch.setattr(models, "per_sample_loglik_grad", forbidden)
        _, [fisher] = fedcurv.client_round(spec, params, [client], hp, [0], 0, [1])
        assert len(calls) == 1  # one call for the whole client
        assert max_rel_err(fisher, want, floor=1e-12) <= 1e-10


class TestChunkedFullSetPasses:
    """The full-set passes over more than one 512-sample chunk."""

    SPEC = ModelSpec(kind="mlp", input_shape=(4,), classes=3, hidden=(5,))

    def setup_method(self):
        self.params = models.init_params(self.SPEC, 3)
        self.x, self.y = random_batch(self.SPEC, 1100, 9)  # chunks 512, 512, 76

    def test_fisher_sums_match_the_per_sample_loop(self):
        got = models.sum_squared_loglik_grads(self.SPEC, self.params, self.x, self.y)
        want = squared_grad_loop(self.SPEC, self.params, self.x, self.y)
        assert max_rel_err(got, want, floor=1e-12) <= 1e-10


class TestMaxPool:
    """The window-major max-pool, (n, C, 4, L) -> (n, C, L)."""

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
        z = window_major(x)
        assert z.shape == (1, 1, 4, 4)
        out, idx = models._maxpool2(z)
        assert np.array_equal(out[0, 0], [3.0, 2.0, 5.0, -1.0])
        # window order is (0,0), (0,1), (1,0), (1,1): the first tie wins
        assert np.array_equal(idx[0, 0], [1, 0, 0, 0])
        dout = np.array([10.0, 20.0, 30.0, 40.0])[None, None]
        dz = models._maxpool2_backward(dout, idx)
        want = np.zeros_like(x)
        want[0, 0, 0, 1] = 10.0
        want[0, 0, 0, 2] = 20.0
        want[0, 0, 2, 0] = 30.0
        want[0, 0, 2, 2] = 40.0
        assert np.array_equal(dz, window_major(want))

    def test_matches_argmax_over_windows(self):
        rng = np.random.default_rng(3)
        x = np.round(rng.standard_normal((3, 2, 7, 6)), 1)  # many ties
        out, idx = models._maxpool2(window_major(x))
        windows = (
            x[:, :, :6, :6].reshape(3, 2, 3, 2, 3, 2)
            .transpose(0, 1, 2, 4, 3, 5).reshape(3, 2, 9, 4)
        )
        assert np.array_equal(idx, windows.argmax(axis=-1))
        assert np.array_equal(out, windows.max(axis=-1))

    def test_bias_after_the_pool_and_one_product_backward(self):
        # (K, N, OC, 4, L) conv outputs, as the forward pass pools them
        rng = np.random.default_rng(5)
        z = rng.standard_normal((2, 4, 3, 4, 10))
        z[0, 0] = 0.0  # all-zero patches: four-way ties
        z[0, 1, :, 2] = z[0, 1, :, 0]  # two-way ties
        z[1, 0] = np.round(z[1, 0], 1)  # ties of every kind
        b = rng.standard_normal((2, 1, 3, 1))  # one bias per model and channel
        out, idx = models._maxpool2(z)
        out_b, idx_b = models._maxpool2(z + b[..., None, :])
        assert same_bits(out + b, out_b)
        assert same_bits(idx, idx_b)
        assert (idx[0, 0] == 0).all()
        dout = signed_zero_deltas(rng, idx.shape)
        # the four-pass formula that the one product replaced
        want = np.empty(idx.shape[:-1] + (4,) + idx.shape[-1:])
        for pos in range(4):
            np.multiply(dout, idx == pos, out=want[..., pos, :])
        assert same_bits(models._maxpool2_backward(dout, idx), want)


def signed_zero_deltas(rng, shape):
    """Normal values rounded to make ties, a tenth of them +0.0 or -0.0."""
    d = np.round(rng.standard_normal(shape), 1)
    zeros = rng.random(shape) < 0.1
    d[zeros] = np.where(rng.random(shape) < 0.5, 0.0, -0.0)[zeros]
    return d


def same_bits(a, b):
    """Equal shapes and bytes, so also each zero's np.signbit."""
    return a.shape == b.shape and a.tobytes() == b.tobytes()


SCATTER_SHAPES = [(3, 2, 7, 6), (16, 8, 13, 13), (600, 1, 12, 12), (5, 3, 4, 3)]


class TestSpatialBackward:
    """The window-major backward kernels against the row-major references,
    bit for bit."""

    @pytest.mark.parametrize("x_shape", SCATTER_SHAPES)
    def test_col2im_matches_shifted_adds(self, x_shape):
        models._scatter_index.cache_clear()
        n, c, h, w = x_shape
        k = 3
        ho, wo = h - k + 1, w - k + 1
        rng = np.random.default_rng(sum(x_shape))
        dcols = signed_zero_deltas(rng, (n, c * k * k, ho, wo))
        # an output no pool window reads has a zero gradient, of either sign
        outside = np.ones((ho, wo), dtype=bool)
        outside[: ho // 2 * 2, : wo // 2 * 2] = False
        dcols[..., outside] = np.where(rng.random(outside.sum()) < 0.5, 0.0, -0.0)
        want = col2im(dcols, x_shape, k)
        major = window_major(dcols).reshape(n, c * k * k, -1)
        for _ in range(2):  # on a fresh index, then on the cached one
            got = models._col2im(major, x_shape, k)
            assert same_bits(got, want)

    def test_col2im_all_negative_zeros_gives_positive_zeros(self):
        # a 6x5 input's 4x3 conv output has 2x1 pool windows
        dcols = np.full((2, 2 * 9, 4 * 2), -0.0)
        got = models._col2im(dcols, (2, 2, 6, 5), 3)
        assert same_bits(got, np.zeros((2, 2, 6, 5)))

    @pytest.mark.parametrize("x_shape", SCATTER_SHAPES)
    def test_maxpool_backward_matches_zero_filled(self, x_shape):
        rng = np.random.default_rng(sum(x_shape) + 1)
        x = np.round(rng.standard_normal(x_shape), 1)
        want_out, want_idx = maxpool2(x)
        out, idx = models._maxpool2(window_major(x))
        assert same_bits(out, want_out.reshape(out.shape))
        assert same_bits(idx, want_idx.reshape(idx.shape))
        dout = signed_zero_deltas(rng, want_idx.shape)
        got = models._maxpool2_backward(dout.reshape(idx.shape), idx)
        want = maxpool2_backward(dout, want_idx, x_shape)
        assert same_bits(got, window_major(want))


ORACLE_CNNS = [
    ModelSpec(kind="cnn", input_shape=(28, 28), classes=10, hidden=(64,)),
    ModelSpec(kind="cnn", input_shape=(12, 11), classes=4, hidden=(6,)),
    ModelSpec(kind="cnn", input_shape=(3, 10, 10), classes=2, hidden=(5,)),
    ModelSpec(kind="cnn", input_shape=(12, 12), classes=4, hidden=(64,)),
]


def assert_close_per_segment(layout, got, want, rtol=1e-12):
    """Within each layer segment, every value is within rtol of the
    segment's largest magnitude in want, which is not zero."""
    for slot, (start, stop, _) in layout.slots.items():
        g = got[..., start:stop]
        w = want[..., start:stop]
        scale = np.max(np.abs(w))
        assert scale > 0, slot
        assert np.max(np.abs(g - w)) <= rtol * scale, slot


class TestReferenceCnn:
    """The window-major CNN against the row-major reference CNN, which
    builds every per-sample gradient whole."""

    @pytest.mark.parametrize("spec", ORACLE_CNNS, ids=lambda s: str(s.input_shape))
    def test_stacked_loss_and_grad(self, spec):
        layout = build_layout(spec)
        thetas = np.stack([models.init_params(spec, s).values for s in range(3)])
        x, y = random_batch(spec, 3 * 7, 30)
        x, y = x.reshape((3, 7) + spec.input_shape), y.reshape(3, 7)
        losses, grads = models.stacked_loss_and_grad(spec, thetas, x, y)
        want_losses, want_grads = cnn_stacked_loss_and_grad(spec, thetas, x, y)
        assert np.all(np.abs(losses - want_losses) <= 1e-12 * want_losses)
        for got, want in zip(grads, want_grads):
            assert_close_per_segment(layout, got, want)

    @pytest.mark.parametrize("spec", ORACLE_CNNS, ids=lambda s: str(s.input_shape))
    def test_one_model_calls(self, spec):
        params = models.init_params(spec, 5)
        layout = params.layout
        x, y = random_batch(spec, 9, 31)
        thetas = params.values[None]
        logits, per_sample = cnn_per_sample(spec, thetas, x[None], y[None])
        got = models.forward(spec, params, x, y)
        assert np.max(np.abs(got - logits[0])) <= 1e-12 * np.max(np.abs(logits[0]))
        (want_loss,), (want_grad,) = cnn_stacked_loss_and_grad(
            spec, thetas, x[None], y[None]
        )
        loss, grad = loss_and_grad(spec, params, x, y)
        assert abs(loss - want_loss) <= 1e-12 * want_loss
        assert_close_per_segment(layout, grad.values, want_grad)
        fisher = models.sum_squared_loglik_grads(spec, params, x, y)
        assert_close_per_segment(layout, fisher, (per_sample[0] ** 2).sum(axis=0))
