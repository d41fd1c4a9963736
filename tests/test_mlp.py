import math
import re

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from pricedir.dataset import LabeledDataset
from pricedir.errors import TrainingDivergedError, ValidationError
from pricedir.logit import sigmoid, sigmoid_into
from pricedir.mlp import (
    OUTPUT_EPS,
    NetworkModel,
    evaluate,
    init_network,
    model_from_dict,
    model_to_dict,
    train_stack,
)

from conftest import backprop_gradients, bce_loss, forward, weekly_dates


def make_ds(X, y):
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    return LabeledDataset(
        "TST", weekly_dates(len(y)), [f"f{i}" for i in range(X.shape[1])], X, y
    )


def numeric_gradients(model, x, y, h=1e-5):
    """Central finite differences of the loss over every parameter."""
    grads_w = [np.zeros_like(w) for w in model.weights]
    grads_b = [np.zeros_like(b) for b in model.biases]

    def loss():
        out, _ = forward(model, x)
        return bce_loss(y, out)

    for layer, w in enumerate(model.weights):
        for idx in np.ndindex(w.shape):
            orig = w[idx]
            w[idx] = orig + h
            up = loss()
            w[idx] = orig - h
            down = loss()
            w[idx] = orig
            grads_w[layer][idx] = (up - down) / (2 * h)
    for layer, b in enumerate(model.biases):
        for idx in np.ndindex(b.shape):
            orig = b[idx]
            b[idx] = orig + h
            up = loss()
            b[idx] = orig - h
            down = loss()
            b[idx] = orig
            grads_b[layer][idx] = (up - down) / (2 * h)
    return grads_w, grads_b


def sig(eta):
    """The sigmoid as first written: one formula per sign, picked by a mask."""
    out = np.empty_like(eta)
    pos = eta >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-eta[pos]))
    e = np.exp(eta[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def reference_train(model, X, y, epochs, learning_rate, batch_size, seed):
    """The training loop as first written, layer by layer: masked sigmoid,
    fancy-indexed batches, ``delta.mean`` and ``w -= lr * g``."""

    def activations(batch):
        acts = [batch]
        for w, b in zip(weights, biases):
            acts.append(sig(acts[-1] @ w.T + b))
        acts[-1] = np.clip(acts[-1], OUTPUT_EPS, 1.0 - OUTPUT_EPS)
        return acts

    weights = [w.copy() for w in model.weights]
    biases = [b.copy() for b in model.biases]
    rng = np.random.default_rng(seed)
    losses = []
    for _ in range(epochs):
        order = rng.permutation(len(y))
        for start in range(0, len(y), batch_size):
            idx = order[start:start + batch_size]
            acts = activations(X[idx])
            delta = acts[-1] - y[idx].reshape(-1, 1)
            grads = [None] * len(weights)
            for layer in range(len(weights) - 1, -1, -1):
                grads[layer] = (delta.T @ acts[layer] / len(idx), delta.mean(axis=0))
                if layer > 0:
                    a = acts[layer]
                    delta = (delta @ weights[layer]) * a * (1.0 - a)
            for layer, (grad_w, grad_b) in enumerate(grads):
                weights[layer] -= learning_rate * grad_w
                biases[layer] -= learning_rate * grad_b
        yhat = activations(X)[-1][:, 0]
        losses.append(float(-np.mean(y * np.log(yhat) + (1.0 - y) * np.log(1.0 - yhat))))
    return weights, biases, losses


def relative_error(a, b):
    return abs(a - b) / max(1e-8, abs(a) + abs(b))


class TestInitNetwork:
    def test_deterministic_per_seed(self):
        m1 = init_network([4, 8, 1], seed=11)
        m2 = init_network([4, 8, 1], seed=11)
        for w1, w2 in zip(m1.weights, m2.weights):
            assert np.array_equal(w1, w2)
        for b1, b2 in zip(m1.biases, m2.biases):
            assert np.array_equal(b1, b2)

    def test_shapes(self):
        m = init_network([4, 8, 1], seed=0)
        assert m.weights[0].shape == (8, 4)
        assert m.weights[1].shape == (1, 8)
        assert m.biases[0].shape == (8,)
        assert m.biases[1].shape == (1,)

    def test_fan_in_bound(self):
        m = init_network([4, 8, 1], seed=2)
        assert np.all(np.abs(m.weights[0]) <= 0.5)  # 1/sqrt(4)
        assert np.all(np.abs(m.weights[1]) <= 1.0 / math.sqrt(8))
        assert np.all(m.biases[0] == 0.0)

    def test_invalid_sizes(self):
        with pytest.raises(ValidationError):
            init_network([4], seed=0)
        with pytest.raises(ValidationError):
            init_network([4, 0, 1], seed=0)
        with pytest.raises(ValidationError):
            init_network([4, 8, 2], seed=0)


class TestForward:
    def test_zero_network_outputs_half(self):
        m = NetworkModel([3, 2, 1], [np.zeros((2, 3)), np.zeros((1, 2))],
                         [np.zeros(2), np.zeros(1)])
        out, _ = forward(m, [0.3, -1.0, 4.0])
        assert out == pytest.approx(0.5)

    def test_single_unit(self):
        m = NetworkModel([1, 1], [np.array([[1.0]])], [np.zeros(1)])
        out, _ = forward(m, [0.0])
        assert out == pytest.approx(0.5)

    def test_hand_computed_two_layer(self):
        w1 = np.array([[1.0, -1.0], [0.5, 0.25]])
        b1 = np.array([0.1, -0.2])
        w2 = np.array([[2.0, -1.0]])
        b2 = np.array([0.05])
        m = NetworkModel([2, 2, 1], [w1, w2], [b1, b2])
        x = (0.3, 0.7)

        def sig(v):
            return 1.0 / (1.0 + math.exp(-v))

        h1 = sig(1.0 * 0.3 - 1.0 * 0.7 + 0.1)
        h2 = sig(0.5 * 0.3 + 0.25 * 0.7 - 0.2)
        expected = sig(2.0 * h1 - 1.0 * h2 + 0.05)
        out, acts = forward(m, x)
        assert out == pytest.approx(expected, abs=1e-12)
        assert acts[1] == pytest.approx([h1, h2], abs=1e-12)

    def test_output_strictly_inside_unit_interval(self):
        m = init_network([2, 4, 1], seed=3)
        m.weights[1][:] = 500.0  # force saturation
        m.biases[1][:] = 500.0
        out, _ = forward(m, [1.0, 1.0])
        assert 0.0 < out < 1.0


class TestBackprop:
    def test_zero_residual_means_zero_gradients(self):
        # all-zero net outputs exactly 0.5; target 0.5 sits at the stationary point
        m = NetworkModel([2, 2, 1], [np.zeros((2, 2)), np.zeros((1, 2))],
                         [np.zeros(2), np.zeros(1)])
        gw, gb = backprop_gradients(m, [0.4, 0.6], 0.5)
        for g in gw + gb:
            assert np.all(g == 0.0)

    def test_output_bias_gradient_ignores_input_when_weights_zero(self):
        m = NetworkModel([2, 2, 1], [np.zeros((2, 2)), np.zeros((1, 2))],
                         [np.zeros(2), np.zeros(1)])
        _, gb1 = backprop_gradients(m, [0.2, 0.1], 1.0)
        _, gb2 = backprop_gradients(m, [0.4, 0.2], 1.0)
        assert gb1[-1] == pytest.approx(gb2[-1])

    def test_one_row_weight_gradient_sums_from_positive_zero(self):
        # the residual is negative and the input zero: the one product is -0.0,
        # and a sum over the batch rows starts at +0.0 (np.matmul's one-row dot)
        m = NetworkModel([1, 1], [np.array([[0.5]])], [np.zeros(1)])
        gw, _ = backprop_gradients(m, [0.0], 1.0)
        assert gw[0].view(np.uint64)[0, 0] == np.array(0.0).view(np.uint64)

    @pytest.mark.parametrize("sizes,seed", [([3, 4, 1], 21), ([4, 8, 1], 22)])
    def test_matches_central_finite_differences(self, sizes, seed):
        rng = np.random.default_rng(seed)
        model = init_network(sizes, seed=seed)
        for k in range(20):
            x = rng.random(sizes[0])
            y = float(k % 2)
            gw, gb = backprop_gradients(model, x, y)
            nw, nb = numeric_gradients(model, x, y)
            for a, n in zip(gw, nw):
                for idx in np.ndindex(a.shape):
                    assert relative_error(a[idx], n[idx]) < 1e-5
            for a, n in zip(gb, nb):
                for idx in np.ndindex(a.shape):
                    assert relative_error(a[idx], n[idx]) < 1e-5


class TestTrain:
    def planted_ds(self, n=240, seed=13):
        rng = np.random.default_rng(seed)
        X = rng.random((n, 3))
        eta = 3.0 * X[:, 0] - 3.0 * X[:, 1] + 1.0 * X[:, 2] - 0.5
        y = (rng.random(n) < 1.0 / (1.0 + np.exp(-eta))).astype(int)
        return make_ds(X, y)

    @pytest.mark.parametrize("sizes,n,batch_size", [
        ([3, 4, 1], 240, 32),   # short last batch
        ([3, 4, 1], 250, 24),   # short last batch of 10 rows
        ([1, 8, 1], 97, 10),
        ([5, 4, 3, 1], 130, 32),
        ([3, 4, 1], 240, 240),  # one batch of every row
        ([2, 3, 1], 45, 64),    # batch larger than the training set
        ([3, 4, 1], 256, 32),   # every batch full
        ([3, 4, 1], 257, 32),   # short last batch of one row
    ])
    def test_matches_reference_loop(self, sizes, n, batch_size):
        rng = np.random.default_rng(n + sizes[0])
        X = rng.random((n, sizes[0]))
        y = (rng.random(n) < X.mean(axis=1)).astype(int)
        model = init_network(sizes, seed=n)
        ref_w, ref_b, ref_losses = reference_train(
            model, X, y.astype(float), epochs=6, learning_rate=0.7,
            batch_size=batch_size, seed=n + 1,
        )
        (losses,) = train_stack([model], [make_ds(X, y)], epochs=6, learning_rate=0.7,
                                batch_size=batch_size, seeds=[n + 1])
        assert losses == ref_losses
        for got, want in zip(model.weights + model.biases, ref_w + ref_b):
            # as bits: np.array_equal takes -0.0 for 0.0
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_zero_learning_rate_changes_nothing(self):
        ds = self.planted_ds()
        model = init_network([3, 4, 1], seed=1)
        before = [w.copy() for w in model.weights]
        train_stack([model], [ds], epochs=3, learning_rate=0.0, batch_size=16, seeds=[5])
        for w0, w1 in zip(before, model.weights):
            assert np.array_equal(w0, w1)

    def test_full_batch_loss_strictly_decreasing(self):
        ds = self.planted_ds()
        model = init_network([3, 4, 1], seed=2)
        (losses,) = train_stack([model], [ds], epochs=50, learning_rate=0.05,
                                batch_size=ds.n_rows, seeds=[3])
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_deterministic_history(self):
        ds = self.planted_ds()
        m1 = init_network([3, 4, 1], seed=4)
        m2 = init_network([3, 4, 1], seed=4)
        (h1,) = train_stack([m1], [ds], epochs=5, learning_rate=0.1, batch_size=32, seeds=[9])
        (h2,) = train_stack([m2], [ds], epochs=5, learning_rate=0.1, batch_size=32, seeds=[9])
        assert h1 == h2
        for w1, w2 in zip(m1.weights, m2.weights):
            assert np.array_equal(w1, w2)

    def test_learns_linearly_separable_data(self):
        rng = np.random.default_rng(17)
        X = rng.random((200, 2))
        y = (X[:, 0] + X[:, 1] > 1.0).astype(int)
        ds = make_ds(X, y)
        model = init_network([2, 8, 1], seed=17)
        train_stack([model], [ds], epochs=500, learning_rate=0.5, batch_size=32, seeds=[18])
        report = evaluate(model, ds, 0.5)
        assert report["accuracy"] >= 0.95

    def test_divergence_reported_with_epoch(self):
        ds = make_ds([[1.0, 1.0]] * 8, [1] * 8)
        model = init_network([2, 1], seed=0)
        model.weights[0][:] = [np.inf, -np.inf]  # inf - inf -> NaN activations
        (error,) = train_stack([model], [ds], epochs=2, learning_rate=0.0, batch_size=4,
                               seeds=[0])
        assert isinstance(error, TrainingDivergedError)
        assert str(error) == "non-finite loss at epoch 1"


class TestStepPlan:
    def test_sigmoid_into_matches_logit_sigmoid(self):
        """The plan's in-place sigmoid (float mask, 0-d constants) and
        ``logit.sigmoid`` give the bits of the two-branch ``sig``, signed
        zeros included, and exact values at the extremes; NaN stays NaN."""
        special = np.array([0.0, -0.0, 800.0, -800.0, 1e-300, -1e-300, np.inf, -np.inf, np.nan])
        exact = np.array([0.5, 0.5, 1.0, 0.0, 0.5, 0.5, 1.0, 0.0, np.nan])
        random = np.random.default_rng(5).normal(scale=30.0, size=(257, 7))
        for eta, want in ((special, exact), (random, sig(random))):
            z, a = eta.copy(), np.empty_like(eta)
            sigmoid_into(z, a)
            nan = np.isnan(want)
            for got in (a, sigmoid(eta)):
                np.testing.assert_array_equal(np.isnan(got), nan)
                np.testing.assert_array_equal(got[~nan].view(np.uint64),
                                              want[~nan].view(np.uint64))

    @given(st.lists(st.tuples(st.sampled_from([0.0, 1.0]),
                              st.floats(min_value=OUTPUT_EPS, max_value=1.0 - OUTPUT_EPS)),
                    min_size=1, max_size=20))
    @example([(y, yhat) for y in (0.0, 1.0) for yhat in (OUTPUT_EPS, 1.0 - OUTPUT_EPS, math.nan)])
    def test_one_log_loss_is_the_cross_entropy(self, pairs):
        """For a 0/1 target, the loss row of ``train_stack`` (``log(yhat)``
        or ``log(1 - yhat)``, picked by ``copyto``) is
        ``y * log(yhat) + (1 - y) * log(1 - yhat)`` bit for bit, over the
        clamped range of ``yhat``, both bounds included; NaN stays NaN."""
        y, yhat = np.array(pairs).T
        want = y * np.log(yhat) + (1.0 - y) * np.log(1.0 - yhat)
        got = np.subtract(1.0, yhat)
        np.copyto(got, yhat, where=y == 1)
        np.log(got, out=got)
        nan = np.isnan(want)
        np.testing.assert_array_equal(np.isnan(got), nan)
        np.testing.assert_array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))


class TestTrainStack:
    """A stack must give every company the bits that a stack of one gives it."""

    def company(self, width, n, seed, hidden, scale=1.0):
        rng = np.random.default_rng(seed)
        X = rng.random((n, width))
        y = (rng.random(n) < X.mean(axis=1)).astype(int)
        if scale != 1.0:  # signed and large: sigmoids saturate, and at 1e200 the loss turns NaN
            X = (X - 0.5) * scale
        return make_ds(X, y), [width] + hidden + [1]

    def assert_same_bits(self, got, want):
        for a, b in zip(got.weights + got.biases, want.weights + want.biases):
            # as bits: np.array_equal takes -0.0 for 0.0
            np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))

    @pytest.mark.parametrize("hidden", [[8], [4, 3], []])
    @pytest.mark.parametrize("n,batch_size,scale", [
        pytest.param(97, 10, 1.0, id="97-10"),  # short last batch of 7 rows
        pytest.param(45, 64, 1.0, id="45-64"),  # batch larger than the training set
        pytest.param(65, 32, 1.0, id="65-32"),  # short last batch of one row
        pytest.param(97, 10, 1e4, id="saturated"),  # hidden sigmoids at exactly 0.0
        pytest.param(1600, 32, 1.0, id="fixture-size"),  # the loss's BLAS kernels at 1600 rows
    ])
    def test_matches_solo_train(self, hidden, n, batch_size, scale):
        """The stack runs batched (C, ...) products and a stack of one the
        2-D ones: the same bits either way."""
        companies = [self.company(w, n, 10 + w, hidden, scale) for w in (1, 4, 6)]
        stacked = [init_network(sizes, seed=w) for (_, sizes), w in zip(companies, (1, 4, 6))]
        if hidden and scale != 1.0:
            (ds, _), model = companies[0], stacked[0]
            assert any(0.0 in forward(model, x)[1][1] for x in ds.X)
        results = train_stack(stacked, [ds for ds, _ in companies], epochs=5,
                              learning_rate=0.7, batch_size=batch_size, seeds=[3, 4, 5])
        for (ds, sizes), model, losses, w, seed in zip(
            companies, stacked, results, (1, 4, 6), (3, 4, 5)
        ):
            solo = init_network(sizes, seed=w)
            (solo_losses,) = train_stack([solo], [ds], epochs=5, learning_rate=0.7,
                                         batch_size=batch_size, seeds=[seed])
            assert losses == solo_losses
            self.assert_same_bits(model, solo)

    def test_diverging_company_fails_alone(self):
        companies = [self.company(3, 60, 1, []), self.company(4, 60, 2, [], scale=1e200),
                     self.company(2, 60, 3, [])]
        stacked = [init_network(sizes, seed=i) for i, (_, sizes) in enumerate(companies)]
        results = train_stack(stacked, [ds for ds, _ in companies], epochs=4,
                              learning_rate=0.5, batch_size=16, seeds=[7, 8, 9])
        (solo_error,) = train_stack([init_network(companies[1][1], seed=1)],
                                    [companies[1][0]], epochs=4, learning_rate=0.5,
                                    batch_size=16, seeds=[8])
        assert isinstance(solo_error, TrainingDivergedError)
        assert str(solo_error) == "non-finite loss at epoch 1"
        assert isinstance(results[1], TrainingDivergedError)
        assert str(results[1]) == str(solo_error)
        for i in (0, 2):
            ds, sizes = companies[i]
            solo = init_network(sizes, seed=i)
            (solo_losses,) = train_stack([solo], [ds], epochs=4, learning_rate=0.5,
                                         batch_size=16, seeds=[7 + i])
            assert results[i] == solo_losses
            self.assert_same_bits(stacked[i], solo)

    def test_company_diverging_later_fails_alone(self):
        """A company that diverges after epoch 1 stays in the stack for the
        epochs after it, and its non-finite values reach no other company."""
        companies = [self.company(3, 60, 1, []), self.company(4, 60, 2, [], scale=1e155),
                     self.company(2, 60, 3, [])]
        stacked = [init_network(sizes, seed=i) for i, (_, sizes) in enumerate(companies)]
        results = train_stack(stacked, [ds for ds, _ in companies], epochs=8,
                              learning_rate=0.5, batch_size=16, seeds=[7, 8, 9])
        (solo_error,) = train_stack([init_network(companies[1][1], seed=1)],
                                    [companies[1][0]], epochs=8, learning_rate=0.5,
                                    batch_size=16, seeds=[8])
        # the epoch of divergence depends on the BLAS kernel; that it is after epoch 1 does not
        assert isinstance(solo_error, TrainingDivergedError)
        match = re.fullmatch(r"non-finite loss at epoch (\d+)", str(solo_error))
        assert match and 1 < int(match.group(1)) <= 8
        assert isinstance(results[1], TrainingDivergedError)
        assert str(results[1]) == str(solo_error)
        for i in (0, 2):
            ds, sizes = companies[i]
            solo = init_network(sizes, seed=i)
            (solo_losses,) = train_stack([solo], [ds], epochs=8, learning_rate=0.5,
                                         batch_size=16, seeds=[7 + i])
            assert results[i] == solo_losses
            self.assert_same_bits(stacked[i], solo)

    def test_stack_shape_checks(self):
        (ds60, sizes), (ds61, _) = self.company(3, 60, 1, [8]), self.company(3, 61, 2, [8])
        models = [init_network(sizes, seed=0), init_network(sizes, seed=1)]
        with pytest.raises(ValidationError, match="equal training-row counts"):
            train_stack(models, [ds60, ds61], epochs=1, learning_rate=0.1,
                        batch_size=8, seeds=[0, 1])
        models[1] = init_network([3, 4, 1], seed=1)
        with pytest.raises(ValidationError, match="past the input"):
            train_stack(models, [ds60, ds60], epochs=1, learning_rate=0.1,
                        batch_size=8, seeds=[0, 1])


class TestEvaluate:
    def test_constant_half_with_half_threshold_predicts_all_ones(self):
        m = NetworkModel([1, 1], [np.zeros((1, 1))], [np.zeros(1)])
        y = [1, 0, 1, 1, 0, 0]
        ds = make_ds([[0.1], [0.9], [0.4], [0.3], [0.8], [0.2]], y)
        report = evaluate(m, ds, 0.5)
        assert report["false_neg"] == 0 and report["true_neg"] == 0
        assert report["accuracy"] == pytest.approx(np.mean(y))

    def test_hand_tallied_counts(self):
        # out = sigmoid(4x - 2): x=0 -> .119, x=.25 -> .269, x=.5 -> .5, x=1 -> .881
        m = NetworkModel([1, 1], [np.array([[4.0]])], [np.array([-2.0])])
        X = [[0.0], [1.0], [0.5], [1.0], [0.0], [0.25]]
        y = [1, 1, 0, 1, 0, 0]
        report = evaluate(m, make_ds(X, y), 0.5)
        assert (report["true_pos"], report["true_neg"]) == (2, 2)
        assert (report["false_pos"], report["false_neg"]) == (1, 1)
        assert report["accuracy"] == pytest.approx(4.0 / 6.0)
        assert report["n_test"] == 6

    def test_threshold_monotonicity(self):
        model = init_network([3, 5, 1], seed=23)
        rng = np.random.default_rng(23)
        ds = make_ds(rng.random((40, 3)), rng.integers(0, 2, 40))
        previous = None
        for threshold in [0.1, 0.3, 0.5, 0.7, 0.9]:
            report = evaluate(model, ds, threshold)
            predicted_ones = report["true_pos"] + report["false_pos"]
            if previous is not None:
                assert predicted_ones <= previous
            previous = predicted_ones

    def test_counts_sum_to_n(self):
        model = init_network([2, 3, 1], seed=5)
        rng = np.random.default_rng(5)
        ds = make_ds(rng.random((25, 2)), rng.integers(0, 2, 25))
        r = evaluate(model, ds, 0.5)
        assert r["true_pos"] + r["true_neg"] + r["false_pos"] + r["false_neg"] == r["n_test"]


class TestModelSerialization:
    def test_roundtrip(self):
        model = init_network([3, 4, 1], seed=31)
        doc = model_to_dict(model, metadata={"seed": 31})
        again = model_from_dict(doc)
        assert again.layer_sizes == model.layer_sizes
        for w1, w2 in zip(model.weights, again.weights):
            assert np.array_equal(w1, w2)

    def test_shape_mismatch_rejected(self):
        model = init_network([3, 4, 1], seed=31)
        doc = model_to_dict(model)
        doc["layer_sizes"] = [2, 4, 1]
        with pytest.raises(ValidationError):
            model_from_dict(doc)
        del doc["layer_sizes"]
        with pytest.raises(ValidationError, match="layer_sizes"):
            model_from_dict(doc)
