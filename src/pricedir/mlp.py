"""Small feedforward classifier trained from scratch by backpropagation.

Every layer (hidden and output) uses the logistic sigmoid; the loss is
binary cross-entropy; training is plain mini-batch gradient descent with
a seeded shuffle so runs are reproducible bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import MlpConfig
from .dataset import LabeledDataset
from .errors import TrainingDivergedError, ValidationError
from .logit import sigmoid

# Keeps log(yhat) finite when an output saturates at 0 or 1.
OUTPUT_EPS = 1e-12


@dataclass
class NetworkModel:
    """Layer sizes plus per-layer weight matrices (next x prev) and biases."""

    layer_sizes: list[int]
    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def __post_init__(self):
        pairs = list(zip(self.layer_sizes, self.layer_sizes[1:]))
        if len(self.weights) != len(pairs) or len(self.biases) != len(pairs):
            raise ValidationError("one weight matrix and bias per layer pair")
        for (fan_in, fan_out), w, b in zip(pairs, self.weights, self.biases):
            if w.shape != (fan_out, fan_in) or b.shape != (fan_out,):
                raise ValidationError(
                    f"shapes {w.shape}/{b.shape} do not chain with sizes {self.layer_sizes}"
                )


def init_network(layer_sizes, seed: int) -> NetworkModel:
    """Seeded uniform init: weights in [-1/sqrt(fan_in), +1/sqrt(fan_in)], biases 0."""
    sizes = list(layer_sizes)
    if len(sizes) < 2:
        raise ValidationError("need at least an input and an output layer")
    if any((not isinstance(s, int)) or s <= 0 for s in sizes):
        raise ValidationError(f"layer sizes must be positive integers: {sizes}")
    if sizes[-1] != 1:
        raise ValidationError("final layer must have exactly 1 unit")
    rng = np.random.default_rng(seed)
    weights = []
    biases = []
    for fan_in, fan_out in zip(sizes, sizes[1:]):
        bound = 1.0 / math.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return NetworkModel(sizes, weights, biases)


def _layers(model: NetworkModel) -> list[tuple[np.ndarray, np.ndarray]]:
    return list(zip(model.weights, model.biases))


def _layer_views(layer_sizes, flat: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-layer (weight (next, prev), bias (next,)) views into one flat vector."""
    views = []
    start = 0
    for fan_in, fan_out in zip(layer_sizes, layer_sizes[1:]):
        stop = start + fan_out * fan_in
        views.append((flat[start:stop].reshape(fan_out, fan_in), flat[stop:stop + fan_out]))
        start = stop + fan_out
    return views


def _forward_batch(layers, X: np.ndarray) -> list[np.ndarray]:
    """Activations per layer for a (n, d_in) batch; final output clamped open."""
    acts = [X]
    for w, b in layers:
        z = acts[-1] @ w.T
        z += b
        acts.append(sigmoid(z))
    # np.clip in place, without its Python-level argument handling
    np.maximum(acts[-1], OUTPUT_EPS, out=acts[-1])
    np.minimum(acts[-1], 1.0 - OUTPUT_EPS, out=acts[-1])
    return acts


def forward(model: NetworkModel, x) -> tuple[float, list[np.ndarray]]:
    """Single-sample forward pass returning (output, cached activations)."""
    x = np.asarray(x, dtype=float).ravel()
    if len(x) != model.layer_sizes[0]:
        raise ValidationError(
            f"expected {model.layer_sizes[0]} inputs, got {len(x)}"
        )
    if not np.all(np.isfinite(x)):
        raise ValidationError("input contains non-finite values")
    acts = _forward_batch(_layers(model), x.reshape(1, -1))
    return float(acts[-1][0, 0]), [a[0] for a in acts]


def bce_loss(y: float, yhat: float) -> float:
    """Binary cross-entropy with the output clamp applied."""
    yhat = min(max(yhat, OUTPUT_EPS), 1.0 - OUTPUT_EPS)
    return -(y * math.log(yhat) + (1.0 - y) * math.log(1.0 - yhat))


def _mean_loss(layers, X: np.ndarray, y: np.ndarray) -> float:
    yhat = _forward_batch(layers, X)[-1][:, 0]
    return float(-np.mean(y * np.log(yhat) + (1.0 - y) * np.log(1.0 - yhat)))


def _summed_gradients(layers, grads, X: np.ndarray, Y: np.ndarray) -> None:
    """Write the batch's cross-entropy gradients, summed over its rows, into ``grads``.

    ``Y`` holds the targets as an (n, 1) column.  ``grads`` holds one
    (weight, bias) pair of arrays per layer, shaped like ``layers``;
    dividing by the row count gives the batch mean.
    """
    acts = _forward_batch(layers, X)
    # sigmoid output + cross-entropy: output delta is yhat - y
    delta = acts[-1] - Y
    for layer in range(len(layers) - 1, -1, -1):
        grad_w, grad_b = grads[layer]
        np.matmul(delta.T, acts[layer], out=grad_w)
        np.add.reduce(delta, axis=0, out=grad_b)
        if layer > 0:
            a = acts[layer]
            delta = (delta @ layers[layer][0]) * a * (1.0 - a)


def backprop_gradients(model: NetworkModel, x, y: float):
    """Exact loss gradients for one sample (target may be fractional)."""
    x = np.asarray(x, dtype=float).ravel()
    if len(x) != model.layer_sizes[0]:
        raise ValidationError(
            f"expected {model.layer_sizes[0]} inputs, got {len(x)}"
        )
    if not 0.0 <= y <= 1.0:
        raise ValidationError("target must lie in [0, 1]")
    grads = [(np.empty_like(w), np.empty_like(b)) for w, b in _layers(model)]
    _summed_gradients(_layers(model), grads, x.reshape(1, -1), np.asarray([[float(y)]]))
    return [w for w, _ in grads], [b for _, b in grads]


def train(
    model: NetworkModel,
    train_ds: LabeledDataset,
    epochs: int,
    learning_rate: float,
    batch_size: int,
    seed: int,
) -> tuple[NetworkModel, list[float]]:
    """Mini-batch gradient descent; mutates and returns the given model.

    Each epoch shuffles the row order with the seeded generator, walks
    batches of ``batch_size`` (last one may be short), and steps against
    the batch-averaged gradient.  ``loss_history`` holds the mean
    full-training-set loss after each epoch.  Deterministic per seed.

    The step runs on one flat parameter vector and one flat gradient
    vector, with per-layer views into both, so the update is three numpy
    calls for the whole network.  Each element sees the same IEEE
    operations as ``w -= learning_rate * mean_gradient`` layer by layer.
    """
    if train_ds.n_rows == 0:
        raise ValidationError("training set is empty")
    if epochs < 1 or batch_size < 1:
        raise ValidationError("epochs and batch_size must be positive")
    if learning_rate < 0:
        raise ValidationError("learning_rate must be non-negative")
    if train_ds.X.shape[1] != model.layer_sizes[0]:
        raise ValidationError(
            f"model expects {model.layer_sizes[0]} features, "
            f"dataset has {train_ds.X.shape[1]}"
        )
    X = np.asarray(train_ds.X, dtype=float)
    y = np.asarray(train_ds.y, dtype=float)
    Y = y.reshape(-1, 1)
    n = len(y)
    rng = np.random.default_rng(seed)

    params = np.concatenate([p.ravel() for layer in _layers(model) for p in layer])
    grads = np.empty_like(params)
    layers = _layer_views(model.layer_sizes, params)
    grad_layers = _layer_views(model.layer_sizes, grads)
    loss_history: list[float] = []
    try:
        for epoch in range(epochs):
            order = rng.permutation(n)
            X_epoch, Y_epoch = X[order], Y[order]
            for start in range(0, n, batch_size):
                stop = min(start + batch_size, n)
                _summed_gradients(
                    layers, grad_layers, X_epoch[start:stop], Y_epoch[start:stop]
                )
                grads /= stop - start
                grads *= learning_rate
                params -= grads
            loss = _mean_loss(layers, X, y)
            if not math.isfinite(loss):
                raise TrainingDivergedError(f"non-finite loss at epoch {epoch + 1}")
            loss_history.append(loss)
    finally:
        for (w, b), (w_new, b_new) in zip(_layers(model), layers):
            w[...] = w_new
            b[...] = b_new
    return model, loss_history


@dataclass
class EvalReport:
    """Confusion counts and accuracy on a held-out set."""

    n_test: int
    accuracy: float
    true_pos: int
    true_neg: int
    false_pos: int
    false_neg: int
    threshold: float


def evaluate(
    model: NetworkModel, test_ds: LabeledDataset, threshold: float = MlpConfig.threshold
) -> EvalReport:
    """Classify with ``output >= threshold`` (ties predict 1) and tally counts."""
    if test_ds.n_rows == 0:
        raise ValidationError("test set is empty")
    if not 0.0 < threshold < 1.0:
        raise ValidationError("threshold must be in (0, 1)")
    outputs = _forward_batch(_layers(model), np.asarray(test_ds.X, dtype=float))[-1][:, 0]
    pred = outputs >= threshold
    actual = np.asarray(test_ds.y, dtype=bool)
    tp = int(np.sum(pred & actual))
    tn = int(np.sum(~pred & ~actual))
    fp = int(np.sum(pred & ~actual))
    fn = int(np.sum(~pred & actual))
    n = test_ds.n_rows
    return EvalReport(
        n_test=n,
        accuracy=(tp + tn) / n,
        true_pos=tp,
        true_neg=tn,
        false_pos=fp,
        false_neg=fn,
        threshold=threshold,
    )


def model_to_dict(model: NetworkModel, metadata: dict | None = None) -> dict:
    """JSON-ready form: layer sizes, row-major weights, biases, metadata."""
    return {
        "layer_sizes": list(model.layer_sizes),
        "weights": [w.tolist() for w in model.weights],
        "biases": [b.tolist() for b in model.biases],
        "metadata": dict(metadata or {}),
    }


def _model_entries(data: dict, key: str, convert) -> list:
    if key not in data:
        raise ValidationError(f"model document has no {key!r} key")
    try:
        return [convert(v) for v in data[key]]
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"model document key {key!r} is malformed: {exc}") from exc


def model_from_dict(data: dict) -> NetworkModel:
    """Inverse of ``model_to_dict``; NetworkModel checks that the shapes chain."""
    if not isinstance(data, dict):
        raise ValidationError("model document must be a JSON object")
    return NetworkModel(
        _model_entries(data, "layer_sizes", int),
        _model_entries(data, "weights", lambda w: np.asarray(w, dtype=float)),
        _model_entries(data, "biases", lambda b: np.asarray(b, dtype=float)),
    )
