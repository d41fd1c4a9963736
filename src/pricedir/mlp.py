"""Small feedforward classifier trained from scratch by backpropagation.

Every layer (hidden and output) uses the logistic sigmoid; the loss is
binary cross-entropy; training is plain mini-batch gradient descent with
a seeded shuffle so runs are reproducible bit for bit.  Companies with
the same training-row count train together, one numpy step for the
whole stack, with the bits each would get alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import MlpConfig
from .dataset import LabeledDataset
from .errors import TrainingDivergedError, ValidationError
from .logit import _ONE, sigmoid_into

# Keeps log(yhat) finite when an output saturates at 0 or 1.
OUTPUT_EPS = 1e-12
# 0-d float64 operands: a ufunc converts a Python scalar on every call.
_LOW = np.array(OUTPUT_EPS)
_HIGH = np.array(1.0 - OUTPUT_EPS)


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


def _check_sizes(sizes, what: str) -> list[int]:
    """``sizes`` as a list, if it is a list or tuple of positive integers
    (``True`` is not one): an input layer, any hidden layers, and an output
    layer of 1 unit.  Else a ValidationError that names ``what``."""
    if (not isinstance(sizes, (list, tuple)) or len(sizes) < 2 or sizes[-1] != 1
            or any(type(s) is not int or s < 1 for s in sizes)):
        raise ValidationError(
            f"{what} must be a list of two or more positive integers ending in 1: {sizes!r}"
        )
    return list(sizes)


def init_network(layer_sizes, seed: int) -> NetworkModel:
    """Seeded uniform init: weights in [-1/sqrt(fan_in), +1/sqrt(fan_in)], biases 0."""
    sizes = _check_sizes(layer_sizes, "layer sizes")
    rng = np.random.default_rng(seed)
    weights = []
    biases = []
    for fan_in, fan_out in zip(sizes, sizes[1:]):
        bound = 1.0 / math.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return NetworkModel(sizes, weights, biases)


def _check_width(model: NetworkModel, width: int, what: str) -> None:
    if width != model.layer_sizes[0]:
        raise ValidationError(f"model expects {model.layer_sizes[0]} features, {what} has {width}")


def _stack_views(flat: np.ndarray, widths, sizes) -> tuple[list, list[np.ndarray]]:
    """(weights, biases) views for C companies' parameters in one flat vector.

    ``widths`` are the companies' input widths and ``sizes`` the layer
    sizes they share after the input.  ``weights[0]`` is a list of one
    (sizes[0], width) matrix per company, so input widths may differ;
    every deeper ``weights[l]`` is one (C, out, in) array and every
    ``biases[l]`` one (C, 1, out) array.
    """
    n_companies = len(widths)
    weights: list = [[]]
    biases = []
    start = 0
    for width in widths:
        stop = start + sizes[0] * width
        weights[0].append(flat[start:stop].reshape(sizes[0], width))
        start = stop
    for layer, fan_out in enumerate(sizes):
        if layer:
            stop = start + n_companies * fan_out * sizes[layer - 1]
            weights.append(flat[start:stop].reshape(n_companies, fan_out, sizes[layer - 1]))
            start = stop
        stop = start + n_companies * fan_out
        biases.append(flat[start:stop].reshape(n_companies, 1, fan_out))
        start = stop
    return weights, biases


def _company(net, c: int) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Company ``c``'s weights (out, in) and biases (out,) in a stack: views."""
    weights, biases = net
    return [weights[0][c]] + [w[c] for w in weights[1:]], [b[c, 0] for b in biases]


def _stack_pairs(models, net):
    """(model array, stack view) for every weight and bias of every model."""
    for c, model in enumerate(models):
        weights, biases = _company(net, c)
        yield from zip(model.weights + model.biases, weights + biases)


def _kernel(m: int):
    """The matrix product for 2-D operands with ``m`` rows.

    ``np.dot`` is a plain BLAS call, cheaper to dispatch than
    ``np.matmul``, with the same bits, except that for a (1, 1) @ (1, 1)
    product its scalar path can return a zero of the other sign.
    """
    return np.matmul if m == 1 else np.dot


def _forward(model: NetworkModel, X: np.ndarray) -> list[np.ndarray]:
    """The (n, size) activations of every layer for the rows of ``X``."""
    _, _, net, grad_net = _pack([model])
    forward, _, A = _step_plan(net, grad_net, 1, len(X))
    with np.errstate(over="ignore", invalid="ignore"):  # see ``train_stack``
        forward([X])
    return [a[0] for a in A]


def _step_plan(net, grad_net, n_companies: int, m: int):
    """Return ``(forward, gradients, A)``, every pass of the network over
    ``m`` rows of each company of a stack of C.

    ``forward(Xs)`` takes one (m, width_c) input per company and writes
    every layer's activations into ``A``, one (C, m, size) buffer per
    layer; the final output is clamped open.  ``gradients(Xs, Y)`` runs
    ``forward``, takes the targets as a (C, m, 1) array, or (m, 1) for a
    stack of one, and writes each company's cross-entropy gradients,
    summed over the rows, into ``grad_net``, a (weights, biases) pair of
    views shaped like ``net``.  The buffers and the transposed weight
    views are bound here, once, so a pass allocates nothing and every
    ufunc writes ``out=``.

    Layer 0 runs per company on 2-D views.  A stack of one binds 2-D
    ``[0]`` views for every other layer too, so that each product is a
    plain 2-D BLAS call (``_kernel``); a larger stack runs batched
    (C, ...) ``np.matmul``.  The kernels give the same bits, and each
    element goes through the same operations in the same order, so a
    company's outputs and gradients do not depend on the stack it is in.
    """
    weights, biases = net
    grad_weights, grad_biases = grad_net
    # pre-activation; then the numerator, then 1 - a
    Z = [np.empty((n_companies, m, b.shape[2])) for b in biases]
    A = [np.empty_like(z) for z in Z]  # activation
    D = [np.empty_like(z) for z in Z]  # delta
    activations = A  # (C, m, size) even where the kernels take 2-D views
    z0s, d0Ts, w0Ts = list(Z[0]), [d.T for d in D[0]], [w.T for w in weights[0]]
    Ws, Bs, GWs, GBs = [None] + weights[1:], biases, [None] + grad_weights[1:], grad_biases
    dot0 = _kernel(m)
    if n_companies == 1:
        Ws, Bs, GWs, GBs, Z, A, D = (
            [a if a is None else a[0] for a in arrays] for arrays in (Ws, Bs, GWs, GBs, Z, A, D)
        )
        dot = dot0
    else:
        dot = np.matmul
    wTs = [w if w is None else w.swapaxes(-1, -2) for w in Ws]
    dTs = [d.swapaxes(-1, -2) for d in D]
    n_layers = len(biases)

    def forward(Xs) -> None:
        for X, w0T, z in zip(Xs, w0Ts, z0s):
            dot0(X, w0T, out=z)
        for layer in range(n_layers):
            if layer:
                dot(A[layer - 1], wTs[layer], out=Z[layer])
            np.add(Z[layer], Bs[layer], out=Z[layer])
            sigmoid_into(Z[layer], A[layer])
        # np.clip in place, without its Python-level argument handling
        np.maximum(A[-1], _LOW, out=A[-1])
        np.minimum(A[-1], _HIGH, out=A[-1])

    def gradients(Xs, Y) -> None:
        forward(Xs)
        # sigmoid output + cross-entropy: output delta is yhat - y
        np.subtract(A[-1], Y, out=D[-1])
        for layer in range(n_layers - 1, 0, -1):
            np.add.reduce(D[layer], axis=-2, keepdims=True, out=GBs[layer])
            dot(dTs[layer], A[layer - 1], out=GWs[layer])
            # the delta below is (delta @ w) * a * (1 - a); Z below is free for 1 - a
            a, delta, one_minus_a = A[layer - 1], D[layer - 1], Z[layer - 1]
            dot(D[layer], Ws[layer], out=delta)
            np.multiply(delta, a, out=delta)
            np.subtract(_ONE, a, out=one_minus_a)
            np.multiply(delta, one_minus_a, out=delta)
        np.add.reduce(D[0], axis=-2, keepdims=True, out=GBs[0])
        for X, d0T, grad_w in zip(Xs, d0Ts, grad_weights[0]):
            dot0(d0T, X, out=grad_w)

    return forward, gradients, activations


def _pack(models) -> tuple[np.ndarray, np.ndarray, tuple, tuple]:
    """A stack's flat parameter vector (filled from the models), a matching
    gradient vector, and (weights, biases) views into each."""
    widths = [m.layer_sizes[0] for m in models]
    sizes = models[0].layer_sizes[1:]
    size = sum(p.size for m in models for p in m.weights + m.biases)
    params, grads = np.empty(size), np.empty(size)
    net = _stack_views(params, widths, sizes)
    for mine, stacked in _stack_pairs(models, net):
        stacked[...] = mine
    return params, grads, net, _stack_views(grads, widths, sizes)


def train_stack(
    models: list[NetworkModel],
    datasets,
    epochs: int,
    learning_rate: float,
    batch_size: int,
    seeds: list[int],
) -> list[list[float] | TrainingDivergedError]:
    """Train C companies with the same training-row count, one SGD step for all at a time.

    ``datasets[c]`` (anything with ``X`` (n, width_c) and ``y`` (n,)
    arrays, such as a LabeledDataset) trains ``models[c]`` with the
    shuffle generator seeded by ``seeds[c]``: each epoch reshuffles the
    rows, walks batches of ``batch_size`` and steps against the
    batch-mean gradient, the same bits for a seed.  Input widths may differ;
    the layer sizes after the input must match.  Equal row counts put
    every company's batch boundaries in the same place, short last
    batch included, so the stack needs no padding and no mask.

    All parameters live in one flat vector and the gradients in a
    matching one, so the update is three numpy calls for the whole
    stack.  The models are packed once and every pass runs through a
    step plan (``_step_plan``) per row count, built once: at most three,
    for the full batches, the short last one and the per-epoch loss over
    all ``n`` rows, which is one forward pass for the whole stack (when
    ``batch_size >= n`` the batch and the loss share one plan).  Each
    element sees the same IEEE operations as in a company-by-company
    loop, so a company's weights and losses do not depend on which
    companies share its stack.

    Returns one entry per company: its loss history (the mean
    full-training-set loss after each epoch), or the TrainingDivergedError
    of its first non-finite loss.  A diverged company stays in the stack,
    its non-finite values confined to its own slices, and its later
    losses are not read; training stops early once every company has
    diverged.  The trained parameters are copied into the models after
    the last epoch, so a diverged company's parameters are unspecified,
    and an exception during training leaves every model as it was.
    """
    if not models or not len(models) == len(datasets) == len(seeds):
        raise ValidationError("a stack needs one dataset and one seed per model")
    n = len(datasets[0].y)
    if any(len(ds.y) != n for ds in datasets):
        raise ValidationError(
            f"a stack needs equal training-row counts, got {[len(ds.y) for ds in datasets]}"
        )
    for model, ds in zip(models, datasets):
        _check_width(model, ds.X.shape[1], "the dataset")
        if model.layer_sizes[1:] != models[0].layer_sizes[1:]:
            raise ValidationError(
                f"stacked models differ past the input: {model.layer_sizes[1:]} "
                f"and {models[0].layer_sizes[1:]}"
            )
    Xs = [np.asarray(ds.X, dtype=float) for ds in datasets]
    ys = [np.asarray(ds.y, dtype=float) for ds in datasets]
    rngs = [np.random.default_rng(seed) for seed in seeds]
    lr = np.array(float(learning_rate))
    batches = [(start, min(start + batch_size, n)) for start in range(0, n, batch_size)]
    params, grads, net, grad_net = _pack(models)
    plans = {
        m: _step_plan(net, grad_net, len(models), m)
        for m in {stop - start for start, stop in batches} | {n}
    }
    # each epoch's shuffled rows, and every batch's views into them
    X_epoch = [np.empty(X.shape) for X in Xs]
    Y_epoch = np.empty((len(models), n, 1))
    Y_plan = Y_epoch[0] if len(models) == 1 else Y_epoch  # the targets' shape in a plan
    steps = [
        ([X[start:stop] for X in X_epoch], Y_plan[..., start:stop, :], plans[stop - start][1],
         np.array(float(stop - start)))
        for start, stop in batches
    ]
    # The loss over all n rows in order: for a 0/1 target, y * log(yhat) +
    # (1 - y) * log(1 - yhat) is exactly log(yhat) or log(1 - yhat), as the
    # other term is a signed zero (the clamp keeps both logs finite and nonzero).
    forward, _, A = plans[n]
    yhat, yes = A[-1][..., 0], np.array(ys) == 1
    log_likelihoods = np.empty(yes.shape)
    results: list = [[] for _ in models]
    # a non-finite loss is a company's outcome: numpy's overflow warnings add nothing
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, epochs + 1):
            for X, Y, rng, X_c, y_c in zip(X_epoch, Y_epoch, rngs, Xs, ys):
                order = rng.permutation(n)
                np.take(X_c, order, axis=0, out=X)
                np.take(y_c, order, out=Y[:, 0])
            for Xb, Yb, gradients, m in steps:
                gradients(Xb, Yb)
                np.divide(grads, m, out=grads)
                np.multiply(grads, lr, out=grads)
                np.subtract(params, grads, out=params)
            forward(Xs)
            np.subtract(_ONE, yhat, out=log_likelihoods)
            np.copyto(log_likelihoods, yhat, where=yes)
            np.log(log_likelihoods, out=log_likelihoods)
            for c, row in enumerate(log_likelihoods):
                if isinstance(results[c], list):  # a diverged company's losses are not read
                    loss = -(float(np.add.reduce(row)) / n)
                    if math.isfinite(loss):
                        results[c].append(loss)
                    else:
                        results[c] = TrainingDivergedError(f"non-finite loss at epoch {epoch}")
            if not any(isinstance(r, list) for r in results):
                break
    for mine, stacked in _stack_pairs(models, net):
        mine[...] = stacked
    return results


def evaluate(
    model: NetworkModel, test_ds: LabeledDataset, threshold: float = MlpConfig.threshold
) -> dict:
    """Classify with ``output >= threshold`` (ties predict 1) and tally counts
    into the report's ``eval`` record.

    ``test_ds`` is anything with ``X`` and ``y`` arrays, such as a LabeledDataset.
    """
    n = len(test_ds.y)
    X = np.asarray(test_ds.X, dtype=float)
    _check_width(model, X.shape[-1], "the test set")
    outputs = _forward(model, X)[-1][:, 0]
    pred = outputs >= threshold
    actual = np.asarray(test_ds.y, dtype=bool)
    tp = int(np.sum(pred & actual))
    tn = int(np.sum(~pred & ~actual))
    fp = int(np.sum(pred & ~actual))
    fn = int(np.sum(~pred & actual))
    return {
        "n_test": n,
        "accuracy": (tp + tn) / n,
        "true_pos": tp,
        "true_neg": tn,
        "false_pos": fp,
        "false_neg": fn,
        "threshold": threshold,
    }


def model_to_dict(model: NetworkModel, metadata: dict | None = None) -> dict:
    """JSON-ready form: layer sizes, row-major weights, biases, metadata."""
    return {
        "layer_sizes": list(model.layer_sizes),
        "weights": [w.tolist() for w in model.weights],
        "biases": [b.tolist() for b in model.biases],
        "metadata": dict(metadata or {}),
    }


def _json_numbers(value) -> bool:
    """Whether ``value`` is a JSON number, or nested lists of them (no bools),
    walked with a stack of its own, so that no nesting depth recurses."""
    stack = [value]
    while stack:
        value = stack.pop()
        if isinstance(value, list):
            stack.extend(value)
        elif not isinstance(value, (int, float)) or isinstance(value, bool):
            return False
    return True


def _model_arrays(data: dict, key: str) -> list[np.ndarray]:
    """The ``weights`` or ``biases`` of a model document: finite float arrays."""
    if not _json_numbers(data[key]):
        raise ValidationError(f"model document key {key!r} must hold only JSON numbers")
    try:
        arrays = [np.asarray(v, dtype=float) for v in data[key]]
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"model document key {key!r} is malformed: {exc}") from exc
    if not all(np.isfinite(a).all() for a in arrays):
        raise ValidationError(f"model document key {key!r} holds a non-finite number")
    return arrays


def model_from_dict(data: dict) -> NetworkModel:
    """Inverse of ``model_to_dict``; NetworkModel checks that the shapes chain.

    ``layer_sizes`` must be a list of two or more positive integers ending
    in 1 (one output unit), and every weight and bias a finite JSON number.
    ``metadata``, when present, must be an object, its ``features`` a list
    of column names (none, or one distinct name per input) and its
    ``train_fraction`` a number in (0, 1).
    """
    if not isinstance(data, dict):
        raise ValidationError("model document must be a JSON object")
    for key in ("layer_sizes", "weights", "biases"):
        if key not in data:
            raise ValidationError(f"model document has no {key!r} key")
    model = NetworkModel(
        _check_sizes(data["layer_sizes"], "model document key 'layer_sizes'"),
        _model_arrays(data, "weights"),
        _model_arrays(data, "biases"),
    )
    metadata = data.get("metadata", {})
    if not isinstance(metadata, dict):
        raise ValidationError("model document key 'metadata' must be an object")
    features = metadata.get("features", [])
    if not (isinstance(features, list) and all(isinstance(f, str) for f in features)):
        raise ValidationError("model metadata key 'features' must be a list of strings")
    width = model.layer_sizes[0]
    if features and (len(features) != width or len(set(features)) < width):
        raise ValidationError(f"model metadata key 'features' must name {width} distinct "
                              f"columns, got {features}")
    if "train_fraction" in metadata:  # absent: evaluate splits at the config's
        fraction = metadata["train_fraction"]
        if not (isinstance(fraction, float) and 0 < fraction < 1):
            raise ValidationError("model metadata key 'train_fraction' must be a number in (0, 1)")
    return model
