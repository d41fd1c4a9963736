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

# Keeps log(yhat) finite when an output saturates at 0 or 1.
OUTPUT_EPS = 1e-12
# 0-d float64 operands: a ufunc converts a Python scalar on every call.
_ZERO = np.array(0.0)
_ONE = np.array(1.0)
_LOW = np.array(OUTPUT_EPS)
_HIGH = np.array(1.0 - OUTPUT_EPS)
_MINUS_ONE = np.array(-1.0)


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
    (``True`` is not one); else a ValidationError that names ``what``."""
    if not isinstance(sizes, (list, tuple)) or any(type(s) is not int or s < 1 for s in sizes):
        raise ValidationError(f"{what} must be a list of positive integers: {sizes!r}")
    return list(sizes)


def init_network(layer_sizes, seed: int) -> NetworkModel:
    """Seeded uniform init: weights in [-1/sqrt(fan_in), +1/sqrt(fan_in)], biases 0."""
    sizes = _check_sizes(layer_sizes, "layer sizes")
    if len(sizes) < 2:
        raise ValidationError("need at least an input and an output layer")
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


def _sigmoid_into(z: np.ndarray, out: np.ndarray) -> None:
    """Write ``logit.sigmoid(z)`` into ``out`` through the same IEEE operations.

    ``out`` holds ``e = exp(-|z|)`` on the way (``copysign`` only sets the
    sign bit, as ``-abs`` does).  ``z`` is overwritten: it takes the
    ``z >= 0`` mask as 0.0/1.0, so that the max runs float/float, and
    then the numerator ``max(e, mask)``.
    """
    np.copysign(z, _MINUS_ONE, out=out)
    np.exp(out, out=out)
    np.greater_equal(z, _ZERO, out=z)
    np.maximum(out, z, out=z)
    np.add(_ONE, out, out=out)
    np.divide(z, out, out=out)


def _kernel(m: int):
    """The matrix product for 2-D operands with ``m`` rows.

    ``np.dot`` is a plain BLAS call, cheaper to dispatch than
    ``np.matmul``, with the same bits, except that for a (1, 1) @ (1, 1)
    product its scalar path can return a zero of the other sign.
    """
    return np.matmul if m == 1 else np.dot


def _forward_plan(w0Ts, z0s, wTs, biases, Z, A, dot0, dot):
    """Return ``forward(Xs)``, the forward pass into bound buffers.

    ``Xs`` holds one (m, width_c) input per company.  Layer 0 runs per
    company: ``dot0(Xs[c], w0Ts[c])`` goes into ``z0s[c]``, a view of
    ``Z[0]``.  Every later layer is ``dot(A[l - 1], wTs[l])`` into
    ``Z[l]``, for one company's (m, size) buffers or a stack's
    (C, m, size) ones.  ``A[l]`` takes the activations; the final output
    is clamped open.
    """
    n_layers = len(biases)

    def forward(Xs) -> None:
        for X, w0T, z in zip(Xs, w0Ts, z0s):
            dot0(X, w0T, out=z)
        for layer in range(n_layers):
            if layer:
                dot(A[layer - 1], wTs[layer], out=Z[layer])
            np.add(Z[layer], biases[layer], out=Z[layer])
            _sigmoid_into(Z[layer], A[layer])
        # np.clip in place, without its Python-level argument handling
        np.maximum(A[-1], _LOW, out=A[-1])
        np.minimum(A[-1], _HIGH, out=A[-1])

    return forward


def _company_forward(weights, biases, Z, A):
    """``_forward_plan`` for one network's (out, in) weights into (n, size) buffers."""
    dot = _kernel(len(Z[0]))
    return _forward_plan([weights[0].T], [Z[0]], [w.T for w in weights], biases, Z, A, dot, dot)


def _forward(model: NetworkModel, X: np.ndarray) -> list[np.ndarray]:
    """The (n, size) activations of every layer for the rows of ``X``."""
    Z = [np.empty((len(X), size)) for size in model.layer_sizes[1:]]
    A = [np.empty_like(z) for z in Z]
    _company_forward(model.weights, model.biases, Z, A)([X])
    return A


def forward(model: NetworkModel, x) -> tuple[float, list[np.ndarray]]:
    """Single-sample forward pass returning (output, cached activations)."""
    x = np.asarray(x, dtype=float).ravel()
    _check_width(model, len(x), "the input")
    if not np.all(np.isfinite(x)):
        raise ValidationError("input contains non-finite values")
    acts = _forward(model, x.reshape(1, -1))
    return float(acts[-1][0, 0]), [x] + [a[0] for a in acts]


def bce_loss(y: float, yhat: float) -> float:
    """Binary cross-entropy with the output clamp applied."""
    yhat = min(max(yhat, OUTPUT_EPS), 1.0 - OUTPUT_EPS)
    return -(y * math.log(yhat) + (1.0 - y) * math.log(1.0 - yhat))


def _loss_plan(net, Xs, ys):
    """Return ``loss(c)``: company c's mean cross-entropy over all its rows.

    The companies of a stack share their row count n, so one set of
    (n, size) activation buffers and two (n,) temporaries serve them
    all, bound here with each company's ``1 - y``.  Each element goes
    through the operations of ``-mean(y * log(yhat) + (1 - y) *
    log(1 - yhat))`` in that order.
    """
    n = len(ys[0])
    Z = [np.empty((n, b.shape[2])) for b in net[1]]
    A = [np.empty_like(z) for z in Z]
    passes = [_company_forward(*_company(net, c), Z, A) for c in range(len(ys))]
    not_ys = [np.subtract(_ONE, y) for y in ys]
    yhat, log_yes, log_no = A[-1][:, 0], np.empty(n), np.empty(n)

    def loss(c: int) -> float:
        passes[c]([Xs[c]])
        np.log(yhat, out=log_yes)
        np.multiply(ys[c], log_yes, out=log_yes)
        np.subtract(_ONE, yhat, out=log_no)
        np.log(log_no, out=log_no)
        np.multiply(not_ys[c], log_no, out=log_no)
        np.add(log_yes, log_no, out=log_yes)
        return -(float(np.add.reduce(log_yes)) / n)

    return loss


def _step_plan(net, grad_net, n_companies: int, m: int):
    """Return ``gradients(Xs, Y)`` for batches of ``m`` rows of a stack of C companies.

    ``gradients`` takes one (m, width_c) batch per company and the
    targets as a (C, m, 1) array, or (m, 1) for a stack of one.  It
    writes each company's cross-entropy gradients, summed over the batch
    rows, into ``grad_net``, a (weights, biases) pair of views shaped
    like ``net``; dividing by ``m`` gives the batch mean.  The buffers
    and the transposed weight views are bound here, once, so a step
    allocates nothing and every ufunc writes ``out=``.

    Layer 0 runs per company on 2-D views.  A stack of one binds 2-D
    ``[0]`` views for every other layer too, so that each product is a
    plain 2-D BLAS call (``_kernel``); a larger stack runs batched
    (C, ...) ``np.matmul``.  The kernels give the same bits, and each
    element goes through the same operations in the same order, so a
    company's gradients do not depend on the stack it is in.
    """
    weights, biases = net
    grad_weights, grad_biases = grad_net
    # pre-activation; then the numerator, then 1 - a
    Z = [np.empty((n_companies, m, b.shape[2])) for b in biases]
    A = [np.empty_like(z) for z in Z]  # activation
    D = [np.empty_like(z) for z in Z]  # delta
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
    forward = _forward_plan(w0Ts, z0s, wTs, Bs, Z, A, dot0, dot)
    n_layers = len(biases)

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

    return gradients


def backprop_gradients(model: NetworkModel, x, y: float):
    """Exact loss gradients for one sample (target may be fractional)."""
    x = np.asarray(x, dtype=float).ravel()
    _check_width(model, len(x), "the input")
    if not 0.0 <= y <= 1.0:
        raise ValidationError("target must lie in [0, 1]")
    _, _, net, grad_net = _pack([model])
    _step_plan(net, grad_net, 1, 1)([x.reshape(1, -1)], np.asarray([[float(y)]]))
    return _company(grad_net, 0)


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
    This is ``train_stack`` on a stack of one.
    """
    (result,) = train_stack([model], [train_ds], epochs, learning_rate, batch_size, [seed])
    if isinstance(result, TrainingDivergedError):
        raise result
    return model, result


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
    shuffle generator seeded by ``seeds[c]``.  Input widths may differ;
    the layer sizes after the input must match.  Equal row counts put
    every company's batch boundaries in the same place, short last
    batch included, so the stack needs no padding and no mask.

    All parameters live in one flat vector and the gradients in a
    matching one, so the update is three numpy calls for the whole
    stack.  The gradients come from a step plan (``_step_plan``) per
    batch size, built when the stack is packed: at most two, for the
    full batches and the short last one.  The per-epoch loss comes from
    a loss plan (``_loss_plan``), built then too.  Each element sees
    the same IEEE operations as in a company-by-company loop, so a
    company's weights and losses do not depend on which companies share
    its stack.

    Mutates the models and returns one entry per company: its loss
    history (the mean full-training-set loss after each epoch), or the
    TrainingDivergedError that stopped it.  A company whose loss turns
    non-finite keeps its parameters from that epoch and leaves the
    stack; the others go on from where they are.
    """
    if not models or not len(models) == len(datasets) == len(seeds):
        raise ValidationError("a stack needs one dataset and one seed per model")
    n = len(datasets[0].y)
    if any(len(ds.y) != n for ds in datasets):
        raise ValidationError(
            f"a stack needs equal training-row counts, got {[len(ds.y) for ds in datasets]}"
        )
    if n == 0:
        raise ValidationError("training set is empty")
    if epochs < 1 or batch_size < 1:
        raise ValidationError("epochs and batch_size must be positive")
    if not 0.0 <= learning_rate < math.inf:
        raise ValidationError("learning_rate must be finite and non-negative")
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
    results: list = [[] for _ in models]
    live = list(range(len(models)))
    epoch = 0
    while live and epoch < epochs:
        stack = [models[c] for c in live]
        params, grads, net, grad_net = _pack(stack)
        losses = _loss_plan(net, [Xs[c] for c in live], [ys[c] for c in live])
        # each epoch's shuffled rows, and every batch's views into them
        X_epoch = [np.empty(Xs[c].shape) for c in live]
        Y_epoch = np.empty((len(stack), n, 1))
        Y_plan = Y_epoch[0] if len(stack) == 1 else Y_epoch  # the targets' shape in a plan
        plans = {
            m: (_step_plan(net, grad_net, len(stack), m), np.array(float(m)))
            for m in {stop - start for start, stop in batches}
        }
        steps = [
            ([X[start:stop] for X in X_epoch], Y_plan[..., start:stop, :], *plans[stop - start])
            for start, stop in batches
        ]
        try:
            while epoch < epochs:
                epoch += 1
                for c, X, Y in zip(live, X_epoch, Y_epoch):
                    order = rngs[c].permutation(n)
                    np.take(Xs[c], order, axis=0, out=X)
                    np.take(ys[c], order, out=Y[:, 0])
                for Xb, Yb, gradients, m in steps:
                    gradients(Xb, Yb)
                    np.divide(grads, m, out=grads)
                    np.multiply(grads, lr, out=grads)
                    np.subtract(params, grads, out=params)
                diverged = False
                for i, c in enumerate(live):
                    loss = losses(i)
                    if math.isfinite(loss):
                        results[c].append(loss)
                    else:
                        results[c] = TrainingDivergedError(f"non-finite loss at epoch {epoch}")
                        diverged = True
                if diverged:
                    break
        finally:
            for mine, stacked in _stack_pairs(stack, net):
                mine[...] = stacked
        live = [c for c in live if isinstance(results[c], list)]
    return results


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
    """Classify with ``output >= threshold`` (ties predict 1) and tally counts.

    ``test_ds`` is anything with ``X`` and ``y`` arrays, such as a LabeledDataset.
    """
    n = len(test_ds.y)
    if n == 0:
        raise ValidationError("test set is empty")
    if not 0.0 < threshold < 1.0:
        raise ValidationError("threshold must be in (0, 1)")
    X = np.asarray(test_ds.X, dtype=float)
    _check_width(model, X.shape[-1], "the test set")
    outputs = _forward(model, X)[-1][:, 0]
    pred = outputs >= threshold
    actual = np.asarray(test_ds.y, dtype=bool)
    tp = int(np.sum(pred & actual))
    tn = int(np.sum(~pred & ~actual))
    fp = int(np.sum(pred & ~actual))
    fn = int(np.sum(~pred & actual))
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


def _model_arrays(data: dict, key: str) -> list[np.ndarray]:
    """The ``weights`` or ``biases`` of a model document: finite float arrays."""
    try:
        arrays = [np.asarray(v, dtype=float) for v in data[key]]
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"model document key {key!r} is malformed: {exc}") from exc
    if not all(np.isfinite(a).all() for a in arrays):
        raise ValidationError(f"model document key {key!r} holds a non-finite number")
    return arrays


def model_from_dict(data: dict) -> NetworkModel:
    """Inverse of ``model_to_dict``; NetworkModel checks that the shapes chain.

    ``layer_sizes`` must be a list of positive integers, and every weight
    and bias a finite number.  ``metadata``, when present, must be an object, and its ``features``
    a list of column names.
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
    return model
