"""Backpropagation multilayer perceptron: tanh hidden layers, log-sigmoid
output, full-batch gradient descent, and validation early stopping that
restores the best-validation weights.

The training error is the batch mean of the squared output-target difference;
the factor 2 from differentiating the square is kept in the gradient.

A layer is one (out, in + 1) block [W | b], its weights with its biases as
one more column, and its buffers are feature-major: one unit per array row,
one data row per column.  Every layer's input buffer ends in a row of ones,
written once, so a layer's forward pass is one matmul [W | b] @ [a; 1], its
packed weight-and-bias gradient one more, delta @ [a; 1].T, and an epoch has
no bias add and no bias row sum.

A training owns its buffers (`LayerBuffers`): one set for the training rows
and one for the validation rows, allocated once and rewritten in place by
every epoch, so an epoch allocates no row-sized array.  With m the input
width and L the number of hidden layers, the training set holds
(m + 1 + 2 * sum(hidden) + L + 4) float64 per row and the validation set
(m + 1 + sum(hidden) + L + 3), the L + 1 rows of ones counted: at width 10,
hidden (20, 30) and 1,120 training rows the training set takes 1.05 MB,
held for the length of the training.  Every in-place operation keeps the
order of the allocating formulas, so results are bit-identical to them
(tests/test_net_buffers.py keeps those formulas as the reference).

A training also keeps its parameters in one flat float64 vector, the layer
blocks end to end, of which the model's layers are views, and its gradients
in another laid out the same way, so a descent step, snapshot or restore is
one vector operation.  The model's `weights` and `biases` are views of the
blocks, and the model file stores them under their own names.

The buffers carry a leading channel axis, (channels, units, rows).  The
point network runs one channel; the rough network (`rnn`) runs its shared
layers here as two, the min and max outputs of its rough layer.  The output
is the logsig of the channels' mean output net, so one channel gives the
plain network exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dataset import ModelFile, Scaler, Table, split_indices, write_model
from .errors import ParameterError, ShapeError, TrainingDivergedError

STOP_GOAL = "goal"
STOP_EARLY = "early-stop"
STOP_EPOCHS = "epochs"


def _logsig_inplace(z: np.ndarray, expo: np.ndarray, negative: np.ndarray) -> None:
    """Overwrite `z` with its logsig 1 / (1 + e^-z), strictly increasing, range
    (0, 1); evaluated through e^-|z|, which never overflows.  `expo` and
    `negative` are scratch arrays of z's shape."""
    np.less(z, 0.0, out=negative)
    np.abs(z, out=expo)
    np.negative(expo, out=expo)
    np.exp(expo, out=expo)
    np.add(expo, 1.0, out=z)
    np.divide(expo, z, out=expo)
    np.divide(1.0, z, out=z)
    np.copyto(z, expo, where=negative)


@dataclass(frozen=True)
class MlpConfig:
    """Training configuration shared by the point network and the rough network."""

    epochs: int = 1000
    learning_rate: float = 0.05
    hidden: tuple[int, ...] = (20, 30)
    goal: float = 1e-5
    ratios: tuple[float, float] = (0.7, 0.15)
    max_fail: int = 6

    def __post_init__(self):
        object.__setattr__(self, "hidden", tuple(int(h) for h in self.hidden))
        object.__setattr__(self, "ratios", tuple(float(r) for r in self.ratios))
        if self.epochs < 1:
            raise ParameterError("epochs must be at least 1")
        if not 0 < self.learning_rate < math.inf:
            raise ParameterError(
                f"learning rate must be positive and finite, got {self.learning_rate}"
            )
        if not self.hidden or any(h < 1 for h in self.hidden):
            raise ParameterError("hidden layer sizes must all be at least 1")
        if len(self.ratios) != 2 or not all(0 <= r < math.inf for r in self.ratios):
            raise ParameterError(
                f"ratios must be two non-negative numbers, both finite, got {self.ratios}"
            )
        if self.ratios[0] <= 0:
            raise ParameterError("training ratio must be positive")
        if self.max_fail < 1:
            raise ParameterError("max_fail must be at least 1")
        if not 0 <= self.goal < math.inf:
            raise ParameterError(f"goal must be non-negative and finite, got {self.goal}")

    @property
    def shares(self) -> tuple[float, float]:
        """The training and validation shares of a training's rows: the two
        relative sizes of `ratios`, scaled to sum to 1."""
        t, v = self.ratios
        total = t + v
        return t / total, v / total


@dataclass
class TrainingTrace:
    """Per-epoch errors plus how and when training stopped."""

    train_errors: list[float] = field(default_factory=list)
    val_errors: list[float] = field(default_factory=list)
    stop_reason: str = ""
    best_epoch: int = 0

    @property
    def epochs_run(self) -> int:
        return len(self.train_errors)


@dataclass
class MlpModel:
    """Layer blocks [W | b] (tanh hidden, logsig output) and the training trace."""

    layers: list[np.ndarray]
    input_width: int
    hidden: tuple[int, ...]
    trace: TrainingTrace
    scaler: Scaler | None = None

    @property
    def weights(self) -> list[np.ndarray]:
        return [layer[:, :-1] for layer in self.layers]

    @property
    def biases(self) -> list[np.ndarray]:
        return [layer[:, -1] for layer in self.layers]

    @property
    def params(self) -> dict[str, np.ndarray]:
        return layer_params(self.weights, self.biases)


def layer_params(weights, biases, start: int = 0) -> dict[str, np.ndarray]:
    """A layer stack as named parameters: `w<i>` then `b<i>` for each layer,
    numbered from `start`."""
    named = {}
    for i, (w, b) in enumerate(zip(weights, biases), start):
        named[f"w{i}"] = w
        named[f"b{i}"] = b
    return named


def layer_shapes(input_width: int, hidden) -> dict[str, tuple[int, ...]]:
    """The shape of each parameter of a layer stack, named as in `layer_params`."""
    sizes = (input_width,) + tuple(hidden) + (1,)
    return layer_params(list(zip(sizes[1:], sizes[:-1])), [(size,) for size in sizes[1:]])


def pack(weights, biases) -> list[np.ndarray]:
    """Each layer's weights and biases as one (out, in + 1) block [W | b]."""
    return [np.column_stack((w, b)) for w, b in zip(weights, biases)]


def carve(flat: np.ndarray, shapes) -> list[np.ndarray]:
    """Views of the vector `flat`, one per shape, laid end to end in order."""
    views, start = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(flat[start:start + size].reshape(shape))
        start += size
    return views


def flat_copy(arrays) -> tuple[np.ndarray, list[np.ndarray]]:
    """The arrays copied end to end into one float64 vector, and their views
    of it."""
    flat = np.concatenate([a.ravel() for a in arrays])
    return flat, carve(flat, [a.shape for a in arrays])


def init_layers(sizes, rng) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Uniform +-1/sqrt(fan-in) weights and biases, drawn layer by layer."""
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(rng.uniform(-bound, bound, size=fan_out))
    return weights, biases


class LayerBuffers:
    """The arrays one row block needs in a stack of the `layers`' blocks,
    allocated once and rewritten by every pass over those rows.

    Every array is feature-major with a leading channel axis, (channels,
    units, rows): `x`, copied in here, is the block's (channels, width, n)
    inputs, or (width, n) for one channel.  Forward passes fill `acts`: the
    input first, then each layer's output; every layer's input ends in a row
    of ones, written here once.  With `backward`, a gradient step also fills
    `deltas` (each layer's output delta) and `grads` (each layer's packed
    [W | b] gradient), and it turns each hidden activation into its tanh
    slope in place; with `input_delta` it also fills the delta at the
    stack's input.  The gradients are views of the vector `flat_grads`, laid
    out as the layers; pass `flat_grads` to have them written into a larger
    vector, or leave it None to allocate one.
    """

    def __init__(self, x: np.ndarray, layers, backward: bool = False, input_delta: bool = False,
                 flat_grads: np.ndarray | None = None):
        x = x if x.ndim == 3 else x[None]
        channels, width, n = x.shape
        widths = [layer.shape[0] for layer in layers]
        self.acts = [np.ones((channels, k + 1, n)) for k in [width] + widths[:-1]]
        self.acts.append(np.empty((channels, widths[-1], n)))
        self.acts[0][:, :width] = x
        self.expo = np.empty((1, n))
        self.negative = np.empty((1, n), dtype=bool)
        self.resid = np.empty(n)
        if backward:
            self.deltas = [np.empty((channels, k, n)) for k in widths]
            self.input_delta = np.empty((channels, width, n)) if input_delta else None
            shapes = [layer.shape for layer in layers]
            if flat_grads is None:
                flat_grads = np.empty(sum(map(math.prod, shapes)))
            self.flat_grads = flat_grads
            self.grads = carve(flat_grads, shapes)
            # one channel's matmul writes its gradient in place; more are added after
            self.channel_grads = [
                g[None] if channels == 1 else np.empty((channels,) + g.shape) for g in self.grads
            ]


def _add_channels(a: np.ndarray) -> np.ndarray:
    """Add every channel of `a` into channel 0, in channel order, and return it."""
    for c in range(1, a.shape[0]):
        a[0] += a[c]
    return a[0]


def _forward(layers, rows: LayerBuffers) -> np.ndarray:
    """The logsig of the channel mean of the output nets over the rows, as a
    view into `rows`."""
    acts = rows.acts
    last = len(layers) - 1
    for i, layer in enumerate(layers):
        z = acts[i + 1][:, :layer.shape[0]]
        np.matmul(layer, acts[i], out=z)
        if i < last:
            np.tanh(z, out=z)
    out = _add_channels(acts[-1])
    if acts[-1].shape[0] > 1:
        out *= 1.0 / acts[-1].shape[0]
    _logsig_inplace(out, rows.expo, rows.negative)
    return out[0]


def _tanh_slope(a: np.ndarray) -> np.ndarray:
    """Overwrite the tanh outputs `a` with their derivative 1 - a^2."""
    np.square(a, out=a)
    return np.subtract(1.0, a, out=a)


def _output_delta(a: np.ndarray, resid: np.ndarray, n: int, delta: np.ndarray, scratch: np.ndarray) -> None:
    """The logsig output's delta (2 / n) * resid * (a * (1 - a)) for a mean
    over n rows, written into `delta`; `scratch` is an array of a's shape."""
    np.multiply(2.0 / n, resid, out=delta)
    np.subtract(1.0, a, out=scratch)
    scratch *= a
    delta *= scratch


def _mean_square(resid: np.ndarray) -> float:
    np.square(resid, out=resid)
    return float(np.add.reduce(resid)) / resid.size


def scores(model: MlpModel, values: np.ndarray) -> np.ndarray:
    """Healthy-class score in (0, 1) per row; class 1 iff >= 0.5."""
    values = np.atleast_2d(np.asarray(values, dtype=float))
    if values.shape[1] != model.input_width:
        raise ShapeError(f"expected width {model.input_width}, got {values.shape[1]}")
    return _forward(model.layers, LayerBuffers(values.T, model.layers))


def _backward(layers, rows: LayerBuffers, n: int) -> None:
    """The delta rule after a forward pass, from the output residuals in
    `rows.resid` of a mean over n rows, written into the `backward` buffers
    `rows`.  Each channel takes an equal share of the output delta, and each
    gradient adds the channels' gradients in channel order."""
    acts, deltas = rows.acts, rows.deltas
    delta = deltas[-1]
    _output_delta(acts[-1][0], rows.resid, n, delta[0], rows.expo)
    if delta.shape[0] > 1:
        share = 1.0 / delta.shape[0]
        for c in range(1, delta.shape[0]):
            np.multiply(share, delta[0], out=delta[c])
        delta[0] *= share
    for i in range(len(layers) - 1, -1, -1):
        channel_grads = rows.channel_grads[i]
        np.matmul(delta, acts[i].transpose(0, 2, 1), out=channel_grads)
        if channel_grads.shape[0] > 1:
            np.add.reduce(channel_grads, axis=0, out=rows.grads[i])
        below = deltas[i - 1] if i > 0 else rows.input_delta
        if below is not None:
            units = below.shape[1]
            np.matmul(layers[i][:, :units].T, delta, out=below)
            if i > 0:
                below *= _tanh_slope(acts[i][:, :units])
        delta = below


def batch_gradients(layers, rows: LayerBuffers, targets):
    """Mean-squared-error value and each layer's packed [W | b] full-batch
    gradient via the delta rule, written into the `backward` buffers `rows`."""
    np.subtract(_forward(layers, rows), targets, out=rows.resid)
    _backward(layers, rows, len(targets))
    return _mean_square(rows.resid), rows.grads


def _mse(layers, rows: LayerBuffers, targets) -> float:
    np.subtract(_forward(layers, rows), targets, out=rows.resid)
    return _mean_square(rows.resid)


def descend(params: np.ndarray, gradients, val_error, cfg: MlpConfig, trace: TrainingTrace) -> None:
    """Full-batch gradient descent on the flat parameter vector `params`,
    updated in place, with goal / early-stop / epoch-budget exits recorded
    on `trace`.

    `gradients()` returns the training error, a Python float, and the flat
    gradient vector laid out as `params`; descend scales that vector in
    place by the learning rate, so it must be rewritten by the next call.
    `val_error()` returns the validation error; pass None when there is no
    validation part.  With one, the parameters end at the epoch with the
    lowest validation error, kept in a snapshot vector allocated once.
    """
    best_val = math.inf
    best = np.empty_like(params)
    strikes = 0
    trace.stop_reason = STOP_EPOCHS
    for epoch in range(1, cfg.epochs + 1):
        err, grads = gradients()
        if not math.isfinite(err):
            raise TrainingDivergedError(f"non-finite training error at epoch {epoch}")
        trace.train_errors.append(err)
        if val_error is not None:
            val_err = val_error()
            if not math.isfinite(val_err):
                raise TrainingDivergedError(f"non-finite validation error at epoch {epoch}")
            trace.val_errors.append(val_err)
            if val_err < best_val:
                best_val = val_err
                trace.best_epoch = epoch
                np.copyto(best, params)
            if epoch > 1 and trace.val_errors[-1] > trace.val_errors[-2]:
                strikes += 1
            else:
                strikes = 0
        if err <= cfg.goal:
            trace.stop_reason = STOP_GOAL
            break
        if val_error is not None and strikes >= cfg.max_fail:
            trace.stop_reason = STOP_EARLY
            break
        grads *= cfg.learning_rate
        params -= grads
    if val_error is None:
        trace.best_epoch = trace.epochs_run
    else:
        np.copyto(params, best)


def train(data: Table, cfg: MlpConfig, seed: int) -> MlpModel:
    """Full-batch gradient descent (see `descend`) from initial weights
    drawn with `seed`.

    The split, seeded with `seed` too, carves training and validation parts
    from `data` by cfg.shares (a zero validation ratio gives an empty part).
    Whenever a validation part exists, the returned weights are the ones
    from the epoch with the lowest validation error.
    """
    train_idx, val_idx = split_indices(data.n_rows, cfg.shares, seed)
    d_train = data.decisions[train_idx].astype(float)
    d_val = data.decisions[val_idx].astype(float)

    sizes = (data.n_attributes,) + cfg.hidden + (1,)
    params, layers = flat_copy(pack(*init_layers(sizes, np.random.default_rng(seed))))
    model = MlpModel(layers, data.n_attributes, cfg.hidden, TrainingTrace())

    train_rows = LayerBuffers(data.values[train_idx].T, layers, backward=True)
    val_rows = LayerBuffers(data.values[val_idx].T, layers)

    def gradients():
        err, _ = batch_gradients(layers, train_rows, d_train)
        return err, train_rows.flat_grads

    def val_error():
        return _mse(layers, val_rows, d_val)

    descend(params, gradients, val_error if val_idx.size else None, cfg, model.trace)
    return model


def percent_correct(predicted: np.ndarray, actual: np.ndarray) -> float:
    """The percentage of rows whose predicted class (0/1 or False/True) is
    the actual one."""
    hits = int(np.count_nonzero(np.equal(predicted, actual)))
    return 100.0 * hits / len(actual)


def evaluate(model: MlpModel, test: Table) -> float:
    """Accuracy percentage on a table standardized with the training
    parameters."""
    if test.n_rows == 0:
        raise ParameterError("empty test set")
    return percent_correct(scores(model, test.values) >= 0.5, test.decisions)


def save_model(model: MlpModel, path) -> None:
    fields = {"input_width": model.input_width, "hidden": model.hidden}
    write_model(path, "bpnn", {**fields, **model.params}, model.scaler)


def load_model(path) -> MlpModel:
    f = ModelFile(path, "bpnn")
    hidden = tuple(f.array("hidden", int).tolist())
    input_width = f.get("input_width", int)
    params = f.arrays(layer_shapes(input_width, hidden))
    layers = range(len(hidden) + 1)
    return MlpModel(
        pack([params[f"w{i}"] for i in layers], [params[f"b{i}"] for i in layers]),
        input_width,
        hidden,
        TrainingTrace(stop_reason="loaded"),
        scaler=f.scaler(input_width),
    )
