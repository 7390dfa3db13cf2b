"""Backpropagation multilayer perceptron: tanh hidden layers, log-sigmoid
output, full-batch gradient descent, and validation early stopping that
restores the best-validation weights.

The training error is the batch mean of the squared output-target difference;
the factor 2 from differentiating the square is kept in the gradient.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .dataset import ModelFile, Scaler, Table, split_indices, write_model
from .errors import ParameterError, ShapeError, TrainingDivergedError

STOP_GOAL = "goal"
STOP_EARLY = "early-stop"
STOP_EPOCHS = "epochs"


def logsig(n):
    """1 / (1 + e^-n), strictly increasing, range (0, 1)."""
    arr = np.asarray(n, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    out = np.empty_like(arr)
    pos = arr >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-arr[pos]))
    expn = np.exp(arr[~pos])
    out[~pos] = expn / (1.0 + expn)
    return float(out[0]) if scalar else out


def tansig(n):
    """Hyperbolic tangent, odd, range (-1, 1), derivative 1 - g**2."""
    out = np.tanh(np.asarray(n, dtype=float))
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class MlpConfig:
    """Training configuration shared by the point network and the rough network."""

    epochs: int = 1000
    learning_rate: float = 0.05
    hidden: tuple[int, ...] = (20, 30)
    goal: float = 1e-5
    ratios: tuple[float, float, float] = (0.7, 0.15, 0.15)
    max_fail: int = 6
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "hidden", tuple(int(h) for h in self.hidden))
        object.__setattr__(self, "ratios", tuple(float(r) for r in self.ratios))
        if self.epochs < 1:
            raise ParameterError("epochs must be at least 1")
        if self.learning_rate <= 0:
            raise ParameterError("learning rate must be positive")
        if not self.hidden or any(h < 1 for h in self.hidden):
            raise ParameterError("hidden layer sizes must all be at least 1")
        if len(self.ratios) != 3 or any(r < 0 for r in self.ratios):
            raise ParameterError("ratios must be three non-negative numbers")
        if abs(sum(self.ratios) - 1.0) > 1e-9:
            raise ParameterError(f"ratios must sum to 1, got {self.ratios}")
        if self.ratios[0] <= 0:
            raise ParameterError("training ratio must be positive")
        if self.max_fail < 1:
            raise ParameterError("max_fail must be at least 1")
        if self.goal < 0:
            raise ParameterError("goal must be non-negative")


@dataclass
class TrainingTrace:
    """Per-epoch errors plus how and when training stopped."""

    train_errors: list[float] = field(default_factory=list)
    val_errors: list[float] = field(default_factory=list)
    stop_reason: str = ""
    best_epoch: int = 0
    train_time: float = 0.0

    @property
    def epochs_run(self) -> int:
        return len(self.train_errors)


@dataclass
class MlpModel:
    """Layer weights/biases (tanh hidden, logsig output) and the training trace."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    input_width: int
    hidden: tuple[int, ...]
    trace: TrainingTrace
    scaler: Scaler | None = None

    @property
    def activations(self) -> tuple[str, ...]:
        return ("tansig",) * len(self.hidden) + ("logsig",)

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


def init_layers(sizes, rng) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Uniform +-1/sqrt(fan-in) weights and biases, drawn layer by layer."""
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(rng.uniform(-bound, bound, size=fan_out))
    return weights, biases


def _forward_batch(weights, biases, x: np.ndarray) -> list[np.ndarray]:
    """Activations per layer, input first, logsig output last."""
    acts = [x]
    for layer, (w, b) in enumerate(zip(weights, biases)):
        z = acts[-1] @ w.T + b
        acts.append(logsig(z) if layer == len(weights) - 1 else np.tanh(z))
    return acts


def forward(model: MlpModel, x) -> float:
    """Healthy-class score in (0, 1) for one input row; class 1 iff >= 0.5."""
    return float(scores(model, np.ravel(x)[None, :])[0])


def scores(model: MlpModel, values: np.ndarray) -> np.ndarray:
    values = np.atleast_2d(np.asarray(values, dtype=float))
    if values.shape[1] != model.input_width:
        raise ShapeError(f"expected width {model.input_width}, got {values.shape[1]}")
    return _forward_batch(model.weights, model.biases, values)[-1][:, 0]


def batch_gradients(weights, biases, x, targets):
    """Mean-squared-error value and full-batch gradients via the delta rule."""
    acts = _forward_batch(weights, biases, x)
    out = acts[-1][:, 0]
    err = float(np.mean((out - targets) ** 2))
    n = x.shape[0]
    delta = (2.0 / n) * (out - targets)[:, None] * (acts[-1] * (1.0 - acts[-1]))
    grads_w, grads_b = [None] * len(weights), [None] * len(weights)
    for layer in range(len(weights) - 1, -1, -1):
        grads_w[layer] = delta.T @ acts[layer]
        grads_b[layer] = delta.sum(axis=0)
        if layer > 0:
            delta = (delta @ weights[layer]) * (1.0 - acts[layer] ** 2)
    return err, grads_w, grads_b


def _mse(weights, biases, x, targets) -> float:
    out = _forward_batch(weights, biases, x)[-1][:, 0]
    return float(np.mean((out - targets) ** 2))


def descend(params: dict, gradients, val_error, cfg: MlpConfig, trace: TrainingTrace) -> None:
    """Full-batch gradient descent on the named `params`, updated in place,
    with goal / early-stop / epoch-budget exits recorded on `trace`.

    `gradients()` returns the training error and one gradient per parameter
    name.  `val_error()` returns the validation error; pass None when there is
    no validation part.  With one, the parameters end at the epoch with the
    lowest validation error.
    """
    best_val = np.inf
    best = {}
    strikes = 0
    trace.stop_reason = STOP_EPOCHS
    for epoch in range(1, cfg.epochs + 1):
        err, grads = gradients()
        if not np.isfinite(err):
            raise TrainingDivergedError(f"non-finite training error at epoch {epoch}")
        trace.train_errors.append(err)
        if val_error is not None:
            val_err = val_error()
            if not np.isfinite(val_err):
                raise TrainingDivergedError(f"non-finite validation error at epoch {epoch}")
            trace.val_errors.append(val_err)
            if val_err < best_val:
                best_val = val_err
                trace.best_epoch = epoch
                best = {name: p.copy() for name, p in params.items()}
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
        for name, p in params.items():
            p -= cfg.learning_rate * grads[name]
    if val_error is None:
        trace.best_epoch = trace.epochs_run
    else:
        for name, p in params.items():
            p[...] = best[name]


def train(data: Table, cfg: MlpConfig) -> MlpModel:
    """Full-batch gradient descent (see `descend`) from seeded initial weights.

    The seeded split carves train/validation/test parts from `data` by
    cfg.ratios (zero ratios give empty parts).  Whenever a validation part
    exists, the returned weights are the ones from the epoch with the lowest
    validation error.
    """
    started = time.perf_counter()
    train_idx, val_idx, _ = split_indices(data.n_rows, cfg.ratios, cfg.seed)
    x_train = data.values[train_idx]
    d_train = data.decisions[train_idx].astype(float)
    x_val = data.values[val_idx]
    d_val = data.decisions[val_idx].astype(float)

    sizes = (data.n_attributes,) + cfg.hidden + (1,)
    weights, biases = init_layers(sizes, np.random.default_rng(cfg.seed))
    model = MlpModel(weights, biases, data.n_attributes, cfg.hidden, TrainingTrace())

    def gradients():
        err, grads_w, grads_b = batch_gradients(weights, biases, x_train, d_train)
        return err, layer_params(grads_w, grads_b)

    def val_error():
        return _mse(weights, biases, x_val, d_val)

    descend(model.params, gradients, val_error if val_idx.size else None, cfg, model.trace)
    model.trace.train_time = time.perf_counter() - started
    return model


@dataclass(frozen=True)
class EvalResult:
    """Accuracy percentage plus the four confusion counts (positive = healthy)."""

    accuracy: float
    true_healthy: int
    false_healthy: int
    true_faulty: int
    false_faulty: int

    @property
    def total(self) -> int:
        return self.true_healthy + self.false_healthy + self.true_faulty + self.false_faulty


def confusion(predicted: np.ndarray, actual: np.ndarray) -> EvalResult:
    predicted = np.asarray(predicted, dtype=np.int64)
    actual = np.asarray(actual, dtype=np.int64)
    th = int(np.sum((predicted == 1) & (actual == 1)))
    fh = int(np.sum((predicted == 1) & (actual == 0)))
    tf = int(np.sum((predicted == 0) & (actual == 0)))
    ff = int(np.sum((predicted == 0) & (actual == 1)))
    return EvalResult(100.0 * (th + tf) / len(actual), th, fh, tf, ff)


def evaluate(model: MlpModel, test: Table) -> EvalResult:
    """Accuracy and confusion counts on a table standardized with the
    training parameters."""
    if test.n_rows == 0:
        raise ParameterError("empty test set")
    predicted = (scores(model, test.values) >= 0.5).astype(np.int64)
    return confusion(predicted, test.decisions)


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
        [params[f"w{i}"] for i in layers],
        [params[f"b{i}"] for i in layers],
        input_width,
        hidden,
        TrainingTrace(stop_reason="loaded"),
        scaler=f.scaler(),
    )
