"""Rough neural network: paired lower/upper rough neurons in the first layer,
a shared conventional hidden/output stack, and a log-sigmoid applied to the
mean of the two channel outputs (so degenerate intervals reduce exactly to the
point network).

Each rough unit computes nets from the lower and upper input bounds through
its own channel weights, applies the activation, and emits the element-wise
min as the lower output and max as the upper output.  The two channels are
simulated separately through the shared stack.  At an exact activation tie the
gradient of both the min and max nodes flows to both branches, which keeps the
two channels identical whenever their inputs and weights are identical.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass

import numpy as np

from .bpnn import (
    EvalResult,
    MlpConfig,
    TrainingTrace,
    confusion,
    descend,
    init_layers,
    layer_params,
    layer_shapes,
    logsig,
)
from .dataset import CategoricalTable, ModelFile, Scaler, Table, split_indices, write_model
from .errors import NoUncertaintyWarning, ParameterError, ShapeError, ValidationError

CONNECTIONS = ("excitatory", "inhibitory", "full")


@dataclass(frozen=True)
class IntervalRow:
    """Per-attribute (lower, upper) standardized bounds plus the decision."""

    lower: np.ndarray
    upper: np.ndarray
    decision: int


@dataclass(frozen=True, eq=False)
class IntervalTable:
    """Row-aligned lower/upper bound matrices; iterates as IntervalRow views."""

    lower: np.ndarray
    upper: np.ndarray
    decisions: np.ndarray
    attributes: tuple[str, ...]

    def __post_init__(self):
        lower = np.atleast_2d(np.asarray(self.lower, dtype=float))
        upper = np.atleast_2d(np.asarray(self.upper, dtype=float))
        decisions = np.asarray(self.decisions, dtype=np.int64).ravel()
        if lower.shape != upper.shape or lower.shape[0] != decisions.shape[0]:
            raise ShapeError("lower/upper/decisions shapes do not line up")
        if lower.shape[1] != len(self.attributes):
            raise ShapeError("column count does not match attribute names")
        if (lower > upper).any():
            raise ValidationError("lower bound exceeds upper bound")
        for name, arr in (("lower", lower), ("upper", upper), ("decisions", decisions)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "attributes", tuple(self.attributes))

    def __len__(self) -> int:
        return self.lower.shape[0]

    def row(self, i: int) -> IntervalRow:
        return IntervalRow(self.lower[i], self.upper[i], int(self.decisions[i]))

    @property
    def n_attributes(self) -> int:
        return self.lower.shape[1]

    @property
    def degenerate(self) -> bool:
        return bool(np.array_equal(self.lower, self.upper))


@dataclass(frozen=True)
class Intervalizer:
    """Per (attribute, category) extrema of standardized values, fitted once.

    Applying to new rows looks up the fitted cell span; a category unseen at
    fit time yields a degenerate interval around the row's own value.
    """

    attributes: tuple[str, ...]
    spans: dict

    @classmethod
    def fit(cls, categories: CategoricalTable, standardized: Table) -> "Intervalizer":
        _check_aligned(categories, standardized)
        spans = {}
        for j in range(len(categories.attributes)):
            cat_col = categories.values[:, j]
            std_col = standardized.values[:, j]
            for value in np.unique(cat_col):
                cell = std_col[cat_col == value]
                spans[(j, int(value))] = (float(cell.min()), float(cell.max()))
        return cls(tuple(categories.attributes), spans)

    def apply(self, categories: CategoricalTable, standardized: Table) -> IntervalTable:
        _check_aligned(categories, standardized)
        if categories.attributes != self.attributes:
            raise ShapeError("attributes do not match the fitted intervalizer")
        lower = standardized.values.copy()
        upper = standardized.values.copy()
        for j in range(standardized.values.shape[1]):
            cat_col = categories.values[:, j]
            for value in np.unique(cat_col):
                span = self.spans.get((j, int(value)))
                if span is None:
                    continue
                mask = cat_col == value
                lower[mask, j] = span[0]
                upper[mask, j] = span[1]
        return IntervalTable(lower, upper, standardized.decisions, self.attributes)


def _check_aligned(categories: CategoricalTable, standardized: Table) -> None:
    if categories.n_rows != standardized.n_rows:
        raise ShapeError(
            f"row counts differ: {categories.n_rows} vs {standardized.n_rows}"
        )
    if categories.attributes != standardized.attributes:
        raise ShapeError("attribute lists differ between the two tables")


def intervalize(categories: CategoricalTable, standardized: Table) -> IntervalTable:
    """Bounds from each row's own discretization cell: every attribute's
    interval is the (min, max) of standardized values sharing its category."""
    return Intervalizer.fit(categories, standardized).apply(categories, standardized)


@dataclass
class RnnModel:
    """Channel weights for the rough first layer plus the shared stack."""

    lower_w: np.ndarray
    lower_b: np.ndarray
    upper_w: np.ndarray
    upper_b: np.ndarray
    lower_cross: np.ndarray | None  # full connection only
    upper_cross: np.ndarray | None
    shared_weights: list[np.ndarray]
    shared_biases: list[np.ndarray]
    input_width: int
    hidden: tuple[int, ...]
    connection: str
    trace: TrainingTrace
    scaler: Scaler | None = None

    @property
    def params(self) -> dict[str, np.ndarray]:
        """The rough first layer's channel parameters, then the shared stack's
        layers named as in the point network (`w1`, `b1`, ...)."""
        named = {
            "lower_w": self.lower_w,
            "lower_b": self.lower_b,
            "upper_w": self.upper_w,
            "upper_b": self.upper_b,
        }
        if self.connection == "full":
            named["lower_cross"] = self.lower_cross
            named["upper_cross"] = self.upper_cross
        return {**named, **layer_params(self.shared_weights, self.shared_biases, start=1)}


def _rough_nets(model: RnnModel, xl: np.ndarray, xu: np.ndarray):
    if model.connection == "excitatory":
        zl = xl @ model.lower_w.T + model.lower_b
        zu = xu @ model.upper_w.T + model.upper_b
    elif model.connection == "inhibitory":
        zl = -(xu @ model.lower_w.T) + model.lower_b
        zu = -(xl @ model.upper_w.T) + model.upper_b
    else:
        zl = xl @ model.lower_w.T + xu @ model.lower_cross.T + model.lower_b
        zu = xu @ model.upper_w.T + xl @ model.upper_cross.T + model.upper_b
    return zl, zu


def _forward_cache(model: RnnModel, xl: np.ndarray, xu: np.ndarray):
    zl, zu = _rough_nets(model, xl, xu)
    gl, gu = np.tanh(zl), np.tanh(zu)
    a_low = [np.minimum(gl, gu)]
    a_up = [np.maximum(gl, gu)]
    last = len(model.shared_weights) - 1
    for layer, (w, b) in enumerate(zip(model.shared_weights, model.shared_biases)):
        if layer == last:
            z_low_out = a_low[-1] @ w.T + b
            z_up_out = a_up[-1] @ w.T + b
        else:
            a_low.append(np.tanh(a_low[-1] @ w.T + b))
            a_up.append(np.tanh(a_up[-1] @ w.T + b))
    out = logsig(0.5 * (z_low_out + z_up_out))[:, 0]
    return out, gl, gu, a_low, a_up


def forward(model: RnnModel, row: IntervalRow) -> float:
    """Healthy-class score in (0, 1); class 1 iff >= 0.5."""
    xl = np.asarray(row.lower, dtype=float).ravel()
    xu = np.asarray(row.upper, dtype=float).ravel()
    if xl.shape[0] != model.input_width or xu.shape[0] != model.input_width:
        raise ShapeError(f"expected width {model.input_width}")
    out, *_ = _forward_cache(model, xl[None, :], xu[None, :])
    return float(out[0])


def scores(model: RnnModel, table: IntervalTable) -> np.ndarray:
    if table.n_attributes != model.input_width:
        raise ShapeError(f"expected width {model.input_width}, got {table.n_attributes}")
    out, *_ = _forward_cache(model, table.lower, table.upper)
    return out


def _gradients(model: RnnModel, xl, xu, targets):
    out, gl, gu, a_low, a_up = _forward_cache(model, xl, xu)
    err = float(np.mean((out - targets) ** 2))
    n = xl.shape[0]
    # same multiplication order as the point network's output delta, so the
    # all-degenerate case reproduces it bit for bit
    out2 = out[:, None]
    delta_out = (2.0 / n) * (out - targets)[:, None] * (out2 * (1.0 - out2))
    d_low = 0.5 * delta_out
    d_up = 0.5 * delta_out
    grads_w = [None] * len(model.shared_weights)
    grads_b = [None] * len(model.shared_weights)
    for layer in range(len(model.shared_weights) - 1, -1, -1):
        w = model.shared_weights[layer]
        if layer < len(model.shared_weights) - 1:
            d_low = d_low * (1.0 - a_low[layer + 1] ** 2)
            d_up = d_up * (1.0 - a_up[layer + 1] ** 2)
        grads_w[layer] = d_low.T @ a_low[layer] + d_up.T @ a_up[layer]
        grads_b[layer] = (d_low + d_up).sum(axis=0)
        d_low = d_low @ w
        d_up = d_up @ w
    # d_low / d_up now sit at the min / max node outputs
    up_gt = gu > gl
    lo_gt = gl > gu
    tie = ~(up_gt | lo_gt)
    d_gu = d_up * (up_gt | tie) + d_low * (lo_gt | tie)
    d_gl = d_up * (lo_gt | tie) + d_low * (up_gt | tie)
    d_zu = d_gu * (1.0 - gu**2)
    d_zl = d_gl * (1.0 - gl**2)
    if model.connection == "inhibitory":
        g_lower_w, g_upper_w = -(d_zl.T @ xu), -(d_zu.T @ xl)
    else:
        g_lower_w, g_upper_w = d_zl.T @ xl, d_zu.T @ xu
    grads = {
        "lower_w": g_lower_w,
        "lower_b": d_zl.sum(axis=0),
        "upper_w": g_upper_w,
        "upper_b": d_zu.sum(axis=0),
    }
    if model.connection == "full":
        grads["lower_cross"] = d_zl.T @ xu
        grads["upper_cross"] = d_zu.T @ xl
    return err, {**grads, **layer_params(grads_w, grads_b, start=1)}


def _error(model: RnnModel, xl, xu, targets) -> float:
    out, *_ = _forward_cache(model, xl, xu)
    return float(np.mean((out - targets) ** 2))


def train(rows: IntervalTable, cfg: MlpConfig, connection: str = "excitatory") -> RnnModel:
    """Gradient descent through both channels with the point-network stop
    rules (see `bpnn.descend`).

    With every interval degenerate a no-uncertainty warning is emitted and the
    run reproduces a point-network training of the same seed exactly.
    """
    if connection not in CONNECTIONS:
        raise ParameterError(f"connection must be one of {CONNECTIONS}")
    if rows.degenerate:
        warnings.warn(
            "every input interval is degenerate; training as a point network",
            NoUncertaintyWarning,
        )
    started = time.perf_counter()
    train_idx, val_idx, _ = split_indices(len(rows), cfg.ratios, cfg.seed)
    xl_train, xu_train = rows.lower[train_idx], rows.upper[train_idx]
    d_train = rows.decisions[train_idx].astype(float)
    xl_val, xu_val = rows.lower[val_idx], rows.upper[val_idx]
    d_val = rows.decisions[val_idx].astype(float)

    rng = np.random.default_rng(cfg.seed)
    sizes = (rows.n_attributes,) + cfg.hidden + (1,)
    weights, biases = init_layers(sizes, rng)
    cross_l = cross_u = None
    if connection == "full":
        bound = 1.0 / np.sqrt(rows.n_attributes)
        cross_l = rng.uniform(-bound, bound, size=weights[0].shape)
        cross_u = rng.uniform(-bound, bound, size=weights[0].shape)
    model = RnnModel(
        lower_w=weights[0],
        lower_b=biases[0],
        upper_w=weights[0].copy(),
        upper_b=biases[0].copy(),
        lower_cross=cross_l,
        upper_cross=cross_u,
        shared_weights=weights[1:],
        shared_biases=biases[1:],
        input_width=rows.n_attributes,
        hidden=cfg.hidden,
        connection=connection,
        trace=TrainingTrace(),
    )

    def gradients():
        return _gradients(model, xl_train, xu_train, d_train)

    def val_error():
        return _error(model, xl_val, xu_val, d_val)

    descend(model.params, gradients, val_error if val_idx.size else None, cfg, model.trace)
    model.trace.train_time = time.perf_counter() - started
    return model


def evaluate(model: RnnModel, test: IntervalTable) -> EvalResult:
    """Accuracy and confusion counts over interval rows."""
    if len(test) == 0:
        raise ParameterError("empty test set")
    predicted = (scores(model, test) >= 0.5).astype(np.int64)
    return confusion(predicted, test.decisions)


def save_model(model: RnnModel, path) -> None:
    fields = {
        "input_width": model.input_width,
        "hidden": model.hidden,
        "connection": model.connection,
    }
    write_model(path, "rnn", {**fields, **model.params}, model.scaler)


def load_model(path) -> RnnModel:
    f = ModelFile(path, "rnn")
    hidden = tuple(f.array("hidden", int).tolist())
    input_width = f.get("input_width", int)
    connection = f.get("connection")
    if connection not in CONNECTIONS:
        raise ParameterError(f"{path}: connection must be one of {CONNECTIONS}")
    shapes = layer_shapes(input_width, hidden)
    first = {"w": shapes.pop("w0"), "b": shapes.pop("b0")}
    rough = {f"{side}_{kind}": first[kind] for side in ("lower", "upper") for kind in "wb"}
    if connection == "full":
        rough.update(lower_cross=first["w"], upper_cross=first["w"])
    params = f.arrays({**rough, **shapes})
    shared = range(1, len(hidden) + 1)
    return RnnModel(
        lower_w=params["lower_w"],
        lower_b=params["lower_b"],
        upper_w=params["upper_w"],
        upper_b=params["upper_b"],
        lower_cross=params.get("lower_cross"),
        upper_cross=params.get("upper_cross"),
        shared_weights=[params[f"w{i}"] for i in shared],
        shared_biases=[params[f"b{i}"] for i in shared],
        input_width=input_width,
        hidden=hidden,
        connection=connection,
        trace=TrainingTrace(stop_reason="loaded"),
        scaler=f.scaler(),
    )
