"""Rough neural network: paired lower/upper rough neurons in the first layer,
a shared conventional hidden/output stack, and a log-sigmoid applied to the
mean of the two channel outputs (so degenerate intervals reduce exactly to the
point network).

Each rough unit computes nets from the lower and upper input bounds through
its own channel weights, applies the activation, and emits the element-wise
min as the lower output and max as the upper output.  Like the stack's
layers, the rough layer is one block with the biases as its last column and
a leading channel axis of 2 (lower, then upper): [W | b], or [W | C | b]
with the full connection's cross weights C.  The connection picks, once per
block of rows, the feature-major input stack each channel's block multiplies
(`_rough_inputs`): excitatory [x_same; 1], inhibitory [-x_other; 1], full
[x_same; x_other; 1], where x_same is the channel's own bound and x_other
the other one.  So the rough nets are one batched matmul over both channels
and the packed rough gradient one more, for every connection.  The shared
stack is the point network's stack (`bpnn.LayerBuffers`, `bpnn._forward`
and `bpnn._backward`) run with the two outputs as its two channels.  At an
exact activation tie the gradient of both the min and max nodes flows to
both branches, which keeps the two channels identical whenever their inputs
and weights are identical.

Rows with the same category pattern get the same (lower, upper) input, so a
block of rows holds few distinct interval rows: a one-gas cell at most 4, a
ten-gas README training fold about 240 of its 1,318 rows.  The network runs
once per distinct row, and training weights each one by its row count (see
`RoughBuffers`), so an epoch costs in distinct rows, not in rows.

As in the point network, a training owns its buffers (`RoughBuffers`, which
hold the stack's two-channel `LayerBuffers`), one set for the training rows
and one for the validation rows, rewritten in place by every epoch.  With m
the input width, r = m + 1 the rough inputs per channel (2 * m + 1 for the
full connection), h1 the first hidden width and L the number of hidden
layers, the training set holds (2 * r + 4 * h1 + 4 * sum(hidden) + 2 * L + 10)
float64 per distinct row and the validation set (2 * r + 2 * h1 +
2 * sum(hidden) + 2 * L + 8), the rows of ones counted; each set also keeps
one int64 group index per row.  At hidden (20, 30) the training set of a
one-gas cell's 2 distinct rows takes 5 KB plus 10 KB of indices, and that of
240 distinct ten-gas rows 0.6 MB, where 1,318 rows held one each would take
3.3 MB.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .bpnn import (
    LayerBuffers,
    MlpConfig,
    TrainingTrace,
    carve,
    descend,
    flat_copy,
    init_layers,
    percent_correct,
    read_stack,
    _backward as _stack_backward,
    _forward as _stack_forward,
    _tanh_slope,
)
from .dataset import CategoricalTable, ModelFile, Scaler, Table, split_indices, write_model
from .errors import NoUncertaintyWarning, ParameterError, ShapeError, ValidationError

CONNECTIONS = ("excitatory", "inhibitory", "full")


@dataclass(frozen=True, eq=False)
class IntervalTable:
    """Row-aligned lower/upper bound matrices of standardized values, one
    (lower, upper) pair per attribute, plus the decisions."""

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

    @property
    def n_attributes(self) -> int:
        return self.lower.shape[1]

    @property
    def degenerate(self) -> bool:
        return bool(np.array_equal(self.lower, self.upper))


@dataclass(frozen=True, eq=False)
class Intervalizer:
    """Per (attribute, category) extrema of standardized values, fitted once:
    `lower[j, c]` and `upper[j, c]` span the rows of attribute j in category
    c (1..4), nan where c was unseen at fit time.

    Applying to new rows looks up the fitted cell span; a category unseen at
    fit time yields a degenerate interval around the row's own value.
    """

    attributes: tuple[str, ...]
    lower: np.ndarray
    upper: np.ndarray

    @classmethod
    def fit(cls, categories: CategoricalTable, standardized: Table) -> "Intervalizer":
        _check_aligned(categories, standardized)
        cells = _cells(categories)
        shape = (len(categories.attributes), 5)
        lower, upper = np.full(shape, np.inf), np.full(shape, -np.inf)
        np.minimum.at(lower, cells, standardized.values)
        np.maximum.at(upper, cells, standardized.values)
        unseen = lower > upper
        lower[unseen] = upper[unseen] = np.nan
        return cls(tuple(categories.attributes), lower, upper)

    def apply(self, categories: CategoricalTable, standardized: Table) -> IntervalTable:
        _check_aligned(categories, standardized)
        if categories.attributes != self.attributes:
            raise ShapeError("attributes do not match the fitted intervalizer")
        cells = _cells(categories)
        lower, upper = self.lower[cells], self.upper[cells]
        unseen = np.isnan(lower)
        lower[unseen] = upper[unseen] = standardized.values[unseen]
        return IntervalTable(lower, upper, standardized.decisions, self.attributes)


def _cells(categories: CategoricalTable) -> tuple[np.ndarray, np.ndarray]:
    """The (attribute, category) index of every cell, for a (width, 5) lookup."""
    return np.arange(categories.n_attributes), categories.values


def _check_aligned(categories: CategoricalTable, standardized: Table) -> None:
    if categories.n_rows != standardized.n_rows:
        raise ShapeError(
            f"row counts differ: {categories.n_rows} vs {standardized.n_rows}"
        )
    if categories.attributes != standardized.attributes:
        raise ShapeError("attribute lists differ between the two tables")


@dataclass
class RnnModel:
    """The rough first layer's block plus the shared stack's blocks.  The
    rough block holds the lower channel, then the upper, on a leading axis."""

    rough: np.ndarray  # (2, h1, width + 1), or (2, h1, 2 * width + 1) for full
    shared: list[np.ndarray]
    input_width: int
    hidden: tuple[int, ...]
    connection: str
    trace: TrainingTrace
    scaler: Scaler | None = None


def _rough_inputs(connection: str, xl: np.ndarray, xu: np.ndarray) -> np.ndarray:
    """The rough layer's (lower, upper) input stacks over the rows of bounds
    `xl` and `xu`, feature-major and C-ordered, each ending in a row of ones."""
    own = np.stack((xl.T, xu.T))
    other = own[::-1]
    parts = {"excitatory": [own], "inhibitory": [-other], "full": [own, other]}[connection]
    x = np.ones((2, sum(p.shape[1] for p in parts) + 1, xl.shape[0]))
    np.concatenate(parts, axis=1, out=x[:, :-1])
    return x


class RoughBuffers:
    """The arrays one block of interval rows needs in `model`'s network,
    allocated once and rewritten by every pass over those rows.

    The block is held as its distinct (lower, upper) rows, matched bit for
    bit and kept in order of first occurrence: `x` holds their rough-layer
    input stacks (`_rough_inputs`), `inverse` maps each of the `n` rows to
    its group and `counts` holds each group's row count.  Every other array
    has one column per group.  Given the rows' 0/1 `targets`, it keeps each
    group's target sum s (`target_sum`), mean target (`target_mean`) and
    s * (1 - mean target) (`target_sq_dev`, the group's sum of squared
    target deviations), which stay fixed for the whole training.

    Forward passes fill `nets` (the rough layer's lower and upper channel
    nets, then their tanh) and write the rough layer's min and max outputs
    into the two channels of `stack`, the point network's buffers
    (`bpnn.LayerBuffers`) for the shared layers.  With `backward`, a
    gradient step also fills the stack's deltas, including the delta at its
    input, the tie masks `ties` (and `mask`, the same as float64) and one
    packed gradient per block (`grads`: the rough block's, then the
    stack's), each a view of the vector `flat_grads`, laid out as the
    training's parameter vector; the stack writes its gradients into the
    tail.  It reuses the activations it no longer needs as scratch, so after
    a step they no longer hold a forward pass.
    """

    def __init__(self, model: RnnModel, xl: np.ndarray, xu: np.ndarray,
                 targets: np.ndarray | None = None, backward: bool = False):
        self.n = xl.shape[0]
        firsts, self.inverse = _distinct_rows(xl, xu)
        g = firsts.shape[0]
        self.counts = np.bincount(self.inverse, minlength=g).astype(float)
        if targets is not None:
            self.target_sum = np.bincount(self.inverse, weights=targets, minlength=g)
            self.target_mean = self.target_sum / self.counts
            self.target_sq_dev = (1.0 - self.target_mean) * self.target_sum
        self.x = _rough_inputs(model.connection, xl[firsts], xu[firsts])
        shape = (2, model.hidden[0], g)
        self.nets = np.empty(shape)
        stack_grads = None
        if backward:
            self.ties = np.empty(shape, dtype=bool)
            self.mask = np.empty(shape)
            blocks = [model.rough] + model.shared
            self.flat_grads = np.empty(sum(b.size for b in blocks))
            self.grads = carve(self.flat_grads, [b.shape for b in blocks])
            stack_grads = self.flat_grads[model.rough.size:]
        self.stack = LayerBuffers(
            np.empty(shape), model.shared, backward, input_delta=backward, flat_grads=stack_grads,
        )


def _distinct_rows(xl: np.ndarray, xu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The index of each bitwise-distinct (lower, upper) row's first
    occurrence, in row order, and the group index of every row."""
    pairs = np.ascontiguousarray(np.hstack((xl, xu)))
    keys = pairs.view(np.dtype((np.void, pairs.itemsize * pairs.shape[1])))[:, 0]
    _, firsts, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(firsts)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.shape[0])
    return firsts[order], rank[inverse]


def _forward(model: RnnModel, rows: RoughBuffers) -> np.ndarray:
    """The logsig output column over the rows, as a view into `rows`."""
    nets = np.tanh(np.matmul(model.rough, rows.x, out=rows.nets), out=rows.nets)
    low, up = rows.stack.acts[0][:, :-1]
    np.minimum(*nets, out=low)
    np.maximum(*nets, out=up)
    return _stack_forward(model.shared, rows.stack)


def scores(model: RnnModel, table: IntervalTable) -> np.ndarray:
    """Healthy-class score in (0, 1) per interval row; class 1 iff >= 0.5."""
    if table.n_attributes != model.input_width:
        raise ShapeError(f"expected width {model.input_width}, got {table.n_attributes}")
    rows = RoughBuffers(model, table.lower, table.upper)
    return _forward(model, rows)[rows.inverse]


def _gradients(model: RnnModel, rows: RoughBuffers):
    """Mean-squared-error value over the rows and each block's packed
    gradient (the rough block's, then the stack's), written into `rows`,
    which were made with targets and `backward`.

    A group's output residual is the sum of its rows' residuals,
    count * output - target sum, so each group stands for all its rows.
    """
    out = _forward(model, rows)
    stack = rows.stack
    np.multiply(rows.counts, out, out=stack.resid)
    stack.resid -= rows.target_sum
    _stack_backward(model.shared, stack, rows.n)
    err = _grouped_mean_square(rows, out)
    nets, ties, mask = rows.nets, rows.ties, rows.mask
    # the deltas now sit at the min / max node outputs.  ties[c] marks where
    # channel c holds the max, ties included; a channel takes the max node's
    # delta there and the min node's where the other channel holds the max,
    # so at a tie both: d_z = d_up * ties + d_low * ties[::-1].  The float64
    # copy of the masks spares each product a cast buffer
    np.logical_not(np.greater(nets[::-1], nets, out=ties), out=ties)
    np.copyto(mask, ties)
    d_low, d_up = stack.input_delta
    d_z = np.multiply(d_low, mask[::-1], out=stack.acts[0][:, :-1])
    np.multiply(d_up, mask[0], out=d_low)
    d_up *= mask[1]
    d_z += stack.input_delta
    d_z *= _tanh_slope(nets)
    np.matmul(d_z, rows.x.transpose(0, 2, 1), out=rows.grads[0])
    return err, rows.grads


def _error(model: RnnModel, rows: RoughBuffers) -> float:
    return _grouped_mean_square(rows, _forward(model, rows))


def _grouped_mean_square(rows: RoughBuffers, out: np.ndarray) -> float:
    """The mean square of output - target over the rows of 0/1 targets, from
    the group outputs and the target constants of `rows`: (1 / n) * sum over
    the groups of count * (output - mean target)^2 + s * (1 - mean target).
    It overwrites the stack's `resid`."""
    resid = np.subtract(out, rows.target_mean, out=rows.stack.resid)
    np.square(resid, out=resid)
    resid *= rows.counts
    resid += rows.target_sq_dev
    return float(np.add.reduce(resid)) / rows.n


def train(rows: IntervalTable, cfg: MlpConfig, seed: int,
          connection: str = "excitatory") -> RnnModel:
    """Gradient descent through both channels with the point-network stop
    rules (see `bpnn.descend`), the split and initial weights drawn with
    `seed`.

    With every interval degenerate a no-uncertainty warning is emitted and the
    run reproduces a point-network training of the same seed: exactly when
    no row repeats, else up to the rounding of summing a group's rows at once.
    """
    if connection not in CONNECTIONS:
        raise ParameterError(f"connection must be one of {CONNECTIONS}")
    if rows.degenerate:
        warnings.warn(
            "every input interval is degenerate; training as a point network",
            NoUncertaintyWarning,
        )
    train_idx, val_idx = split_indices(len(rows), cfg.shares, seed)
    xl_train, xu_train = rows.lower[train_idx], rows.upper[train_idx]
    d_train = rows.decisions[train_idx].astype(float)
    xl_val, xu_val = rows.lower[val_idx], rows.upper[val_idx]
    d_val = rows.decisions[val_idx].astype(float)

    rng = np.random.default_rng(seed)
    width = rows.n_attributes
    first, *shared = init_layers(width, cfg.hidden, rng)
    rough = np.stack((first, first))
    if connection == "full":
        bound = 1.0 / np.sqrt(width)
        cross = rng.uniform(-bound, bound, size=(2, cfg.hidden[0], width))
        rough = np.concatenate((rough[..., :-1], cross, rough[..., -1:]), axis=-1)
    params, (rough, *shared) = flat_copy([rough] + shared)
    model = RnnModel(rough, shared, width, cfg.hidden, connection, TrainingTrace())

    train_rows = RoughBuffers(model, xl_train, xu_train, d_train, backward=True)
    val_rows = RoughBuffers(model, xl_val, xu_val, d_val)

    def gradients():
        err, _ = _gradients(model, train_rows)
        return err, train_rows.flat_grads

    def val_error():
        return _error(model, val_rows)

    descend(params, gradients, val_error if val_idx.size else None, cfg, model.trace)
    return model


def evaluate(model: RnnModel, test: IntervalTable) -> float:
    """Accuracy percentage over interval rows."""
    return percent_correct(scores(model, test) >= 0.5, test.decisions)


def save_model(model: RnnModel, path) -> None:
    fields = {
        "input_width": model.input_width,
        "hidden": model.hidden,
        "connection": model.connection,
        "rough": model.rough,
    }
    layers = {f"layer{i}": layer for i, layer in enumerate(model.shared, 1)}
    write_model(path, "rnn", {**fields, **layers}, model.scaler)


def load_model(path) -> RnnModel:
    f = ModelFile(path, "rnn")
    input_width, hidden, ((h1, columns), *shared) = read_stack(f)
    connection = f.get("connection")
    if connection not in CONNECTIONS:
        raise ParameterError(f"{path}: connection must be one of {CONNECTIONS}")
    if connection == "full":
        columns += input_width
    shapes = {"rough": (2, h1, columns), **{f"layer{i}": s for i, s in enumerate(shared, 1)}}
    rough, *shared = f.arrays(shapes).values()
    return RnnModel(
        rough=rough,
        shared=shared,
        input_width=input_width,
        hidden=hidden,
        connection=connection,
        trace=TrainingTrace(stop_reason="loaded"),
        scaler=f.scaler(input_width),
    )
