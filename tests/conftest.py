"""Shared fixtures and table-building helpers."""

import numpy as np
import pytest

from dgareduce import pipeline
from dgareduce.dataset import ATTRIBUTES, CategoricalTable, Discretizer, GasTable, Scaler, Table
from dgareduce.rnn import Intervalizer
from dgareduce.roughset import partition
from dgareduce.svm import KERNEL_KINDS, KERNEL_PARAMS

# a value other than its default for every kernel parameter, and each
# (kind, parameter) pair whose kind does not read the parameter
KERNEL_CHANGES = {"degree": 2, "coef": 0.5, "gamma": 0.7, "scale": 0.3, "offset": -0.2}
UNREAD = [(k, p) for k in KERNEL_KINDS for p in KERNEL_CHANGES if p not in KERNEL_PARAMS[k]]


def make_gas_table(n_rows=4, decisions=None, **columns) -> GasTable:
    """Gas table with given columns, zeros elsewhere, default alternating decisions."""
    values = np.zeros((n_rows, len(ATTRIBUTES)))
    for name, col in columns.items():
        values[:, ATTRIBUTES.index(name)] = col
    if decisions is None:
        decisions = np.arange(n_rows) % 2
    return GasTable(values, np.asarray(decisions), ATTRIBUTES)


def make_categorical(columns, decisions, names=None) -> CategoricalTable:
    """Categorical table from a list of columns (each a list of categories)."""
    values = np.array(columns, dtype=np.int64).T
    if names is None:
        names = tuple(f"a{i + 1}" for i in range(values.shape[1]))
    return CategoricalTable(values, np.asarray(decisions), tuple(names))


def row_granules(values, decisions):
    """The full-pattern granules of the given rows, as `roughset.partition`
    groups them."""
    names = tuple(f"a{i + 1}" for i in range(np.shape(values)[1]))
    return partition(CategoricalTable(values, decisions, names)).granules


def blocks(weights, biases) -> list[np.ndarray]:
    """Each layer's weights and biases as one [W | b] block, the biases as
    its last column."""
    return [np.column_stack((w, b)) for w, b in zip(weights, biases)]


def make_table(values, decisions, names=None) -> Table:
    values = np.atleast_2d(np.asarray(values, dtype=float))
    if names is None:
        names = tuple(f"a{i + 1}" for i in range(values.shape[1]))
    return Table(values, np.asarray(decisions), tuple(names))


def bundle_round_trip(kind, model, attributes, path):
    """`model`, saved to `path` as a fitted classifier of `kind` over the
    columns `attributes` and loaded back: the loaded model.  The encoding
    saved with it is an identity scaler and, for rnn, cells fitted on no
    min-max column and no category."""
    width = len(attributes)
    scaler = Scaler(np.zeros(width), np.ones(width), np.zeros(width, dtype=bool))
    cells = None
    if kind == "rnn":
        unseen = np.full((width, 5), np.nan)
        spans = ((np.nan, np.nan),) * width
        cells = (Discretizer(attributes, spans), Intervalizer(attributes, unseen, unseen))
    fitted = pipeline.FittedClassifier(kind, attributes, scaler, cells, model, 0.0)
    pipeline.save_classifier(fitted, path)
    return pipeline.load_classifier(path).model


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
