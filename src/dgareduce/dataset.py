"""Gas-in-oil tables: ingestion, standardization, discretization, splits, synthesis.

A table holds one row per oil sample: ten gas concentration attributes in a
fixed canonical order plus a binary decision (1 = healthy, 0 = faulty).
Everything downstream (reducers, classifiers, the experiment harness) consumes
the immutable table types defined here.
"""

from __future__ import annotations

import csv
from array import array
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    EmptyDatasetError,
    ParameterError,
    SchemaError,
    ShapeError,
    ValidationError,
)

ATTRIBUTES = (
    "acetylene",
    "carbon_dioxide",
    "carbon_monoxide",
    "ethane",
    "ethylene",
    "hydrogen",
    "methane",
    "nitrogen",
    "oxygen",
    "tcg",
)

#: Gases whose sum defines the total-combustible-gases column.
COMBUSTIBLES = (
    "acetylene",
    "carbon_monoxide",
    "ethane",
    "ethylene",
    "hydrogen",
    "methane",
)

DECISION_FAULTY = 0
DECISION_HEALTHY = 1

# IEEE C57-104 style category thresholds (t1, t2, t3):
# value <= t1 -> 1, t1 < value <= t2 -> 2, t2 < value <= t3 -> 3, value > t3 -> 4.
# Carbon dioxide's first two bins overlap in the printed standard; resolved as
# <=2500 -> 1 so every category-1 bound reads the same way.
CATEGORY_BOUNDS = {
    "hydrogen": (100.0, 700.0, 1800.0),
    "methane": (120.0, 400.0, 1000.0),
    "acetylene": (35.0, 50.0, 80.0),
    "ethylene": (50.0, 100.0, 200.0),
    "ethane": (65.0, 100.0, 200.0),
    "carbon_monoxide": (350.0, 570.0, 1400.0),
    "carbon_dioxide": (2500.0, 4000.0, 10000.0),
    "tcg": (720.0, 1920.0, 4630.0),
}

_CSV_HEADER = ATTRIBUTES + ("decision",)


def _freeze(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class Table:
    """Immutable numeric table: condition values, decisions, attribute names."""

    values: np.ndarray
    decisions: np.ndarray
    attributes: tuple[str, ...]

    def __post_init__(self):
        values = np.atleast_2d(np.asarray(self.values, dtype=float))
        decisions = np.asarray(self.decisions, dtype=np.int64).ravel()
        if values.shape[0] != decisions.shape[0]:
            raise ShapeError(
                f"{values.shape[0]} value rows but {decisions.shape[0]} decisions"
            )
        if values.shape[1] != len(self.attributes):
            raise ShapeError(
                f"{values.shape[1]} columns but {len(self.attributes)} attribute names"
            )
        bad = ~np.isin(decisions, (DECISION_FAULTY, DECISION_HEALTHY))
        if bad.any():
            raise ValidationError(
                f"decision must be 0 or 1; row {int(np.flatnonzero(bad)[0])} is not"
            )
        object.__setattr__(self, "values", _freeze(values))
        object.__setattr__(self, "decisions", _freeze(decisions))
        object.__setattr__(self, "attributes", tuple(self.attributes))

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_attributes(self) -> int:
        return self.values.shape[1]

    def column(self, name: str) -> np.ndarray:
        try:
            return self.values[:, self.attributes.index(name)]
        except ValueError:
            raise ParameterError(f"unknown attribute {name!r}") from None

    def select(self, names) -> "Table":
        """New plain Table keeping only the named columns, in the given order."""
        idx = [self.attributes.index(n) if n in self.attributes else -1 for n in names]
        if -1 in idx:
            raise ParameterError(f"unknown attribute {names[idx.index(-1)]!r}")
        return Table(self.values[:, idx], self.decisions, tuple(names))

    def take(self, rows) -> "Table":
        """Row subset, preserving the concrete table type."""
        rows = np.asarray(rows, dtype=np.int64)
        return replace(self, values=self.values[rows], decisions=self.decisions[rows])


@dataclass(frozen=True, eq=False)
class GasTable(Table):
    """Continuous concentrations in ppm over the ten canonical attributes."""

    dropped_rows: int = 0

    def __post_init__(self):
        super().__post_init__()
        if self.attributes != ATTRIBUTES:
            raise SchemaError(
                f"expected attributes {ATTRIBUTES}, got {self.attributes}"
            )
        if not np.isfinite(self.values).all():
            raise ValidationError("non-finite concentration value")
        if (self.values < 0).any():
            row = int(np.flatnonzero((self.values < 0).any(axis=1))[0])
            raise ValidationError(f"negative concentration in row {row}")


@dataclass(frozen=True, eq=False)
class CategoricalTable(Table):
    """Same shape as a GasTable with every condition cell in {1, 2, 3, 4}."""

    def __post_init__(self):
        super().__post_init__()
        values = self.values
        if values.size and (
            (values != np.floor(values)).any() or values.min() < 1 or values.max() > 4
        ):
            raise ValidationError("categorical cells must be integers in {1, 2, 3, 4}")
        object.__setattr__(self, "values", _freeze(values.astype(np.int64)))


@dataclass(frozen=True)
class FoldPlan:
    """Cross-validation assignment: per-row fold index in [0, k)."""

    k: int
    assignments: np.ndarray

    def __post_init__(self):
        assignments = np.asarray(self.assignments, dtype=np.int64)
        if assignments.min(initial=0) < 0 or assignments.max(initial=0) >= self.k:
            raise ParameterError("fold assignment out of range")
        sizes = np.bincount(assignments, minlength=self.k)
        if sizes.max() - sizes.min() > 1:
            raise ParameterError("fold sizes differ by more than 1")
        object.__setattr__(self, "assignments", _freeze(assignments))

    def test_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.assignments == fold)

    def train_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.assignments != fold)


def load_csv(path) -> GasTable:
    """Read a gas table from CSV, dropping rows with empty or non-numeric cells.

    The header must name the ten attributes plus ``decision`` in canonical
    order (case-insensitive).  The number of dropped rows is recorded on the
    returned table.  Negative concentrations and decisions outside {0, 1} are
    hard errors, not drops.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: file is empty") from None
        names = tuple(h.strip().lower() for h in header)
        if names != _CSV_HEADER:
            raise SchemaError(
                f"{path}: expected header {','.join(_CSV_HEADER)}, got {','.join(names)}"
            )
        width = len(_CSV_HEADER)
        cells, lines, dropped = array("d"), array("q"), 0
        for lineno, row in enumerate(reader, start=2):
            if len(row) != width:
                dropped += 1
                continue
            try:
                parsed = list(map(float, row))
            except ValueError:
                dropped += 1
                continue
            cells.extend(parsed)
            lines.append(lineno)
    data = np.frombuffer(cells, dtype=float).reshape(-1, width)
    finite = np.isfinite(data).all(axis=1)
    dropped += int((~finite).sum())
    data, lines = data[finite], np.frombuffer(lines, dtype=np.int64)[finite]
    values, decision = data[:, :-1], data[:, -1]
    negative = (values < 0).any(axis=1)
    bad = negative | ((decision != 0) & (decision != 1))
    if bad.any():
        first = int(np.argmax(bad))
        if negative[first]:
            raise ValidationError(f"{path}: negative concentration in row {lines[first]}")
        raise ValidationError(f"{path}: decision must be 0 or 1 in row {lines[first]}")
    if not len(data):
        raise EmptyDatasetError(f"{path}: no usable rows")
    return GasTable(
        np.ascontiguousarray(values),
        decision.astype(np.int64),
        ATTRIBUTES,
        dropped_rows=dropped,
    )


def write_csv(table: Table, path) -> None:
    """Write a table as CSV with values at 9 significant digits."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(table.attributes + ("decision",))
        for row, d in zip(table.values, table.decisions):
            writer.writerow(["%.9g" % v for v in row] + [str(int(d))])


@dataclass(frozen=True)
class Scaler:
    """Per-attribute mean and population standard deviation of a fitted table."""

    mean: np.ndarray
    std: np.ndarray
    constant: np.ndarray  # boolean mask of zero-variance columns

    def __post_init__(self):
        object.__setattr__(self, "mean", _freeze(np.asarray(self.mean, dtype=float)))
        object.__setattr__(self, "std", _freeze(np.asarray(self.std, dtype=float)))
        object.__setattr__(self, "constant", _freeze(np.asarray(self.constant, dtype=bool)))

    def transform(self, values: np.ndarray) -> np.ndarray:
        safe = np.where(self.constant, 1.0, self.std)
        z = (values - self.mean) / safe
        return np.where(self.constant, 0.0, z)


def write_model(path, kind: str, fields: dict, scaler: Scaler | None = None) -> None:
    """Write a model file: `kind = <kind>` first, then one `key = value` line
    per field, then the scaler's `scaler_mean`, `scaler_std` and
    `scaler_constant` arrays when one is given.

    Strings are written as they are.  Numbers, tuples and arrays are comma
    lists (arrays flattened) with numbers at %.17g, so a file reloads to
    exactly the same values; each array of 2 or more dimensions gets a
    `key.shape = a,b,...` line before its values.
    """
    if scaler is not None:
        fields = dict(
            fields,
            scaler_mean=scaler.mean,
            scaler_std=scaler.std,
            scaler_constant=scaler.constant,
        )
    lines = [f"kind = {kind}"]
    for key, value in fields.items():
        if np.ndim(value) >= 2:
            lines.append(f"{key}.shape = " + ",".join(map(str, np.shape(value))))
        if not isinstance(value, str):
            value = ",".join(v if isinstance(v, str) else "%.17g" % v for v in np.ravel(value))
        lines.append(f"{key} = {value}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


class ModelFile:
    """The fields of a file written by `write_model`, checked to be of `kind`.

    A wrong kind, a missing key, a value that does not parse or an array of
    the wrong shape raises ParameterError naming the file.
    """

    def __init__(self, path, kind: str):
        self.path = path
        self.fields = {}
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                key, sep, raw = line.partition("=")
                if sep:
                    self.fields[key.strip()] = raw.strip()
        if self.fields.get("kind") != kind:
            raise ParameterError(f"{path}: not a {kind} model file")

    def get(self, key: str, parse=str):
        """The value of `key`, passed through `parse`."""
        if key not in self.fields:
            raise ParameterError(f"{self.path}: missing key {key!r}")
        try:
            return parse(self.fields[key])
        except ValueError as exc:
            raise ParameterError(f"{self.path}: bad value for {key!r}: {exc}") from None

    def array(self, key: str, dtype=float) -> np.ndarray:
        def parse(raw):
            flat = np.array([float(v) for v in raw.split(",")] if raw else [])
            shape = self.fields.get(f"{key}.shape")
            if shape is not None:
                flat = flat.reshape([int(v) for v in shape.split(",")])
            return flat.astype(dtype)

        return self.get(key, parse)

    def arrays(self, shapes: dict[str, tuple[int, ...]], dtype=float) -> dict[str, np.ndarray]:
        """The array of each key in `shapes`, checked to have that shape."""
        named = {}
        for key, shape in shapes.items():
            named[key] = self.array(key, dtype)
            if named[key].shape != shape:
                raise ParameterError(
                    f"{self.path}: {key!r} has shape {named[key].shape}, expected {shape}"
                )
        return named

    def scaler(self, width: int) -> Scaler | None:
        """The embedded scaler, checked to be `width` columns wide, or None
        when the file has none."""
        if "scaler_mean" not in self.fields:
            return None
        keys = ("scaler_mean", "scaler_std", "scaler_constant")
        named = self.arrays({key: (width,) for key in keys})
        return Scaler(*(named[key] for key in keys))


def standardize(table: Table) -> tuple[Table, Scaler]:
    """Zero-mean, unit-variance columns (population divisor).

    Constant columns are set to all zeros and flagged on the returned scaler
    instead of raising, so degenerate synthetic data still flows.
    """
    if table.n_rows < 2:
        raise ParameterError("standardize needs at least 2 rows")
    values = table.values
    mean = values.mean(axis=0)
    std = np.sqrt(np.mean((values - mean) ** 2, axis=0))
    constant = (values == values[0]).all(axis=0)
    std = np.where(constant, 0.0, std)
    scaler = Scaler(mean, std, constant)
    out = Table(scaler.transform(values), table.decisions, table.attributes)
    return out, scaler


@dataclass(frozen=True)
class Discretizer:
    """Maps continuous columns to categories 1..4.

    Attributes with fixed concentration thresholds use those; any other
    attribute (oxygen, nitrogen, projected components) is min-max normalized
    over the fitted data and cut at 0.25 / 0.5 / 0.75.
    """

    attributes: tuple[str, ...]
    spans: tuple[tuple[float, float], ...]  # (lo, hi) for min-max columns, (nan, nan) otherwise

    @classmethod
    def fit(cls, table: Table) -> "Discretizer":
        spans = []
        for name in table.attributes:
            if name in CATEGORY_BOUNDS:
                spans.append((float("nan"), float("nan")))
            else:
                col = table.column(name)
                spans.append((float(col.min()), float(col.max())))
        return cls(tuple(table.attributes), tuple(spans))

    def apply(self, table: Table) -> CategoricalTable:
        if table.attributes != self.attributes:
            raise ShapeError("table attributes do not match the fitted discretizer")
        out = np.empty_like(table.values, dtype=np.int64)
        for j, name in enumerate(self.attributes):
            col = table.values[:, j]
            if name in CATEGORY_BOUNDS:
                t1, t2, t3 = CATEGORY_BOUNDS[name]
                out[:, j] = 1 + (col > t1) + (col > t2) + (col > t3)
            else:
                lo, hi = self.spans[j]
                if hi > lo:
                    u = np.clip((col - lo) / (hi - lo), 0.0, 1.0)
                else:
                    u = np.zeros_like(col)
                out[:, j] = 1 + (u > 0.25) + (u > 0.5) + (u > 0.75)
        return CategoricalTable(out, table.decisions, self.attributes)


def discretize(table: Table) -> CategoricalTable:
    """One-shot discretization fitted on the table itself."""
    return Discretizer.fit(table).apply(table)


def kfold(table: Table, k: int, seed: int) -> FoldPlan:
    """Stratified, seeded fold plan; per-class counts per fold differ by <= 1."""
    if k < 2:
        raise ParameterError("k must be at least 2")
    if k > table.n_rows:
        raise ParameterError(f"k={k} exceeds row count {table.n_rows}")
    rng = np.random.default_rng(seed)
    assignments = np.empty(table.n_rows, dtype=np.int64)
    pos = 0
    for cls in (DECISION_FAULTY, DECISION_HEALTHY):
        rows = rng.permutation(np.flatnonzero(table.decisions == cls))
        assignments[rows] = (pos + np.arange(rows.size)) % k
        pos += rows.size
    return FoldPlan(k, assignments)


def split_indices(n: int, ratios, seed: int) -> tuple[np.ndarray, ...]:
    """Seeded partition of range(n) into chunks proportional to `ratios`.

    A ratio of exactly zero yields an empty chunk; a positive ratio that
    rounds to an empty chunk is an error.
    """
    ratios = tuple(float(r) for r in ratios)
    if any(r < 0 for r in ratios) or abs(sum(ratios) - 1.0) > 1e-9:
        raise ParameterError(f"ratios must be non-negative and sum to 1, got {ratios}")
    perm = np.random.default_rng(seed).permutation(n)
    cuts, total = [0], 0.0
    for r in ratios:
        total += r
        cuts.append(round(total * n))
    cuts[-1] = n
    chunks = tuple(perm[cuts[i] : cuts[i + 1]] for i in range(len(ratios)))
    for r, chunk in zip(ratios, chunks):
        if r > 0 and chunk.size == 0:
            raise ParameterError(f"split ratio {r} produced an empty part for n={n}")
    return chunks


# Typical faulty / healthy concentration magnitudes used by the generator.
_FAULTY_ANCHOR = {
    "acetylene": 900.0,
    "carbon_dioxide": 1500.0,
    "carbon_monoxide": 500.0,
    "ethane": 320.0,
    "ethylene": 2200.0,
    "hydrogen": 900.0,
    "methane": 1000.0,
    "nitrogen": 40000.0,
    "oxygen": 12000.0,
}
_HEALTHY_ANCHOR = {
    "acetylene": 11.0,
    "carbon_dioxide": 2200.0,
    "carbon_monoxide": 250.0,
    "ethane": 30.0,
    "ethylene": 210.0,
    "hydrogen": 56.0,
    "methane": 90.0,
    "nitrogen": 53000.0,
    "oxygen": 17500.0,
}


def synth_generate(
    n: int,
    fault_ratio: float,
    noise: float,
    seed: int,
    informative=None,
) -> GasTable:
    """Deterministic synthetic gas table.

    Faulty and healthy rows are drawn around typical magnitudes for each
    class, perturbed multiplicatively by Gaussian noise scaled by `noise`,
    clamped at zero.  TCG is always recomputed as the sum of the six
    combustible gas columns.

    When `informative` names a subset of the nine measured gases, only those
    gases keep class-dependent anchors; the rest draw from a class-independent
    midpoint and carry no signal.
    """
    if n < 10:
        raise ParameterError("n must be at least 10")
    if not 0.0 < fault_ratio < 1.0:
        raise ParameterError("fault_ratio must be in (0, 1)")
    if noise < 0:
        raise ParameterError("noise must be non-negative")
    drawable = tuple(a for a in ATTRIBUTES if a != "tcg")
    if informative is not None:
        informative = tuple(informative)
        unknown = [g for g in informative if g not in drawable]
        if unknown:
            raise ParameterError(f"not a generable gas: {unknown[0]!r}")

    n_faulty = min(max(round(n * fault_ratio), 1), n - 1)
    decisions = np.concatenate(
        [np.zeros(n_faulty, dtype=np.int64), np.ones(n - n_faulty, dtype=np.int64)]
    )
    rng = np.random.default_rng(seed)
    columns = {}
    for gas in drawable:
        lo_anchor, hi_anchor = _FAULTY_ANCHOR[gas], _HEALTHY_ANCHOR[gas]
        if informative is not None and gas not in informative:
            mid = (lo_anchor + hi_anchor) / 2.0
            base = np.full(n, mid)
        else:
            base = np.where(decisions == DECISION_FAULTY, lo_anchor, hi_anchor)
        col = base * (1.0 + noise * rng.standard_normal(n))
        columns[gas] = np.maximum(col, 0.0)
    tcg = sum(columns[g] for g in COMBUSTIBLES)
    values = np.column_stack([columns[a] if a != "tcg" else tcg for a in ATTRIBUTES])
    order = rng.permutation(n)
    return GasTable(values[order], decisions[order], ATTRIBUTES)
