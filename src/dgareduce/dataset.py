"""Gas-in-oil tables: ingestion, standardization, discretization, splits, synthesis.

A table holds one row per oil sample: ten gas concentration attributes in a
fixed canonical order plus a binary decision (1 = healthy, 0 = faulty).
Everything downstream (reducers, classifiers, the experiment harness) consumes
the immutable table types defined here.
"""

from __future__ import annotations

import csv
import math
from array import array
from dataclasses import dataclass
from itertools import chain

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


def _trusted(cls, **fields):
    """A `cls` table of fields that already pass its checks, built without
    running them; its arrays must already have the dtype and shape that
    __post_init__ gives, and are frozen here."""
    table = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(table, name, _freeze(value) if isinstance(value, np.ndarray) else value)
    return table


@dataclass(frozen=True, eq=False)
class Table:
    """Immutable numeric table: condition values, decisions, attribute names."""

    values: np.ndarray
    decisions: np.ndarray
    attributes: tuple[str, ...]
    kept_kinds = ""  # dtype kinds of `values` kept as given; others become float64

    def __post_init__(self):
        values = np.atleast_2d(self.values)
        if values.dtype.kind not in self.kept_kinds:
            values = np.asarray(values, dtype=float)
        decisions = np.asarray(self.decisions, dtype=np.int64).ravel()
        if values.shape[0] != decisions.shape[0]:
            raise ShapeError(
                f"{values.shape[0]} value rows but {decisions.shape[0]} decisions"
            )
        if values.shape[1] != len(self.attributes):
            raise ShapeError(
                f"{values.shape[1]} columns but {len(self.attributes)} attribute names"
            )
        bad = (decisions < DECISION_FAULTY) | (decisions > DECISION_HEALTHY)  # on int64: not in {0, 1}
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

    def column_index(self, name: str) -> int:
        try:
            return self.attributes.index(name)
        except ValueError:
            raise ParameterError(f"unknown attribute {name!r}") from None

    def column(self, name: str) -> np.ndarray:
        return self.values[:, self.column_index(name)]

    def select(self, names) -> "Table":
        """New plain Table keeping only the named columns, in the given order."""
        idx = [self.column_index(n) for n in names]
        return Table(self.values[:, idx], self.decisions, tuple(names))

    def take(self, rows) -> "Table":
        """Row subset, preserving the concrete table type.  Rows of a valid
        table are valid, so the subset is not checked again."""
        rows = np.asarray(rows, dtype=np.int64).ravel()
        subset = {"values": self.values[rows], "decisions": self.decisions[rows]}
        return _trusted(type(self), **{**vars(self), **subset})


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

    kept_kinds = "biu"  # integer cells are checked as they are, not through float64

    def __post_init__(self):
        super().__post_init__()
        cells = self.values
        integral = cells.dtype.kind != "f" or (cells == np.floor(cells)).all()
        if cells.size and not (integral and 1 <= cells.min() and cells.max() <= 4):
            raise ValidationError("categorical cells must be integers in {1, 2, 3, 4}")
        object.__setattr__(self, "values", _freeze(cells.astype(np.int64)))


def load_csv(path) -> GasTable:
    """Read a gas table from CSV, dropping rows with empty or non-numeric cells.

    The header must name the ten attributes plus ``decision`` in canonical
    order (case-insensitive).  A row is dropped when it does not have eleven
    cells, when ``float()`` rejects one of its cells (quotes around a number
    are fine) or when a cell is not finite; the number of dropped rows is
    recorded on the returned table.  Negative concentrations and decisions
    outside {0, 1} are hard errors, not drops; their messages number rows by
    CSV record, the header being record 1.  A file that is not UTF-8 text,
    or that csv.reader rejects (a cell longer than `csv.field_size_limit()`,
    say), is a SchemaError.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            header = next(csv.reader(fh), None)
            if header is None:
                raise SchemaError(f"{path}: file is empty")
            names = tuple(h.strip().lower() for h in header)
            if names != _CSV_HEADER:
                raise SchemaError(
                    f"{path}: expected header {','.join(_CSV_HEADER)}, got {','.join(names)}"
                )
            parsed = _read_rows(fh)
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except csv.Error as exc:
        raise SchemaError(f"{path}: unreadable CSV ({exc})") from None
    finite = np.isfinite(parsed).all(axis=1)
    dropped = int((~finite).sum())
    values, decision = parsed[finite, :-1], parsed[finite, -1]
    lines = np.flatnonzero(finite) + 2
    negative = (values < 0).any(axis=1)
    bad = negative | ((decision != 0) & (decision != 1))
    if bad.any():
        first = int(np.argmax(bad))
        if negative[first]:
            raise ValidationError(f"{path}: negative concentration in row {lines[first]}")
        raise ValidationError(f"{path}: decision must be 0 or 1 in row {lines[first]}")
    if not len(values):
        raise EmptyDatasetError(f"{path}: no usable rows")
    fields = dict(values=values, decisions=decision.astype(np.int64), dropped_rows=dropped)
    return _trusted(GasTable, attributes=ATTRIBUTES, **fields)  # its checks were made above


#: Characters of CSV text `load_csv` reads at a time.
_CHUNK_CHARS = 1 << 16


def _read_rows(fh) -> np.ndarray:
    """The rows after the header, one per CSV record, so that row i is
    record i + 2; a record that is not eleven numbers is a row of NaNs.

    Up to the first line holding a quote every line is one record, parsed
    chunk by chunk in `_parse_lines`.  From that line on, a quoted cell may
    span lines, so csv.reader parses the rest of the file.
    """
    cells = array("d")
    while lines := fh.readlines(_CHUNK_CHARS):
        if '"' in "".join(lines):
            quote = next(i for i, line in enumerate(lines) if '"' in line)
            _parse_lines(lines[:quote], cells)
            _parse_records(csv.reader(chain(lines[quote:], fh)), cells)
            break
        _parse_lines(lines, cells)
    return np.frombuffer(cells).reshape(-1, len(_CSV_HEADER))


def _parse_lines(lines, cells) -> None:
    """Append the rows of `lines`, which hold no quote and so one record
    each, to `cells`.

    np.loadtxt with `comments=None` reads a number as float() does (both
    end in PyOS_string_to_double); its result is kept when it holds eleven
    numbers for each line.  A chunk of white space, on which it warns, one
    holding U+001C to U+001F, which it strips as white space and float()
    does not, and one with a cell it rejects ("1e", "1_0") go whole to
    `_parse_records` instead.
    """
    text = "".join(lines)
    if text.strip() and not any(map(text.__contains__, "\x1c\x1d\x1e\x1f")):
        try:
            parsed = np.loadtxt(lines, delimiter=",", ndmin=2, comments=None)
            if parsed.shape == (len(lines), len(_CSV_HEADER)):
                cells.frombytes(memoryview(parsed).cast("B"))
                return
        except ValueError:
            pass
    _parse_records(csv.reader(lines), cells)


def _parse_records(records, cells) -> None:
    """Append each csv.reader record to `cells` as one row: its eleven cells
    through float(), or NaNs when it has another number of cells or float()
    rejects one of them."""
    unusable = [np.nan] * len(_CSV_HEADER)
    for row in records:
        parsed = unusable
        if len(row) == len(_CSV_HEADER):
            try:
                parsed = list(map(float, row))
            except ValueError:
                pass
        cells.extend(parsed)


#: Rows `write_csv` formats at a time.
_WRITE_ROWS = 512


def write_csv(table: Table, path) -> None:
    """Write a table as CSV with values at 9 significant digits.

    The bytes are those csv.writer writes: CRLF line ends, and quotes only
    in a header name that needs them, never around a number.
    """
    row = ",".join(["%.9g"] * table.n_attributes + ["%d"]) + "\r\n"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(table.attributes + ("decision",))
        for start in range(0, table.n_rows, _WRITE_ROWS):
            stop = start + _WRITE_ROWS
            block = np.column_stack((table.values[start:stop], table.decisions[start:stop]))
            fh.write((row * len(block)) % tuple(block.ravel().tolist()))


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


def write_model(path, kind: str, fields: dict) -> None:
    """Write a model file: `kind = <kind>` first, then one `key = value` line
    per field.

    Strings are written as they are.  Numbers, tuples and arrays are comma
    lists (arrays flattened) with numbers at %.17g, so a file reloads to
    exactly the same values; each array of 2 or more dimensions gets a
    `key.shape = a,b,...` line before its values.
    """
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
    """The fields of a file written by `write_model`.

    A missing key, a value that does not parse (a non-integral number where
    an integer belongs, say) or an array of the wrong shape raises
    ParameterError naming the file.
    """

    def __init__(self, path):
        self.path = path
        self.fields = {}
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                key, sep, raw = line.partition("=")
                if sep:
                    self.fields[key.strip()] = raw.strip()

    def get(self, key: str, parse=str):
        """The value of `key`, passed through `parse`."""
        if key not in self.fields:
            raise ParameterError(f"{self.path}: missing key {key!r}")
        try:
            return parse(self.fields[key])
        except ValueError as exc:
            raise ParameterError(f"{self.path}: bad value for {key!r}: {exc}") from None

    def array(self, key: str, dtype=float) -> np.ndarray:
        """The array of `key`; each value of an integer `dtype` is read by int()."""
        cast = int if np.dtype(dtype).kind in "iu" else float

        def parse(raw):
            flat = np.array([cast(v) for v in raw.split(",")] if raw else [], dtype=dtype)
            shape = self.fields.get(f"{key}.shape")
            return flat if shape is None else flat.reshape([int(v) for v in shape.split(",")])

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
        if table.n_rows == 0:
            raise ParameterError("discretize needs at least 1 row, got an empty table")
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
        # one whole-table compare per cut, in which min-max columns never pass
        # their infinite cuts; then each min-max column compares its u, whose
        # clipping to [0, 1] would change no comparison with a cut inside it
        never = (math.inf,) * 3
        cuts = np.array([CATEGORY_BOUNDS.get(a, never) for a in self.attributes])
        x = table.values
        out = np.ones(x.shape, dtype=np.int8)
        for cut in cuts.T:
            out += (x > cut).view(np.int8)
        for j, attribute in enumerate(self.attributes):
            lo, hi = self.spans[j]
            if attribute not in CATEGORY_BOUNDS and hi > lo:  # a constant column stays 1
                u = (x[:, j] - lo) / (hi - lo)
                for cut in (0.25, 0.5, 0.75):
                    out[:, j] += (u > cut).view(np.int8)
        # cells in 1..4 by construction, and the decisions come from a checked table
        return _trusted(
            CategoricalTable, values=out.astype(np.int64), decisions=table.decisions,
            attributes=self.attributes,
        )


def discretize(table: Table) -> CategoricalTable:
    """One-shot discretization fitted on the table itself."""
    return Discretizer.fit(table).apply(table)


def kfold(table: Table, k: int, seed: int) -> np.ndarray:
    """Stratified, seeded fold plan: a read-only int64 array of each row's fold
    in [0, k), whose folds' per-class counts differ by at most 1.  Fold f tests
    on the rows where `plan == f` and trains on the rest."""
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
    return _freeze(assignments)


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
    if seed < 0:
        raise ParameterError(f"seed must be non-negative, got {seed}")
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
