"""Tables, CSV ingestion, standardization, discretization, folds, synthesis."""

import csv
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgareduce import dataset, pca
from dgareduce.dataset import (
    ATTRIBUTES,
    COMBUSTIBLES,
    CategoricalTable,
    Discretizer,
    GasTable,
    Scaler,
    discretize,
    kfold,
    load_csv,
    split_indices,
    standardize,
    synth_generate,
    write_csv,
)
from dgareduce.errors import (
    DgaError,
    EmptyDatasetError,
    ParameterError,
    SchemaError,
    ValidationError,
)

from conftest import make_gas_table, make_table

HEADER = ",".join(ATTRIBUTES + ("decision",))
SAMPLE_ROW = "43,242,57,294,2055,1175,1882,12233,4060,5506,0"


def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadCsv:
    def test_reference_row(self, tmp_path):
        table = load_csv(_write(tmp_path, f"{HEADER}\n{SAMPLE_ROW}\n"))
        assert table.n_rows == 1
        assert table.decisions[0] == 0
        assert table.column("acetylene")[0] == 43
        assert table.column("tcg")[0] == 5506
        # this row's combustibles add up to its tcg column
        assert sum(table.column(g)[0] for g in COMBUSTIBLES) == 5506

    def test_header_only_is_empty_dataset(self, tmp_path):
        with pytest.raises(EmptyDatasetError):
            load_csv(_write(tmp_path, HEADER + "\n"))

    def test_blank_cell_dropped(self, tmp_path):
        good = SAMPLE_ROW
        blank_ethane = "10,20,30,,50,60,70,80,90,100,1"
        text = f"{HEADER}\n{good}\n{blank_ethane}\n{good}\n"
        table = load_csv(_write(tmp_path, text))
        assert table.n_rows == 2
        assert table.dropped_rows == 1

    def test_non_numeric_dropped(self, tmp_path):
        bad = SAMPLE_ROW.replace("2055", "n/a")
        table = load_csv(_write(tmp_path, f"{HEADER}\n{SAMPLE_ROW}\n{bad}\n"))
        assert table.n_rows == 1
        assert table.dropped_rows == 1

    def test_misordered_header(self, tmp_path):
        cols = list(ATTRIBUTES + ("decision",))
        cols[0], cols[1] = cols[1], cols[0]
        with pytest.raises(SchemaError):
            load_csv(_write(tmp_path, ",".join(cols) + "\n" + SAMPLE_ROW + "\n"))

    def test_missing_column(self, tmp_path):
        header = ",".join(ATTRIBUTES)  # no decision
        with pytest.raises(SchemaError):
            load_csv(_write(tmp_path, header + "\n"))

    def test_header_case_insensitive(self, tmp_path):
        table = load_csv(_write(tmp_path, HEADER.upper() + "\n" + SAMPLE_ROW + "\n"))
        assert table.n_rows == 1

    def test_negative_concentration_names_row(self, tmp_path):
        bad = SAMPLE_ROW.replace("43", "-43")
        with pytest.raises(ValidationError, match="row 3"):
            load_csv(_write(tmp_path, f"{HEADER}\n{SAMPLE_ROW}\n{bad}\n"))

    def test_bad_decision_rejected(self, tmp_path):
        bad = SAMPLE_ROW[:-1] + "2"
        with pytest.raises(ValidationError):
            load_csv(_write(tmp_path, f"{HEADER}\n{bad}\n"))

    def test_blank_line_counts_as_dropped(self, tmp_path):
        table = load_csv(_write(tmp_path, f"{HEADER}\n{SAMPLE_ROW}\n\n{SAMPLE_ROW}\n"))
        assert table.n_rows == 2
        assert table.dropped_rows == 1

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_drops_the_row(self, tmp_path, cell):
        bad = SAMPLE_ROW.replace("2055", cell)
        table = load_csv(_write(tmp_path, f"{HEADER}\n{bad}\n{SAMPLE_ROW}\n"))
        assert table.n_rows == 1
        assert table.dropped_rows == 1
        assert np.isfinite(table.values).all()

    def test_non_finite_row_with_negative_cell_is_dropped_not_rejected(self, tmp_path):
        bad = SAMPLE_ROW.replace("43", "-43").replace("2055", "nan")
        table = load_csv(_write(tmp_path, f"{HEADER}\n{bad}\n{SAMPLE_ROW}\n"))
        assert (table.n_rows, table.dropped_rows) == (1, 1)

    def test_quoted_numeric_cell_parses(self, tmp_path):
        quoted = SAMPLE_ROW.replace("2055", '"2055"')
        table = load_csv(_write(tmp_path, f"{HEADER}\n{quoted}\n"))
        assert table.column("ethylene")[0] == 2055
        assert table.dropped_rows == 0

    def test_negative_after_dropped_rows_names_its_line(self, tmp_path):
        blank_cell = SAMPLE_ROW.replace("2055", "")
        nan_cell = SAMPLE_ROW.replace("2055", "nan")
        negative = SAMPLE_ROW.replace("43", "-43")
        text = f"{HEADER}\n{SAMPLE_ROW}\n{blank_cell}\n\n{nan_cell}\n{negative}\n"
        with pytest.raises(ValidationError, match="negative concentration in row 6$"):
            load_csv(_write(tmp_path, text))

    def test_first_invalid_row_in_file_order_wins(self, tmp_path):
        bad_decision = SAMPLE_ROW[:-1] + "2"
        negative = SAMPLE_ROW.replace("43", "-43")
        first = _write(tmp_path, f"{HEADER}\n{SAMPLE_ROW}\n{bad_decision}\n{negative}\n", "a.csv")
        with pytest.raises(ValidationError, match="decision must be 0 or 1 in row 3$"):
            load_csv(first)
        second = _write(tmp_path, f"{HEADER}\n{SAMPLE_ROW}\n{negative}\n{bad_decision}\n", "b.csv")
        with pytest.raises(ValidationError, match="negative concentration in row 3$"):
            load_csv(second)

    def test_every_row_dropped_is_empty_dataset(self, tmp_path):
        text = f"{HEADER}\n\n{SAMPLE_ROW.replace('43', 'nan')}\n1,2,3\n"
        with pytest.raises(EmptyDatasetError):
            load_csv(_write(tmp_path, text))

    def test_round_trip(self, tmp_path):
        table = synth_generate(40, 0.4, 0.3, seed=9)
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        write_csv(table, first)
        reloaded = load_csv(first)
        write_csv(reloaded, second)
        assert first.read_text() == second.read_text()
        assert np.array_equal(table.decisions, reloaded.decisions)

    def test_byte_order_mark_is_skipped(self, tmp_path):
        """Spreadsheet "CSV UTF-8" exports start with a UTF-8 byte-order mark."""
        plain = tmp_path / "plain.csv"
        write_csv(synth_generate(20, 0.5, 0.3, seed=3), plain)
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        first, second = load_csv(plain), load_csv(marked)
        assert np.array_equal(first.values, second.values)
        assert np.array_equal(first.decisions, second.decisions)

    def test_not_utf8_after_the_first_chunk(self, tmp_path):
        """A Latin-1 byte far into the file, where a chunked read meets it."""
        text = "\n".join([HEADER] + [SAMPLE_ROW] * 2000 + [SAMPLE_ROW.replace("43", "4µ3")])
        path = tmp_path / "latin1.csv"
        path.write_bytes((text + "\n").encode("latin-1"))
        with pytest.raises(SchemaError, match=f"^{path}: not UTF-8 text"):
            load_csv(path)


def reference_load(path):
    """The row-at-a-time loader that `load_csv` must agree with."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        rows, decisions, dropped = [], [], 0
        for lineno, cells in enumerate(reader, start=2):
            if len(cells) != len(ATTRIBUTES) + 1:
                dropped += 1
                continue
            try:
                parsed = [float(c) for c in cells]
            except ValueError:
                dropped += 1
                continue
            if not all(np.isfinite(parsed)):
                dropped += 1
                continue
            if any(v < 0 for v in parsed[:-1]):
                raise ValidationError(f"{path}: negative concentration in row {lineno}")
            if parsed[-1] not in (0.0, 1.0):
                raise ValidationError(f"{path}: decision must be 0 or 1 in row {lineno}")
            rows.append(parsed[:-1])
            decisions.append(int(parsed[-1]))
    if not rows:
        raise EmptyDatasetError(f"{path}: no usable rows")
    return np.array(rows, dtype=float), np.array(decisions, dtype=np.int64), dropped


# Cells float() and np.loadtxt may judge differently ("1_0", "\u0661", "5#x",
# "\x1c5"), cells that only look like numbers ("1e", "1..2"), and quoted
# cells, one of them spanning lines ("7\n" is a number to float()).
_SPOILED = st.sampled_from(
    ["", "n/a", "nan", "inf", "-inf", '"7"', "1e3", " 7", "1_0", "+5", ".5", "5.", "1e", "-",
     ".", "1..2", "Infinity", "1e999", '"7\n"', '"1\r\n2"', "\xa05", "\u0661", "5#x", "\x1c5"]
    + ["-1.5"] * 4
)
_CELL = st.floats(0, 1e5, allow_nan=False).map(repr) | _SPOILED
_DECISION = st.sampled_from(["0", "1", "1.0", "-0.0"] * 4 + ["2", "-1", "nan"])


def _row(gases, spoil, decision):
    """A ten-gas row, with one cell replaced when `spoil` is (column, cell)."""
    if spoil is not None:
        gases[spoil[0]] = spoil[1]
    return ",".join(gases + [decision])


_LINE = st.one_of(
    st.builds(
        _row,
        st.lists(st.integers(0, 5000).map(str), min_size=10, max_size=10),
        st.none() | st.tuples(st.integers(0, 9), _SPOILED),
        _DECISION,
    ),
    st.lists(_CELL, min_size=0, max_size=12).map(",".join),
)
_ENDING = st.sampled_from(["\n", "\r\n", "\r"])


class TestLoadCsvMatchesReference:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(_LINE, _ENDING), max_size=12), st.booleans())
    def test_same_rows_drops_and_errors(self, tmp_path_factory, lines, final_newline):
        text = HEADER + "\r\n" + "".join(line + end for line, end in lines)
        if lines and not final_newline:
            text = text[: -len(lines[-1][1])]
        path = tmp_path_factory.mktemp("csv") / "data.csv"
        path.write_bytes(text.encode())
        _assert_same_outcome(path)

    def test_rows_keep_file_order_across_parse_paths(self, tmp_path):
        """A row float() takes but np.loadtxt rejects ("1_0") sits between
        plain rows in one chunk, which then goes to csv.reader whole."""
        rows = _numbered_rows(5)
        rows[1] = rows[1].replace("242", " 242")
        rows[3] = rows[3].replace("242", "2_42")
        table = _assert_same_outcome(_write(tmp_path, "\n".join([HEADER] + rows) + "\n"))
        assert table.column("acetylene").tolist() == [0, 1, 2, 3, 4]

    @pytest.mark.parametrize("cell", [" 5", "5 ", "\t5", "\xa05", "NaN", "-infinity"])
    def test_cells_float_takes_go_through_loadtxt(self, tmp_path, monkeypatch, cell):
        """Cells padded with white space, or naming a non-finite value, are
        read by np.loadtxt as float() reads them; the chunk never falls back
        to csv.reader."""
        fallbacks = []
        monkeypatch.setattr(dataset, "_parse_records", lambda records, cells: fallbacks.append(1))
        rows = _numbered_rows(3)
        rows[1] = rows[1].replace("242", cell)
        path = tmp_path / "data.csv"
        path.write_bytes("\n".join([HEADER] + rows + [""]).encode())
        table = _assert_same_outcome(path)
        assert table.n_rows + table.dropped_rows == 3
        assert fallbacks == []

    @pytest.mark.parametrize("last", ["5#x", "0#x", "\x1c1", "1\x1d", "\x1e0", "0\x1f"])
    def test_last_cell_only_loadtxt_could_read_drops_the_row(self, tmp_path, last):
        """np.loadtxt would read these cells as numbers: "#" starts a comment
        under its default `comments`, and U+001C..U+001F are white space to
        it.  To float() they are no numbers.  The cell is the row's last, so
        a comment would leave eleven cells."""
        row = SAMPLE_ROW.rsplit(",", 1)[0] + "," + last
        table = _assert_same_outcome(_write(tmp_path, "\n".join([HEADER, SAMPLE_ROW, row]) + "\n"))
        assert (table.n_rows, table.dropped_rows) == (1, 1)

    @pytest.mark.parametrize("width", [10, 12])
    def test_rows_of_one_wrong_width_are_all_dropped(self, tmp_path, width):
        """np.loadtxt takes any width every line shares; only eleven is a
        row."""
        cells = (SAMPLE_ROW.split(",") * 2)[:width]
        text = "\n".join([HEADER] + [",".join(cells)] * 11) + "\n"
        assert _assert_same_outcome(_write(tmp_path, text))[0] == "EmptyDatasetError"

    def test_chunk_of_blank_lines_is_silent(self, tmp_path, monkeypatch):
        """A chunk made only of blank lines, on which np.loadtxt would warn,
        loads without a warning; each blank line is a dropped record."""
        monkeypatch.setattr(dataset, "_CHUNK_CHARS", 1)
        text = "\n".join([HEADER, SAMPLE_ROW, "", "", "\r", SAMPLE_ROW]) + "\n"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = _assert_same_outcome(_write(tmp_path, text))
        assert (table.n_rows, table.dropped_rows) == (2, 3)

    def test_chunks_fallback_and_quote_switch(self, tmp_path, monkeypatch):
        """Chunks of a line or two: chunks of plain rows, a chunk whose
        plain-looking cell np.loadtxt rejects, then the line with the first
        quote, after which no line goes through `_parse_lines`.  Rows are
        distinct, and a negative row before or after the quote checks the
        record numbers."""
        monkeypatch.setattr(dataset, "_CHUNK_CHARS", 60)
        chunks, rejected = [], []
        parse_lines, loadtxt = dataset._parse_lines, np.loadtxt

        def spy_parse_lines(lines, cells):
            chunks.append(len(lines))
            return parse_lines(lines, cells)

        def spy_loadtxt(lines, **kwargs):
            try:
                return loadtxt(lines, **kwargs)
            except ValueError:
                rejected.append(lines)
                raise

        monkeypatch.setattr(dataset, "_parse_lines", spy_parse_lines)
        monkeypatch.setattr(np, "loadtxt", spy_loadtxt)
        rows = _numbered_rows(8)
        spoiled = SAMPLE_ROW.replace("2055", "20..55")
        quoted = SAMPLE_ROW.replace("2055", '"2055\n"')
        lines = rows[:3] + [spoiled, "", rows[3], quoted] + rows[4:]
        table = _assert_same_outcome(_write(tmp_path, "\n".join([HEADER] + lines) + "\n"))
        assert (table.n_rows, table.dropped_rows) == (9, 2)
        assert len(chunks) >= 3
        assert rejected and all(spoiled + "\n" in lines for lines in rejected)
        assert sum(chunks) == lines.index(quoted)
        negative = SAMPLE_ROW.replace("43", "-43")
        for at in (5, len(lines)):
            text = "\n".join([HEADER] + lines[:at] + [negative] + lines[at:]) + "\n"
            assert _assert_same_outcome(_write(tmp_path, text))[0] == "ValidationError"


def _numbered_rows(n):
    """`n` copies of SAMPLE_ROW with acetylene 0, 1, ..., n - 1."""
    return [f"{i}," + SAMPLE_ROW.split(",", 1)[1] for i in range(n)]


def _assert_same_outcome(path):
    """Assert that `load_csv` and `reference_load` return the same rows,
    decisions and drop count, or raise the same error; return the table."""

    def outcome(load):
        try:
            return load(path)
        except DgaError as exc:
            return type(exc).__name__, str(exc)

    expected = outcome(reference_load)
    got = outcome(load_csv)
    if isinstance(got, GasTable):
        assert isinstance(expected[0], np.ndarray)
        assert np.array_equal(got.values, expected[0])
        assert np.array_equal(got.decisions, expected[1])
        assert got.dropped_rows == expected[2]
    else:
        assert got == expected
    return got


def reference_write(table, path):
    """The csv.writer loop whose bytes `write_csv` must reproduce."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(table.attributes + ("decision",))
        for row, d in zip(table.values, table.decisions):
            writer.writerow(["%.9g" % v for v in row] + [str(int(d))])


def _exponent_table():
    values = np.full((4, len(ATTRIBUTES)), 1e-7)
    values[1] = 1.5e12
    values[2] = [0.0, 5e-324, 1e300, 123456789.5, 1e16, 2.5e-5, 1e-4, 99999.99999, 7.0, 1e9]
    return GasTable(values, [0, 1, 0, 1], ATTRIBUTES)


class TestWriteCsvMatchesReference:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: synth_generate(300, 0.4, 0.5, seed=4),
            lambda: discretize(synth_generate(300, 0.4, 0.5, seed=4)),
            lambda: standardize(synth_generate(50, 0.4, 0.5, seed=4))[0],
            _exponent_table,
            lambda: synth_generate(2 * dataset._WRITE_ROWS + 7, 0.5, 0.3, seed=5),
        ],
        ids=["gas", "categorical", "standardized", "exponent-form", "several-blocks"],
    )
    def test_same_bytes(self, tmp_path, make):
        table = make()
        write_csv(table, tmp_path / "got.csv")
        reference_write(table, tmp_path / "want.csv")
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


class TestStandardize:
    def test_hand_column(self):
        table = make_table([[1.0], [2.0], [3.0]], [0, 1, 0])
        out, scaler = standardize(table)
        assert scaler.mean[0] == pytest.approx(2.0)
        assert scaler.std[0] == pytest.approx(math.sqrt(2.0 / 3.0))
        np.testing.assert_allclose(
            out.values[:, 0], [-1.224744871, 0.0, 1.224744871], atol=1e-9
        )

    def test_constant_column_zeroed_and_flagged(self):
        table = make_table([[5.0], [5.0], [5.0]], [0, 1, 0])
        out, scaler = standardize(table)
        assert np.all(out.values == 0.0)
        assert scaler.constant[0]

    def test_output_moments(self, rng):
        table = make_table(rng.uniform(1, 100, size=(50, 4)), rng.integers(0, 2, 50))
        out, _ = standardize(table)
        assert np.abs(out.values.mean(axis=0)).max() <= 1e-9
        np.testing.assert_allclose(out.values.std(axis=0), 1.0, atol=1e-9)

    def test_idempotent(self, rng):
        table = make_table(rng.uniform(1, 100, size=(30, 3)), rng.integers(0, 2, 30))
        once, _ = standardize(table)
        twice, _ = standardize(once)
        np.testing.assert_allclose(twice.values, once.values, atol=1e-12)

    def test_scaler_transform_reproduces_output(self, rng):
        table = make_table(rng.uniform(1, 1e4, size=(25, 5)), rng.integers(0, 2, 25))
        out, scaler = standardize(table)
        np.testing.assert_array_equal(scaler.transform(table.values), out.values)

    def test_requires_two_rows(self):
        with pytest.raises(ParameterError):
            standardize(make_table([[1.0]], [0]))


class TestDiscretize:
    @pytest.mark.parametrize(
        "gas,value,category",
        [
            ("hydrogen", 100, 1),
            ("hydrogen", 101, 2),
            ("hydrogen", 1801, 4),
            ("methane", 401, 3),
            ("acetylene", 35, 1),
            ("tcg", 4631, 4),
        ],
    )
    def test_reference_thresholds(self, gas, value, category):
        table = make_gas_table(n_rows=2, **{gas: [value, value]})
        cat = discretize(table)
        assert cat.column(gas)[0] == category

    def test_minmax_gases(self):
        table = make_gas_table(n_rows=3, nitrogen=[0.0, 50.0, 100.0])
        cat = discretize(table)
        assert list(cat.column("nitrogen")) == [1, 2, 4]

    def test_order_preserving(self, rng):
        for gas in dataset.CATEGORY_BOUNDS:
            vals = np.sort(rng.uniform(0, 6000, size=40))
            table = make_gas_table(n_rows=40, **{gas: vals})
            cats = discretize(table).column(gas)
            assert np.all(np.diff(cats) >= 0)

    def test_fitted_spans_reused_on_new_rows(self):
        train = make_gas_table(n_rows=3, oxygen=[0.0, 50.0, 100.0])
        disc = Discretizer.fit(train)
        probe = make_gas_table(n_rows=2, oxygen=[100.0, 1000.0])
        cats = disc.apply(probe).column("oxygen")
        assert list(cats) == [4, 4]  # clipped into the fitted span

    def test_row_count_preserved(self):
        table = synth_generate(30, 0.5, 0.1, seed=1)
        assert discretize(table).n_rows == table.n_rows


# The per-column formula that the whole-table compares against a cut matrix
# replace, kept here as the oracle.
def reference_discretize(disc, table):
    out = np.empty_like(table.values, dtype=np.int64)
    for j, name in enumerate(disc.attributes):
        col = table.values[:, j]
        if name in dataset.CATEGORY_BOUNDS:
            t1, t2, t3 = dataset.CATEGORY_BOUNDS[name]
            out[:, j] = 1 + (col > t1) + (col > t2) + (col > t3)
        else:
            lo, hi = disc.spans[j]
            u = np.clip((col - lo) / (hi - lo), 0.0, 1.0) if hi > lo else np.zeros_like(col)
            out[:, j] = 1 + (u > 0.25) + (u > 0.5) + (u > 0.75)
    return out


def _assert_discretizes_like_reference(fitted_on, table):
    """`apply` builds its table unchecked; it equals the checked construction
    of the reference cells field by field, frozen arrays and dtypes included."""
    disc = Discretizer.fit(fitted_on)
    cats = disc.apply(table)
    checked = CategoricalTable(reference_discretize(disc, table), table.decisions, disc.attributes)
    assert type(cats) is CategoricalTable and cats.attributes == checked.attributes
    for got, want in ((cats.values, checked.values), (cats.decisions, checked.decisions)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert not got.flags.writeable
        np.testing.assert_array_equal(got, want)


def _gas_values(seed, n_fit, n, quarters):
    """Cells anywhere in 0..12000, a third of them moved onto one of their
    column's cuts.  With `quarters`, the min-max columns take the quarter
    points of a fitted span of exactly 0..100, where u sits on a cut."""
    rng = np.random.default_rng(seed)
    values = rng.uniform(0.0, 12000.0, size=(n, len(ATTRIBUTES)))
    values[:, ::2] = np.round(values[:, ::2])
    for j, name in enumerate(ATTRIBUTES):
        cuts = dataset.CATEGORY_BOUNDS.get(name)
        if cuts is None and quarters:
            values[:, j] = rng.choice([0.0, 25.0, 50.0, 75.0, 100.0], n)
            values[0, j], values[n_fit - 1, j] = 0.0, 100.0
        elif cuts is not None:
            on_cut = rng.random(n) < 1 / 3
            values[on_cut, j] = rng.choice(cuts, int(on_cut.sum()))
    return values


class TestDiscretizeMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.integers(0, 12), st.booleans(),
           st.booleans())
    def test_fitted_rows_and_rows_past_the_span(self, seed, n_fit, n_more, quarters, constant):
        values = _gas_values(seed, n_fit, n_fit + n_more, quarters)
        if constant:  # hi == lo on a min-max column
            values[:n_fit, ATTRIBUTES.index("oxygen")] = values[0, ATTRIBUTES.index("oxygen")]
        table = GasTable(values, np.arange(len(values)) % 2, ATTRIBUTES)
        _assert_discretizes_like_reference(table.take(np.arange(n_fit)), table)

    @pytest.mark.parametrize("n_fit", [300, 120])
    def test_pca_projected_table(self, n_fit):
        table = synth_generate(300, 0.5, 0.4, seed=3)
        projected = pca.project(table, pca.fit_projection(table, fixed_count=3))
        _assert_discretizes_like_reference(projected.take(np.arange(n_fit)), projected)


class TestKfold:
    def test_exact_division(self):
        table = synth_generate(30, 0.5, 0.1, seed=4)
        plan = kfold(table, 15, seed=0)
        sizes = np.bincount(plan, minlength=15)
        assert np.all(sizes == 2)

    def test_stratification_forced(self):
        table = make_gas_table(n_rows=10, decisions=[0] * 5 + [1] * 5, hydrogen=range(10))
        plan = kfold(table, 5, seed=3)
        for fold in range(5):
            decs = table.decisions[np.flatnonzero(plan == fold)]
            assert sorted(decs) == [0, 1]

    def test_deterministic(self):
        table = synth_generate(40, 0.5, 0.1, seed=4)
        a = kfold(table, 5, seed=7)
        b = kfold(table, 5, seed=7)
        assert np.array_equal(a, b)

    def test_partition_and_balance(self, rng):
        for _ in range(10):
            n = int(rng.integers(12, 60))
            k = int(rng.integers(2, 7))
            table = make_gas_table(
                n_rows=n, decisions=rng.integers(0, 2, n), hydrogen=rng.uniform(0, 10, n)
            )
            plan = kfold(table, k, seed=int(rng.integers(1e6)))
            assert len(plan) == n
            for cls in (0, 1):
                counts = np.bincount(plan[table.decisions == cls], minlength=k)
                assert counts.max() - counts.min() <= 1

    def test_plan_is_a_read_only_int64_array(self):
        plan = kfold(synth_generate(20, 0.5, 0.1, seed=4), 4, seed=0)
        assert isinstance(plan, np.ndarray) and plan.dtype == np.int64
        with pytest.raises(ValueError):
            plan[0] = 1

    def test_k_too_large(self):
        table = synth_generate(10, 0.5, 0.1, seed=4)
        with pytest.raises(ParameterError):
            kfold(table, 11, seed=0)

    @pytest.mark.parametrize("faulty_share", [0.0, 0.3, 0.5, 1.0])
    def test_matches_per_row_loop(self, faulty_share):
        def reference(decisions, k, seed):
            rng = np.random.default_rng(seed)
            assignments = np.empty(len(decisions), dtype=np.int64)
            pos = 0
            for cls in (0, 1):
                for r in rng.permutation(np.flatnonzero(decisions == cls)):
                    assignments[r] = pos % k
                    pos += 1
            return assignments

        for n, k, seed in [(10, 2, 0), (23, 3, 1), (37, 5, 7), (64, 10, 123)]:
            decisions = (np.arange(n) >= round(faulty_share * n)).astype(np.int64)
            decisions = np.random.default_rng(seed).permutation(decisions)
            table = make_gas_table(n_rows=n, decisions=decisions, hydrogen=range(n))
            plan = kfold(table, k, seed)
            assert np.array_equal(plan, reference(decisions, k, seed))


class TestSplitIndices:
    def test_partition(self):
        parts = split_indices(100, (0.7, 0.15, 0.15), seed=1)
        assert sorted(np.concatenate(parts)) == list(range(100))
        assert [len(p) for p in parts] == [70, 15, 15]

    def test_zero_ratio_allowed(self):
        parts = split_indices(10, (1.0, 0.0, 0.0), seed=1)
        assert len(parts[0]) == 10 and len(parts[1]) == 0

    def test_positive_ratio_empty_chunk_rejected(self):
        with pytest.raises(ParameterError):
            split_indices(3, (0.9, 0.05, 0.05), seed=1)


class TestSynthGenerate:
    def test_negative_seed_rejected(self):
        with pytest.raises(ParameterError, match="^seed must be non-negative, got -1$"):
            synth_generate(100, 0.5, 0.2, seed=-1)

    def test_ratio_forced(self):
        table = synth_generate(100, 0.5, 0.2, seed=0)
        assert int((table.decisions == 0).sum()) == 50
        assert int((table.decisions == 1).sum()) == 50

    def test_tcg_is_combustible_sum(self):
        table = synth_generate(50, 0.5, 0.0, seed=0)
        total = sum(table.column(g) for g in COMBUSTIBLES)
        np.testing.assert_array_equal(table.column("tcg"), total)

    def test_deterministic(self, tmp_path):
        a = synth_generate(60, 0.3, 0.4, seed=12)
        b = synth_generate(60, 0.3, 0.4, seed=12)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.decisions, b.decisions)
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(a, pa)
        write_csv(b, pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_informative_subset_silences_other_gases(self):
        table = synth_generate(
            400, 0.5, 0.1, seed=5, informative=("hydrogen", "methane", "ethylene")
        )
        faulty = table.decisions == 0
        h = table.column("hydrogen")
        assert h[faulty].mean() > 3 * h[~faulty].mean()
        co2 = table.column("carbon_dioxide")
        ratio = co2[faulty].mean() / co2[~faulty].mean()
        assert 0.9 < ratio < 1.1

    def test_parameter_errors(self):
        with pytest.raises(ParameterError):
            synth_generate(5, 0.5, 0.1, seed=0)
        with pytest.raises(ParameterError):
            synth_generate(20, 0.0, 0.1, seed=0)
        with pytest.raises(ParameterError):
            synth_generate(20, 0.5, 0.1, seed=0, informative=("tcg",))


class TestTableTypes:
    def test_gas_table_rejects_negative(self):
        with pytest.raises(ValidationError):
            make_gas_table(n_rows=2, hydrogen=[-1.0, 2.0])

    def test_gas_table_requires_canonical_attributes(self):
        with pytest.raises(SchemaError):
            GasTable(np.zeros((2, 3)), [0, 1], ("a", "b", "c"))

    def test_values_immutable(self):
        table = make_gas_table(n_rows=2, hydrogen=[1.0, 2.0])
        with pytest.raises(ValueError):
            table.values[0, 0] = 9.0

    def test_select_and_take(self):
        table = make_gas_table(n_rows=4, hydrogen=[1, 2, 3, 4], methane=[5, 6, 7, 8])
        sub = table.select(["methane", "hydrogen"])
        assert sub.attributes == ("methane", "hydrogen")
        assert list(sub.values[:, 0]) == [5, 6, 7, 8]
        part = table.take([0, 2])
        assert isinstance(part, GasTable)
        assert part.n_rows == 2

    def test_unchecked_tables_equal_checked_ones(self, tmp_path):
        # load_csv and take build their tables without running the checks again
        table = load_csv(_write(tmp_path, f"{HEADER}\n{SAMPLE_ROW}\n1,2\n{SAMPLE_ROW[:-1]}1\n"))
        rows = [1, 0, 1]
        pairs = [
            (table, GasTable(table.values.copy(), [0, 1], ATTRIBUTES, dropped_rows=1)),
            (table.take(rows), GasTable(table.values[rows], [1, 0, 1], ATTRIBUTES, 1)),
        ]
        cats = discretize(table)
        pairs.append((cats.take(rows), CategoricalTable(cats.values[rows], [1, 0, 1], ATTRIBUTES)))
        for got, checked in pairs:
            assert type(got) is type(checked) and vars(got).keys() == vars(checked).keys()
            for name, want in vars(checked).items():
                value = getattr(got, name)
                if isinstance(want, np.ndarray):
                    assert value.dtype == want.dtype and np.array_equal(value, want)
                    assert not value.flags.writeable
                else:
                    assert value == want

    @pytest.mark.parametrize(
        "cells",
        [[[1, 2.5]], [[1, np.nan]], [[0, 2]], [[1, 5]], [[np.inf, 1]], [[1, None]],
         np.array([[0, 2]], np.int8), np.array([[1, 5]], np.uint8)],
    )
    def test_categorical_cells_outside_1_to_4_rejected(self, cells):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="categorical cells"):
                CategoricalTable(cells, [0], ("a", "b"))

    @pytest.mark.parametrize("dtype", [np.int8, np.uint8, np.int64, float])
    def test_categorical_cells_become_frozen_int64(self, dtype):
        table = CategoricalTable(np.array([[1, 4], [2, 3]], dtype=dtype), [0, 1], ("a", "b"))
        assert table.values.dtype == np.int64 and not table.values.flags.writeable
        assert table.values.tolist() == [[1, 4], [2, 3]]

    def test_scaler_roundtrip_fields(self):
        scaler = Scaler(np.array([1.0]), np.array([2.0]), np.array([False]))
        out = scaler.transform(np.array([[3.0]]))
        assert out[0, 0] == pytest.approx(1.0)
