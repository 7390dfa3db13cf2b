"""The one classifier-file codec: `pipeline.save_classifier` writes a fitted
classifier's encoding and model, and `pipeline.load_classifier` reads a file
of any kind back."""

import re
from dataclasses import replace

import numpy as np
import pytest

from dgareduce import bpnn, pipeline, rnn, svm
from dgareduce.bpnn import MlpConfig
from dgareduce.dataset import Table, synth_generate, write_model
from dgareduce.errors import ParameterError, ShapeError
from dgareduce.pipeline import ExperimentConfig, fit_classifier, load_classifier, save_classifier

from conftest import bundle_round_trip, make_table

KINDS = pipeline.CLASSIFIERS
CFG = ExperimentConfig(
    mlp=MlpConfig(epochs=5, hidden=(4,)), kernel=svm.Kernel("rbf", gamma=0.5), svm_max_passes=5
)
SCORES = {
    "bpnn": lambda model, rows: bpnn.scores(model, rows.values),
    "svm": lambda model, rows: svm.decision_scores(model, rows.values),
    "rnn": rnn.scores,
}


def _saved(kind, path, connection="full"):
    """A small fitted classifier of `kind` on three columns, written to
    `path`; returns the fitted classifier."""
    rng = np.random.default_rng(3)
    table = make_table(rng.normal(size=(30, 3)), np.arange(30) % 2)
    fitted = fit_classifier(kind, replace(CFG, rnn_connection=connection), table, 1)
    save_classifier(fitted, path)
    return fitted


@pytest.mark.parametrize("kind", KINDS)
def test_malformed_files_raise_parameter_error(kind, tmp_path):
    path = tmp_path / f"{kind}.txt"
    _saved(kind, path)
    lines = path.read_text().splitlines()
    assert lines[0] == f"kind = {kind}"
    load_classifier(path)
    path.write_text("\n".join(["kind = knn"] + lines[1:]) + "\n")
    with pytest.raises(ParameterError, match=re.escape(f"{path}: unknown model kind 'knn'")):
        load_classifier(path)
    key = lines[-1].partition("=")[0].strip()
    path.write_text("\n".join(lines[:-1] + [f"{key} = 1,x,0"]) + "\n")
    with pytest.raises(ParameterError, match="bad value"):
        load_classifier(path)
    path.write_text("\n".join(lines[: len(lines) // 2]) + "\n")
    with pytest.raises(ParameterError, match="missing key"):
        load_classifier(path)


@pytest.mark.parametrize("connection", rnn.CONNECTIONS)
def test_rnn_round_trips(connection, tmp_path):
    path = tmp_path / "rnn.txt"
    saved = _saved("rnn", path, connection).model
    loaded = load_classifier(path).model
    assert loaded.connection == connection
    assert loaded.rough.shape == (2, 4, 7 if connection == "full" else 4)
    for got, want in zip([loaded.rough, *loaded.shared], [saved.rough, *saved.shared], strict=True):
        assert np.array_equal(got, want)


def test_svm_without_support_vectors_loads(tmp_path):
    model = svm.SvmModel(
        kernel=svm.Kernel("rbf", gamma=0.5),
        c=1.0,
        bias=0.25,
        support_vectors=np.zeros((0, 3)),
        support_labels=np.zeros(0),
        support_alphas=np.zeros(0),
        support_indices=np.zeros(0, dtype=np.int64),
        converged=True,
        sweeps=1,
        training_kkt_rate=1.0,
    )
    loaded = bundle_round_trip("svm", model, ("a1", "a2", "a3"), tmp_path / "svm.txt")
    assert loaded.support_vectors.shape == (0, 3)
    probe = np.ones((4, 3))
    np.testing.assert_array_equal(svm.decision_scores(loaded, probe), np.full(4, 0.25))


@pytest.mark.parametrize("reducer", ["none", "rs"])
@pytest.mark.parametrize(
    "kind, connection", [("bpnn", None), ("svm", None)] + [("rnn", c) for c in rnn.CONNECTIONS]
)
def test_loaded_classifier_scores_new_rows_as_the_fitted_one(kind, connection, reducer, tmp_path):
    """A classifier read back encodes and scores held-out raw rows exactly
    as the one in memory, at full width and at an rs-reduced one."""
    table = synth_generate(120, 0.5, 0.9, seed=2)
    if reducer == "rs":
        table = pipeline.fit_reducer(table, "rs", CFG, seed=0).transform(table)
        assert table.n_attributes < 10
    cfg = replace(CFG, rnn_connection=connection or CFG.rnn_connection)
    fitted = fit_classifier(kind, cfg, table.take(np.arange(90)), 1)
    path = tmp_path / "model.txt"
    save_classifier(fitted, path)
    loaded = load_classifier(path)
    assert (loaded.kind, loaded.columns, loaded.seconds) == (kind, table.attributes, 0.0)
    held_out = table.take(np.arange(90, 120))
    want = SCORES[kind](fitted.model, fitted.inputs(held_out))
    assert np.array_equal(SCORES[kind](loaded.model, loaded.inputs(held_out)), want)


@pytest.mark.parametrize("kind", KINDS)
def test_inputs_of_other_columns_raise_shape_error(kind):
    table = synth_generate(60, 0.5, 0.2, seed=1)
    fitted = fit_classifier(kind, CFG, table, 0)
    reordered = Table(table.values, table.decisions, table.attributes[::-1])
    for other in (reordered, table.select(table.attributes[:3])):
        with pytest.raises(ShapeError, match="expected columns"):
            fitted.inputs(other)


def _fields(path):
    return dict(line.split(" = ", 1) for line in path.read_text().splitlines())


def _write_fields(path, fields):
    path.write_text("".join(f"{key} = {value}\n" for key, value in fields.items()))


def _widen(fields):
    """A saved classifier's `fields` with one more column, its encoding
    arrays grown to match and its model's arrays left as they are."""
    fields["columns"] += ",extra"
    for key in ("mean", "std", "constant"):
        fields[key] += ",0"
    for key in ("spans", "lower", "upper"):
        if key in fields:
            rows, columns = map(int, fields[f"{key}.shape"].split(","))
            fields[f"{key}.shape"] = f"{rows + 1},{columns}"
            fields[key] += ",nan" * columns


@pytest.mark.parametrize(
    "kind, key",
    [
        ("bpnn", "layer0"),
        ("bpnn", "layer1"),
        ("rnn", "rough"),
        ("rnn", "layer1"),
        # one entry per support vector
        ("svm", "labels"),
        ("svm", "alphas"),
        ("svm", "indices"),
        # one entry per input column
        ("bpnn", "mean"),
        ("rnn", "std"),
        ("svm", "constant"),
        ("rnn", "spans"),
        ("rnn", "lower"),
        ("rnn", "upper"),
    ],
)
def test_network_array_of_wrong_length_raises(kind, key, tmp_path):
    path = tmp_path / f"{kind}.txt"
    _saved(kind, path)
    fields = _fields(path)
    if f"{key}.shape" in fields:  # drop one slice, keeping the array's own shape line true
        first, *rest = (int(v) for v in fields[f"{key}.shape"].split(","))
        fields[f"{key}.shape"] = ",".join(map(str, [first - 1] + rest))
        fields[key] = ",".join(fields[key].split(",")[int(np.prod(rest)):])
    else:
        fields[key] = ",".join(fields[key].split(",")[:-1])
    _write_fields(path, fields)
    with pytest.raises(ParameterError, match=f"'{key}' has shape"):
        load_classifier(path)


@pytest.mark.parametrize("kind", ["bpnn", "rnn"])
@pytest.mark.parametrize("key", ["columns", "hidden"])
def test_network_header_disagreeing_with_arrays_raises(kind, key, tmp_path):
    path = tmp_path / f"{kind}.txt"
    _saved(kind, path)
    fields = _fields(path)
    if key == "columns":
        _widen(fields)
    else:
        fields[key] = str(int(fields[key]) + 1)
    _write_fields(path, fields)
    with pytest.raises(ParameterError, match="has shape"):
        load_classifier(path)


def test_svm_support_vectors_of_another_width_raise(tmp_path):
    path = tmp_path / "svm.txt"
    _saved("svm", path)
    fields = _fields(path)
    _widen(fields)
    _write_fields(path, fields)
    with pytest.raises(ParameterError, match=r"'support_vectors' has shape \(\d+, 3\), expected"):
        load_classifier(path)


@pytest.mark.parametrize("kind, key", [("bpnn", "hidden"), ("rnn", "hidden"), ("svm", "indices")])
def test_non_integral_count_raises(kind, key, tmp_path):
    """An integer array holding 4.9 is a bad value, as a scalar integer
    field holding one is; it does not load truncated to 4."""
    path = tmp_path / f"{kind}.txt"
    _saved(kind, path)
    fields = _fields(path)
    fields[key] = ",".join(["4.9"] + fields[key].split(",")[1:])
    _write_fields(path, fields)
    with pytest.raises(ParameterError, match=f"bad value for '{key}'"):
        load_classifier(path)


def test_rnn_connection_must_match_rough_block(tmp_path):
    """A full-connection file relabelled excitatory would drop its cross
    weights; the rough block's shape check rejects it instead."""
    path = tmp_path / "rnn.txt"
    _saved("rnn", path, "full")
    fields = _fields(path)
    assert fields["rough.shape"] == "2,4,7"
    fields["connection"] = "excitatory"
    _write_fields(path, fields)
    with pytest.raises(ParameterError, match=r"'rough' has shape \(2, 4, 7\), expected \(2, 4, 4\)"):
        load_classifier(path)


@pytest.mark.parametrize("kind, key", [("bpnn", "layer0"), ("rnn", "rough")])
def test_per_parameter_file_does_not_load(kind, key, tmp_path):
    """A file with one array per parameter (`w0`, `b0`, ...; `rough_w`,
    `rough_b`, `rough_cross`, then `w1`, `b1`, ...), the layout before the
    blocks were stored whole, names the first block key it lacks."""
    path = tmp_path / f"{kind}.txt"
    model = _saved(kind, path).model
    fields = _fields(path)
    layers = model.layers if kind == "bpnn" else model.shared
    start = 0 if kind == "bpnn" else 1
    per_parameter = {}
    if kind == "rnn":
        width = model.input_width
        per_parameter["rough_w"] = model.rough[..., :width]
        per_parameter["rough_b"] = model.rough[..., -1]
        if model.connection == "full":
            per_parameter["rough_cross"] = model.rough[..., width:-1]
    for i, layer in enumerate(layers, start):
        per_parameter[f"w{i}"] = layer[:, :-1]
        per_parameter[f"b{i}"] = layer[:, -1]
    blocks = ("kind", "layer", "rough")
    header = {k: v for k, v in fields.items() if not k.startswith(blocks)}
    write_model(path, kind, {**header, **per_parameter})
    with pytest.raises(ParameterError, match=f"missing key '{key}'"):
        load_classifier(path)


@pytest.mark.parametrize("kind", KINDS)
def test_file_without_its_encoding_does_not_load(kind, tmp_path):
    """A file in the layout before a classifier was saved with its
    encoding: `input_width` for a network, the scaler as `scaler_mean`,
    `scaler_std` and `scaler_constant` after the model, no columns and no
    rnn cells."""
    path = tmp_path / f"{kind}.txt"
    _saved(kind, path)
    fields = _fields(path)
    encoding = ("kind", "columns", "mean", "std", "constant", "spans", "lower", "upper")
    old = {k: v for k, v in fields.items() if k.partition(".")[0] not in encoding}
    if kind != "svm":
        old = {"input_width": "3", **old}
    old.update((f"scaler_{k}", fields[k]) for k in ("mean", "std", "constant"))
    write_model(path, kind, old)
    with pytest.raises(ParameterError, match="missing key 'columns'"):
        load_classifier(path)
