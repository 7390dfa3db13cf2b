"""The one model-file codec shared by the bpnn, rnn and svm formats."""

import numpy as np
import pytest

from dgareduce import bpnn, rnn, svm
from dgareduce.bpnn import MlpConfig
from dgareduce.dataset import standardize, write_model
from dgareduce.errors import ParameterError
from dgareduce.rnn import IntervalTable

from conftest import make_table

LOADERS = {
    "bpnn": bpnn.load_model,
    "rnn": rnn.load_model,
    "svm": svm.load_model,
}


def _saved(kind, path, connection="full"):
    """A small fitted model of `kind`, with a scaler, written to `path`;
    returns the model."""
    rng = np.random.default_rng(3)
    table = make_table(rng.normal(size=(30, 3)), np.arange(30) % 2)
    std, scaler = standardize(table)
    cfg = MlpConfig(epochs=5, hidden=(4,))
    if kind == "bpnn":
        model, save = bpnn.train(std, cfg, 1), bpnn.save_model
    elif kind == "rnn":
        iv = IntervalTable(std.values - 0.1, std.values + 0.1, std.decisions, std.attributes)
        model, save = rnn.train(iv, cfg, 1, connection=connection), rnn.save_model
    else:
        model, save = svm.train_smo(std, svm.Kernel("rbf", gamma=0.5), max_passes=5), svm.save_model
    model.scaler = scaler
    save(model, path)
    return model


@pytest.mark.parametrize("kind", LOADERS)
def test_malformed_files_raise_parameter_error(kind, tmp_path):
    path = tmp_path / f"{kind}.txt"
    _saved(kind, path)
    lines = path.read_text().splitlines()
    assert lines[0] == f"kind = {kind}"
    LOADERS[kind](path)
    for other, load in LOADERS.items():
        if other != kind:
            with pytest.raises(ParameterError, match=f"not a {other} model file"):
                load(path)
    key = lines[-1].partition("=")[0].strip()
    path.write_text("\n".join(lines[:-1] + [f"{key} = 1,x,0"]) + "\n")
    with pytest.raises(ParameterError, match="bad value"):
        LOADERS[kind](path)
    path.write_text("\n".join(lines[: len(lines) // 2]) + "\n")
    with pytest.raises(ParameterError, match="missing key"):
        LOADERS[kind](path)


@pytest.mark.parametrize("connection", rnn.CONNECTIONS)
def test_rnn_round_trips(connection, tmp_path):
    path = tmp_path / "rnn.txt"
    saved = _saved("rnn", path, connection)
    loaded = rnn.load_model(path)
    assert loaded.connection == connection
    assert loaded.rough.shape == (2, 4, 7 if connection == "full" else 4)
    for got, want in zip([loaded.rough, *loaded.shared], [saved.rough, *saved.shared], strict=True):
        assert np.array_equal(got, want)
    assert loaded.scaler is not None


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
    path = tmp_path / "svm.txt"
    svm.save_model(model, path)
    loaded = svm.load_model(path)
    assert loaded.support_vectors.shape == (0, 3)
    assert loaded.scaler is None
    probe = np.ones((4, 3))
    np.testing.assert_array_equal(svm.decision_scores(loaded, probe), np.full(4, 0.25))



def _fields(path):
    return dict(line.split(" = ", 1) for line in path.read_text().splitlines())


def _write_fields(path, fields):
    path.write_text("".join(f"{key} = {value}\n" for key, value in fields.items()))


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
        ("bpnn", "scaler_mean"),
        ("rnn", "scaler_std"),
        ("svm", "scaler_constant"),
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
        LOADERS[kind](path)


@pytest.mark.parametrize("kind", ["bpnn", "rnn"])
@pytest.mark.parametrize("key", ["input_width", "hidden"])
def test_network_header_disagreeing_with_arrays_raises(kind, key, tmp_path):
    path = tmp_path / f"{kind}.txt"
    _saved(kind, path)
    fields = _fields(path)
    fields[key] = str(int(fields[key]) + 1)
    _write_fields(path, fields)
    with pytest.raises(ParameterError, match="has shape"):
        LOADERS[kind](path)


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
        rnn.load_model(path)


@pytest.mark.parametrize("kind, key", [("bpnn", "layer0"), ("rnn", "rough")])
def test_per_parameter_file_does_not_load(kind, key, tmp_path):
    """A file with one array per parameter (`w0`, `b0`, ...; `rough_w`,
    `rough_b`, `rough_cross`, then `w1`, `b1`, ...), the layout before the
    blocks were stored whole, names the first block key it lacks."""
    path = tmp_path / f"{kind}.txt"
    model = _saved(kind, path)
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
    header = {key: fields[key] for key in ("input_width", "hidden", "connection") if key in fields}
    write_model(path, kind, {**header, **per_parameter}, model.scaler)
    with pytest.raises(ParameterError, match=f"missing key '{key}'"):
        LOADERS[kind](path)
