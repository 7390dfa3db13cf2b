"""Command-line behaviour: subcommands, config files, exit codes."""

import json
from dataclasses import fields, is_dataclass, replace
from operator import attrgetter

import numpy as np
import pytest
from click.testing import CliRunner

from dgareduce import svm
from dgareduce.bpnn import MlpConfig
from dgareduce.cli import _config_from_ini, main
from dgareduce.dataset import load_csv, synth_generate, write_csv
from dgareduce.pipeline import ExperimentConfig, SynthSpec, fit_reducer, reducer_seed
from dgareduce.svm import Kernel

from conftest import KERNEL_CHANGES, UNREAD


def _invoke(*args):
    return CliRunner().invoke(main, list(args))


MATRIX_INI = """
[data]
n = 80
fault_ratio = 0.5
noise = 0.2

[experiment]
preprocessors = rs,dt
classifiers = svm
seed = 5
folds_svm = 2

[svm]
kernel = rbf
gamma = 0.5
max_passes = 30
"""

FAILING_INI = """
[data]
n = 40
fault_ratio = 0.5
noise = 0.0
informative =

[experiment]
preprocessors = rs
classifiers = svm
seed = 5
folds_svm = 2

[svm]
max_passes = 10
"""

REDUCE_INI = """
[experiment]
seed = 5

[pca]
threshold = 90

[gr]
chunk_size = 40
carry = 3

[dt]
criterion = gain
min_rows = 4
prune_fraction = 0.2
"""

DT_MATRIX_INI = """
[data]
path = {path}

[experiment]
preprocessors = dt
classifiers = svm
seed = 3
folds_svm = 2

[svm]
max_passes = 5
"""

BAD_INI = """
[experiment]
preprocessors = rs,warp-drive
classifiers = svm
"""


class TestSynth:
    def test_writes_loadable_csv(self, tmp_path):
        out = tmp_path / "data.csv"
        result = _invoke("synth", "-n", "40", "--seed", "3", "--out", str(out))
        assert result.exit_code == 0
        table = load_csv(out)
        assert table.n_rows == 40

    def test_bad_parameters_exit_2(self, tmp_path):
        out = tmp_path / "data.csv"
        result = _invoke("synth", "-n", "4", "--out", str(out))
        assert result.exit_code == 2

    def test_negative_seed_exit_2(self, tmp_path):
        result = _invoke("synth", "--seed", "-1", "--out", str(tmp_path / "data.csv"))
        assert result.exit_code == 2, result.output
        assert result.stderr == "config error: seed must be non-negative, got -1\n"

    def test_empty_informative_means_no_informative_gas(self, tmp_path):
        """As `[data] informative =` does in the INI."""
        out, want = tmp_path / "data.csv", tmp_path / "want.csv"
        result = _invoke("synth", "-n", "40", "--seed", "3", "--informative", "", "--out", str(out))
        assert result.exit_code == 0, result.output
        spec = SynthSpec()
        write_csv(synth_generate(40, spec.fault_ratio, spec.noise, 3, informative=()), want)
        assert out.read_text() == want.read_text()


class TestDiscretize:
    def test_categories_in_range(self, tmp_path):
        src = tmp_path / "src.csv"
        dst = tmp_path / "cat.csv"
        assert _invoke("synth", "-n", "30", "--out", str(src)).exit_code == 0
        assert _invoke("discretize", "--in", str(src), "--out", str(dst)).exit_code == 0
        table = load_csv(dst)
        assert table.values.min() >= 1
        assert table.values.max() <= 4


class TestReduce:
    def test_prints_kept_attributes(self, tmp_path):
        src = tmp_path / "src.csv"
        _invoke("synth", "-n", "60", "--seed", "2", "--out", str(src))
        result = _invoke("reduce", "--in", str(src), "--method", "rs")
        assert result.exit_code == 0
        assert "kept =" in result.output

    @pytest.mark.parametrize("method", ["pca", "rs", "gr", "dt"])
    def test_config_sets_the_reducer(self, tmp_path, method):
        src = tmp_path / "src.csv"
        _invoke("synth", "-n", "300", "--seed", "2", "--noise", "0.6", "--out", str(src))
        ini = tmp_path / "reduce.ini"
        ini.write_text(REDUCE_INI)
        cfg = _config_from_ini(ini)
        seed = reducer_seed(cfg, method)
        expected = fit_reducer(load_csv(src), method, cfg, seed).result.to_text()
        result = _invoke("reduce", "--in", str(src), "--method", method, "--config", str(ini))
        assert result.exit_code == 0, result.output
        assert result.output == expected

    def test_dt_keeps_the_matrix_rows_gases(self, tmp_path):
        """`reduce --method dt` and the matrix's dt rows fit with one seed: on
        this table a fit seeded with `[experiment] seed` itself kept
        tcg,methane,hydrogen,carbon_monoxide."""
        src = tmp_path / "src.csv"
        _invoke("synth", "-n", "400", "--seed", "1", "--noise", "0.9",
                "--informative", "hydrogen,methane,ethylene", "--out", str(src))
        ini = tmp_path / "dt.ini"
        ini.write_text(DT_MATRIX_INI.format(path=src))
        reduced = _invoke("reduce", "--in", str(src), "--method", "dt", "--config", str(ini))
        assert reduced.exit_code == 0, reduced.output
        out = tmp_path / "report.json"
        assert _invoke("matrix", "--config", str(ini), "--json-out", str(out)).exit_code == 0
        (row,) = json.loads(out.read_text())["rows"]
        assert f"kept = {row['kept']}\n" in reduced.output
        assert row["kept"] == "tcg,methane,ethylene,carbon_dioxide"

    def test_bad_config_exit_2(self, tmp_path):
        src = tmp_path / "src.csv"
        _invoke("synth", "-n", "60", "--out", str(src))
        ini = tmp_path / "bad.ini"
        ini.write_text(BAD_INI)
        result = _invoke("reduce", "--in", str(src), "--method", "rs", "--config", str(ini))
        assert result.exit_code == 2, result.output
        assert result.stderr.startswith(f"config error: {ini}: unknown method name"), result.stderr

    def test_option_defaults_are_the_config_defaults(self):
        cfg = ExperimentConfig()
        for command, fields in {
            "synth": {"rows": "synth.n", "fault_ratio": "synth.fault_ratio",
                      "noise": "synth.noise"},
        }.items():
            defaults = {p.name: p.default for p in main.commands[command].params}
            for option, field in fields.items():
                assert defaults[option] == attrgetter(field)(cfg), (command, option)


class TestTrain:
    def test_svm_model_file(self, tmp_path):
        src = tmp_path / "src.csv"
        model = tmp_path / "model.txt"
        _invoke("synth", "-n", "50", "--seed", "4", "--out", str(src))
        result = _invoke(
            "train", "--in", str(src), "--clf", "svm", "--model-out", str(model)
        )
        assert result.exit_code == 0
        assert "kind = svm" in model.read_text()

    def test_negative_seed_exit_2(self, tmp_path):
        src, ini = tmp_path / "src.csv", tmp_path / "exp.ini"
        _invoke("synth", "-n", "50", "--seed", "4", "--out", str(src))
        ini.write_text("[experiment]\nseed = -1\n")
        result = _invoke("train", "--in", str(src), "--clf", "bpnn", "--config", str(ini))
        assert result.exit_code == 2, result.output
        assert result.stderr == f"config error: {ini}: seed must be non-negative, got -1\n"

    def test_config_seed_seeds_the_net(self, tmp_path):
        src = tmp_path / "src.csv"
        _invoke("synth", "-n", "60", "--seed", "4", "--out", str(src))

        def final_error(seed_key):
            ini = tmp_path / f"seed{seed_key}.ini"
            ini.write_text(f"[experiment]\nseed = {seed_key}\n\n[bpnn]\nepochs = 20\n")
            result = _invoke("train", "--in", str(src), "--clf", "bpnn", "--config", str(ini))
            assert result.exit_code == 0, result.output
            return result.output.split("final-error=")[1].split()[0]

        assert final_error(5) != final_error(0)


class TestMatrix:
    def test_runs_and_writes_json(self, tmp_path):
        ini = tmp_path / "exp.ini"
        ini.write_text(MATRIX_INI)
        out = tmp_path / "report.json"
        result = _invoke("matrix", "--config", str(ini), "--json-out", str(out))
        assert result.exit_code == 0, result.output
        assert "Average Accuracy (%)" in result.output
        saved = json.loads(out.read_text())
        assert len(saved["rows"]) == 2

    def test_failed_cell_exit_3(self, tmp_path):
        ini = tmp_path / "exp.ini"
        ini.write_text(FAILING_INI)
        result = _invoke("matrix", "--config", str(ini))
        assert result.exit_code == 3
        assert "FAILED" in result.output

    def test_non_package_error_exit_3(self, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise np.linalg.LinAlgError("singular kernel")

        monkeypatch.setattr(svm, "train_smo", broken)
        ini = tmp_path / "exp.ini"
        ini.write_text(MATRIX_INI)
        result = _invoke("matrix", "--config", str(ini))
        assert result.exit_code == 3, result.output
        assert result.output.count("FAILED") == 2

    def test_bad_config_exit_2(self, tmp_path):
        ini = tmp_path / "exp.ini"
        ini.write_text(BAD_INI)
        result = _invoke("matrix", "--config", str(ini))
        assert result.exit_code == 2

    def test_unknown_method_name_exit_2_before_any_cell(self, tmp_path):
        for section in ("[rnn]\nconnection = bogus", "[dt]\ncriterion = gini"):
            ini = tmp_path / "exp.ini"
            ini.write_text(MATRIX_INI + "\n" + section + "\n")
            result = _invoke("matrix", "--config", str(ini))
            assert result.exit_code == 2, result.output
            assert "Average Accuracy (%)" not in result.output
            assert "FAILED" not in result.output

    def test_nonpositive_svm_c_and_tol_exit_2_before_any_cell(self, tmp_path):
        for key in ("c", "tol"):
            ini = tmp_path / "exp.ini"
            ini.write_text(MATRIX_INI + f"{key} = -1\n")
            result = _invoke("matrix", "--config", str(ini))
            assert result.exit_code == 2, result.output
            assert f"config error: {ini}: svm_{key} must be positive" in result.stderr
            assert "Average Accuracy (%)" not in result.output

    def test_config_errors_name_the_file(self, tmp_path):
        ini = tmp_path / "exp.ini"
        for text, message in (
            (MATRIX_INI + "\n[rnn]\nconnection = bogus\n", "rnn_connection must be one of"),
            (MATRIX_INI.replace("gamma = 0.5", "gamma = -1"), "rbf gamma must be positive"),
            (MATRIX_INI + "\n[svm]\ngamma = 1\n", "While reading from"),
            (MATRIX_INI.replace("gamma = 0.5", "gamma = 0.5\ndegree = 2.5"), "invalid literal"),
        ):
            ini.write_text(text)
            result = _invoke("matrix", "--config", str(ini))
            assert result.exit_code == 2, result.output
            assert result.stderr.startswith(f"config error: {ini}: {message}"), result.stderr

    def test_negative_seed_exit_2_before_any_cell(self, tmp_path):
        ini = tmp_path / "exp.ini"
        ini.write_text(MATRIX_INI.replace("seed = 5", "seed = -1"))
        result = _invoke("matrix", "--config", str(ini))
        assert result.exit_code == 2, result.output
        assert result.stderr == f"config error: {ini}: seed must be non-negative, got -1\n"
        assert "Average Accuracy (%)" not in result.output

    @pytest.mark.parametrize("setting", ["n = 60", "noise = 0.3", "informative ="])
    def test_synth_setting_next_to_path_exit_2_before_any_cell(self, tmp_path, setting):
        rows = tmp_path / "rows.csv"
        _invoke("synth", "-n", "60", "--seed", "8", "--out", str(rows))
        ini = tmp_path / "exp.ini"
        ini.write_text(f"[data]\npath = {rows}\n{setting}\n" + MATRIX_INI.partition("\n\n")[2])
        result = _invoke("matrix", "--config", str(ini))
        assert result.exit_code == 2, result.output
        name = setting.partition(" ")[0]
        message = f"csv_path takes no synth settings, got {name}"
        assert result.stderr == f"config error: {ini}: {message}\n"
        assert "Average Accuracy (%)" not in result.output

    def test_both_pca_settings_exit_2(self, tmp_path):
        ini = tmp_path / "exp.ini"
        ini.write_text(MATRIX_INI + "\n[pca]\ncomponents = 2\nthreshold = 90\n")
        result = _invoke("matrix", "--config", str(ini))
        assert result.exit_code == 2, result.output
        assert result.stderr == (
            f"config error: {ini}: set exactly one of pca_components / pca_threshold\n"
        )

    def test_csv_data_source(self, tmp_path):
        src = tmp_path / "rows.csv"
        _invoke("synth", "-n", "60", "--seed", "8", "--out", str(src))
        ini = tmp_path / "exp.ini"
        ini.write_text(
            "[data]\npath = %s\n\n"
            "[experiment]\npreprocessors = rs\nclassifiers = svm\n"
            "seed = 3\nfolds_svm = 2\n\n[svm]\nmax_passes = 20\n" % src
        )
        result = _invoke("matrix", "--config", str(ini))
        assert result.exit_code == 0, result.output
        assert "rs" in result.output

    @pytest.mark.parametrize(
        "data, message",
        [
            ("informative = hydrogen,bogus", "not a generable gas: 'bogus'"),
            ("n = 5", "n must be at least 10"),
            ("path = {tmp}/missing.csv", "No such file or directory"),
            ("path = {tmp}/header.csv", "no usable rows"),
        ],
        ids=["unknown-gas", "too-few-rows", "missing-csv", "header-only-csv"],
    )
    def test_unresolvable_data_exit_2_before_any_cell(self, tmp_path, data, message):
        rows = tmp_path / "rows.csv"
        _invoke("synth", "-n", "30", "--seed", "8", "--out", str(rows))
        (tmp_path / "header.csv").write_text(rows.read_text().splitlines()[0] + "\n")
        ini = tmp_path / "exp.ini"
        ini.write_text(
            "[data]\n%s\n\n[experiment]\npreprocessors = rs\nclassifiers = svm\n"
            % data.format(tmp=tmp_path)
        )
        result = _invoke("matrix", "--config", str(ini))
        assert result.exit_code == 2, result.output
        assert result.stderr.startswith("config error: ") and message in result.stderr
        assert "Average Accuracy (%)" not in result.output


class TestNotUtf8:
    """A UTF-16 CSV or INI (a spreadsheet's "Unicode Text" export) is a
    configuration error naming the file, not a traceback."""

    @pytest.mark.parametrize(
        "args, bad",
        [
            (("discretize", "--in", "{u16_csv}", "--out", "{tmp}/cat.csv"), "u16_csv"),
            (("reduce", "--in", "{u16_csv}", "--method", "rs"), "u16_csv"),
            (("reduce", "--in", "{csv}", "--method", "rs", "--config", "{u16_ini}"), "u16_ini"),
            (("train", "--in", "{u16_csv}", "--clf", "svm"), "u16_csv"),
            (("train", "--in", "{csv}", "--clf", "svm", "--config", "{u16_ini}"), "u16_ini"),
            (("matrix", "--config", "{u16_ini}"), "u16_ini"),
            (("matrix", "--config", "{csv_source_ini}"), "u16_csv"),
        ],
        ids=["discretize", "reduce", "reduce-config", "train", "train-config", "matrix",
             "matrix-csv-source"],
    )
    def test_exit_2_naming_the_file(self, tmp_path, args, bad):
        files = {"tmp": tmp_path}
        for name in ("csv", "u16_csv", "u16_ini", "csv_source_ini"):
            files[name] = tmp_path / name.replace("_", ".")
        write_csv(synth_generate(40, 0.5, 0.2, seed=3), files["csv"])
        files["u16_csv"].write_text(files["csv"].read_text(), encoding="utf-16")
        files["u16_ini"].write_text(MATRIX_INI, encoding="utf-16")
        files["csv_source_ini"].write_text(
            "[data]\npath = %s\n\n[experiment]\npreprocessors = rs\n"
            "classifiers = svm\n" % files["u16_csv"]
        )
        result = _invoke(*(arg.format(**files) for arg in args))
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert result.stderr.startswith(f"config error: {files[bad]}: not UTF-8 text (")
        assert "Traceback" not in result.output


class TestUnopenablePath:
    """A path that cannot be opened, here one in a missing directory, is a
    configuration error, not a traceback."""

    @pytest.mark.parametrize(
        "args",
        [
            ("synth", "-n", "40", "--out", "{tmp}/missing/x.csv"),
            ("discretize", "--in", "{csv}", "--out", "{tmp}/missing/cat.csv"),
            ("reduce", "--in", "{csv}", "--method", "rs", "--out", "{tmp}/missing/rs.txt"),
            ("train", "--in", "{csv}", "--clf", "svm", "--model-out", "{tmp}/missing/m.txt"),
            ("matrix", "--config", "{ini}", "--json-out", "{tmp}/missing/report.json"),
        ],
        ids=["synth", "discretize", "reduce", "train", "matrix"],
    )
    def test_exit_2(self, tmp_path, args):
        csv, ini = tmp_path / "rows.csv", tmp_path / "exp.ini"
        write_csv(synth_generate(40, 0.5, 0.2, seed=3), csv)
        ini.write_text(MATRIX_INI)
        result = _invoke(*(arg.format(csv=csv, ini=ini, tmp=tmp_path) for arg in args))
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert result.stderr.startswith("config error: [Errno 2] No such file or directory: ")
        assert "Traceback" not in result.output


class TestOversizedCell:
    """A cell longer than csv.field_size_limit() that is not a number makes
    csv.reader fail; that is a configuration error naming the file."""

    @pytest.mark.parametrize(
        "args",
        [
            ("discretize", "--in", "{csv}", "--out", "{tmp}/cat.csv"),
            ("reduce", "--in", "{csv}", "--method", "rs"),
            ("train", "--in", "{csv}", "--clf", "svm"),
        ],
        ids=["discretize", "reduce", "train"],
    )
    def test_exit_2_naming_the_file(self, tmp_path, args):
        path = tmp_path / "big.csv"
        write_csv(synth_generate(40, 0.5, 0.2, seed=3), path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("x" * 200_000 + ",1,1,1,1,1,1,1,1,1,1\n")
        result = _invoke(*(arg.format(csv=path, tmp=tmp_path) for arg in args))
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert result.stderr.startswith(f"config error: {path}: unreadable CSV (field larger")
        assert "Traceback" not in result.output


class TestReport:
    def test_reformat_round_trip(self, tmp_path):
        ini = tmp_path / "exp.ini"
        ini.write_text(MATRIX_INI)
        out = tmp_path / "report.json"
        assert _invoke("matrix", "--config", str(ini), "--json-out", str(out)).exit_code == 0
        result = _invoke("report", "--in", str(out), "--format", "csv")
        assert result.exit_code == 0
        assert result.output.startswith("preprocessor,classifier,")

    def test_bad_file_exit_2(self, tmp_path):
        out = tmp_path / "report.json"
        missing_keys = {"seed": 0, "rows": [{"preprocessor": "rs", "classifier": "svm"}]}
        for text in ("not json {", json.dumps(missing_keys)):
            out.write_text(text)
            result = _invoke("report", "--in", str(out))
            assert result.exit_code == 2, result.output
            assert result.stderr.startswith(f"config error: {out}: "), result.stderr


def _settings(cfg: ExperimentConfig) -> dict:
    """Every setting of `cfg` by field path, nested configs flattened
    (`synth.n`, `mlp.epochs`, `kernel.gamma`)."""
    flat = {}
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if is_dataclass(value):
            flat.update((f"{f.name}.{g.name}", getattr(value, g.name)) for g in fields(value))
        else:
            flat[f.name] = value
    return flat


# The INI section of each nested config, and the fields that the README's
# naming rule does not place, because another key sets them.
NESTED_SECTIONS = {"synth": "data", "mlp": "bpnn", "kernel": "svm"}
OTHER_KEYS = {"csv_path": ("data", "path"), "kernel.kind": ("svm", "kernel")}
# Non-default values of the settings that are not plain numbers, bools or
# number lists; the others are derived from their defaults.
OTHER_VALUES = {
    "csv_path": "rows.csv",
    "preprocessors": "rs",
    "classifiers": "svm",
    "pca_threshold": "90",
    "dt_criterion": "gain",
    "rnn_connection": "full",
    "synth.informative": "hydrogen",
    "kernel.kind": "linear",
}


def _ini_key(path: str):
    """The (section, key) that sets the setting at `path`, by the README's
    naming rule: a nested config's fields in its section, a field prefixed
    by a section name in that section, every other field in [experiment]."""
    if path in OTHER_KEYS:
        return OTHER_KEYS[path]
    outer, _, inner = path.partition(".")
    if inner:
        return NESTED_SECTIONS[outer], inner
    section, _, key = path.partition("_")
    if section in ("pca", "gr", "dt", "svm", "rnn"):
        return section, key
    return "experiment", path


def _other_value(path: str, default) -> str:
    """INI text for a valid value of the setting other than `default`."""
    if path in OTHER_VALUES:
        return OTHER_VALUES[path]
    if isinstance(default, bool):
        return str(not default).lower()
    if isinstance(default, tuple):
        return ",".join(_other_value(path, v) for v in default)
    if isinstance(default, int):
        return str(default + 1)
    return repr(default / 2 if default else 0.5)


def _one_key_inis():
    """(path, INI text) for every setting, each set by its INI key.  A kernel
    parameter that the default kind does not read comes with the `kernel`
    kind that reads it."""
    reading_kind = {p: kind for kind, params in svm.KERNEL_PARAMS.items() for p in params}
    default_kind = ExperimentConfig().kernel.kind
    for path, default in _settings(ExperimentConfig()).items():
        section, key = _ini_key(path)
        text = f"[{section}]\n{key} = {_other_value(path, default)}\n"
        kind = reading_kind.get(path.removeprefix("kernel."), default_kind)
        if kind != default_kind:
            text += f"kernel = {kind}\n"
        yield path, text


class TestConfigFromIni:
    SECTIONS = ("data", "experiment", "pca", "gr", "dt", "bpnn", "svm", "rnn")

    def _parsed(self, tmp_path, text):
        ini = tmp_path / "exp.ini"
        ini.write_text(text)
        return _config_from_ini(ini)

    def test_empty_sections_give_defaults(self, tmp_path):
        text = "".join(f"[{section}]\n" for section in self.SECTIONS)
        assert self._parsed(tmp_path, text) == ExperimentConfig()

    def test_byte_order_mark_is_skipped(self, tmp_path):
        """Windows Notepad saves UTF-8 with a leading byte-order mark."""
        marked = tmp_path / "marked.ini"
        marked.write_bytes(b"\xef\xbb\xbf" + REDUCE_INI.encode())
        assert _config_from_ini(marked) == self._parsed(tmp_path, REDUCE_INI)

    def test_one_bpnn_key_keeps_other_defaults(self, tmp_path):
        cfg = self._parsed(tmp_path, "[bpnn]\nepochs = 7\n")
        assert cfg.mlp == replace(MlpConfig(), epochs=7)
        assert cfg == replace(ExperimentConfig(), mlp=cfg.mlp)

    @pytest.mark.parametrize(
        "section, key, value, message",
        [
            ("pca", "components", "0", "pca_components must be in [1, 10]"),
            ("pca", "components", "11", "pca_components must be in [1, 10]"),
            ("pca", "threshold", "150", "pca_threshold must be in (0, 100]"),
            ("gr", "chunk_size", "0", "gr_chunk_size must be at least 1"),
            ("gr", "carry", "0", "gr_carry must be at least 1"),
            ("svm", "max_passes", "0", "svm_max_passes must be at least 1"),
            ("dt", "min_rows", "0", "dt_min_rows must be at least 1"),
            ("bpnn", "ratios", "0.7,0.15,0.15", "ratios must be two non-negative numbers"),
            ("bpnn", "learning_rate", "nan", "learning rate must be positive"),
            ("bpnn", "goal", "inf", "goal must be non-negative"),
            ("svm", "gamma", "inf", "kernel gamma must be finite"),
        ],
        ids=["components=0", "components=11", "threshold=150", "chunk_size=0", "carry=0",
             "max_passes=0", "min_rows=0", "three-ratios", "learning_rate=nan", "goal=inf",
             "gamma=inf"],
    )
    def test_out_of_range_value_exit_2_before_any_cell(
        self, tmp_path, section, key, value, message
    ):
        ini = tmp_path / "exp.ini"
        ini.write_text(
            "[data]\nn = 60\n[experiment]\npreprocessors = pca,gr\nclassifiers = svm\n"
            f"folds_svm = 2\n[{section}]\n{key} = {value}\n"
        )
        result = _invoke("matrix", "--config", str(ini))
        assert result.exit_code == 2, result.output
        assert result.stderr.startswith(f"config error: {ini}: {message}"), result.stderr
        assert "Average Accuracy (%)" not in result.output

    @pytest.mark.parametrize("kind, key", UNREAD, ids=[f"{k}-{p}" for k, p in UNREAD])
    def test_kernel_key_its_kind_does_not_read_exit_2(self, tmp_path, kind, key):
        ini = tmp_path / "exp.ini"
        ini.write_text(MATRIX_INI.replace("kernel = rbf\ngamma = 0.5", f"kernel = {kind}")
                       + f"{key} = {KERNEL_CHANGES[key]}\n")
        result = _invoke("matrix", "--config", str(ini))
        assert result.exit_code == 2, result.output
        assert result.stderr.startswith(
            f"config error: {ini}: {kind} kernel reads no {key}, got "
        ), result.stderr
        assert "Average Accuracy (%)" not in result.output

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[bpnn]\nepoch = 1\n", "unknown key [bpnn] epoch"),
            ("[experiment]\nfold_bpnn = 2\n", "unknown key [experiment] fold_bpnn"),
            ("[svmm]\nc = 1\n", "unknown section [svmm]"),
            ("[data]\nsource = csv\n", "unknown key [data] source"),
        ],
        ids=["bpnn-key", "experiment-key", "section", "data-source"],
    )
    def test_unknown_key_or_section_exit_2(self, tmp_path, text, message):
        """Added to the small matrix config, so a typo that were read would
        still run fast."""
        ini = tmp_path / "exp.ini"
        header = text.partition("\n")[0] + "\n"
        merged = MATRIX_INI.replace(header, text) if header in MATRIX_INI else MATRIX_INI + text
        ini.write_text(merged)
        result = _invoke("matrix", "--config", str(ini))
        assert result.exit_code == 2, result.output
        assert result.stderr == f"config error: {ini}: {message}\n"
        assert "Average Accuracy (%)" not in result.output

    def test_every_key_sets_its_field(self, tmp_path):
        cfg = self._parsed(
            tmp_path,
            "[data]\nn = 300\nfault_ratio = 0.4\nnoise = 0.1\ninformative = hydrogen, methane\n"
            "[experiment]\npreprocessors = rs,dt\nclassifiers = svm\nseed = 9\n"
            "strict_no_leakage = yes\nfolds_bpnn = 3\nfolds_svm = 4\nfolds_rnn = 5\n"
            "[pca]\ncomponents = 2\n"
            "[gr]\nchunk_size = 50\ncarry = 2\n"
            "[dt]\ncriterion = gain\nmin_rows = 4\nprune_fraction = 0.2\n"
            "[bpnn]\nepochs = 7\nlearning_rate = 0.1\nhidden = 8\ngoal = 0.01\n"
            "ratios = 0.6,0.4\nmax_fail = 3\n"
            "[svm]\nkernel = polynomial\ndegree = 2\ncoef = 0.5\n"
            "c = 5\ntol = 0.01\nmax_passes = 12\n"
            "[rnn]\nconnection = full\n",
        )
        assert cfg == ExperimentConfig(
            synth=SynthSpec(300, 0.4, 0.1, ("hydrogen", "methane")),
            preprocessors=("rs", "dt"),
            classifiers=("svm",),
            seed=9,
            strict_no_leakage=True,
            folds_bpnn=3,
            folds_svm=4,
            folds_rnn=5,
            pca_components=2,
            gr_chunk_size=50,
            gr_carry=2,
            dt_criterion="gain",
            dt_min_rows=4,
            dt_prune_fraction=0.2,
            mlp=MlpConfig(
                epochs=7, learning_rate=0.1, hidden=(8,), goal=0.01,
                ratios=(0.6, 0.4), max_fail=3,
            ),
            kernel=Kernel("polynomial", degree=2, coef=0.5),
            svm_c=5.0,
            svm_tol=0.01,
            svm_max_passes=12,
            rnn_connection="full",
        )
        threshold = self._parsed(tmp_path, "[pca]\nthreshold = 90\n")
        assert threshold == ExperimentConfig(pca_components=None, pca_threshold=90.0)
        rbf = self._parsed(tmp_path, "[svm]\nkernel = rbf\ngamma = 0.7\n")
        assert rbf == ExperimentConfig(kernel=Kernel("rbf", gamma=0.7))
        sigmoid = self._parsed(tmp_path, "[svm]\nkernel = sigmoid\nscale = 2\noffset = 0.3\n")
        assert sigmoid == ExperimentConfig(kernel=Kernel("sigmoid", scale=2.0, offset=0.3))

    @pytest.mark.parametrize("path, text", [pytest.param(*p, id=p[0]) for p in _one_key_inis()])
    def test_one_key_sets_one_setting(self, tmp_path, path, text):
        """Each setting has its own key: a key alone changes its setting and
        nothing else, save that `[pca] threshold` replaces the default
        `components`.  A setting added without a key fails here."""
        got, default = _settings(self._parsed(tmp_path, text)), _settings(ExperimentConfig())
        changed = {name for name in default if got[name] != default[name]}
        if path == "pca_threshold":
            assert changed == {path, "pca_components"}
        elif "\nkernel = " in text:  # with the kind that reads the key
            assert changed == {"kernel.kind", path}
        else:
            assert changed == {path}
