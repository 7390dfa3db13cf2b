"""Command-line behaviour: subcommands, config files, exit codes."""

import json
from dataclasses import replace
from operator import attrgetter

import numpy as np
import pytest
from click.testing import CliRunner

from dgareduce import svm
from dgareduce.bpnn import MlpConfig
from dgareduce.cli import _config_from_ini, main
from dgareduce.dataset import load_csv, synth_generate, write_csv
from dgareduce.pipeline import ExperimentConfig, SynthSpec, fit_reducer
from dgareduce.svm import Kernel


def _invoke(*args):
    return CliRunner().invoke(main, list(args))


MATRIX_INI = """
[data]
source = synth
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
source = synth
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
        expected = fit_reducer(load_csv(src), method, cfg, cfg.seed).result.to_text()
        result = _invoke("reduce", "--in", str(src), "--method", method, "--config", str(ini))
        assert result.exit_code == 0, result.output
        assert result.output == expected

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
        ):
            ini.write_text(text)
            result = _invoke("matrix", "--config", str(ini))
            assert result.exit_code == 2, result.output
            assert result.stderr.startswith(f"config error: {ini}: {message}"), result.stderr

    def test_csv_data_source(self, tmp_path):
        src = tmp_path / "rows.csv"
        _invoke("synth", "-n", "60", "--seed", "8", "--out", str(src))
        ini = tmp_path / "exp.ini"
        ini.write_text(
            "[data]\nsource = csv\npath = %s\n\n"
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
            ("source = csv\npath = {tmp}/missing.csv", "No such file or directory"),
            ("source = csv\npath = {tmp}/header.csv", "no usable rows"),
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


class TestConfigFromIni:
    SECTIONS = ("data", "experiment", "pca", "gr", "dt", "bpnn", "svm", "rnn")

    def _parsed(self, tmp_path, text):
        ini = tmp_path / "exp.ini"
        ini.write_text(text)
        return _config_from_ini(ini)

    def test_empty_sections_give_defaults(self, tmp_path):
        text = "".join(f"[{section}]\n" for section in self.SECTIONS)
        assert self._parsed(tmp_path, text) == ExperimentConfig()

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
        ],
        ids=["components=0", "components=11", "threshold=150", "chunk_size=0", "carry=0",
             "max_passes=0"],
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

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[bpnn]\nepoch = 1\n", "unknown key [bpnn] epoch"),
            ("[experiment]\nfold_bpnn = 2\n", "unknown key [experiment] fold_bpnn"),
            ("[svmm]\nc = 1\n", "unknown section [svmm]"),
        ],
        ids=["bpnn-key", "experiment-key", "section"],
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
            "[pca]\ncomponents = 2\nthreshold = 90\n"
            "[gr]\nchunk_size = 50\ncarry = 2\n"
            "[dt]\ncriterion = gain\nmin_rows = 4\nprune_fraction = 0.2\n"
            "[bpnn]\nepochs = 7\nlearning_rate = 0.1\nhidden = 8\ngoal = 0.01\n"
            "ratios = 0.6,0.4,0\nmax_fail = 3\n"
            "[svm]\nkernel = polynomial\ndegree = 2\ncoef = 0.5\ngamma = 0.7\nscale = 2\n"
            "offset = 0.3\nc = 5\ntol = 0.01\nmax_passes = 12\n"
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
            pca_components=None,
            pca_threshold=90.0,
            gr_chunk_size=50,
            gr_carry=2,
            dt_criterion="gain",
            dt_min_rows=4,
            dt_prune_fraction=0.2,
            mlp=MlpConfig(
                epochs=7, learning_rate=0.1, hidden=(8,), goal=0.01,
                ratios=(0.6, 0.4, 0.0), max_fail=3,
            ),
            kernel=Kernel("polynomial", degree=2, coef=0.5, gamma=0.7, scale=2.0, offset=0.3),
            svm_c=5.0,
            svm_tol=0.01,
            svm_max_passes=12,
            rnn_connection="full",
        )
