"""Experiment harness: cells, matrix, reports, seeds, and the leakage canary."""

import json

import numpy as np
import pytest

from dgareduce import bpnn, pipeline
from dgareduce.dataset import synth_generate
from dgareduce.errors import ConfigError, ParameterError
from dgareduce.pipeline import (
    CellResult,
    ExperimentConfig,
    ExperimentReport,
    SynthSpec,
    derive_seed,
    emit_report,
    fit_reducer,
    run_cell,
    run_matrix,
)


def quick_config(**overrides):
    base = dict(
        synth=SynthSpec(n=120, fault_ratio=0.5, noise=0.2),
        folds_bpnn=3,
        folds_svm=3,
        folds_rnn=3,
        mlp=bpnn.MlpConfig(epochs=25, hidden=(5,)),
        svm_max_passes=30,
        gr_chunk_size=40,
        seed=17,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestRunCell:
    def test_majority_baseline_lower_bound(self):
        cfg = quick_config(
            synth=SynthSpec(n=150, fault_ratio=0.1, noise=0.1),
            mlp=bpnn.MlpConfig(epochs=60, hidden=(5,)),
        )
        row = run_cell(cfg, "none", "bpnn")
        assert not row.failed
        assert row.accuracy_mean >= 90.0 - 1e-9  # majority class share

    def test_accuracy_deterministic_time_not_asserted(self):
        cfg = quick_config()
        a = run_cell(cfg, "rs", "svm")
        b = run_cell(cfg, "rs", "svm")
        assert a.fold_accuracies == b.fold_accuracies
        assert a.kept == b.kept

    def test_dt_rnn_carries_no_uncertainty_warning(self):
        cfg = quick_config(
            synth=SynthSpec(n=60, fault_ratio=0.5, noise=0.0),
            mlp=bpnn.MlpConfig(epochs=10, hidden=(3,)),
            gr_chunk_size=20,
        )
        row = run_cell(cfg, "dt", "rnn")
        assert not row.failed
        assert any("degenerate" in w for w in row.warnings)

    def test_unknown_cell_rejected(self):
        with pytest.raises(ConfigError):
            run_cell(quick_config(), "lda", "svm")

    def test_stop_reason_histogram_totals_folds(self):
        cfg = quick_config()
        row = run_cell(cfg, "none", "bpnn")
        assert sum(row.stop_reasons.values()) == row.folds


class TestRunMatrix:
    def test_full_grid_cardinality(self):
        cfg = quick_config(mlp=bpnn.MlpConfig(epochs=8, hidden=(3,)))
        report = run_matrix(cfg)
        assert len(report.rows) == 15
        order = [(r.preprocessor, r.classifier) for r in report.rows]
        assert order[:3] == [("none", "bpnn"), ("none", "svm"), ("none", "rnn")]
        assert order[3][0] == "pca"

    def test_subset_request(self):
        cfg = quick_config(preprocessors=("pca",), classifiers=("svm",))
        report = run_matrix(cfg)
        assert len(report.rows) == 1
        assert report.rows[0].kept == "pca:p=3"

    def test_rerun_identical_accuracy_columns(self):
        cfg = quick_config(
            preprocessors=("none", "rs"),
            classifiers=("svm",),
            mlp=bpnn.MlpConfig(epochs=8, hidden=(3,)),
        )
        a = run_matrix(cfg)
        b = run_matrix(cfg)
        cols_a = [(r.accuracy_mean, r.accuracy_std, r.kept, r.fold_accuracies) for r in a.rows]
        cols_b = [(r.accuracy_mean, r.accuracy_std, r.kept, r.fold_accuracies) for r in b.rows]
        assert cols_a == cols_b

    def test_failed_cell_isolation(self):
        cfg = quick_config(
            synth=SynthSpec(n=40, fault_ratio=0.5, noise=0.0, informative=()),
            preprocessors=("none", "rs"),
            classifiers=("svm",),
            folds_svm=2,
        )
        report = run_matrix(cfg)
        by_pre = {r.preprocessor: r for r in report.rows}
        assert by_pre["rs"].failed
        assert "stage preprocess" in by_pre["rs"].error
        assert not by_pre["none"].failed
        assert report.any_failed

    def test_non_package_error_fails_only_its_cells(self, monkeypatch):
        def broken(*args, **kwargs):
            raise np.linalg.LinAlgError("singular kernel")

        monkeypatch.setattr(pipeline.svm, "train_smo", broken)
        cfg = quick_config(
            preprocessors=("none", "rs"),
            classifiers=("bpnn", "svm"),
            mlp=bpnn.MlpConfig(epochs=5, hidden=(3,)),
        )
        report = run_matrix(cfg)
        assert [(r.preprocessor, r.classifier) for r in report.rows] == [
            ("none", "bpnn"), ("none", "svm"), ("rs", "bpnn"), ("rs", "svm"),
        ]
        for row in report.rows:
            assert row.failed == (row.classifier == "svm")
            if row.failed:
                assert row.error == "fold 0 stage train: LinAlgError: singular kernel"
            else:
                assert row.accuracy_mean > 0.0
        assert report.any_failed

    def test_report_records_kernel_used(self):
        cfg = quick_config(preprocessors=("rs",), classifiers=("svm",))
        report = run_matrix(cfg)
        settings = dict(report.settings)
        assert settings["kernel"].startswith("rbf")
        assert "kernel=rbf" in emit_report(report, "table")

    def test_kept_names_are_canonical(self):
        cfg = quick_config(classifiers=("svm",), mlp=bpnn.MlpConfig(epochs=5, hidden=(3,)))
        report = run_matrix(cfg)
        from dgareduce.dataset import ATTRIBUTES

        for row in report.rows:
            if row.failed or row.preprocessor == "pca":
                assert row.failed or row.kept.startswith("pca:p=")
                continue
            assert set(row.kept.split(",")) <= set(ATTRIBUTES)


class TestLeakageCanary:
    def test_strict_mode_ignores_test_fold_sentinel(self):
        base = synth_generate(90, 0.5, 0.25, seed=31)
        cfg = quick_config(strict_no_leakage=True, classifiers=("svm",), folds_svm=3)
        from dgareduce.dataset import GasTable, kfold
        from dgareduce.pipeline import CLASSIFIERS, PREPROCESSORS

        for method in ("pca", "rs", "dt", "gr"):
            cell_seed = derive_seed(
                cfg.seed, 1, PREPROCESSORS.index(method), CLASSIFIERS.index("svm")
            )
            plan = kfold(base, 3, cell_seed)
            poisoned_values = base.values.copy()
            poisoned_values[plan.test_indices(0)] = 1e9  # out-of-range sentinel
            poisoned = GasTable(poisoned_values, base.decisions, base.attributes)
            clean_row = run_cell(cfg, method, "svm", table=base)
            poisoned_row = run_cell(cfg, method, "svm", table=poisoned)
            assert clean_row.fold_diagnostics[0] == poisoned_row.fold_diagnostics[0], method

    def test_global_mode_default(self):
        assert not quick_config().strict_no_leakage


class TestSeeds:
    def test_derive_seed_deterministic_and_distinct(self):
        a = derive_seed(42, 1, 2, 3)
        assert a == derive_seed(42, 1, 2, 3)
        assert a != derive_seed(42, 1, 2, 4)
        assert a != derive_seed(43, 1, 2, 3)


class TestEmitReport:
    def _single_row_report(self):
        row = CellResult(
            preprocessor="none",
            classifier="bpnn",
            folds=15,
            accuracy_mean=91.6,
            accuracy_std=1.25,
            time_mean=59.93,
            kept="hydrogen,methane",
            stop_reasons={"early-stop": 15},
            warnings=(),
            fold_accuracies=(91.6,),
        )
        return ExperimentReport((row,), seed=1)

    def test_table_format_precision(self):
        text = emit_report(self._single_row_report(), "table")
        assert "91.6" in text
        assert "59.93" in text
        assert "Average Accuracy (%)" in text
        assert "Average Training Time(s)" in text

    def test_csv_format(self):
        text = emit_report(self._single_row_report(), "csv")
        line = text.splitlines()[1]
        assert line.startswith("none,bpnn,15,91.6,")

    def test_json_round_trip(self):
        report = self._single_row_report()
        parsed = ExperimentReport.from_dict(json.loads(emit_report(report, "json")))
        assert parsed == report

    def test_empty_report_rejected(self):
        with pytest.raises(ParameterError):
            emit_report(ExperimentReport((), seed=0), "table")

    def test_unknown_format_rejected(self):
        with pytest.raises(ParameterError):
            emit_report(self._single_row_report(), "yaml")


class TestConfigValidation:
    def test_unknown_method(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(preprocessors=("none", "magic"))

    def test_pca_policy_exclusive(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(pca_components=3, pca_threshold=90.0)

    def test_fold_minimum(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(folds_svm=1)


class TestFitReducer:
    def test_none_keeps_everything(self):
        table = synth_generate(30, 0.5, 0.1, seed=0)
        reducer = fit_reducer(table, "none", quick_config(), seed=0)
        assert reducer.result.kept == table.attributes
        out = reducer.transform(table)
        np.testing.assert_array_equal(out.values, table.values)

    def test_pca_transform_width(self):
        table = synth_generate(40, 0.5, 0.2, seed=1)
        reducer = fit_reducer(table, "pca", quick_config(), seed=0)
        assert reducer.transform(table).n_attributes == 3

    def test_selector_transform_subsets(self):
        table = synth_generate(40, 0.5, 0.2, seed=2)
        reducer = fit_reducer(table, "rs", quick_config(), seed=0)
        out = reducer.transform(table)
        assert out.attributes == reducer.result.kept
