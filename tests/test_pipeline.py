"""Experiment harness: cells, matrix, reports, seeds, and the leakage canary."""

import io
import json
import multiprocessing
import os
import pickle
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import dgareduce
from dgareduce import bpnn, pipeline, svm
from dgareduce.dataset import ATTRIBUTES, Discretizer, Table, discretize, synth_generate
from dgareduce.errors import ConfigError, ParameterError
from dgareduce.roughset import partition
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
        # the whole-table fit serves every fold; a strict fit serves one
        for strict, where in ((False, "global"), (True, "fold 0")):
            cfg = quick_config(
                synth=SynthSpec(n=40, fault_ratio=0.5, noise=0.0, informative=()),
                preprocessors=("none", "rs"),
                classifiers=("svm",),
                folds_svm=2,
                strict_no_leakage=strict,
            )
            report = run_matrix(cfg)
            by_pre = {r.preprocessor: r for r in report.rows}
            assert by_pre["rs"].failed
            assert by_pre["rs"].error.startswith(f"{where} stage preprocess: DependencyDegenerate")
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

        for row in report.rows:
            if row.failed or row.preprocessor == "pca":
                assert row.failed or row.kept.startswith("pca:p=")
                continue
            assert set(row.kept.split(",")) <= set(ATTRIBUTES)


class TestMatrixSharing:
    """Within one `run_matrix` call: one fold plan per classifier, one fit
    per spawn key, and each distinct training once."""

    NOISY = dict(
        synth=SynthSpec(n=200, noise=0.9, informative=("hydrogen", "methane", "ethylene")),
        folds_bpnn=2,
        folds_svm=2,
        folds_rnn=2,
        mlp=bpnn.MlpConfig(epochs=2, hidden=(2,)),
        svm_max_passes=5,
    )

    @pytest.mark.parametrize("seed", range(3))
    def test_rows_of_one_preprocessor_share_kept(self, seed):
        # at this noise the three dt fits kept different gases when each
        # cell seeded its own fit
        report = run_matrix(quick_config(**self.NOISY, seed=seed))
        kept = {}
        for row in report.rows:
            kept.setdefault(row.preprocessor, set()).add(row.kept)
        assert all(len(labels) == 1 for labels in kept.values()), kept

    def test_cells_of_one_classifier_share_test_folds(self, monkeypatch):
        """The table rows each training is tested on, recovered from the
        reduced test rows, depend on the classifier and fold only."""
        cfg = quick_config(mlp=bpnn.MlpConfig(epochs=2, hidden=(2,)))
        table = pipeline.resolve_data(cfg)
        projected = fit_reducer(table, "pca", cfg, pipeline.reducer_seed(cfg, "pca"))
        projected = projected.transform(table).values
        tested = {}
        real = pipeline._train_eval

        def spy(classifier, cfg, train_raw, test_raw, seed):
            if test_raw.attributes[0].startswith("pc"):
                gaps = np.abs(test_raw.values[:, None, :] - projected[None]).max(axis=2)
                rows = gaps.argmin(axis=1)
                assert np.allclose(test_raw.values, projected[rows])
            else:
                index = {
                    tuple(v): i for i, v in enumerate(table.select(test_raw.attributes).values)
                }
                rows = [index[tuple(v)] for v in test_raw.values]
            fold = sum(1 for key in tested if key[:2] == (classifier, test_raw.attributes))
            tested.setdefault((classifier, test_raw.attributes, fold), sorted(rows))
            return real(classifier, cfg, train_raw, test_raw, seed)

        monkeypatch.setattr(pipeline, "_train_eval", spy)
        monkeypatch.setattr(pipeline, "_worker_count", lambda trainings, setter: 1)  # spy in-process
        run_matrix(cfg)
        for clf in pipeline.CLASSIFIERS:
            for fold in range(cfg.folds_for(clf)):
                seen = [rows for key, rows in tested.items() if key[0] == clf and key[2] == fold]
                assert len(seen) >= 2 and all(rows == seen[0] for rows in seen), (clf, fold)

    @pytest.mark.parametrize("strict", [False, True])
    def test_matrix_rows_equal_standalone_cells(self, strict):
        cfg = quick_config(strict_no_leakage=strict)
        table = pipeline.resolve_data(cfg)
        report = run_matrix(cfg)
        assert any(r.same_training_as for r in report.rows)
        timing = {"time_mean": 0.0, "same_training_as": ""}
        for row in report.rows:
            alone = run_cell(cfg, row.preprocessor, row.classifier, table=table)
            if row.preprocessor != "none":
                base = run_cell(cfg, "none", row.classifier, table=table)
                alone = pipeline.paired_against(alone, base)
            assert replace(row, **timing) == replace(alone, **timing)

    @pytest.mark.parametrize("strict", [False, True])
    def test_fit_reducer_once_per_spawn_key(self, strict, monkeypatch):
        cfg = quick_config(strict_no_leakage=strict, mlp=bpnn.MlpConfig(epochs=2, hidden=(2,)))
        calls = []
        real = pipeline.fit_reducer

        def counting(table, method, cfg, seed):
            calls.append((method, table.n_rows, seed))
            return real(table, method, cfg, seed)

        monkeypatch.setattr(pipeline, "fit_reducer", counting)
        stored = record_memo(monkeypatch)
        table = pipeline.resolve_data(cfg)
        assert not run_matrix(cfg, table).any_failed
        assert len(calls) == len(set(calls))
        if strict:  # one fit per (preprocessor, classifier, fold), on training rows
            assert len(calls) == 5 * sum(map(cfg.folds_for, pipeline.CLASSIFIERS))
            assert all(n < table.n_rows for _, n, _ in calls)
        else:
            assert calls == [
                (pre, table.n_rows, pipeline.reducer_seed(cfg, pre))
                for pre in pipeline.PREPROCESSORS
            ]
        # the memo keeps fitted reducers, not the tables they reduce to
        assert any(isinstance(result, pipeline.FittedReducer) for result in stored)
        assert not any(isinstance(result, Table) for result in stored)

    def test_train_eval_once_per_distinct_key(self, monkeypatch):
        cfg = quick_config(mlp=bpnn.MlpConfig(epochs=2, hidden=(2,)))
        calls = []
        real = pipeline._train_eval

        def counting(classifier, cfg, train_raw, test_raw, seed):
            # the seed stands for (classifier, fold); pca alone names pc1, pc2, ...
            calls.append((classifier, seed, train_raw.attributes))
            return real(classifier, cfg, train_raw, test_raw, seed)

        monkeypatch.setattr(pipeline, "_train_eval", counting)
        monkeypatch.setattr(pipeline, "_worker_count", lambda trainings, setter: 1)  # count in-process
        for _ in range(2):
            calls.clear()
            report = run_matrix(cfg)
            assert len(calls) == len(set(calls))
            reused = [r for r in report.rows if r.same_training_as]
            assert reused  # rs, gr and dt keep the same gas on this table
            trainings = sum(r.folds for r in report.rows)
            assert len(calls) == trainings - sum(r.folds for r in reused)
        for row in reused:
            assert row.time_mean > 0.0

    def test_rows_pinned(self):
        # every row of the quick matrix under both protocols, as computed when
        # a matrix shared partitions and planned on fold rows: which trainings
        # the cells share, and what they trained to, stay the same
        every = ",".join(ATTRIBUTES)
        nets, svm_ = {"epochs": 3}, {"converged": 3}
        whole = {
            ("none", "bpnn"): ((97.5, 100.0, 100.0), every, "", nets),
            ("none", "svm"): ((100.0, 100.0, 100.0), every, "", svm_),
            ("none", "rnn"): ((85.0, 65.0, 57.5), every, "", nets),
            ("pca", "bpnn"): ((32.5, 87.5, 100.0), "pca:p=3", "", nets),
            ("pca", "svm"): ((100.0, 100.0, 100.0), "pca:p=3", "", svm_),
            ("pca", "rnn"): ((50.0, 70.0, 72.5), "pca:p=3", "", nets),
        }
        for pre in ("rs", "gr", "dt"):
            source = "" if pre == "rs" else "rs"
            whole[pre, "bpnn"] = ((100.0, 50.0, 77.5), "acetylene", source, nets)
            whole[pre, "svm"] = ((100.0, 100.0, 100.0), "acetylene", source, svm_)
            whole[pre, "rnn"] = ((50.0, 50.0, 100.0), "acetylene", source, nets)
        strict = {
            **whole,
            ("pca", "bpnn"): ((25.0, 77.5, 100.0), "pca:p=3", "", nets),
            ("pca", "rnn"): ((50.0, 70.0, 80.0), "pca:p=3", "", nets),
        }
        for protocol, expected in ((False, whole), (True, strict)):
            report = run_matrix(quick_config(strict_no_leakage=protocol))
            got = [
                (r.preprocessor, r.classifier, r.fold_accuracies, r.kept, r.same_training_as,
                 r.stop_reasons, r.warnings, r.failed)
                for r in report.rows
            ]
            assert got == [(*cell, *row, (), False) for cell, row in expected.items()]


def record_memo(monkeypatch) -> list:
    """Every result `pipeline._once` returns: what the matrix's memo keeps."""
    stored, real = [], pipeline._once

    def recording(memo, key, compute):
        result, notes = real(memo, key, compute)
        stored.append(result)
        return result, notes

    monkeypatch.setattr(pipeline, "_once", recording)
    return stored


def _broken_svm(*args, **kwargs):
    raise np.linalg.LinAlgError("singular kernel")


DEGENERATE_RS = dict(
    synth=SynthSpec(n=40, fault_ratio=0.5, noise=0.0, informative=()),
    preprocessors=("none", "rs"),
    classifiers=("svm",),
    folds_svm=2,
)
NETS_AND_SVM = dict(
    preprocessors=("none", "rs"),
    classifiers=("bpnn", "svm"),
    mlp=bpnn.MlpConfig(epochs=5, hidden=(3,)),
)


class TestPooledTrainings:
    """`run_matrix` runs its distinct trainings on forked workers; the rows
    are those of the in-process run, and no worker outlives the call."""

    @staticmethod
    def rows(monkeypatch, cfg, workers):
        monkeypatch.setattr(pipeline, "_worker_count", lambda trainings, setter: workers)
        rows = [replace(r, time_mean=0.0) for r in run_matrix(cfg).rows]
        assert multiprocessing.active_children() == []
        return rows

    @pytest.mark.parametrize(
        "overrides, broken",
        [
            ({}, False),
            ({"strict_no_leakage": True}, False),
            (DEGENERATE_RS, False),
            ({**DEGENERATE_RS, "strict_no_leakage": True}, False),
            (NETS_AND_SVM, True),
        ],
        ids=["quick", "quick-strict", "degenerate-rs", "degenerate-rs-strict", "svm-linalg-error"],
    )
    def test_pooled_rows_equal_in_process_rows(self, monkeypatch, overrides, broken):
        if broken:
            monkeypatch.setattr(pipeline.svm, "train_smo", _broken_svm)
        cfg = quick_config(**overrides)
        pooled = self.rows(monkeypatch, cfg, 2)
        assert pooled == self.rows(monkeypatch, cfg, 1)
        assert any(r.failed for r in pooled) == ("synth" in overrides or broken)

    def test_unpicklable_exception_fails_its_cells(self, monkeypatch):
        class Unsendable(Exception):  # local, so pickle cannot name it
            pass

        def broken(*args, **kwargs):
            raise Unsendable("stays in the worker")

        monkeypatch.setattr(pipeline.svm, "train_smo", broken)
        for row in self.rows(monkeypatch, quick_config(**NETS_AND_SVM), 2):
            assert row.failed == (row.classifier == "svm")
            if row.failed:
                assert row.error == "fold 0 stage train: Unsendable: stays in the worker"

    def test_dead_worker_fails_only_its_cells(self, monkeypatch):
        cfg = quick_config(**NETS_AND_SVM)
        alone = self.rows(monkeypatch, cfg, 1)
        parent = os.getpid()

        def killer(*args, **kwargs):
            if os.getpid() == parent:  # never end the test process
                raise AssertionError("svm trained in-process")
            os._exit(1)

        monkeypatch.setattr(pipeline.svm, "train_smo", killer)
        pooled = self.rows(monkeypatch, cfg, 2)
        for row, expected in zip(pooled, alone, strict=True):
            if row.classifier == "svm":
                assert row.failed
                assert row.error.startswith("fold 0 stage train: BrokenProcessPool: ")
            else:
                assert row == expected

    def test_one_dead_worker_costs_few_pools(self, monkeypatch):
        """The trainings that a dead worker leaves unfinished rerun together
        in one new pool, the ones that may have been running last, and only
        those that this pool leaves unfinished too run alone.  The second
        pool loses at most the killer, the trainings running beside it and
        the ones queued after it: 2 * workers - 1, so at most 2 * workers + 1
        pools in all, where one pool per unfinished training takes about one
        per training."""
        import concurrent.futures

        # no `none` row, so no row is paired with the one that fails
        cfg = quick_config(**{**NETS_AND_SVM, "preprocessors": ("rs",),
                              "classifiers": ("bpnn", "svm", "rnn")})
        alone = self.rows(monkeypatch, cfg, 1)
        parent, real_task = os.getpid(), pipeline._train_task
        tasks, pools = [], []

        class Counted(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(args)
                super().__init__(*args, **kwargs)

        def first_kills(task):  # the first training submitted kills its worker
            classifier, *_, fold = task
            if (classifier, fold) == ("bpnn", 0):
                if os.getpid() == parent:  # never end the test process
                    raise AssertionError("bpnn trained in-process")
                os._exit(1)
            return real_task(task)

        real_all = pipeline._train_all

        def recording(all_tasks, workers, setter):
            if not tasks:  # the matrix's own call
                tasks.extend(all_tasks)
            return real_all(all_tasks, workers, setter)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Counted)
        monkeypatch.setattr(pipeline, "_train_task", first_kills)
        monkeypatch.setattr(pipeline, "_train_all", recording)
        pooled = self.rows(monkeypatch, cfg, 2)
        assert tasks[0][0] == "bpnn" and tasks[0][5] == 0 and len(tasks) == 9
        assert 2 < len(pools) <= 2 * 2 + 1
        for row, expected in zip(pooled, alone, strict=True):
            if row.classifier == "bpnn":
                assert row.failed
                assert row.error.startswith("fold 0 stage train: BrokenProcessPool: ")
            else:
                assert row == expected

    def test_unpicklable_task_trains_on_a_worker(self, monkeypatch):
        """Workers inherit the tasks, so a reducer that cannot be pickled
        trains there; sent through a pipe, its trainings would fail."""
        real = pipeline.reduct_search

        def with_lambda(part):
            result = real(part)
            return replace(result, diagnostics={**result.diagnostics, "note": lambda: None})

        monkeypatch.setattr(pipeline, "reduct_search", with_lambda)
        cfg = quick_config(**NETS_AND_SVM)
        pooled = self.rows(monkeypatch, cfg, 2)
        assert pooled == self.rows(monkeypatch, cfg, 1)
        rs_rows = [r for r in pooled if r.preprocessor == "rs"]
        assert rs_rows and all(not r.failed and not r.same_training_as for r in rs_rows)
        with pytest.raises((pickle.PicklingError, AttributeError)):
            pickle.dumps(fit_reducer(pipeline.resolve_data(cfg), "rs", cfg, 0))

    def test_consecutive_matrices_train_their_own_tasks(self, monkeypatch):
        configs = [quick_config(**NETS_AND_SVM, seed=seed) for seed in (3, 4)]
        pooled = [self.rows(monkeypatch, cfg, 2) for cfg in configs]
        assert pooled[0] != pooled[1]
        for cfg, rows in zip(configs, pooled):
            assert rows == self.rows(monkeypatch, cfg, 1)

    def test_one_blas_lookup_per_matrix(self, monkeypatch):
        lookups, real = [], pipeline._blas_threads_setter

        def counting():
            lookups.append(1)
            return real()

        monkeypatch.setattr(pipeline, "_blas_threads_setter", counting)
        cfg = quick_config(**NETS_AND_SVM)
        run_matrix(cfg)
        assert len(lookups) == 1
        run_cell(cfg, "none", "svm")  # a one-cell matrix
        assert len(lookups) == 2

    @pytest.mark.parametrize("maps", ["missing", "deleted"])
    def test_unreadable_maps_train_in_process(self, monkeypatch, maps):
        """Without a readable /proc/self/maps, or with an OpenBLAS it lists
        as deleted, there is no BLAS setter, and the matrix trains in this
        process."""

        def no_maps(path, *args, **kwargs):
            if maps == "missing":
                raise FileNotFoundError(2, "No such file or directory", path)
            return io.StringIO("7f00-7f10 r-xp 00000000 08:01 42 /lib/libopenblas.so (deleted)\n")

        cfg = quick_config(**NETS_AND_SVM)
        alone = self.rows(monkeypatch, cfg, 1)
        monkeypatch.undo()
        monkeypatch.setattr(pipeline, "open", no_maps, raising=False)
        assert pipeline._blas_threads_setter() is None
        pids, real = set(), pipeline._train_eval

        def spy(*args):
            pids.add(os.getpid())
            return real(*args)

        monkeypatch.setattr(pipeline, "_train_eval", spy)
        assert [replace(r, time_mean=0.0) for r in run_matrix(cfg).rows] == alone
        assert pids == {os.getpid()}

    def test_spaced_openblas_path_finds_its_setter(self, monkeypatch, tmp_path):
        """/proc/self/maps names a library by everything after its fifth
        field, so a path with a space still yields the setter."""
        with open("/proc/self/maps") as maps:
            loaded = [ln[ln.index("/"):].rstrip("\n") for ln in maps if "openblas" in ln]
        if not loaded:
            pytest.skip("numpy loaded no OpenBLAS")
        link = tmp_path / "with space" / Path(loaded[0]).name
        link.parent.mkdir()
        link.symlink_to(loaded[0])
        line = f"7f00-7f10 r-xp 00000000 08:01 42                         {link}\n"
        monkeypatch.setattr(pipeline, "open", lambda *a, **k: io.StringIO(line), raising=False)
        assert pipeline._blas_threads_setter() is not None


def test_converged_svm_trainings_satisfy_kkt(monkeypatch):
    """Every svm training of the benchmark's matrix-c9 configuration, on its
    three 600-row seed-1 tables, that reports converged satisfies KKT on its
    training fold.  `run_matrix` trains in workers, which the benchmark's
    traced `svm-kkt` check cannot see, so the trainings run in-process here."""
    cfg = ExperimentConfig(
        synth=SynthSpec(n=600, informative=("hydrogen", "methane", "ethylene")),
        classifiers=("svm",),
        folds_bpnn=5,
        folds_svm=5,
        folds_rnn=5,
        mlp=bpnn.MlpConfig(epochs=150, hidden=(12,), learning_rate=0.05),
        svm_max_passes=50,
        gr_chunk_size=250,
        gr_carry=1,
    )
    fits, real = [], svm.train_smo

    def keeping(rows, kernel, **kwargs):
        model = real(rows, kernel, **kwargs)
        fits.append((model, rows, kwargs["tol"]))
        return model

    monkeypatch.setattr(pipeline.svm, "train_smo", keeping)
    monkeypatch.setattr(pipeline, "_worker_count", lambda trainings, setter: 1)
    for seed in np.random.SeedSequence(1).generate_state(3):
        assert not run_matrix(replace(cfg, seed=int(seed))).any_failed
    assert any(model.converged for model, _, _ in fits)
    for n, (model, rows, tol) in enumerate(fits):
        if model.converged:
            assert svm.check_kkt(model, rows, tol) == 1.0, n


def test_import_loads_no_process_pool():
    """The benchmark's setup_s times `import dgareduce`; the matrix imports
    its process pool only when it forks workers."""
    code = (
        "import sys, dgareduce; "
        "print(sorted(m for m in sys.modules if m.startswith(('multiprocessing', 'concurrent'))))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(dgareduce.__file__).resolve().parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


class TestPairedDelta:
    def test_corrected_t_by_hand(self):
        # mean 2, sample variance 10/4, k = 5, n_test / n_train = 1/4:
        # t = 2 / sqrt((1/5 + 1/4) * 2.5) = 2 / sqrt(1.125)
        t = pipeline.corrected_t((1.0, 2.0, 3.0, 4.0, 0.0), 0.25)
        assert t == pytest.approx(1.8856180831641267, rel=1e-12)
        assert pipeline.corrected_t((1.0, 1.0, 1.0), 0.5) is None

    def test_sign_test_exact(self):
        assert pipeline.sign_test_p(4, 0) == 2 / 16
        assert pipeline.sign_test_p(3, 1) == 2 * 5 / 16
        assert pipeline.sign_test_p(0, 0) == 1.0
        assert pipeline.sign_test_p(2, 2) == 1.0

    def test_paired_against_none(self):
        base = CellResult("none", "svm", 5, 0.0, 0.0, 0.0, "",
                          fold_accuracies=(90.0, 90.0, 90.0, 90.0, 90.0))
        row = CellResult("rs", "svm", 5, 0.0, 0.0, 0.0, "",
                         fold_accuracies=(91.0, 92.0, 93.0, 94.0, 90.0))
        paired = pipeline.paired_against(row, base)
        assert paired.fold_deltas == (1.0, 2.0, 3.0, 4.0, 0.0)
        assert (paired.delta_mean, paired.wins, paired.ties, paired.losses) == (2.0, 4, 1, 0)
        assert paired.sign_p == 0.125
        assert paired.t_df == 4
        assert paired.corrected_t == pytest.approx(1.8856180831641267, rel=1e-12)

    def test_matrix_pairs_reduced_rows_only(self):
        report = run_matrix(quick_config(classifiers=("svm",)))
        for row in report.rows:
            if row.preprocessor == "none":
                assert row.fold_deltas == () and row.delta_mean is None
            else:
                assert len(row.fold_deltas) == row.folds and row.t_df == row.folds - 1
        text = emit_report(report, "table")
        assert "Delta vs none" in text


class TestStrictKept:
    def test_kept_lists_each_folds_kept_set(self):
        cfg = ExperimentConfig(
            synth=SynthSpec(n=300, noise=0.9, informative=("hydrogen", "methane", "ethylene")),
            classifiers=("svm",),
            folds_svm=5,
            svm_max_passes=50,
            strict_no_leakage=True,
            seed=3,
        )
        for row in run_matrix(cfg).rows:
            assert not row.failed, row.error
            if row.preprocessor in ("none", "pca"):
                assert ";" not in row.kept
                continue
            labels = [",".join(diagnostic[1:]) for diagnostic in row.fold_diagnostics]
            # at this noise each fold's rs, gr and dt fit keeps its own gases
            assert len(set(labels)) == 5, row.preprocessor
            assert row.kept == ";".join(labels)


class TestLeakageCanary:
    def test_strict_mode_ignores_test_fold_sentinel(self):
        base = synth_generate(90, 0.5, 0.25, seed=31)
        cfg = quick_config(strict_no_leakage=True, classifiers=("svm",), folds_svm=3)
        from dgareduce.dataset import GasTable

        plan = pipeline.fold_plan(base, cfg, "svm")
        for method in ("pca", "rs", "dt", "gr"):
            poisoned_values = base.values.copy()
            poisoned_values[np.flatnonzero(plan == 0)] = 1e9  # out-of-range sentinel
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

    def _two_row_report(self):
        ok = CellResult(
            preprocessor="rs",
            classifier="svm",
            folds=8,
            accuracy_mean=93.456,
            accuracy_std=1.2345,
            time_mean=0.0123,
            kept="ethane,methane",
            stop_reasons={"max-passes": 1, "converged": 7},
            warnings=("tol halved | twice", "slow"),
            fold_accuracies=(93.0,),
            same_training_as="none",
            fold_deltas=(2.0, -1.0, 0.0),
            delta_mean=1.0 / 3.0,
            wins=1,
            ties=1,
            losses=1,
            sign_p=1.0,
            corrected_t=0.2582,
            t_df=2,
        )
        failed = CellResult(
            preprocessor="dt",
            classifier="rnn",
            folds=15,
            accuracy_mean=0.0,
            accuracy_std=0.0,
            time_mean=0.0,
            kept="",
            failed=True,
            error='fold 2 stage train: ParameterError: bad "x", y',
        )
        settings = (("kernel", "rbf(gamma=0.5)"), ("svm_c", "10"))
        return ExperimentReport((ok, failed), seed=3, settings=settings)

    def test_table_golden_text(self):
        rule = "-" * 46
        assert emit_report(self._two_row_report(), "table") == (
            "Preprocessor  Classifier  k-Folds  Average Accuracy (%)  Delta vs none  "
            "Average Training Time(s)  Kept\n"
            "------------  ----------  -------  --------------------  -------------  "
            f"------------------------  {rule}\n"
            "rs            svm         8        93.5                  +0.33          "
            "0.01                      ethane,methane\n"
            "dt            rnn         15       FAILED                               "
            '-                         fold 2 stage train: ParameterError: bad "x", y\n'
            "\n"
            "settings: kernel=rbf(gamma=0.5)  svm_c=10\n"
        )

    def test_csv_golden_text(self):
        assert emit_report(self._two_row_report(), "csv") == (
            "preprocessor,classifier,folds,accuracy_mean,accuracy_std,delta_mean,time_mean,"
            "kept,stop_reasons,warnings,failed,error,same_training_as,fold_deltas,wins,ties,"
            "losses,sign_p,corrected_t,t_df\r\n"
            'rs,svm,8,93.5,1.234,+0.33,0.01,"ethane,methane",converged:7;max-passes:1,'
            "tol halved | twice|slow,0,,none,2;-1;0,1,1,1,1,0.2582,2\r\n"
            "dt,rnn,15,0.0,0.000,,0.00,,,,1,"
            '"fold 2 stage train: ParameterError: bad ""x"", y",,,,,,,,\r\n'
        )

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

    def test_negative_seed(self):
        with pytest.raises(ConfigError, match="^seed must be non-negative, got -1$"):
            ExperimentConfig(seed=-1)

    def test_csv_path_takes_no_synth_setting(self):
        """A synth field at its default is not a setting; any other value
        next to a csv_path is, and the error names it."""
        assert ExperimentConfig(csv_path="rows.csv", synth=SynthSpec()).csv_path == "rows.csv"
        message = "^csv_path takes no synth settings, got n, informative$"
        with pytest.raises(ConfigError, match=message):
            ExperimentConfig(csv_path="rows.csv", synth=SynthSpec(n=60, informative=()))

    def test_unknown_classifier_method_names(self):
        with pytest.raises(ConfigError, match="rnn_connection"):
            ExperimentConfig(rnn_connection="bogus")
        with pytest.raises(ConfigError, match="dt_criterion"):
            ExperimentConfig(dt_criterion="gini")


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


@pytest.mark.parametrize("classifier", pipeline.CLASSIFIERS)
def test_evaluate_rejects_an_empty_test_set(classifier):
    """Each classifier's `evaluate`, on test rows encoded as a fold's are,
    refuses zero rows with the one check in `bpnn.percent_correct`."""
    table = synth_generate(60, 0.5, 0.2, seed=1)
    fitted = pipeline.fit_classifier(classifier, quick_config(), table, 0)
    empty = fitted.inputs(table.take(np.arange(0)))
    with pytest.raises(ParameterError, match="empty test set"):
        pipeline.MODELS[classifier].evaluate(fitted.model, empty)



class TestTablePartition:
    """Every rs, gr and dt fit partitions the rows it is fitted on, and only
    those rows."""

    def test_each_fit_discretizes_its_own_rows_once(self, monkeypatch):
        calls = []
        real = Discretizer.fit.__func__

        def counting(cls, table):
            calls.append(table)
            return real(cls, table)

        monkeypatch.setattr(Discretizer, "fit", classmethod(counting))
        reducers = ("rs", "gr", "dt")
        cfg = quick_config(preprocessors=reducers, classifiers=("svm",))
        table = pipeline.resolve_data(cfg)
        cells = run_matrix(cfg, table).rows
        assert calls == [table] * 3
        seeds = [pipeline.reducer_seed(cfg, pre) for pre in reducers]
        fits = [fit_reducer(table, pre, cfg, seed) for pre, seed in zip(reducers, seeds)]
        assert calls == [table] * 6
        assert [c.kept for c in cells] == [f.kept_label for f in fits]

    def test_row_subset_gets_its_own_partition(self, monkeypatch):
        table = synth_generate(400, 0.5, 0.5, seed=6)
        oxygen = table.column("oxygen")
        rows = np.flatnonzero(oxygen < np.median(oxygen))  # a narrower min-max span
        subset = table.take(rows)
        seen = []  # the partition an rs fit on the subset reads

        def recording(categorical):
            seen.append(partition(categorical))
            return seen[-1]

        monkeypatch.setattr(pipeline, "partition", recording)
        pipeline.fit_reducer(subset, "rs", quick_config(), seed=0)
        (own,) = seen
        expected = partition(discretize(subset))
        for got, want in zip(own.granules, expected.granules):
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(own.index, expected.index)
        # the whole table's cut of oxygen differs, so its granules would be wrong here
        assert not np.array_equal(
            discretize(subset).values, discretize(table).values[rows]
        )

    def test_strict_fold_fits_partition_their_training_rows(self, monkeypatch):
        sizes = []
        real = pipeline.partition

        def counting(categorical):
            sizes.append(categorical.n_rows)
            return real(categorical)

        monkeypatch.setattr(pipeline, "partition", counting)
        cfg = quick_config(
            strict_no_leakage=True,
            preprocessors=("rs", "gr", "dt"),
            classifiers=("svm",),
            folds_svm=3,
        )
        table = pipeline.resolve_data(cfg)
        assert not run_matrix(cfg, table).any_failed
        plan = pipeline.fold_plan(table, cfg, "svm")
        # one partition per fit, of its fold's training rows (the three
        # folds, once for each of rs, gr and dt), and never the whole table's
        assert sizes == [np.count_nonzero(plan != f) for f in range(3)] * 3

    def test_pickled_table_carries_no_partition(self):
        table = synth_generate(200, 0.5, 0.5, seed=9)
        size = len(pickle.dumps(table))
        cfg = quick_config(preprocessors=("rs", "gr", "dt"), classifiers=("svm",))
        for method in cfg.preprocessors:
            fit_reducer(table, method, cfg, seed=0)
        run_matrix(cfg, table)
        assert len(pickle.dumps(table)) == size


# Kept sets and diagnostics of the rs, gr and dt fits on one 20k-row noisy
# table, as the per-column discretize, the chunk-by-chunk gr loop and the
# per-value dt masks computed them; the whole-array fits must match exactly.
GOLDEN_20K = {
    "rs": (
        ("acetylene", "carbon_dioxide", "carbon_monoxide", "ethane", "ethylene", "hydrogen",
         "methane", "nitrogen", "oxygen", "tcg"),
        {"gamma_full": 0.9971, "gamma_reduct": 0.9971, "eliminated": (),
         "gamma_without_kept": {
             "acetylene": 0.98945, "carbon_dioxide": 0.9943, "carbon_monoxide": 0.9942,
             "ethane": 0.9757, "ethylene": 0.9911, "hydrogen": 0.983, "methane": 0.98915,
             "nitrogen": 0.99375, "oxygen": 0.99475, "tcg": 0.96905}},
    ),
    "gr": (
        ("acetylene", "ethane", "methane"),
        {"chunks": 80, "chunk_size": 250, "carry": 1, "granules": 220, "rows_absorbed": 554,
         "expanded_rows": 220, "gamma_full": 1.0, "gamma_reduct": 1.0,
         "eliminated": ("tcg", "oxygen", "nitrogen", "hydrogen", "ethylene",
                        "carbon_monoxide", "carbon_dioxide"),
         "gamma_without_kept": {"acetylene": 0.5681818181818182, "ethane": 0.6863636363636364,
                                "methane": 0.5590909090909091}},
    ),
    "gr-997-20": (
        ("carbon_dioxide", "carbon_monoxide", "ethane", "hydrogen", "methane", "nitrogen",
         "tcg"),
        {"chunks": 21, "chunk_size": 997, "carry": 20, "granules": 729, "rows_absorbed": 3065,
         "expanded_rows": 730, "gamma_full": 0.9972602739726028,
         "gamma_reduct": 0.9972602739726028, "eliminated": ("oxygen", "ethylene", "acetylene"),
         "gamma_without_kept": {
             "carbon_dioxide": 0.9958904109589041, "carbon_monoxide": 0.9917808219178083,
             "ethane": 0.9794520547945206, "hydrogen": 0.9931506849315068,
             "methane": 0.9863013698630136, "nitrogen": 0.9931506849315068,
             "tcg": 0.9328767123287671}},
    ),
    "dt": (
        ("acetylene", "ethane", "tcg", "methane"),
        {"depth": {"acetylene": 0, "ethane": 1, "methane": 3, "tcg": 1},
         "splits": {"acetylene": 1, "ethane": 1, "methane": 1, "tcg": 4}},
    ),
}


class TestReducerGolden:
    def test_20k_rows_at_noise_0_9(self):
        table = synth_generate(20_000, 0.5, 0.9, seed=18)
        cfg = ExperimentConfig(seed=18)
        for name, (kept, diagnostics) in GOLDEN_20K.items():
            method, *gr = name.split("-")
            fit_cfg = replace(cfg, gr_chunk_size=int(gr[0]), gr_carry=int(gr[1])) if gr else cfg
            seed = pipeline.reducer_seed(cfg, method)
            result = fit_reducer(table, method, fit_cfg, seed).result
            assert (result.kept, result.diagnostics) == (kept, diagnostics), name
