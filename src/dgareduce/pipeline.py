"""Experiment harness: run any preprocessor x classifier cell, or the full
matrix, under stratified cross-validation, and emit report rows with average
accuracy and average training time.

Preprocessors fit once on the whole table by default (the historical
protocol); `strict_no_leakage` refits them per fold on the training portion
only.  Classifier-side standardization and interval-cell fitting always use
the training portion.  The global seed expands into per-cell and per-fold
seeds through numpy SeedSequence spawn keys: data uses key (0,), cell
(preprocessor, classifier) uses (1, pre_index, clf_index), and fold f inside a
cell appends f.
"""

from __future__ import annotations

import csv as _csv
import io
import json
import time
import warnings
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import bpnn, dtree, granular, pca, rnn, svm
from .dataset import (
    Discretizer,
    GasTable,
    Table,
    kfold,
    load_csv,
    split_indices,
    standardize,
    synth_generate,
)
from .errors import ConfigError, ParameterError
from .reduction import ReductionResult
from .roughset import InformationSystem, reduct_search
from .rnn import Intervalizer

PREPROCESSORS = ("none", "pca", "rs", "gr", "dt")
CLASSIFIERS = ("bpnn", "svm", "rnn")


@dataclass(frozen=True)
class SynthSpec:
    """Parameters for the synthetic data source."""

    n: int = 2000
    fault_ratio: float = 0.5
    noise: float = 0.25
    informative: tuple[str, ...] | None = None


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a matrix run needs, with fixed-parameter defaults so every
    cell trains its classifiers under identical settings."""

    csv_path: str | None = None
    synth: SynthSpec = SynthSpec()
    preprocessors: tuple[str, ...] = PREPROCESSORS
    classifiers: tuple[str, ...] = CLASSIFIERS
    folds_bpnn: int = 15
    folds_svm: int = 8
    folds_rnn: int = 15
    mlp: bpnn.MlpConfig = bpnn.MlpConfig()
    kernel: svm.Kernel = svm.Kernel.rbf(0.5)
    svm_c: float = 10.0
    svm_tol: float = 1e-3
    svm_max_passes: int = 100
    pca_components: int | None = 3
    pca_threshold: float | None = None
    gr_chunk_size: int = 250
    gr_carry: int = 1
    dt_criterion: str = "gain_ratio"
    dt_min_rows: int = 2
    dt_prune_fraction: float = 0.15
    rnn_connection: str = "excitatory"
    strict_no_leakage: bool = False
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "preprocessors", tuple(self.preprocessors))
        object.__setattr__(self, "classifiers", tuple(self.classifiers))
        unknown = [p for p in self.preprocessors if p not in PREPROCESSORS]
        unknown += [c for c in self.classifiers if c not in CLASSIFIERS]
        if unknown:
            raise ConfigError(f"unknown method name {unknown[0]!r}")
        if not self.preprocessors or not self.classifiers:
            raise ConfigError("preprocessor and classifier sets must be non-empty")
        for k in (self.folds_bpnn, self.folds_svm, self.folds_rnn):
            if k < 2:
                raise ConfigError("fold counts must be at least 2")
        if (self.pca_components is None) == (self.pca_threshold is None):
            raise ConfigError("set exactly one of pca_components / pca_threshold")
        if not 0.0 < self.dt_prune_fraction < 1.0:
            raise ConfigError("dt_prune_fraction must be in (0, 1)")

    def folds_for(self, classifier: str) -> int:
        return {"bpnn": self.folds_bpnn, "svm": self.folds_svm, "rnn": self.folds_rnn}[
            classifier
        ]


def derive_seed(root: int, *key: int) -> int:
    """Deterministic child seed from the global seed and an integer key path."""
    return int(np.random.SeedSequence(root, spawn_key=tuple(key)).generate_state(1)[0])


def resolve_data(cfg: ExperimentConfig) -> GasTable:
    if cfg.csv_path is not None:
        return load_csv(cfg.csv_path)
    synth = cfg.synth
    return synth_generate(
        synth.n,
        synth.fault_ratio,
        synth.noise,
        derive_seed(cfg.seed, 0),
        informative=synth.informative,
    )


@dataclass(frozen=True)
class FittedReducer:
    """A fitted preprocessor: either a projection or a kept-name selection."""

    method: str
    result: ReductionResult
    projection: pca.PcaProjection | None = None

    @property
    def kept_label(self) -> str:
        if self.method == "pca":
            return f"pca:p={self.projection.p}"
        return ",".join(self.result.kept)

    def transform(self, table: Table) -> Table:
        if self.method == "pca":
            return pca.project(table, self.projection)
        if self.method == "none":
            return Table(table.values, table.decisions, table.attributes)
        if not self.result.kept:
            raise ParameterError(f"{self.method} selected no attributes")
        return table.select(self.result.kept)


def fit_reducer(table: Table, method: str, cfg: ExperimentConfig, seed: int) -> FittedReducer:
    """Fit one preprocessor on the given rows."""
    if method == "none":
        result = ReductionResult("none", tuple(table.attributes))
        return FittedReducer("none", result)
    if method == "pca":
        proj = pca.fit_projection(
            table, fixed_count=cfg.pca_components, threshold=cfg.pca_threshold
        )
        result = ReductionResult(
            "pca",
            proj.component_names,
            {
                "eigenvalues": [float(v) for v in proj.eigenvalues],
                "proportions": [float(v) for v in proj.proportions],
                "loadings": [[float(v) for v in proj.basis[:, j]] for j in range(proj.p)],
                "mean": [float(v) for v in proj.scaler.mean],
                "std": [float(v) for v in proj.scaler.std],
            },
        )
        return FittedReducer("pca", result, projection=proj)
    categorical = Discretizer.fit(table).apply(table)
    if method == "rs":
        result = reduct_search(InformationSystem.from_table(categorical))
        return FittedReducer("rs", result)
    if method == "gr":
        result = granular.incremental_rank_reduce(
            categorical, cfg.gr_chunk_size, cfg.gr_carry
        )
        return FittedReducer("gr", result)
    if method == "dt":
        grow_idx, val_idx = split_indices(
            categorical.n_rows, (1.0 - cfg.dt_prune_fraction, cfg.dt_prune_fraction), seed
        )
        tree = dtree.build_tree(
            categorical.take(grow_idx), criterion=cfg.dt_criterion, min_rows=cfg.dt_min_rows
        )
        tree = dtree.prune(tree, categorical.take(val_idx))
        result = dtree.select_attributes(tree)
        return FittedReducer("dt", result)
    raise ConfigError(f"unknown preprocessor {method!r}")


@dataclass(frozen=True)
class CellResult:
    """One preprocessor x classifier report row."""

    preprocessor: str
    classifier: str
    folds: int
    accuracy_mean: float
    accuracy_std: float
    time_mean: float
    kept: str
    stop_reasons: dict = field(default_factory=dict)
    warnings: tuple[str, ...] = ()
    failed: bool = False
    error: str | None = None
    fold_accuracies: tuple[float, ...] = ()
    fold_diagnostics: tuple = ()

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, raw: dict) -> "CellResult":
        def deep_tuple(value):
            if isinstance(value, list):
                return tuple(deep_tuple(v) for v in value)
            return value

        return cls(**{key: deep_tuple(value) for key, value in raw.items()})


def _renormalized(mlp: bpnn.MlpConfig, seed: int) -> bpnn.MlpConfig:
    """Train/val ratios renormalized over the CV remainder; internal test 0."""
    t, v, _ = mlp.ratios
    total = t + v
    return replace(mlp, seed=seed, ratios=(t / total, v / total, 0.0))


def _standardized_pair(train: Table, test: Table) -> tuple[Table, Table]:
    std_train, scaler = standardize(train)
    std_test = Table(scaler.transform(test.values), test.decisions, test.attributes)
    return std_train, std_test


def _train_eval(classifier, cfg, train_raw, test_raw, fold_seed):
    """Train one classifier on a reduced fold; returns (accuracy, seconds,
    stop reason)."""
    std_train, std_test = _standardized_pair(train_raw, test_raw)
    if classifier == "bpnn":
        mlp_cfg = _renormalized(cfg.mlp, fold_seed)
        started = time.perf_counter()
        model = bpnn.train(std_train, mlp_cfg)
        elapsed = time.perf_counter() - started
        result = bpnn.evaluate(model, std_test)
        return result.accuracy, elapsed, model.trace.stop_reason
    if classifier == "svm":
        started = time.perf_counter()
        model = svm.train_smo(
            std_train,
            cfg.kernel,
            c=cfg.svm_c,
            tol=cfg.svm_tol,
            max_passes=cfg.svm_max_passes,
        )
        elapsed = time.perf_counter() - started
        result = svm.evaluate(model, std_test)
        reason = "converged" if model.converged else "max-passes"
        return result.accuracy, elapsed, reason
    # rnn: interval cells come from the raw reduced values, bounds from the
    # standardized ones; both fitted on the training portion only
    disc = Discretizer.fit(train_raw)
    cat_train = disc.apply(train_raw)
    cat_test = disc.apply(test_raw)
    ivz = Intervalizer.fit(cat_train, std_train)
    train_iv = ivz.apply(cat_train, std_train)
    test_iv = ivz.apply(cat_test, std_test)
    mlp_cfg = _renormalized(cfg.mlp, fold_seed)
    started = time.perf_counter()
    model = rnn.train(train_iv, mlp_cfg, connection=cfg.rnn_connection)
    elapsed = time.perf_counter() - started
    result = rnn.evaluate(model, test_iv)
    return result.accuracy, elapsed, model.trace.stop_reason


def run_cell(
    cfg: ExperimentConfig,
    preprocessor: str,
    classifier: str,
    table: GasTable | None = None,
) -> CellResult:
    """Cross-validated run of one preprocessor x classifier pair."""
    if preprocessor not in PREPROCESSORS or classifier not in CLASSIFIERS:
        raise ConfigError(f"unknown cell {preprocessor} x {classifier}")
    if table is None:
        table = resolve_data(cfg)
    pre_index = PREPROCESSORS.index(preprocessor)
    clf_index = CLASSIFIERS.index(classifier)
    cell_seed = derive_seed(cfg.seed, 1, pre_index, clf_index)
    k = cfg.folds_for(classifier)
    stage = "fold-plan"
    fold = -1
    caught: list[str] = []
    try:
        plan = kfold(table, k, cell_seed)
        reducer = None
        kept_label = ""
        if not cfg.strict_no_leakage:
            stage = "preprocess"
            with warnings.catch_warnings(record=True) as notes:
                warnings.simplefilter("always")
                reducer = fit_reducer(table, preprocessor, cfg, cell_seed)
                reduced_all = reducer.transform(table)
            caught.extend(str(n.message) for n in notes)
            kept_label = reducer.kept_label
        accuracies, times, reasons = [], [], {}
        diagnostics = []
        for fold in range(k):
            fold_seed = derive_seed(cfg.seed, 1, pre_index, clf_index, fold)
            train_idx = plan.train_indices(fold)
            test_idx = plan.test_indices(fold)
            if cfg.strict_no_leakage:
                stage = "preprocess"
                with warnings.catch_warnings(record=True) as notes:
                    warnings.simplefilter("always")
                    fold_reducer = fit_reducer(
                        table.take(train_idx), preprocessor, cfg, fold_seed
                    )
                caught.extend(str(n.message) for n in notes)
                train_raw = fold_reducer.transform(table.take(train_idx))
                test_raw = fold_reducer.transform(table.take(test_idx))
                kept_label = fold_reducer.kept_label
                diagnostics.append(_reducer_fingerprint(fold_reducer))
            else:
                train_raw = reduced_all.take(train_idx)
                test_raw = reduced_all.take(test_idx)
            stage = "train"
            with warnings.catch_warnings(record=True) as notes:
                warnings.simplefilter("always")
                acc, seconds, reason = _train_eval(
                    classifier, cfg, train_raw, test_raw, fold_seed
                )
            caught.extend(str(n.message) for n in notes)
            accuracies.append(acc)
            times.append(seconds)
            reasons[reason] = reasons.get(reason, 0) + 1
    except Exception as exc:  # a failure of any kind fails this cell only
        where = "global" if fold < 0 else f"fold {fold}"
        return CellResult(
            preprocessor=preprocessor,
            classifier=classifier,
            folds=k,
            accuracy_mean=0.0,
            accuracy_std=0.0,
            time_mean=0.0,
            kept="",
            failed=True,
            error=f"{where} stage {stage}: {type(exc).__name__}: {exc}",
        )
    return CellResult(
        preprocessor=preprocessor,
        classifier=classifier,
        folds=k,
        accuracy_mean=float(np.mean(accuracies)),
        accuracy_std=float(np.std(accuracies)),
        time_mean=float(np.mean(times)),
        kept=kept_label,
        stop_reasons=reasons,
        warnings=tuple(dict.fromkeys(caught)),
        fold_accuracies=tuple(accuracies),
        fold_diagnostics=tuple(diagnostics),
    )


def _reducer_fingerprint(reducer: FittedReducer):
    """Stable summary of fitted parameters, used by the leakage canary."""
    if reducer.method == "pca":
        return (
            "pca",
            tuple(round(float(v), 12) for v in reducer.projection.scaler.mean),
            tuple(round(float(v), 12) for v in reducer.projection.scaler.std),
            tuple(round(float(v), 12) for v in reducer.projection.basis.ravel()),
        )
    return (reducer.method,) + tuple(reducer.result.kept)


def _kernel_label(kernel: svm.Kernel) -> str:
    if kernel.kind == "linear":
        return "linear"
    if kernel.kind == "polynomial":
        return f"polynomial(degree={kernel.degree},coef={kernel.coef:g})"
    if kernel.kind == "rbf":
        return f"rbf(gamma={kernel.gamma:g})"
    return f"sigmoid(scale={kernel.scale:g},offset={kernel.offset:g})"


@dataclass(frozen=True)
class ExperimentReport:
    """Report rows in preprocessor-major order, the seed that made them, and
    the fixed classifier settings they ran under (kernel included)."""

    rows: tuple[CellResult, ...]
    seed: int
    settings: tuple[tuple[str, str], ...] = ()

    @property
    def any_failed(self) -> bool:
        return any(r.failed for r in self.rows)

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "settings": dict(self.settings),
            "rows": [r.to_dict() for r in self.rows],
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentReport":
        return cls(
            tuple(CellResult.from_dict(r) for r in raw["rows"]),
            raw["seed"],
            tuple(sorted(raw.get("settings", {}).items())),
        )


def _settings_summary(cfg: ExperimentConfig) -> tuple[tuple[str, str], ...]:
    pairs = {
        "kernel": _kernel_label(cfg.kernel),
        "svm_c": "%g" % cfg.svm_c,
        "mlp_epochs": str(cfg.mlp.epochs),
        "mlp_hidden": ",".join(str(h) for h in cfg.mlp.hidden),
        "mlp_learning_rate": "%g" % cfg.mlp.learning_rate,
        "strict_no_leakage": str(cfg.strict_no_leakage).lower(),
    }
    return tuple(sorted(pairs.items()))


def run_matrix(cfg: ExperimentConfig) -> ExperimentReport:
    """All requested cells, independent, in deterministic order."""
    table = resolve_data(cfg)
    rows = []
    for pre in PREPROCESSORS:
        if pre not in cfg.preprocessors:
            continue
        for clf in CLASSIFIERS:
            if clf not in cfg.classifiers:
                continue
            rows.append(run_cell(cfg, pre, clf, table=table))
    return ExperimentReport(tuple(rows), cfg.seed, _settings_summary(cfg))


_TABLE_HEADER = (
    "Preprocessor",
    "Classifier",
    "k-Folds",
    "Average Accuracy (%)",
    "Average Training Time(s)",
    "Kept",
)


def emit_report(report: ExperimentReport, format: str = "table") -> str:
    """Render a report as an aligned table, JSON, or CSV."""
    if not report.rows:
        raise ParameterError("report has no rows")
    if format == "json":
        return json.dumps(report.to_dict(), indent=2)
    if format == "csv":
        buf = io.StringIO()
        writer = _csv.writer(buf)
        writer.writerow(
            [
                "preprocessor",
                "classifier",
                "folds",
                "accuracy_mean",
                "accuracy_std",
                "time_mean",
                "kept",
                "stop_reasons",
                "warnings",
                "failed",
                "error",
            ]
        )
        for r in report.rows:
            writer.writerow(
                [
                    r.preprocessor,
                    r.classifier,
                    r.folds,
                    "%.1f" % r.accuracy_mean,
                    "%.3f" % r.accuracy_std,
                    "%.2f" % r.time_mean,
                    r.kept,
                    ";".join(f"{k}:{v}" for k, v in sorted(r.stop_reasons.items())),
                    "|".join(r.warnings),
                    int(r.failed),
                    r.error or "",
                ]
            )
        return buf.getvalue()
    if format != "table":
        raise ParameterError(f"unknown report format {format!r}")
    cells = [_TABLE_HEADER]
    for r in report.rows:
        if r.failed:
            cells.append(
                (r.preprocessor, r.classifier, str(r.folds), "FAILED", "-", r.error or "")
            )
        else:
            cells.append(
                (
                    r.preprocessor,
                    r.classifier,
                    str(r.folds),
                    "%.1f" % r.accuracy_mean,
                    "%.2f" % r.time_mean,
                    r.kept,
                )
            )
    widths = [max(len(row[i]) for row in cells) for i in range(len(_TABLE_HEADER))]
    lines = ["  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() for row in cells]
    lines.insert(1, "  ".join("-" * w for w in widths))
    if report.settings:
        lines.append("")
        lines.append("settings: " + "  ".join(f"{k}={v}" for k, v in report.settings))
    return "\n".join(lines) + "\n"
