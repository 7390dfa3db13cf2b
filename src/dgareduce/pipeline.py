"""Experiment harness: run the preprocessor x classifier matrix, or any part
of it, under stratified cross-validation, and emit report rows with average
accuracy and average training time.  `run_matrix(cfg, table=None)` is the one
executor; `run_cell` is a one-cell matrix.

Preprocessors fit once on the whole table by default (the historical
protocol); `strict_no_leakage` refits them per fold on the training portion
only.  Classifier-side standardization and interval-cell fitting always use
the training portion.  The global seed expands into child seeds through numpy
SeedSequence spawn keys: data uses key (0,); a preprocessor's fit uses
(1, pre_index), so the three classifiers of one preprocessor see one fit and
one kept set; a classifier's fold plan uses (1, 0, clf_index) and its fold f
(1, 0, clf_index, f), so the five preprocessors of one classifier train and
test on the same folds with the same network seeds.  A strict-mode fit on
fold f of a classifier uses (1, pre_index, clf_index, f).

Within one `run_matrix` call the cells share three things: a classifier's
fold plan and a fit's reducer, both held in one memo keyed by the classifier
or the fit's spawn key, and a training, keyed by its classifier, fold and
reduced column names.  Every rs, gr and dt fit partitions its own rows.
The matrix plans every cell, runs each distinct training once on the CPUs it
may use, then assembles the rows.  Its forked workers inherit the planned
trainings, and with them the table, fold plans and reducers, so a training
reaches a worker as its index in that list.  A cell whose training another
cell ran reuses its accuracy, seconds, stop reason and warnings and names
that cell's preprocessor in `same_training_as`.  pca's columns are named
pc1..pcp, which no selection of the ten gases carries.  A row's kept set
lists each fold's distinct kept set in fold order: one set under the
whole-table fit.  Every non-`none` row is paired fold by fold with the
`none` row of its classifier.
"""

from __future__ import annotations

import csv as _csv
import io
import json
import math
import os
import time
import warnings
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import bpnn, dtree, granular, pca, rnn, svm
from .dataset import (
    ATTRIBUTES,
    Discretizer,
    GasTable,
    Table,
    discretize,
    kfold,
    load_csv,
    split_indices,
    standardize,
    synth_generate,
)
from .errors import ConfigError, ParameterError
from .reduction import ReductionResult
from .roughset import partition, reduct_search
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
    cell trains its classifiers under identical settings.  A `csv_path`
    reads the table from that CSV, and `synth` then keeps its defaults."""

    csv_path: str | None = None
    synth: SynthSpec = SynthSpec()
    preprocessors: tuple[str, ...] = PREPROCESSORS
    classifiers: tuple[str, ...] = CLASSIFIERS
    folds_bpnn: int = 15
    folds_svm: int = 8
    folds_rnn: int = 15
    mlp: bpnn.MlpConfig = bpnn.MlpConfig()
    kernel: svm.Kernel = svm.Kernel("rbf", gamma=0.5)
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
        if self.csv_path is not None:
            changed = [
                f.name for f in fields(SynthSpec) if getattr(self.synth, f.name) != f.default
            ]
            if changed:
                raise ConfigError(f"csv_path takes no synth settings, got {', '.join(changed)}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
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
        if self.pca_components is not None and not 1 <= self.pca_components <= len(ATTRIBUTES):
            raise ConfigError(
                f"pca_components must be in [1, {len(ATTRIBUTES)}], got {self.pca_components}"
            )
        if self.pca_threshold is not None and not 0.0 < self.pca_threshold <= 100.0:
            raise ConfigError(f"pca_threshold must be in (0, 100], got {self.pca_threshold}")
        if not 0.0 < self.dt_prune_fraction < 1.0:
            raise ConfigError("dt_prune_fraction must be in (0, 1)")
        if self.dt_criterion not in dtree.CRITERIA:
            raise ConfigError(f"dt_criterion must be one of {dtree.CRITERIA}")
        if self.rnn_connection not in rnn.CONNECTIONS:
            raise ConfigError(f"rnn_connection must be one of {rnn.CONNECTIONS}")
        if not self.svm_c > 0:
            raise ConfigError(f"svm_c must be positive, got {self.svm_c}")
        if not self.svm_tol > 0:
            raise ConfigError(f"svm_tol must be positive, got {self.svm_tol}")
        for name in ("gr_chunk_size", "gr_carry", "svm_max_passes", "dt_min_rows"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1, got {getattr(self, name)}")

    def folds_for(self, classifier: str) -> int:
        return {"bpnn": self.folds_bpnn, "svm": self.folds_svm, "rnn": self.folds_rnn}[
            classifier
        ]


def derive_seed(root: int, *key: int) -> int:
    """Deterministic child seed from the global seed and an integer key path."""
    return int(np.random.SeedSequence(root, spawn_key=tuple(key)).generate_state(1)[0])


def fit_key(preprocessor: str) -> tuple[int, ...]:
    """The spawn key of a preprocessor's whole-table fit, (1, pre_index); a
    strict fit on fold f of a classifier extends it to (1, pre_index,
    clf_index, f)."""
    return (1, PREPROCESSORS.index(preprocessor))


def reducer_seed(cfg: ExperimentConfig, preprocessor: str) -> int:
    """The seed of a preprocessor's whole-table fit, shared by its classifiers."""
    return derive_seed(cfg.seed, *fit_key(preprocessor))


def fold_plan(table: Table, cfg: ExperimentConfig, classifier: str) -> np.ndarray:
    """The classifier's fold plan (`kfold`), shared by every preprocessor."""
    seed = derive_seed(cfg.seed, 1, 0, CLASSIFIERS.index(classifier))
    return kfold(table, cfg.folds_for(classifier), seed)


def fold_seed(cfg: ExperimentConfig, classifier: str, fold: int) -> int:
    """The seed of a classifier's training on one fold, shared by every
    preprocessor."""
    return derive_seed(cfg.seed, 1, 0, CLASSIFIERS.index(classifier), fold)


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
    """A fitted preprocessor: pca's projection, or else a selection of the
    kept names (every column, for `none`); `result.method` names it."""

    result: ReductionResult
    projection: pca.PcaProjection | None = None

    @property
    def kept_label(self) -> str:
        if self.projection is not None:
            return f"pca:p={self.projection.p}"
        return ",".join(self.result.kept)

    @property
    def columns(self) -> tuple[str, ...]:
        """The kept names, which name the columns `transform` returns."""
        if not self.result.kept:
            raise ParameterError(f"{self.result.method} selected no attributes")
        return self.result.kept

    def transform(self, table: Table) -> Table:
        if self.projection is not None:
            return pca.project(table, self.projection)
        return table.select(self.columns)


def fit_reducer(table: Table, method: str, cfg: ExperimentConfig, seed: int) -> FittedReducer:
    """Fit one preprocessor on the given rows; rs, gr and dt read them
    through the `roughset.partition` of the rows discretized on themselves."""
    if method == "none":
        return FittedReducer(ReductionResult("none", tuple(table.attributes)))
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
        return FittedReducer(result, projection=proj)
    part = partition(discretize(table))
    if method == "rs":
        return FittedReducer(reduct_search(part))
    if method == "gr":
        result = granular.incremental_rank_reduce(part, cfg.gr_chunk_size, cfg.gr_carry)
        return FittedReducer(result)
    if method == "dt":
        grow_idx, val_idx = split_indices(
            part.n_rows, (1.0 - cfg.dt_prune_fraction, cfg.dt_prune_fraction), seed
        )
        tree = dtree.build_tree(
            part.take(grow_idx), criterion=cfg.dt_criterion, min_rows=cfg.dt_min_rows
        )
        tree = dtree.prune(tree, part.take(val_idx))
        return FittedReducer(dtree.select_attributes(tree))
    raise ConfigError(f"unknown preprocessor {method!r}")


@dataclass(frozen=True)
class CellResult:
    """One preprocessor x classifier report row.

    `same_training_as` names the preprocessors of the earlier rows whose
    trainings this row reused (`_assemble`); `time_mean` then holds those
    trainings' measured seconds.  The paired fields, from `fold_deltas` on,
    compare the row fold by fold with the `none` row of its classifier and
    are empty on `none` rows (see `paired_against`)."""

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
    same_training_as: str = ""
    fold_deltas: tuple[float, ...] = ()
    delta_mean: float | None = None
    wins: int | None = None
    ties: int | None = None
    losses: int | None = None
    sign_p: float | None = None
    corrected_t: float | None = None
    t_df: int | None = None

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, raw: dict) -> "CellResult":
        def deep_tuple(value):
            if isinstance(value, list):
                return tuple(deep_tuple(v) for v in value)
            return value

        return cls(**{key: deep_tuple(value) for key, value in raw.items()})


MODELS = {"bpnn": bpnn, "svm": svm, "rnn": rnn}


@dataclass(frozen=True)
class FittedClassifier:
    """A trained model with its `scaler` set, the wall-clock seconds of the
    train call alone and, for rnn, the discretizer and intervalizer fitted on
    the same rows."""

    model: bpnn.MlpModel | svm.SvmModel | rnn.RnnModel
    seconds: float
    cells: tuple[Discretizer, Intervalizer] | None = None

    def inputs(self, raw: Table) -> Table:
        """Other raw rows encoded as the model's training rows were."""
        std = Table(self.model.scaler.transform(raw.values), raw.decisions, raw.attributes)
        if self.cells is None:
            return std
        disc, ivz = self.cells
        return ivz.apply(disc.apply(raw), std)


def fit_classifier(classifier, cfg, train_raw: Table, seed: int) -> FittedClassifier:
    """Standardize the raw rows, then for rnn discretize and intervalize them,
    then train one classifier under `cfg`'s settings, a net seeded with
    `seed`; every fitted step sees these rows only."""
    rows, scaler = standardize(train_raw)
    cells = None
    if classifier == "rnn":
        # interval cells come from the raw values, bounds from the standardized ones
        disc = Discretizer.fit(train_raw)
        categorical = disc.apply(train_raw)
        ivz = Intervalizer.fit(categorical, rows)
        rows, cells = ivz.apply(categorical, rows), (disc, ivz)
    started = time.perf_counter()
    if classifier == "bpnn":
        model = bpnn.train(rows, cfg.mlp, seed)
    elif classifier == "svm":
        model = svm.train_smo(
            rows, cfg.kernel, c=cfg.svm_c, tol=cfg.svm_tol, max_passes=cfg.svm_max_passes
        )
    else:
        model = rnn.train(rows, cfg.mlp, seed, connection=cfg.rnn_connection)
    seconds = time.perf_counter() - started
    model.scaler = scaler
    return FittedClassifier(model, seconds, cells)


def _train_eval(classifier, cfg, train_raw, test_raw, seed):
    """Train one classifier on a reduced fold; returns (accuracy, seconds,
    stop reason)."""
    fitted = fit_classifier(classifier, cfg, train_raw, seed)
    model = fitted.model
    accuracy = MODELS[classifier].evaluate(model, fitted.inputs(test_raw))
    if classifier == "svm":
        return accuracy, fitted.seconds, "converged" if model.converged else "max-passes"
    return accuracy, fitted.seconds, model.trace.stop_reason


def _captured(compute):
    """(`compute()` or the exception it raised, the warnings' texts)."""
    with warnings.catch_warnings(record=True) as notes:
        warnings.simplefilter("always")
        try:
            result = compute()
        except Exception as exc:
            result = exc
    return result, tuple(str(n.message) for n in notes)


def _train_task(task) -> tuple:
    """`_train_eval` on a fold of `task` = (classifier, cfg, table, fold plan,
    reducer, fold) under `_captured`, a failure as `Type: message` text.  The
    fold's rows are taken from the table only while the training runs, so a
    task list costs no copies of fold rows, in this process or in the forked
    workers that inherit it (`_train_all`)."""
    classifier, cfg, table, plan, reducer, fold = task

    def train():
        rows = (np.flatnonzero(plan != fold), np.flatnonzero(plan == fold))
        train_raw, test_raw = (reducer.transform(table.take(r)) for r in rows)
        return _train_eval(classifier, cfg, train_raw, test_raw, fold_seed(cfg, classifier, fold))

    outcome, notes = _captured(train)
    if isinstance(outcome, Exception):
        outcome = _failure_text(outcome)
    return outcome, notes


def _failure_text(exc: BaseException) -> str:
    """`Type: message`, how a report row names the exception that failed it."""
    return f"{type(exc).__name__}: {exc}"


def _blas_threads_setter():
    """The thread-count setter of the OpenBLAS this process loaded, or None,
    as where /proc/self/maps cannot be read or lists a library since deleted."""
    import ctypes

    try:
        with open("/proc/self/maps") as maps:
            paths = {ln.rstrip("\n").split(maxsplit=5)[5] for ln in maps if "openblas" in ln}
            libs = [ctypes.CDLL(path) for path in paths]
    except OSError:
        return None
    names = "openblas_set_num_threads scipy_openblas_set_num_threads64_ openblas_set_num_threads64_"
    return next((getattr(lib, n) for lib in libs for n in names.split() if hasattr(lib, n)), None)


def _worker_count(trainings: int, setter) -> int:
    """One process per CPU in this process's affinity mask, at most one per
    training; one where workers cannot run one BLAS thread, as without a
    BLAS thread-count `setter` (`_train_all`)."""
    if not hasattr(os, "sched_getaffinity") or setter is None:
        return 1
    return min(len(os.sched_getaffinity(0)), trainings)


# A forked worker's tasks, set by `_start_worker` in the worker alone; the
# parent never sets it, so each pool's workers see only their own list.
_worker_tasks: list = []


def _start_worker(tasks: list, setter) -> None:
    """Pool initializer: keep the inherited `tasks` for `_train_index` and
    run one BLAS thread."""
    global _worker_tasks
    _worker_tasks = tasks
    if setter is not None:
        setter(1)


def _train_index(i: int) -> tuple:
    """`_train_task` on the worker's task `i`."""
    return _train_task(_worker_tasks[i])


def _train_all(tasks: list, workers: int, setter) -> list:
    """`_train_task` over `tasks`, in this process or on `workers` forked
    processes, joined on return.  The workers inherit `tasks` through fork
    (`initargs` are not pickled under fork), so a submission sends only a
    training's index, and the table, fold plans and reducers never cross a
    pipe.  Workers run one BLAS thread through `setter`: idle OpenBLAS
    threads spin, and 2 workers of 2 threads ran a bpnn training 8x slower
    on 2 CPUs.

    A dead worker breaks its pool and leaves every training in flight or
    queued unfinished.  Those rerun together in one new pool, the first
    `workers` of them last: a training that kills its worker was running,
    so it is among them, and the rest can finish before it runs again.
    Only a training that this pool leaves unfinished too reruns alone, so
    only one that kills its process fails."""
    if workers <= 1:
        return list(map(_train_task, tasks))
    from concurrent.futures.process import BrokenProcessPool

    got = _pooled(tasks, workers, setter)
    unfinished = [i for i, outcome in enumerate(got) if isinstance(outcome, BrokenProcessPool)]
    if len(tasks) > 1 and unfinished:
        again = unfinished[workers:] + unfinished[:workers]
        for i, outcome in zip(again, _pooled([tasks[i] for i in again], workers, setter)):
            got[i] = outcome
        if len(again) > 1:
            for i in again:
                if isinstance(got[i], BrokenProcessPool):
                    got[i] = _pooled(tasks[i : i + 1], workers, setter)[0]
    return [(_failure_text(o), ()) if isinstance(o, BaseException) else o for o in got]


def _pooled(tasks: list, workers: int, setter) -> list:
    """`_train_task`'s outcome for each of `tasks` on one pool of forked
    workers, or the exception that kept it from finishing."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    context, futures = multiprocessing.get_context("fork"), []
    pool = ProcessPoolExecutor(
        min(workers, len(tasks)), context, initializer=_start_worker, initargs=(tasks, setter)
    )
    with pool:
        for i in range(len(tasks)):
            try:
                futures.append(pool.submit(_train_index, i))
            except BrokenProcessPool as exc:  # a worker died while tasks were sent
                futures.append(exc)
    return [f if isinstance(f, BaseException) else f.exception() or f.result() for f in futures]


def _once(memo: dict, key, compute):
    """`_captured(compute)` on the first use of `key` in `memo`; every use
    returns (result, warnings) or raises the exception the first use raised."""
    if key not in memo:
        memo[key] = _captured(compute)
    result, notes = memo[key]
    if isinstance(result, Exception):
        raise result
    return result, notes


def _plan_cell(cfg, preprocessor, classifier, table, memo) -> tuple[list, str | None]:
    """A cell's folds as (reducer, fit warnings, training key, task), and the
    error that stopped them or None.  A strict fit sees its fold's training
    rows only; otherwise every fold shares the whole-table fit."""
    strict = cfg.strict_no_leakage
    stage, fold, folds = "fold-plan", -1, []
    try:
        plan, _ = _once(memo, classifier, lambda: fold_plan(table, cfg, classifier))
        for fold in range(cfg.folds_for(classifier)):
            stage = "preprocess"
            key = fit_key(preprocessor)
            if strict:  # this fold's own fit, on its training rows alone
                key += (CLASSIFIERS.index(classifier), fold)

            def fit():
                rows = table.take(np.flatnonzero(plan != fold)) if strict else table
                return fit_reducer(rows, preprocessor, cfg, derive_seed(cfg.seed, *key))

            reducer, notes = _once(memo, key, fit)
            training = (classifier, fold, reducer.columns)
            folds.append((reducer, notes, training, (classifier, cfg, table, plan, reducer, fold)))
    except Exception as exc:  # a failure of any kind fails this cell only
        # the whole-table fit is one fit for every fold
        where = "global" if fold < 0 or not strict else f"fold {fold}"
        return folds, f"{where} stage {stage}: {_failure_text(exc)}"
    return folds, None


def _assemble(cfg, preprocessor, classifier, folds, failure, outcomes, sources) -> CellResult:
    """A cell's row from its folds' training `outcomes`, failed by the first
    failure in fold order; the folds before it claim their trainings in
    `sources` (a training's key -> the first preprocessor to use it)."""
    caught, trainings = [], []
    for fold, (_, fit_notes, key, _) in enumerate(folds):
        source = sources.setdefault(key, preprocessor)
        outcome, notes = outcomes[key]
        if isinstance(outcome, str):
            failure = f"fold {fold} stage train: {outcome}"
            break
        caught += fit_notes + notes
        trainings.append((*outcome, source))
    k, strict = cfg.folds_for(classifier), cfg.strict_no_leakage
    if failure is not None:
        return CellResult(preprocessor, classifier, k, 0.0, 0.0, 0.0, "", failed=True,
                          error=failure)
    accuracies, seconds, reasons, sources = zip(*trainings)
    reducers = [reducer for reducer, *_ in folds]
    return CellResult(
        preprocessor=preprocessor,
        classifier=classifier,
        folds=k,
        accuracy_mean=float(np.mean(accuracies)),
        accuracy_std=float(np.std(accuracies)),
        time_mean=float(np.mean(seconds)),
        kept=";".join(dict.fromkeys(r.kept_label for r in reducers)),
        stop_reasons={reason: reasons.count(reason) for reason in dict.fromkeys(reasons)},
        warnings=tuple(dict.fromkeys(caught)),
        fold_accuracies=accuracies,
        fold_diagnostics=tuple(map(_reducer_fingerprint, reducers)) if strict else (),
        same_training_as=",".join(dict.fromkeys(s for s in sources if s != preprocessor)),
    )


def _reducer_fingerprint(reducer: FittedReducer):
    """Stable summary of fitted parameters, used by the leakage canary."""
    if reducer.projection is not None:
        return (
            "pca",
            tuple(round(float(v), 12) for v in reducer.projection.scaler.mean),
            tuple(round(float(v), 12) for v in reducer.projection.scaler.std),
            tuple(round(float(v), 12) for v in reducer.projection.basis.ravel()),
        )
    return (reducer.result.method,) + tuple(reducer.result.kept)


def _kernel_label(kernel: svm.Kernel) -> str:
    """The kind, then the parameters it reads, e.g. `rbf(gamma=0.5)`."""
    names = svm.KERNEL_PARAMS[kernel.kind]
    params = ",".join(f"{name}={getattr(kernel, name):g}" for name in names)
    return f"{kernel.kind}({params})" if params else kernel.kind


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


def sign_test_p(wins: int, losses: int) -> float:
    """Exact two-sided sign-test p of `wins` against `losses`, ties dropped:
    the chance that a fair coin splits wins + losses tosses at least this
    unevenly."""
    n = wins + losses
    tail = sum(math.comb(n, i) for i in range(min(wins, losses) + 1))
    return min(1.0, 2 * tail / 2**n)


def corrected_t(deltas, test_train_ratio: float) -> float | None:
    """Nadeau and Bengio's corrected resampled t of k per-fold differences,
    mean / sqrt((1/k + n_test/n_train) * sample variance), on k - 1 degrees
    of freedom (Nadeau & Bengio, Machine Learning 2003).  None when the
    differences do not vary, where t is undefined."""
    d = np.asarray(deltas, dtype=float)
    variance = float(np.var(d, ddof=1))
    if variance == 0.0:
        return None
    return float(np.mean(d)) / math.sqrt((1.0 / d.size + test_train_ratio) * variance)


def paired_against(row: CellResult, none_row: CellResult) -> CellResult:
    """`row` with its per-fold accuracy differences from `none_row`, the
    `none` row of its classifier on the same test folds, and their mean,
    wins / ties / losses, sign-test p and corrected t."""
    deltas = [a - b for a, b in zip(row.fold_accuracies, none_row.fold_accuracies)]
    k = len(deltas)
    wins = sum(d > 0 for d in deltas)
    losses = sum(d < 0 for d in deltas)
    return replace(
        row,
        fold_deltas=tuple(deltas),
        delta_mean=float(np.mean(deltas)),
        wins=wins,
        ties=k - wins - losses,
        losses=losses,
        sign_p=sign_test_p(wins, losses),
        # every row is tested once, so n_test / n_train = (n / k) / (n - n / k)
        corrected_t=corrected_t(deltas, 1.0 / (k - 1)),
        t_df=k - 1,
    )


def run_matrix(cfg: ExperimentConfig, table: GasTable | None = None) -> ExperimentReport:
    """All requested cells in deterministic order, on `table` or the
    configured data, with every non-`none` row paired against its
    classifier's `none` row.  The cells are planned through one `_once` memo,
    each distinct training runs once on `_worker_count` processes (OpenBLAS
    is looked up once per call), and the rows are assembled from them."""
    table = resolve_data(cfg) if table is None else table
    cells = [(p, c) for p in PREPROCESSORS for c in CLASSIFIERS]
    cells = [(p, c) for p, c in cells if p in cfg.preprocessors and c in cfg.classifiers]
    memo: dict = {}  # fold plans and fitted reducers
    plans = [_plan_cell(cfg, pre, clf, table, memo) for pre, clf in cells]
    tasks = {key: task for folds, _ in plans for *_, key, task in folds}
    setter = _blas_threads_setter()
    outcomes = _train_all(list(tasks.values()), _worker_count(len(tasks), setter), setter)
    trainings, sources = dict(zip(tasks, outcomes)), {}
    rows = [_assemble(cfg, *cell, *plan, trainings, sources) for cell, plan in zip(cells, plans)]
    base = {r.classifier: r for r in rows if r.preprocessor == "none" and not r.failed}
    rows = [
        paired_against(r, base[r.classifier])
        if r.preprocessor != "none" and not r.failed and r.classifier in base
        else r
        for r in rows
    ]
    return ExperimentReport(tuple(rows), cfg.seed, _settings_summary(cfg))


def run_cell(
    cfg: ExperimentConfig, preprocessor: str, classifier: str, table: GasTable | None = None
) -> CellResult:
    """The row of a one-cell `run_matrix`.  It stays only because the
    benchmark's tracer wraps it by name."""
    one = replace(cfg, preprocessors=(preprocessor,), classifiers=(classifier,))
    return run_matrix(one, table).rows[0]


REPORT_FORMATS = ("table", "json", "csv")


def _text(form: str, value) -> str:
    """`value` in `form`, or blank when there is none."""
    return "" if value is None else form % value


# One entry per report column, in CSV order: the CSV name, the table header
# (None for a CSV-only column) and the cell text of a row.
_COLUMNS = (
    ("preprocessor", "Preprocessor", lambda r: r.preprocessor),
    ("classifier", "Classifier", lambda r: r.classifier),
    ("folds", "k-Folds", lambda r: str(r.folds)),
    ("accuracy_mean", "Average Accuracy (%)", lambda r: "%.1f" % r.accuracy_mean),
    ("accuracy_std", None, lambda r: "%.3f" % r.accuracy_std),
    ("delta_mean", "Delta vs none", lambda r: _text("%+.2f", r.delta_mean)),
    ("time_mean", "Average Training Time(s)", lambda r: "%.2f" % r.time_mean),
    ("kept", "Kept", lambda r: r.kept),
    ("stop_reasons", None,
     lambda r: ";".join(f"{k}:{v}" for k, v in sorted(r.stop_reasons.items()))),
    ("warnings", None, lambda r: "|".join(r.warnings)),
    ("failed", None, lambda r: str(int(r.failed))),
    ("error", None, lambda r: r.error or ""),
    ("same_training_as", None, lambda r: r.same_training_as),
    ("fold_deltas", None, lambda r: ";".join("%.6g" % d for d in r.fold_deltas)),
    ("wins", None, lambda r: _text("%d", r.wins)),
    ("ties", None, lambda r: _text("%d", r.ties)),
    ("losses", None, lambda r: _text("%d", r.losses)),
    ("sign_p", None, lambda r: _text("%.4g", r.sign_p)),
    ("corrected_t", None, lambda r: _text("%.4g", r.corrected_t)),
    ("t_df", None, lambda r: _text("%d", r.t_df)),
)


def emit_report(report: ExperimentReport, format: str = "table") -> str:
    """Render a report as an aligned table, JSON, or CSV."""
    if not report.rows:
        raise ParameterError("report has no rows")
    if format not in REPORT_FORMATS:
        raise ParameterError(f"unknown report format {format!r}")
    if format == "json":
        return json.dumps(report.to_dict(), indent=2)
    if format == "csv":
        buf = io.StringIO()
        writer = _csv.writer(buf)
        writer.writerow(name for name, _, _ in _COLUMNS)
        for r in report.rows:
            writer.writerow(cell(r) for _, _, cell in _COLUMNS)
        return buf.getvalue()
    shown = [(name, header) for name, header, _ in _COLUMNS if header]
    cells = [[header for _, header in shown]]
    for r in report.rows:
        text = {name: cell(r) for name, _, cell in _COLUMNS}
        if r.failed:
            text.update(accuracy_mean="FAILED", time_mean="-", kept=r.error or "")
        cells.append([text[name] for name, _ in shown])
    widths = [max(map(len, column)) for column in zip(*cells)]
    lines = ["  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() for row in cells]
    lines.insert(1, "  ".join("-" * w for w in widths))
    if report.settings:
        lines.append("")
        lines.append("settings: " + "  ".join(f"{k}={v}" for k, v in report.settings))
    return "\n".join(lines) + "\n"
