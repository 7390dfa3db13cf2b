"""The benchmark's workloads: inputs made from a seed, one timed pass, and
the checks its outputs must pass.  WORKLOADS.md records why each was chosen.

A matrix pass is what `dgareduce matrix` does in-process: `run_matrix` on
one synthetic table plus `emit_report`.  A reduce pass is what
`dgareduce reduce` does for every method on both CSVs: `load_csv`, then
`fit_reducer` and `transform`.
"""

from __future__ import annotations

import os
import statistics
import time
from dataclasses import dataclass, replace

import numpy as np

from dgareduce import bpnn, dataset, pipeline, roughset

INFORMATIVE = ("hydrogen", "methane", "ethylene")


class CheckFailed(Exception):
    """An output check failed; the message starts with the check's name."""


def require(ok: bool, check: str, detail: str = "") -> None:
    if not ok:
        raise CheckFailed(f"{check}: {detail}" if detail else check)


@dataclass(frozen=True)
class PassResult:
    seconds: float  # wall time of the pass
    train_seconds: float  # the report's training-time column, summed
    accuracy: dict  # cell or reducer fit -> accuracy %
    signature: tuple  # accuracy columns and kept sets; must repeat exactly
    attempted: int  # report cells or reducer fits


class MatrixWorkload:
    """Each pass runs the matrix on one of `tables` seeded synthetic tables;
    a run cycles through them, so seed-to-seed differences in the data
    average out inside one run."""

    tables = 3

    def __init__(self, cfg: pipeline.ExperimentConfig, accuracy_floor: float | None = None):
        self.cfg = cfg
        self.accuracy_floor = accuracy_floor

    def setup(self, seed: int, workdir: str) -> list[pipeline.ExperimentConfig]:
        seeds = np.random.SeedSequence(seed).generate_state(self.tables)
        configs = [replace(self.cfg, seed=int(s)) for s in seeds]
        for cfg in configs:
            pipeline.resolve_data(cfg)  # the synthetic table, as run_matrix builds it
        return configs

    def timed(self, cfg: pipeline.ExperimentConfig):
        """One pass; returns its wall time and what `result` checks."""
        started = time.perf_counter()
        report = pipeline.run_matrix(cfg)
        pipeline.emit_report(report, "table")
        pipeline.emit_report(report, "json")
        return time.perf_counter() - started, (cfg, report)

    def result(self, seconds: float, outputs) -> PassResult:
        cfg, report = outputs
        cells = [(pre, clf) for pre in cfg.preprocessors for clf in cfg.classifiers]
        got = [(r.preprocessor, r.classifier) for r in report.rows]
        require(got == cells, "cells-complete", f"report rows {got}, expected {cells}")
        for r in report.rows:
            require(not r.failed, "cells-ok", f"{r.preprocessor}x{r.classifier}: {r.error}")
        return PassResult(
            seconds=seconds,
            train_seconds=sum(r.time_mean * r.folds for r in report.rows),
            accuracy={f"{r.preprocessor}x{r.classifier}": r.accuracy_mean for r in report.rows},
            signature=tuple(
                (r.accuracy_mean, r.accuracy_std, r.kept, r.fold_accuracies) for r in report.rows
            ),
            attempted=len(report.rows),
        )

def _pattern_accuracy(table: dataset.Table) -> float:
    """Accuracy of the majority decision per discretized row pattern: how much
    of the decision the kept columns explain."""
    cats = dataset.discretize(table)
    _, inverse = np.unique(cats.values, axis=0, return_inverse=True)
    inverse = inverse.ravel()
    sizes = np.bincount(inverse)
    ones = np.bincount(inverse, weights=cats.decisions)
    return 100.0 * float(np.maximum(ones, sizes - ones).sum()) / cats.n_rows


class ReduceWorkload:
    """Two large CSVs, one per noise level, each with some unusable rows that
    `load_csv` must drop; every pass reads both and fits every reducer."""

    accuracy_floor = None
    rows = 40_000
    noises = (0.25, 0.9)
    bad_rows = 200
    methods = ("pca", "rs", "gr", "dt")

    def setup(self, seed: int, workdir: str) -> list[tuple[tuple[str, ...], int]]:
        seeds = np.random.SeedSequence(seed).generate_state(len(self.noises) + 1)
        paths = []
        for noise, table_seed in zip(self.noises, seeds):
            path = os.path.join(workdir, f"gas-noise{noise}.csv")
            table = dataset.synth_generate(self.rows, 0.5, noise, int(table_seed))
            dataset.write_csv(table, path)
            self._append_bad_rows(path, table, np.random.default_rng(table_seed))
            paths.append(path)
        return [(tuple(paths), int(seeds[-1]))]

    def _append_bad_rows(self, path: str, table: dataset.Table, rng) -> None:
        """Rows with an empty cell, a non-number, a NaN, or a missing cell."""
        lines = []
        for row, kind, col in zip(
            rng.integers(0, table.n_rows, self.bad_rows),
            rng.integers(0, 4, self.bad_rows),
            rng.integers(0, table.n_attributes, self.bad_rows),
        ):
            cells = ["%.9g" % v for v in table.values[row]] + [str(table.decisions[row])]
            if kind == 3:
                del cells[col]
            else:
                cells[col] = ("", "n/a", "nan")[kind]
            lines.append(",".join(cells))
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")

    def timed(self, inputs):
        """One pass; returns its wall time and what `result` checks."""
        paths, seed = inputs
        cfg = pipeline.ExperimentConfig(seed=seed)
        fits, fit_seconds = [], 0.0
        started = time.perf_counter()
        for path in paths:
            table = dataset.load_csv(path)
            for method in self.methods:
                fit_started = time.perf_counter()
                reducer = pipeline.fit_reducer(table, method, cfg, seed)
                reduced = reducer.transform(table)
                fit_seconds += time.perf_counter() - fit_started
                fits.append((path, table, method, reducer, reduced))
        return time.perf_counter() - started, (fit_seconds, fits)

    def result(self, seconds: float, outputs) -> PassResult:
        fit_seconds, fits = outputs
        accuracy, signature = {}, []
        for path, table, method, reducer, reduced in fits:
            name = os.path.basename(path)
            require(
                table.dropped_rows == self.bad_rows,
                "rows-dropped",
                f"{name}: dropped {table.dropped_rows}, expected {self.bad_rows}",
            )
            if method == "rs":
                system = roughset.InformationSystem.from_table(dataset.discretize(table))
                gamma = roughset.degree_of_dependency(system, reducer.result.kept)
                full = reducer.result.diagnostics["gamma_full"]
                require(gamma == full, "rs-dependency", f"{name}: gamma(kept) {gamma} != {full}")
            label = f"{name}:{method}"
            accuracy[label] = _pattern_accuracy(reduced)
            signature.append((label, reducer.kept_label))
        return PassResult(
            seconds=seconds,
            train_seconds=fit_seconds,
            accuracy=accuracy,
            signature=tuple(signature),
            attempted=len(fits),
        )


WORKLOADS = {
    # The acceptance criterion-9 configuration, on smaller tables (WORKLOADS.md).
    "matrix-c9": MatrixWorkload(
        pipeline.ExperimentConfig(
            synth=pipeline.SynthSpec(n=600, informative=INFORMATIVE),
            folds_bpnn=5,
            folds_svm=5,
            folds_rnn=5,
            mlp=bpnn.MlpConfig(epochs=150, hidden=(12,), learning_rate=0.05),
            svm_max_passes=50,
            gr_chunk_size=250,
            gr_carry=1,
        ),
        accuracy_floor=90.0,
    ),
    # README defaults for data and MLP, gradient-descent classifiers only.
    "nets-readme": MatrixWorkload(
        pipeline.ExperimentConfig(
            classifiers=("bpnn", "rnn"),
            folds_bpnn=5,
            folds_rnn=5,
            mlp=bpnn.MlpConfig(epochs=50),
        )
    ),
    "reduce-40k": ReduceWorkload(),
}


def pooled_accuracy(first_passes: list[PassResult]) -> dict[str, float]:
    """Each cell's accuracy averaged over the distinct inputs a run covered."""
    return {
        key: statistics.fmean(p.accuracy[key] for p in first_passes)
        for key in first_passes[0].accuracy
    }


def check_accuracy_floor(floor: float | None, pooled: dict[str, float]) -> None:
    if floor is None:
        return
    for cell, acc in pooled.items():
        require(
            acc >= floor,
            "accuracy-floor",
            f"{cell} averages {acc:.2f} % over the run's tables, below {floor} %",
        )
