"""Per-layer instrumentation of dgareduce for the traced passes.

Each layer is a module of the package.  `Layers.install` wraps the public
functions the workloads reach, under every name a caller looks them up by
(`pipeline` and `granular` import `reduct_search` by name, for instance), and
`Layers.metrics` turns the recorded spans into the per-layer metrics.  Counts
come from objects the layers already return: `SvmModel`, `TrainingTrace`,
`ReductionResult.diagnostics` and `GasTable.dropped_rows`.
"""

from __future__ import annotations

import statistics

from dgareduce import (
    bpnn,
    dataset,
    dtree,
    errors,
    granular,
    pca,
    pipeline,
    reduction,
    rnn,
    roughset,
    svm,
)

from spans import Tracer

MODULES = (dataset, pca, roughset, granular, dtree, pipeline, svm, bpnn, rnn, reduction, errors)
CLASSES = (dataset.Discretizer, rnn.Intervalizer)
REDUCED = ("pca", "rs", "gr", "dt")

PER_LAYER = (
    "dataset.load_csv_s",
    "dataset.rows_dropped",
    "dataset.discretize_s",
    "dataset.standardize_s",
    "pca.fit_s",
    "roughset.reduct_search_s",
    "roughset.reduct_search_calls",
    "granular.rank_reduce_self_s",
    "granular.granules",
    "dtree.build_s",
    "dtree.prune_s",
    "pipeline.fit_reducer_s",
    "pipeline.fit_reducer_calls",
    "pipeline.run_cell_self_s",
    "svm.train_s",
    "svm.kernel_s",
    "svm.smo_self_s",
    "svm.kernel_bytes",
    "svm.sweeps",
    "svm.converged_share",
    "svm.sv_mean",
    "svm.kkt_rate_min",
    "svm.evaluate_s",
    "bpnn.train_s",
    "bpnn.epochs",
    "bpnn.epoch_ms.full",
    "bpnn.epoch_ms.reduced",
    "bpnn.evaluate_s",
    "rnn.train_s",
    "rnn.epochs",
    "rnn.epoch_ms.full",
    "rnn.epoch_ms.reduced",
    "rnn.intervalize_s",
    "rnn.evaluate_s",
    "trace.overhead_s",
)


def _note(**fields):
    def observe(span, args, kwargs, result):
        span.attrs.update({key: get(args, kwargs, result) for key, get in fields.items()})

    return observe


class Layers:
    """Wrappers for one traced pass, and the svm fits it saw (checked for
    KKT once the wrappers are gone)."""

    def __init__(self):
        self.svm_fits: list[tuple[svm.SvmModel, dataset.Table, float]] = []

    def _keep_svm_fit(self, span, args, kwargs, model):
        span.attrs.update(
            sweeps=model.sweeps,
            converged=model.converged,
            sv=len(model.support_alphas),
            kkt=model.training_kkt_rate,
        )
        self.svm_fits.append((model, args[0], kwargs.get("tol", 1e-3)))

    def install(self, tracer: Tracer) -> None:
        def wrap(owner, attr, name, observe=None, owners=MODULES):
            if tracer.wrap((owner, *owners), attr, name, observe) == 0:
                raise RuntimeError(f"nothing to wrap for {name}")

        wrap(dataset, "load_csv", "dataset.load_csv", _note(dropped=lambda a, k, r: r.dropped_rows))
        wrap(dataset, "standardize", "dataset.standardize")
        for attr in ("fit", "apply"):
            wrap(dataset.Discretizer, attr, "dataset.discretize", owners=())
            wrap(rnn.Intervalizer, attr, "rnn.intervalize", owners=())
        wrap(pca, "fit_projection", "pca.fit_projection")
        wrap(roughset, "reduct_search", "roughset.reduct_search")
        wrap(
            granular,
            "incremental_rank_reduce",
            "granular.incremental_rank_reduce",
            _note(granules=lambda a, k, r: r.diagnostics["granules"]),
        )
        wrap(dtree, "build_tree", "dtree.build_tree")
        wrap(dtree, "prune", "dtree.prune")
        wrap(pipeline, "fit_reducer", "pipeline.fit_reducer")
        wrap(pipeline, "run_cell", "pipeline.run_cell", _note(pre=lambda a, k, r: r.preprocessor))
        wrap(svm, "train_smo", "svm.train_smo", self._keep_svm_fit)
        wrap(
            svm,
            "kernel_matrix",
            "svm.kernel_matrix",
            _note(bytes=lambda a, k, r: r.shape[0] * r.shape[1] * 8),
        )
        wrap(svm, "evaluate", "svm.evaluate")
        epochs = _note(epochs=lambda a, k, r: r.trace.epochs_run)
        for name, module in (("bpnn", bpnn), ("rnn", rnn)):
            wrap(module, "train", f"{name}.train", epochs)
            wrap(module, "evaluate", f"{name}.evaluate")

    @staticmethod
    def metrics(tracer: Tracer) -> dict[str, float]:
        """Per-layer metrics of one traced pass (no `trace.overhead_s`)."""

        def attrs(name, key):
            return [tracer.spans[i].attrs[key] for i in tracer.named(name)]

        m = {
            "dataset.load_csv_s": tracer.inclusive("dataset.load_csv"),
            "dataset.rows_dropped": sum(attrs("dataset.load_csv", "dropped")),
            "dataset.discretize_s": tracer.inclusive("dataset.discretize"),
            "dataset.standardize_s": tracer.inclusive("dataset.standardize"),
            "pca.fit_s": tracer.inclusive("pca.fit_projection"),
            "roughset.reduct_search_s": tracer.inclusive("roughset.reduct_search"),
            "roughset.reduct_search_calls": len(tracer.named("roughset.reduct_search")),
            "granular.rank_reduce_self_s": tracer.self_time("granular.incremental_rank_reduce"),
            "granular.granules": sum(attrs("granular.incremental_rank_reduce", "granules")),
            "dtree.build_s": tracer.inclusive("dtree.build_tree"),
            "dtree.prune_s": tracer.inclusive("dtree.prune"),
            "pipeline.fit_reducer_s": tracer.inclusive("pipeline.fit_reducer"),
            "pipeline.fit_reducer_calls": len(tracer.named("pipeline.fit_reducer")),
            "pipeline.run_cell_self_s": tracer.self_time("pipeline.run_cell"),
            "svm.train_s": tracer.inclusive("svm.train_smo"),
            "svm.kernel_s": tracer.inclusive("svm.kernel_matrix"),
            "svm.smo_self_s": tracer.self_time("svm.train_smo"),
            "svm.kernel_bytes": sum(attrs("svm.kernel_matrix", "bytes")),
            "svm.sweeps": sum(attrs("svm.train_smo", "sweeps")),
            "svm.evaluate_s": tracer.inclusive("svm.evaluate"),
            "rnn.intervalize_s": tracer.inclusive("rnn.intervalize"),
        }
        converged, support = attrs("svm.train_smo", "converged"), attrs("svm.train_smo", "sv")
        m["svm.converged_share"] = sum(converged) / len(converged) if converged else 0.0
        m["svm.sv_mean"] = statistics.fmean(support) if support else 0.0
        m["svm.kkt_rate_min"] = min(attrs("svm.train_smo", "kkt"), default=0.0)
        for clf in ("bpnn", "rnn"):
            m[f"{clf}.train_s"] = tracer.inclusive(f"{clf}.train")
            m[f"{clf}.epochs"] = sum(attrs(f"{clf}.train", "epochs"))
            m[f"{clf}.evaluate_s"] = tracer.inclusive(f"{clf}.evaluate")
            per_cell: dict[str, list[float]] = {}
            for i in tracer.named(f"{clf}.train"):
                span, cell = tracer.spans[i], tracer.ancestor(i, "pipeline.run_cell")
                if cell is not None:
                    ms = 1000.0 * span.duration / span.attrs["epochs"]
                    per_cell.setdefault(cell.attrs["pre"], []).append(ms)
            full = per_cell.get("none", [])
            reduced = [statistics.fmean(per_cell[p]) for p in REDUCED if p in per_cell]
            m[f"{clf}.epoch_ms.full"] = statistics.fmean(full) if full else 0.0
            m[f"{clf}.epoch_ms.reduced"] = statistics.fmean(reduced) if reduced else 0.0
        return m

    def kkt_failures(self) -> list[str]:
        """Converged svm fits whose training fold does not fully satisfy KKT."""
        bad = []
        for n, (model, table, tol) in enumerate(self.svm_fits):
            if model.converged:
                rate = svm.check_kkt(model, table, tol)
                if rate != 1.0:
                    bad.append(f"fit {n}: check_kkt = {rate!r}")
        return bad
