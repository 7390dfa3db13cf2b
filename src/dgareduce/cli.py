"""Command-line front end: dataset synthesis, discretization, attribute
reduction, single-classifier training, the full experiment matrix, and report
format conversion.

Exit codes: 0 on success, 2 on a configuration error, 3 when any matrix cell
failed.
"""

from __future__ import annotations

import configparser
import json
import sys
from dataclasses import replace

import click

from . import bpnn, dtree, pca, pipeline, rnn, svm
from .dataset import (
    Discretizer,
    discretize as discretize_table,
    load_csv,
    standardize,
    synth_generate,
    write_csv,
)
from .errors import ConfigError, DgaError
from .rnn import Intervalizer


@click.group()
def main():
    """Transformer-bushing fault detection from dissolved gas analysis:
    attribute reducers, classifiers, and a cross-validated experiment matrix."""


def _fail_config(message: str):
    click.echo(f"config error: {message}", err=True)
    sys.exit(2)


@main.command()
@click.option("--rows", "-n", default=2000, show_default=True, help="Row count.")
@click.option("--fault-ratio", default=0.5, show_default=True)
@click.option("--noise", default=0.25, show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--informative", default=None, help="Comma list of informative gases.")
@click.option("--out", required=True, type=click.Path(dir_okay=False))
def synth(rows, fault_ratio, noise, seed, informative, out):
    """Write a synthetic gas table as CSV."""
    gases = tuple(informative.split(",")) if informative else None
    try:
        table = synth_generate(rows, fault_ratio, noise, seed, informative=gases)
    except DgaError as exc:
        _fail_config(str(exc))
    write_csv(table, out)
    click.echo(f"wrote {table.n_rows} rows to {out}")


@main.command()
@click.option("--in", "path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--out", required=True, type=click.Path(dir_okay=False))
def discretize(path, out):
    """Discretize a gas table into categories 1..4 and write it as CSV."""
    try:
        table = load_csv(path)
    except DgaError as exc:
        _fail_config(str(exc))
    write_csv(discretize_table(table), out)
    click.echo(f"wrote {table.n_rows} discretized rows to {out}")


@main.command()
@click.option("--in", "path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--method", type=click.Choice(["pca", "rs", "gr", "dt"]), required=True)
@click.option("--components", default=3, show_default=True, help="PCA components kept.")
@click.option("--threshold", default=None, type=float, help="PCA cumulative proportion %.")
@click.option("--chunk-size", default=250, show_default=True, help="Granular chunk size.")
@click.option("--carry", default=1, show_default=True, help="Granules carried per chunk.")
@click.option("--criterion", type=click.Choice(list(dtree.CRITERIA)), default="gain_ratio",
              show_default=True)
@click.option("--min-rows", default=2, show_default=True)
@click.option("--prune-fraction", default=0.15, show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--out", default=None, type=click.Path(dir_okay=False))
@click.option("--projection-out", default=None, type=click.Path(dir_okay=False),
              help="Also export the PCA projection basis.")
def reduce(path, method, components, threshold, chunk_size, carry, criterion,
           min_rows, prune_fraction, seed, out, projection_out):
    """Run one attribute-reduction method and print or save its result."""
    try:
        table = load_csv(path)
        cfg = pipeline.ExperimentConfig(
            pca_components=None if threshold is not None else components,
            pca_threshold=threshold,
            gr_chunk_size=chunk_size,
            gr_carry=carry,
            dt_criterion=criterion,
            dt_min_rows=min_rows,
            dt_prune_fraction=prune_fraction,
            seed=seed,
        )
        reducer = pipeline.fit_reducer(table, method, cfg, seed)
    except DgaError as exc:
        _fail_config(str(exc))
    text = reducer.result.to_text()
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
        click.echo(f"wrote reduction result to {out}")
    else:
        click.echo(text, nl=False)
    if projection_out and reducer.projection is not None:
        pca.save_projection(reducer.projection, projection_out)
        click.echo(f"wrote projection to {projection_out}")


@main.command()
@click.option("--in", "path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--clf", type=click.Choice(list(pipeline.CLASSIFIERS)), required=True)
@click.option("--config", "config_path", default=None, type=click.Path(exists=True))
@click.option("--seed", default=0, show_default=True)
@click.option("--model-out", default=None, type=click.Path(dir_okay=False))
def train(path, clf, config_path, seed, model_out):
    """Train one classifier on a CSV table (standardized internally)."""
    try:
        cfg = _config_from_ini(config_path) if config_path else pipeline.ExperimentConfig()
        table = load_csv(path)
        std, scaler = standardize(table)
        if clf == "bpnn":
            model = bpnn.train(std, replace(cfg.mlp, seed=seed))
        elif clf == "svm":
            model = svm.train_smo(
                std, cfg.kernel, c=cfg.svm_c, tol=cfg.svm_tol, max_passes=cfg.svm_max_passes
            )
        else:
            categorical = Discretizer.fit(table).apply(table)
            intervals = Intervalizer.fit(categorical, std).apply(categorical, std)
            model = rnn.train(intervals, replace(cfg.mlp, seed=seed),
                              connection=cfg.rnn_connection)
        model.scaler = scaler
        if model_out:
            {"bpnn": bpnn, "svm": svm, "rnn": rnn}[clf].save_model(model, model_out)
    except DgaError as exc:
        _fail_config(str(exc))
    if clf == "svm":
        click.echo(
            f"trained {clf}: converged={model.converged} sweeps={model.sweeps} "
            f"support-vectors={len(model.support_alphas)} time={model.train_time:.2f}s"
        )
    else:
        trace = model.trace
        click.echo(
            f"trained {clf}: stop={trace.stop_reason} epochs={trace.epochs_run} "
            f"final-error={trace.train_errors[-1]:.6g} time={trace.train_time:.2f}s"
        )
    if model_out:
        click.echo(f"wrote model to {model_out}")


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--json-out", default=None, type=click.Path(dir_okay=False))
@click.option("--format", "fmt", type=click.Choice(["table", "json", "csv"]),
              default="table", show_default=True)
def matrix(config_path, json_out, fmt):
    """Run the preprocessor x classifier experiment matrix from an INI config."""
    try:
        cfg = _config_from_ini(config_path)
    except (ConfigError, DgaError, ValueError) as exc:
        _fail_config(str(exc))
    report = pipeline.run_matrix(cfg)
    click.echo(pipeline.emit_report(report, fmt), nl=False)
    if json_out:
        with open(json_out, "w", encoding="utf-8") as fh:
            fh.write(pipeline.emit_report(report, "json"))
        click.echo(f"wrote report to {json_out}")
    if report.any_failed:
        sys.exit(3)


@main.command()
@click.option("--in", "path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--format", "fmt", type=click.Choice(["table", "json", "csv"]),
              default="table", show_default=True)
def report(path, fmt):
    """Re-render a saved JSON report in another format."""
    with open(path, encoding="utf-8") as fh:
        saved = pipeline.ExperimentReport.from_dict(json.load(fh))
    click.echo(pipeline.emit_report(saved, fmt), nl=False)


def _config_from_ini(path) -> pipeline.ExperimentConfig:
    """Build an ExperimentConfig from flat key = value sections.

    Every key that is absent, or present with an empty value, keeps the
    default of the config field it sets.  The one exception is `[data]
    informative`: absent, every gas is informative; empty, none is.
    """
    parser = configparser.ConfigParser()
    if not parser.read(path):
        raise ConfigError(f"cannot read config file {path}")

    def given(section, prefix="", **getters):
        """The section's non-empty keys among `getters`, each read by its
        getter and keyed by `prefix` + key."""
        return {
            prefix + key: get(section, key)
            for key, get in getters.items()
            if parser.get(section, key, fallback="")
        }

    def listed(section, key, parse=str):
        return tuple(parse(v.strip()) for v in parser.get(section, key).split(","))

    default = pipeline.ExperimentConfig()
    text, integer, real = parser.get, parser.getint, parser.getfloat
    try:
        fields = {}
        source = parser.get("data", "source", fallback="") or "synth"
        if source == "csv":
            fields["csv_path"] = parser.get("data", "path", fallback="")
            if not fields["csv_path"]:
                raise ConfigError("[data] path is required when source = csv")
        elif source == "synth":
            synth = given("data", n=integer, fault_ratio=real, noise=real)
            if parser.has_option("data", "informative"):
                gases = listed("data", "informative")
                synth["informative"] = tuple(g for g in gases if g)
            fields["synth"] = replace(default.synth, **synth)
        else:
            raise ConfigError(f"[data] source must be synth or csv, got {source!r}")
        fields.update(
            given(
                "experiment", preprocessors=listed, classifiers=listed, seed=integer,
                strict_no_leakage=parser.getboolean, folds_bpnn=integer, folds_svm=integer,
                folds_rnn=integer,
            )
        )
        fields.update(given("pca", "pca_", components=integer, threshold=real))
        if "pca_threshold" in fields:
            fields["pca_components"] = None
        fields.update(given("gr", "gr_", chunk_size=integer, carry=integer))
        fields.update(given("dt", "dt_", criterion=text, min_rows=integer, prune_fraction=real))
        fields["mlp"] = replace(
            default.mlp,
            **given(
                "bpnn", epochs=integer, learning_rate=real, goal=real, max_fail=integer,
                hidden=lambda s, k: listed(s, k, int), ratios=lambda s, k: listed(s, k, float),
            ),
        )
        kernel = given(
            "svm", kernel=text, degree=integer, coef=real, gamma=real, scale=real, offset=real
        )
        if "kernel" in kernel:
            kernel["kind"] = kernel.pop("kernel")
        fields["kernel"] = replace(default.kernel, **kernel)
        fields.update(given("svm", "svm_", c=real, tol=real, max_passes=integer))
        fields.update(given("rnn", "rnn_", connection=text))
        return replace(default, **fields)
    except (ValueError, KeyError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


if __name__ == "__main__":
    main()
