"""Command-line front end: dataset synthesis, discretization, attribute
reduction, single-classifier training, the full experiment matrix, and report
format conversion.

The commands that fit a reducer or a classifier (`reduce`, `train`, `matrix`)
read their settings from one INI config through `_config_from_ini`; without
`--config`, `reduce` and `train` run at the `ExperimentConfig` defaults.

Exit codes: 0 on success, 2 on a configuration error, 3 when any matrix cell
failed.
"""

from __future__ import annotations

import configparser
import json
import sys
from dataclasses import replace

import click

from . import pipeline
from .dataset import discretize as discretize_table, load_csv, synth_generate, write_csv
from .errors import ConfigError, DgaError

_CONFIG = pipeline.ExperimentConfig()


@click.group()
def main():
    """Transformer-bushing fault detection from dissolved gas analysis:
    attribute reducers, classifiers, and a cross-validated experiment matrix."""


def _fail_config(message: str):
    click.echo(f"config error: {message}", err=True)
    sys.exit(2)


@main.command()
@click.option("--rows", "-n", default=_CONFIG.synth.n, show_default=True, help="Row count.")
@click.option("--fault-ratio", default=_CONFIG.synth.fault_ratio, show_default=True)
@click.option("--noise", default=_CONFIG.synth.noise, show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--informative", default=None, help="Comma list of informative gases.")
@click.option("--out", required=True, type=click.Path(dir_okay=False))
def synth(rows, fault_ratio, noise, seed, informative, out):
    """Write a synthetic gas table as CSV."""
    gases = None if informative is None else _names(informative)
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
@click.option("--method", type=click.Choice(pipeline.PREPROCESSORS[1:]), required=True)
@click.option("--config", "config_path", default=None, type=click.Path(exists=True))
@click.option("--out", default=None, type=click.Path(dir_okay=False))
def reduce(path, method, config_path, out):
    """Run one attribute-reduction method and print or save its result.

    The config's [pca], [gr] and [dt] sections set the reducer; its
    [experiment] seed seeds dt's grow/prune split."""
    try:
        cfg = _config_from_ini(config_path) if config_path else _CONFIG
        reducer = pipeline.fit_reducer(load_csv(path), method, cfg, cfg.seed)
    except DgaError as exc:
        _fail_config(str(exc))
    text = reducer.result.to_text()
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
        click.echo(f"wrote reduction result to {out}")
    else:
        click.echo(text, nl=False)


@main.command()
@click.option("--in", "path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--clf", type=click.Choice(list(pipeline.CLASSIFIERS)), required=True)
@click.option("--config", "config_path", default=None, type=click.Path(exists=True))
@click.option("--seed", default=_CONFIG.mlp.seed, show_default=True)
@click.option("--model-out", default=None, type=click.Path(dir_okay=False))
def train(path, clf, config_path, seed, model_out):
    """Train one classifier on a CSV table (standardized internally)."""
    try:
        cfg = _config_from_ini(config_path) if config_path else _CONFIG
        mlp = replace(cfg.mlp, seed=seed)
        fitted = pipeline.fit_classifier(clf, cfg, load_csv(path), mlp)
        model = fitted.model
        if model_out:
            pipeline.MODELS[clf].save_model(model, model_out)
    except DgaError as exc:
        _fail_config(str(exc))
    if clf == "svm":
        click.echo(
            f"trained {clf}: converged={model.converged} sweeps={model.sweeps} "
            f"support-vectors={len(model.support_alphas)} time={fitted.seconds:.2f}s"
        )
    else:
        trace = model.trace
        click.echo(
            f"trained {clf}: stop={trace.stop_reason} epochs={trace.epochs_run} "
            f"final-error={trace.train_errors[-1]:.6g} time={fitted.seconds:.2f}s"
        )
    if model_out:
        click.echo(f"wrote model to {model_out}")


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--json-out", default=None, type=click.Path(dir_okay=False))
@click.option("--format", "fmt", type=click.Choice(pipeline.REPORT_FORMATS),
              default="table", show_default=True)
def matrix(config_path, json_out, fmt):
    """Run the preprocessor x classifier experiment matrix from an INI config."""
    try:
        cfg = _config_from_ini(config_path)
    except (ConfigError, DgaError, ValueError) as exc:
        _fail_config(str(exc))
    try:
        report = pipeline.run_matrix(cfg)  # each cell contains its own errors
    except (DgaError, OSError) as exc:
        _fail_config(str(exc))
    click.echo(pipeline.emit_report(report, fmt), nl=False)
    if json_out:
        with open(json_out, "w", encoding="utf-8") as fh:
            fh.write(pipeline.emit_report(report, "json"))
        click.echo(f"wrote report to {json_out}")
    if report.any_failed:
        sys.exit(3)


@main.command()
@click.option("--in", "path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--format", "fmt", type=click.Choice(pipeline.REPORT_FORMATS),
              default="table", show_default=True)
def report(path, fmt):
    """Re-render a saved JSON report in another format."""
    try:
        with open(path, encoding="utf-8") as fh:
            saved = pipeline.ExperimentReport.from_dict(json.load(fh))
        text = pipeline.emit_report(saved, fmt)
    except (DgaError, ValueError, KeyError, TypeError) as exc:
        _fail_config(f"{path}: not a saved report: {type(exc).__name__}: {exc}")
    click.echo(text, nl=False)


def _names(text: str) -> tuple[str, ...]:
    """The non-empty names of a comma list, stripped."""
    return tuple(name for name in (v.strip() for v in text.split(",")) if name)


def _config_from_ini(path) -> pipeline.ExperimentConfig:
    """Build an ExperimentConfig from flat key = value sections.

    Every key that is absent, or present with an empty value, keeps the
    default of the config field it sets.  The one exception is `[data]
    informative`: absent, every gas is informative; empty, none is.  A
    section or key that sets no field is an error.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        if not parser.read(path):
            raise ConfigError(f"cannot read config file {path}")
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc

    known = {}

    def given(section, prefix="", **getters):
        """The section's non-empty keys among `getters`, each read by its
        getter and keyed by `prefix` + key; every key of `getters` is a
        known key of the section."""
        known.setdefault(section, set()).update(getters)
        return {
            prefix + key: get(section, key)
            for key, get in getters.items()
            if parser.get(section, key, fallback="")
        }

    def listed(section, key, parse=str):
        return tuple(parse(v.strip()) for v in parser.get(section, key).split(","))

    default = _CONFIG
    text, integer, real = parser.get, parser.getint, parser.getfloat
    try:
        fields = {}
        synth = given(
            "data", source=text, path=text, n=integer, fault_ratio=real, noise=real,
            informative=lambda s, k: _names(text(s, k)),
        )
        source, csv_path = synth.pop("source", "synth"), synth.pop("path", "")
        if parser.has_option("data", "informative"):
            synth.setdefault("informative", ())
        if source == "csv":
            fields["csv_path"] = csv_path
            if not csv_path:
                raise ConfigError("[data] path is required when source = csv")
        elif source == "synth":
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
        for section in parser.sections():
            if section not in known:
                raise ConfigError(f"unknown section [{section}]")
            for key in parser.options(section):
                if key not in known[section]:
                    raise ConfigError(f"unknown key [{section}] {key}")
        return replace(default, **fields)
    except (ConfigError, ValueError, KeyError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


if __name__ == "__main__":
    main()
