"""Command-line front end: dataset synthesis, discretization, attribute
reduction, single-classifier training, the full experiment matrix, and report
format conversion.

The commands that fit a reducer or a classifier (`reduce`, `train`, `matrix`)
read their settings from one INI config through `_config_from_ini`, and take
no option that repeats an INI key; without `--config`, `reduce` and `train`
run at the `ExperimentConfig` defaults.

Exit codes: 0 on success, 2 on a configuration error or a path that cannot
be opened, 3 when any matrix cell failed.
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


def _fail_config(message: str):
    click.echo(f"config error: {message}", err=True)
    sys.exit(2)


class _Commands(click.Group):
    """The command group: a DgaError or an OSError (a path that cannot be
    opened) from any command is a configuration error, exit 2."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (DgaError, OSError) as exc:
            _fail_config(str(exc))


@click.group(cls=_Commands)
def main():
    """Transformer-bushing fault detection from dissolved gas analysis:
    attribute reducers, classifiers, and a cross-validated experiment matrix."""


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
    table = synth_generate(rows, fault_ratio, noise, seed, informative=gases)
    write_csv(table, out)
    click.echo(f"wrote {table.n_rows} rows to {out}")


@main.command()
@click.option("--in", "path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--out", required=True, type=click.Path(dir_okay=False))
def discretize(path, out):
    """Discretize a gas table into categories 1..4 and write it as CSV."""
    table = load_csv(path)
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
    [experiment] seed seeds dt's grow/prune split as the matrix does."""
    cfg = _config_from_ini(config_path) if config_path else _CONFIG
    seed = pipeline.reducer_seed(cfg, method)  # as the matrix seeds this fit
    reducer = pipeline.fit_reducer(load_csv(path), method, cfg, seed)
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
@click.option("--model-out", default=None, type=click.Path(dir_okay=False))
def train(path, clf, config_path, model_out):
    """Train one classifier on a CSV table (standardized internally).

    The config's [experiment] seed seeds bpnn and rnn.  --model-out writes
    the model with its encoding, which `pipeline.load_classifier` reads."""
    cfg = _config_from_ini(config_path) if config_path else _CONFIG
    fitted = pipeline.fit_classifier(clf, cfg, load_csv(path), cfg.seed)
    model = fitted.model
    if model_out:
        pipeline.save_classifier(fitted, model_out)
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
    cfg = _config_from_ini(config_path)
    report = pipeline.run_matrix(cfg)  # each cell contains its own errors
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
    informative`: absent, every gas is informative; empty, none is.  `[data]
    path` sets `csv_path`, so a table is read from that CSV.  A section or
    key that sets no field is an error.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        if not parser.read(path, encoding="utf-8-sig"):
            raise ConfigError(f"cannot read config file {path}")
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason})") from None

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
        fields = given("data", "csv_", path=text)
        synth = given(
            "data", n=integer, fault_ratio=real, noise=real,
            informative=lambda s, k: _names(text(s, k)),
        )
        if parser.has_option("data", "informative"):
            synth.setdefault("informative", ())
        fields["synth"] = replace(default.synth, **synth)
        fields.update(
            given(
                "experiment", preprocessors=listed, classifiers=listed, seed=integer,
                strict_no_leakage=parser.getboolean, folds_bpnn=integer, folds_svm=integer,
                folds_rnn=integer,
            )
        )
        fields.update(given("pca", "pca_", components=integer, threshold=real))
        if "pca_threshold" in fields:  # in place of the default count, not a given one
            fields.setdefault("pca_components", None)
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
