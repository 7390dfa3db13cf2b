"""Print one sha256 for each output of a fixed identity set, to check that a
change leaves every report, reducer fit and model file byte-identical.

Run it in two checkouts and compare the outputs line by line:

    python3 tools/report_digest.py > digest.txt

The set:

- matrix reports, as sorted-key JSON of `run_matrix(cfg).to_dict()` with
  every `time_mean` zeroed: the benchmark's matrix-c9 and nets-readme
  configs under both protocols at seeds 1-3, the tests' quick config under
  each rnn connection, and `ExperimentConfig()` at seed 1;
- pca, rs, gr and dt fits (`fit_reducer`) on 40k-row synthetic tables at
  seeds 1-3 and noise 0.25 and 0.9: the kept set, `repr(diagnostics)` and
  the transformed values;
- the model files `dgareduce train` writes for bpnn, svm and each rnn
  connection.

Everything runs on one BLAS thread, as the benchmark does; the whole set
takes about a minute on two CPUs.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT), str(ROOT / "tests")]

from click.testing import CliRunner  # noqa: E402

from bench.workloads import WORKLOADS  # noqa: E402
from dgareduce import cli, dataset, pipeline, rnn  # noqa: E402
from test_pipeline import quick_config  # noqa: E402

SEEDS = (1, 2, 3)


def digest(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def report_digest(cfg: pipeline.ExperimentConfig) -> str:
    raw = pipeline.run_matrix(cfg).to_dict()
    for row in raw["rows"]:
        row["time_mean"] = 0.0
    return digest(json.dumps(raw, sort_keys=True))


def matrix_configs():
    for name in ("matrix-c9", "nets-readme"):
        for strict in (False, True):
            for seed in SEEDS:
                cfg = replace(WORKLOADS[name].cfg, seed=seed, strict_no_leakage=strict)
                yield f"matrix {name} strict={strict} seed={seed}", cfg
    for connection in rnn.CONNECTIONS:
        yield f"matrix quick connection={connection}", quick_config(rnn_connection=connection)
    yield "matrix default seed=1", pipeline.ExperimentConfig(seed=1)


def fit_digests():
    for seed in SEEDS:
        cfg = pipeline.ExperimentConfig(seed=seed)
        for noise in (0.25, 0.9):
            table = dataset.synth_generate(40_000, 0.5, noise, seed)
            for method in ("pca", "rs", "gr", "dt"):
                reducer = pipeline.fit_reducer(table, method, cfg, seed)
                result = reducer.result
                parts = (
                    repr(result.kept).encode(),
                    repr(result.diagnostics).encode(),
                    reducer.transform(table).values.tobytes(),
                )
                label = f"fit {method} noise={noise} seed={seed}"
                yield label, digest(b"\0".join(parts))


def model_digests(workdir: str):
    csv_path = os.path.join(workdir, "train.csv")
    dataset.write_csv(dataset.synth_generate(300, 0.5, 0.25, 1), csv_path)
    runs = [("bpnn", None), ("svm", None)] + [("rnn", c) for c in rnn.CONNECTIONS]
    for clf, connection in runs:
        ini = os.path.join(workdir, "train.ini")
        with open(ini, "w", encoding="utf-8") as fh:
            fh.write("[experiment]\nseed = 1\n[bpnn]\nepochs = 100\nhidden = 6, 4\n")
            fh.write("[svm]\nmax_passes = 30\n")
            if connection:
                fh.write(f"[rnn]\nconnection = {connection}\n")
        model = os.path.join(workdir, f"{clf}.model")
        args = ["train", "--in", csv_path, "--clf", clf, "--config", ini, "--model-out", model]
        result = CliRunner().invoke(cli.main, args)
        if result.exit_code != 0:
            raise SystemExit(f"train {clf} failed: {result.output}")
        with open(model, "rb") as fh:
            yield f"model {clf}" + (f" connection={connection}" if connection else ""), digest(
                fh.read()
            )


def main() -> int:
    for label, cfg in matrix_configs():
        print(report_digest(cfg), label, flush=True)
    for label, value in fit_digests():
        print(value, label, flush=True)
    with tempfile.TemporaryDirectory() as workdir:
        for label, value in model_digests(workdir):
            print(value, label, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
