"""Soft-margin kernel SVM trained by sequential minimal optimization.

Decisions {0, 1} map to labels {-1, +1} inside this module only.  Working
pairs come from a first-violator scan with the largest |E1 - E2| second
choice; the sweep order is a seeded shuffle.  A run counts as converged only
after a full sweep makes no update *and* the final bias (averaged over
unbound support vectors) passes a complete KKT check at the given tolerance.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .dataset import ModelFile, Scaler, Table, write_model
from .errors import ParameterError, ShapeError

KERNEL_KINDS = ("linear", "polynomial", "rbf", "sigmoid")


@dataclass(frozen=True)
class Kernel:
    """Kernel specification; use the class methods to build one."""

    kind: str
    degree: int = 3
    coef: float = 1.0
    gamma: float = 0.5
    scale: float = 1.0
    offset: float = 0.0

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise ParameterError(f"kernel kind must be one of {KERNEL_KINDS}")
        if self.kind == "rbf" and self.gamma <= 0:
            raise ParameterError("rbf gamma must be positive")
        if self.kind == "polynomial" and (self.degree < 1 or self.degree != int(self.degree)):
            raise ParameterError("polynomial degree must be a positive integer")

    @classmethod
    def linear(cls) -> "Kernel":
        return cls("linear")

    @classmethod
    def polynomial(cls, degree: int, coef: float = 1.0) -> "Kernel":
        return cls("polynomial", degree=degree, coef=coef)

    @classmethod
    def rbf(cls, gamma: float) -> "Kernel":
        return cls("rbf", gamma=gamma)

    @classmethod
    def sigmoid(cls, scale: float, offset: float = 0.0) -> "Kernel":
        return cls("sigmoid", scale=scale, offset=offset)


def kernel_matrix(kernel: Kernel, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    if a.shape[1] != b.shape[1]:
        raise ShapeError(f"row widths differ: {a.shape[1]} vs {b.shape[1]}")
    dots = a @ b.T
    if kernel.kind == "linear":
        return dots
    if kernel.kind == "polynomial":
        return (dots + kernel.coef) ** int(kernel.degree)
    if kernel.kind == "rbf":
        sq = np.maximum(
            (a * a).sum(axis=1)[:, None] + (b * b).sum(axis=1)[None, :] - 2.0 * dots, 0.0
        )
        return np.exp(-kernel.gamma * sq)
    return np.tanh(kernel.scale * dots + kernel.offset)


@dataclass
class SvmModel:
    """Support rows, signed multipliers, bias, and the kernel that made them."""

    kernel: Kernel
    c: float
    bias: float
    support_vectors: np.ndarray
    support_labels: np.ndarray  # in {-1, +1}
    support_alphas: np.ndarray  # all > 1e-12
    support_indices: np.ndarray  # original training row numbers
    converged: bool
    sweeps: int
    train_time: float
    training_kkt_rate: float
    scaler: Scaler | None = None


def predict(model: SvmModel, x) -> tuple[int, float]:
    """(class, raw score); score >= 0 resolves to class 1 (healthy)."""
    score = float(decision_scores(model, np.ravel(x)[None, :])[0])
    return (1 if score >= 0 else 0), score


def decision_scores(model: SvmModel, values: np.ndarray) -> np.ndarray:
    values = np.atleast_2d(np.asarray(values, dtype=float))
    if values.shape[1] != model.support_vectors.shape[1]:
        raise ShapeError(
            f"expected width {model.support_vectors.shape[1]}, got {values.shape[1]}"
        )
    k = kernel_matrix(model.kernel, values, model.support_vectors)
    return k @ (model.support_alphas * model.support_labels) + model.bias


def _kkt_ok(alphas, margins, c, tol) -> np.ndarray:
    """Per-row KKT satisfaction given margins y*f(x)."""
    free = (alphas > 1e-12) & (alphas < c - 1e-12)
    ok = np.where(
        free,
        np.abs(margins - 1.0) <= tol,
        np.where(alphas <= 1e-12, margins >= 1.0 - tol, margins <= 1.0 + tol),
    )
    return ok


def check_kkt(model: SvmModel, table: Table, tol: float = 1e-3) -> float:
    """Fraction of the training table's rows satisfying KKT at `tol`.

    Rows not stored on the model count as alpha = 0.
    """
    alphas = np.zeros(table.n_rows)
    alphas[model.support_indices] = model.support_alphas
    y = table.decisions.astype(float) * 2.0 - 1.0
    margins = y * decision_scores(model, table.values)
    return float(np.mean(_kkt_ok(alphas, margins, model.c, tol)))


def train_smo(
    data: Table,
    kernel: Kernel,
    c: float = 10.0,
    tol: float = 1e-3,
    max_passes: int = 100,
    seed: int = 0,
) -> SvmModel:
    """Sequential minimal optimization on a standardized table.

    Stops early once a sweep changes nothing and the final bias verifies KKT
    everywhere; otherwise runs `max_passes` sweeps and returns a best-effort
    model flagged as not converged.
    """
    if c <= 0:
        raise ParameterError("C must be positive")
    if tol <= 0:
        raise ParameterError("tol must be positive")
    y = data.decisions.astype(float) * 2.0 - 1.0
    n = data.n_rows
    if n < 2 or len(np.unique(y)) < 2:
        raise ParameterError("training data must contain both classes")
    x = data.values
    started = time.perf_counter()
    k = kernel_matrix(kernel, x, x)
    alphas = np.zeros(n)
    bias = 0.0
    errors = -y.copy()  # f(x) - y with all alphas zero
    rng = np.random.default_rng(seed)
    converged = False
    sweeps = 0

    def take_step(i: int, j: int) -> bool:
        nonlocal bias, errors
        if i == j:
            return False
        ai_old, aj_old = alphas[i], alphas[j]
        yi, yj = y[i], y[j]
        ei, ej = errors[i], errors[j]
        if yi != yj:
            low, high = max(0.0, aj_old - ai_old), min(c, c + aj_old - ai_old)
        else:
            low, high = max(0.0, ai_old + aj_old - c), min(c, ai_old + aj_old)
        if high - low < 1e-12:
            return False
        eta = k[i, i] + k[j, j] - 2.0 * k[i, j]
        if eta <= 1e-12:
            return False
        aj = aj_old + yj * (ei - ej) / eta
        aj = min(max(aj, low), high)
        if abs(aj - aj_old) < 1e-8:
            return False
        ai = ai_old + yi * yj * (aj_old - aj)
        b1 = bias - ei - yi * (ai - ai_old) * k[i, i] - yj * (aj - aj_old) * k[i, j]
        b2 = bias - ej - yi * (ai - ai_old) * k[i, j] - yj * (aj - aj_old) * k[j, j]
        if 1e-12 < ai < c - 1e-12:
            new_bias = b1
        elif 1e-12 < aj < c - 1e-12:
            new_bias = b2
        else:
            new_bias = (b1 + b2) / 2.0
        errors += (
            yi * (ai - ai_old) * k[:, i]
            + yj * (aj - aj_old) * k[:, j]
            + (new_bias - bias)
        )
        alphas[i], alphas[j] = ai, aj
        bias = new_bias
        return True

    def finalize_bias() -> float:
        raw = k @ (alphas * y)
        free = (alphas > 1e-12) & (alphas < c - 1e-12)
        pick = free if free.any() else alphas > 1e-12
        if not pick.any():
            return bias
        return float(np.mean(y[pick] - raw[pick]))

    while sweeps < max_passes:
        sweeps += 1
        changed = 0
        for i in rng.permutation(n):
            margin = y[i] * errors[i]  # y*f - 1
            if (margin < -tol and alphas[i] < c) or (margin > tol and alphas[i] > 0):
                gaps = np.abs(errors[i] - errors)
                gaps[i] = -1.0
                if take_step(i, int(np.argmax(gaps))):
                    changed += 1
                    continue
                for j in rng.permutation(n):
                    if take_step(i, int(j)):
                        changed += 1
                        break
        if changed == 0:
            final = finalize_bias()
            errors += final - bias
            bias = final
            margins = y * (errors + y)  # y * f(x)
            if _kkt_ok(alphas, margins, c, tol).all():
                converged = True
                break

    raw = k @ (alphas * y)
    final = finalize_bias()
    if not converged:
        bias = final
    kkt_rate = float(np.mean(_kkt_ok(alphas, y * (raw + bias), c, tol)))
    keep = alphas > 1e-12
    return SvmModel(
        kernel=kernel,
        c=c,
        bias=bias,
        support_vectors=x[keep].copy(),
        support_labels=y[keep].copy(),
        support_alphas=alphas[keep].copy(),
        support_indices=np.flatnonzero(keep),
        converged=converged,
        sweeps=sweeps,
        train_time=time.perf_counter() - started,
        training_kkt_rate=kkt_rate,
    )


def evaluate(model: SvmModel, test: Table):
    """Accuracy percentage and confusion counts; see bpnn.EvalResult."""
    from .bpnn import confusion

    if test.n_rows == 0:
        raise ParameterError("empty test set")
    predicted = (decision_scores(model, test.values) >= 0).astype(np.int64)
    return confusion(predicted, test.decisions)


def save_model(model: SvmModel, path) -> None:
    kern = model.kernel
    fields = {
        "kernel": kern.kind,
        "degree": kern.degree,
        "coef": kern.coef,
        "gamma": kern.gamma,
        "scale": kern.scale,
        "offset": kern.offset,
        "c": model.c,
        "bias": model.bias,
        "converged": int(model.converged),
        "labels": model.support_labels,
        "alphas": model.support_alphas,
        "indices": model.support_indices,
        "support_vectors": model.support_vectors,
    }
    write_model(path, "svm", fields, model.scaler)


def load_model(path) -> SvmModel:
    f = ModelFile(path, "svm")
    kernel = Kernel(
        f.get("kernel"),
        degree=f.get("degree", int),
        coef=f.get("coef", float),
        gamma=f.get("gamma", float),
        scale=f.get("scale", float),
        offset=f.get("offset", float),
    )
    return SvmModel(
        kernel=kernel,
        c=f.get("c", float),
        bias=f.get("bias", float),
        support_vectors=f.array("support_vectors"),
        support_labels=f.array("labels"),
        support_alphas=f.array("alphas"),
        support_indices=f.array("indices", np.int64),
        converged=bool(f.get("converged", int)),
        sweeps=0,
        train_time=0.0,
        training_kkt_rate=1.0,
        scaler=f.scaler(),
    )
