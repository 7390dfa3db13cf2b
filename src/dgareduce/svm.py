"""Soft-margin kernel SVM trained by sequential minimal optimization.

Decisions {0, 1} map to labels {-1, +1} inside this module only.  The solver
keeps the dual gradient G = Q alpha - 1 as one vector over the precomputed
kernel.  Each update takes i as the maximal violator in I_up and j in I_low
by the second-order gain -b^2/a (Fan, Chen & Lin, JMLR 2005, the LIBSVM
rule), moves the pair by the clipped two-variable step, and updates G from
kernel rows i and j: O(n) numpy work and no Python loop over rows.  The
choice is deterministic, so the solver takes no seed.

The stop is the violation gap m(alpha) - M(alpha) of Keerthi et al. (2001).
Once it is at most a threshold (`tol` at the start), the bias is averaged
over unbound support vectors and every row is checked against KKT at `tol`;
a run counts as converged only if that check passes, and a failed check
halves the threshold.  The budget is `max_passes` passes of ceil(n/2) pair
updates, so one pass updates as many multipliers as there are rows.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .dataset import ModelFile, Scaler, Table, write_model
from .errors import ParameterError, ShapeError

KERNEL_KINDS = ("linear", "polynomial", "rbf", "sigmoid")
_TAU = 1e-12  # curvature floor for pairs whose kernel distance is not positive


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


def _pair_step(alphas, y, c, i, j, step) -> float:
    """Move alpha_i by +y_i t and alpha_j by -y_j t, which keeps y . alpha
    fixed, with t the largest value up to `step` that keeps both in [0, c].
    Returns t; a multiplier that reaches its bound is set to it exactly."""
    moves = ((i, y[i]), (j, -y[j]))
    rooms = [c - alphas[t] if sign > 0 else alphas[t] for t, sign in moves]
    step = min(step, *rooms)
    for (t, sign), room in zip(moves, rooms):
        bound = c if sign > 0 else 0.0
        alphas[t] = bound if step == room else min(max(alphas[t] + sign * step, 0.0), c)
    return step


def train_smo(
    data: Table,
    kernel: Kernel,
    c: float = 10.0,
    tol: float = 1e-3,
    max_passes: int = 100,
) -> SvmModel:
    """Sequential minimal optimization on a standardized table.

    Each update moves the pair chosen by the second-order working-set rule.
    Once the violation gap m - M is at most the gap threshold (`tol` at the
    start), the bias is set and every row is checked against KKT; a failed
    check halves the threshold and the updates go on.  The budget is
    `max_passes` passes of ceil(n/2) pair updates each; a run that spends it
    returns a best-effort model flagged as not converged.
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
    diag = np.diagonal(k).copy()
    positive = y > 0
    alphas = np.zeros(n)
    grad = -np.ones(n)  # Q alpha - 1 with all alphas zero
    bias = 0.0
    per_pass = (n + 1) // 2
    budget = max_passes * per_pass
    threshold = tol
    updates = 0
    converged = False

    def finalize_bias(raw: np.ndarray) -> float:
        free = (alphas > 1e-12) & (alphas < c - 1e-12)
        pick = free if free.any() else alphas > 1e-12
        if not pick.any():
            return bias
        return float(np.mean(y[pick] - raw[pick]))

    while True:
        score = -y * grad
        below_c, above_0 = alphas < c, alphas > 0
        up = np.where(positive, below_c, above_0)
        low = np.where(positive, above_0, below_c)
        i = int(np.argmax(np.where(up, score, -np.inf)))
        gain = score[i] - score  # b of the pair (i, t); its maximum over I_low is m - M
        if np.max(np.where(low, gain, -np.inf)) <= threshold:
            raw = k @ (alphas * y)
            bias = finalize_bias(raw)
            if _kkt_ok(alphas, y * (raw + bias), c, tol).all():
                converged = True
                break
            threshold /= 2.0
        candidates = low & (gain > 0)
        if updates >= budget or not candidates.any():
            break
        curve = diag[i] + diag - 2.0 * k[i]
        curve = np.where(curve > 0, curve, _TAU)
        j = int(np.argmin(np.where(candidates, -gain * gain / curve, np.inf)))
        step = _pair_step(alphas, y, c, i, j, gain[j] / curve[j])
        grad += step * y * (k[i] - k[j])
        updates += 1

    raw = k @ (alphas * y)
    if not converged:
        bias = finalize_bias(raw)
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
        sweeps=-(-updates // per_pass),
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
