"""Soft-margin kernel SVM trained by sequential minimal optimization.

Decisions {0, 1} map to labels {-1, +1} inside this module only.  The solver
keeps the dual gradient G = Q alpha - 1 as one vector.  Each update takes i
as the maximal violator in I_up and j in I_low by the second-order gain
-b^2/a (Fan, Chen & Lin, JMLR 2005, the LIBSVM rule), moves the pair by the
clipped two-variable step, and updates G from kernel rows i and j: O(n)
numpy work and no Python loop over rows.  The choice is deterministic, so
the solver takes no seed.

No n x n kernel is built.  `_KernelRows` computes a block of consecutive
kernel rows the first time one of its rows is read and keeps blocks, least
recently used first out, within `_CACHE_BYTES` (a bounded row cache as in
LIBSVM; Chang & Lin, ACM TIST 2011), so training memory is bounded and a fit
that reads few rows computes few.  Every block holds at least two rows:
OpenBLAS computes a one-row product by gemv, which rounds differently from
the gemm of a larger one.  The curvatures come from square blocks of
`_DIAGONAL_ROWS` rows along the diagonal.  Rounding can still depend on the
block size, so blocks need not equal `kernel_matrix(kernel, x, x)` bit for
bit; a fit is deterministic and does not depend on `_CACHE_BYTES`.  The
margins of the stop check and of the final model come from y (G + 1).

The stop is the violation gap m(alpha) - M(alpha) of Keerthi et al. (2001).
Once it is at most a threshold (`tol` at the start), the bias is averaged
over unbound support vectors and every row is checked against KKT at `tol`;
a run counts as converged only if that check passes, and a failed check
halves the threshold.  The budget is `max_passes` passes of ceil(n/2) pair
updates, so one pass updates as many multipliers as there are rows.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .bpnn import percent_correct
from .dataset import ModelFile, Scaler, Table, write_model
from .errors import ParameterError, ShapeError

KERNEL_KINDS = ("linear", "polynomial", "rbf", "sigmoid")
_TAU = 1e-12  # curvature floor for pairs whose kernel distance is not positive
_BLOCK_BYTES = 1 << 16  # about this many bytes of kernel rows per block
_DIAGONAL_ROWS = 64  # rows of each square block the diagonal comes from
_CACHE_BYTES = 256 << 20  # kernel row blocks kept during one training


@dataclass(frozen=True)
class Kernel:
    """Kernel specification: its `kind` and that kind's parameters."""

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


def kernel_matrix(kernel: Kernel, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kernel values of every row of `a` against every row of `b`, as an
    (len(a), len(b)) array; a 1-D input counts as one row.  Raises
    ShapeError when the row widths differ."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    if a.shape[1] != b.shape[1]:
        raise ShapeError(f"row widths differ: {a.shape[1]} vs {b.shape[1]}")
    k = a @ b.T  # each kernel works in place on the dot products
    if kernel.kind == "linear":
        return k
    if kernel.kind == "polynomial":
        k += kernel.coef
        k **= int(kernel.degree)
        return k
    if kernel.kind == "rbf":
        k *= 2.0
        sq = (a * a).sum(axis=1)[:, None] + (b * b).sum(axis=1)[None, :]
        np.subtract(sq, k, out=k)
        np.maximum(k, 0, out=k)
        k *= -kernel.gamma
        return np.exp(k, out=k)
    k *= kernel.scale
    k += kernel.offset
    return np.tanh(k, out=k)


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
    training_kkt_rate: float
    scaler: Scaler | None = None


def decision_scores(model: SvmModel, values: np.ndarray) -> np.ndarray:
    """Raw score per row; a score >= 0 resolves to class 1 (healthy)."""
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


def _blocks(n: int, size: int) -> list[tuple[int, int]]:
    """(start, stop) of consecutive blocks of `size` rows over n >= 2 rows;
    a one-row remainder joins the block before it."""
    starts = list(range(0, n - 1, size))
    return list(zip(starts, starts[1:] + [n]))


class _KernelRows:
    """Rows of `kernel_matrix(kernel, x, x)`, computed a block of rows at a
    time on first use and kept, least recently used first out, within
    `_CACHE_BYTES`.  A block holds about `_BLOCK_BYTES`, and never one row."""

    def __init__(self, kernel: Kernel, x: np.ndarray):
        self.kernel, self.x = kernel, x
        self.size = max(2, _BLOCK_BYTES // (8 * len(x)))
        self.blocks = _blocks(len(x), self.size)
        self.cache: OrderedDict[int, np.ndarray] = OrderedDict()
        self.nbytes = 0

    def diagonal(self) -> np.ndarray:
        """The kernel's diagonal, from square blocks of `_DIAGONAL_ROWS` rows."""
        x = self.x
        return np.concatenate(
            [
                np.diagonal(kernel_matrix(self.kernel, x[s:e], x[s:e]))
                for s, e in _blocks(len(x), _DIAGONAL_ROWS)
            ]
        )

    def __getitem__(self, i: int) -> np.ndarray:
        b = min(i // self.size, len(self.blocks) - 1)
        start, stop = self.blocks[b]
        rows = self.cache.get(b)
        if rows is None:
            rows = kernel_matrix(self.kernel, self.x[start:stop], self.x)
            while self.cache and self.nbytes + rows.nbytes > _CACHE_BYTES:
                self.nbytes -= self.cache.popitem(last=False)[1].nbytes
            self.cache[b] = rows
            self.nbytes += rows.nbytes
        else:
            self.cache.move_to_end(b)
        return rows[i - start]


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
    rows = _KernelRows(kernel, x)
    diag = rows.diagonal()
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
            raw = y * (grad + 1.0)  # K (alphas * y), as grad = y * raw - 1
            bias = finalize_bias(raw)
            if _kkt_ok(alphas, y * (raw + bias), c, tol).all():
                converged = True
                break
            threshold /= 2.0
        candidates = low & (gain > 0)
        if updates >= budget or not candidates.any():
            break
        k_i = rows[i]
        curve = diag[i] + diag - 2.0 * k_i
        curve = np.where(curve > 0, curve, _TAU)
        j = int(np.argmin(np.where(candidates, -gain * gain / curve, np.inf)))
        step = _pair_step(alphas, y, c, i, j, gain[j] / curve[j])
        grad += step * y * (k_i - rows[j])
        updates += 1

    raw = y * (grad + 1.0)
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
        training_kkt_rate=kkt_rate,
    )


def evaluate(model: SvmModel, test: Table) -> float:
    """Accuracy percentage on a standardized table."""
    if test.n_rows == 0:
        raise ParameterError("empty test set")
    return percent_correct(decision_scores(model, test.values) >= 0, test.decisions)


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
        "sweeps": model.sweeps,
        "training_kkt_rate": model.training_kkt_rate,
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
    vectors = f.array("support_vectors")
    n = vectors.shape[:1]  # one label, alpha and index per support vector
    support = f.arrays({"labels": n, "alphas": n})
    return SvmModel(
        kernel=kernel,
        c=f.get("c", float),
        bias=f.get("bias", float),
        support_vectors=vectors,
        support_labels=support["labels"],
        support_alphas=support["alphas"],
        support_indices=f.arrays({"indices": n}, np.int64)["indices"],
        converged=bool(f.get("converged", int)),
        sweeps=f.get("sweeps", int),
        training_kkt_rate=f.get("training_kkt_rate", float),
        scaler=f.scaler(vectors.shape[-1]),
    )
