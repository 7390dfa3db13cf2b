"""Soft-margin kernel SVM trained by sequential minimal optimization.

Decisions {0, 1} map to labels {-1, +1} inside this module only.  Each
update takes i as the maximal violator in I_up and j in I_low by the
second-order gain -b^2/a (Fan, Chen & Lin, JMLR 2005, the LIBSVM rule) and
moves the pair by the clipped two-variable step.  The choice is
deterministic, so the solver takes no seed.

Across updates the solver carries three vectors: score = -y G, with G =
Q alpha - 1 the dual gradient, and I_up and I_low as float masks (0 or -inf
for I_up, inf or 0 for I_low, so one add or one minimum applies them).  An
update changes score by -step (k_i - k_j) from kernel rows i and j, and the
masks only at i and j, which it rewrites from the two new multipliers: a
fixed number of O(n) numpy calls and no Python loop over rows.  Carrying
score in place of G is exact.  G += (step y)(k_i - k_j) scales by step y =
+-step, and rounding commutes with negation, so -y G after it is score -
step (k_i - k_j) as rounded, and G is -y score.  Only the sign of a zero
can differ, which no comparison sees and G + 1 removes.

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

import dataclasses
import math
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .bpnn import percent_correct
from .dataset import ModelFile, Scaler, Table, write_model
from .errors import ParameterError, ShapeError

# Each kernel kind and the `Kernel` parameters it reads, in label order.
KERNEL_PARAMS = {
    "linear": (),
    "polynomial": ("degree", "coef"),
    "rbf": ("gamma",),
    "sigmoid": ("scale", "offset"),
}
KERNEL_KINDS = tuple(KERNEL_PARAMS)
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
        if self.kind == "rbf" and not self.gamma > 0:
            raise ParameterError(f"rbf gamma must be positive, got {self.gamma}")
        for param in _PARAM_FIELDS:
            value = getattr(self, param.name)
            if not math.isfinite(value):
                raise ParameterError(f"kernel {param.name} must be finite, got {value}")
        if self.degree != int(self.degree) or (self.kind == "polynomial" and self.degree < 1):
            raise ParameterError(
                f"kernel degree must be an integer, positive for polynomial, got {self.degree}"
            )


_PARAM_FIELDS = dataclasses.fields(Kernel)[1:]  # every field after `kind`


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


def _pair_step(alpha_i, alpha_j, sign_i, sign_j, c, step):
    """Move alpha_i by sign_i t and alpha_j by sign_j t, with t the largest
    value up to `step` that keeps both in [0, c]; the SMO pair has sign_i =
    y_i and sign_j = -y_j, which keeps y . alpha fixed.  Works on Python
    floats and returns t and the two new multipliers; one that reaches its
    bound is set to it exactly."""
    room_i = c - alpha_i if sign_i > 0 else alpha_i
    room_j = c - alpha_j if sign_j > 0 else alpha_j
    step = min(step, room_i, room_j)
    if step == room_i:
        alpha_i = c if sign_i > 0 else 0.0
    else:
        alpha_i = min(max(alpha_i + sign_i * step, 0.0), c)
    if step == room_j:
        alpha_j = c if sign_j > 0 else 0.0
    else:
        alpha_j = min(max(alpha_j + sign_j * step, 0.0), c)
    return step, alpha_i, alpha_j


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
    The state carried from update to update is -y G and the I_up and I_low
    masks (see the module docstring); both are exact, so every choice is
    the one a solver recomputing them from G each update would make.
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
    signs = y.tolist()
    alphas = np.zeros(n)
    score = y.copy()  # -y G, with G = Q alpha - 1 = -1 at alpha = 0
    up = np.where(y > 0, 0.0, -np.inf)  # I_up at alpha = 0: 0 on it, -inf off it
    low = np.where(y > 0, 0.0, np.inf)  # I_low at alpha = 0: inf on it, 0 off it
    top, gain, curve, pair_gain, work = (np.empty(n) for _ in range(5))
    flat = np.empty(n, dtype=bool)
    bias = 0.0
    per_pass = (n + 1) // 2
    budget = max_passes * per_pass
    threshold = tol
    updates = 0

    while True:
        np.add(score, up, out=top)  # score on I_up, -inf off it
        i = int(top.argmax())
        np.subtract(score.item(i), score, out=gain)  # b of the pair (i, t)
        np.maximum(gain, 0.0, out=gain)
        np.minimum(gain, low, out=gain)  # max(b, 0) on I_low, 0 off it
        gap = np.maximum.reduce(gain)  # max(m - M, 0), which meets threshold > 0 as m - M does
        final = updates >= budget or not gap > 0  # budget spent, or no t in I_low with b > 0
        if gap <= threshold or final:
            # the bias over unbound support vectors (else all of them) and
            # the KKT check; y - score is y (G + 1) = K (alphas * y) exactly
            raw = y - score
            free = (alphas > 1e-12) & (alphas < c - 1e-12)
            pick = free if free.any() else alphas > 1e-12
            if pick.any():
                bias = float(np.mean(y[pick] - raw[pick]))
            kkt = _kkt_ok(alphas, y * (raw + bias), c, tol)
            converged = gap <= threshold and bool(kkt.all())
            if converged or final:
                break
            threshold /= 2.0
        k_i = rows[i]
        np.add(diag, diag.item(i), out=curve)
        np.multiply(k_i, 2.0, out=work)
        curve -= work
        np.less_equal(curve, 0.0, out=flat)
        np.putmask(curve, flat, _TAU)  # a of the pair (i, t), _TAU where not positive
        np.multiply(gain, gain, out=pair_gain)
        pair_gain /= curve  # b^2 / a on the candidates (I_low, b > 0), 0 elsewhere
        j = int(pair_gain.argmax())  # the first minimum of -b^2 / a over the candidates
        if not pair_gain.item(j) > 0:  # unless every candidate's b^2 / a underflowed to 0
            j = int(np.argmax(gain > 0))
        step, alpha_i, alpha_j = _pair_step(
            alphas.item(i), alphas.item(j), signs[i], -signs[j], c, gain.item(j) / curve.item(j)
        )
        np.subtract(k_i, rows[j], out=work)
        work *= step
        score -= work  # G += step y (k_i - k_j), negated exactly
        updates += 1
        for t, alpha in ((i, alpha_i), (j, alpha_j)):
            alphas[t] = alpha
            below_c, above_0 = alpha < c, alpha > 0
            in_up, in_low = (below_c, above_0) if signs[t] > 0 else (above_0, below_c)
            up[t] = 0.0 if in_up else -np.inf
            low[t] = np.inf if in_low else 0.0

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
        training_kkt_rate=float(np.mean(kkt)),
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
        **{param.name: getattr(kern, param.name) for param in _PARAM_FIELDS},
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
        **{param.name: f.get(param.name, type(param.default)) for param in _PARAM_FIELDS},
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
