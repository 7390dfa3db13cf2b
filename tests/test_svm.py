"""Kernels, SMO training, KKT conditions, prediction, persistence."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from dgareduce import pipeline, svm
from dgareduce.dataset import kfold, standardize, synth_generate
from dgareduce.errors import ParameterError, ShapeError
from dgareduce.svm import Kernel, check_kkt, kernel_matrix, train_smo

from conftest import make_table


def brute_margin_2d(values, labels, angles=3600):
    """Grid-search oracle: best separating margin over unit directions."""
    best = 0.0
    for theta in np.linspace(0, np.pi, angles, endpoint=False):
        w = np.array([np.cos(theta), np.sin(theta)])
        proj = values @ w
        for sign in (1.0, -1.0):
            lo = proj[labels * sign > 0].min()
            hi = proj[labels * sign < 0].max()
            gap = lo - hi
            best = max(best, gap)
    return best


KERNELS = (
    Kernel("linear"),
    Kernel("polynomial", degree=3),
    Kernel("rbf", gamma=0.5),
    Kernel("sigmoid", scale=0.2),
)


def criterion9_fold(method):
    """Standardized training rows (480) of fold 0 of 5 of a 600-row
    criterion-9 table, after the `method` reducer."""
    cfg = pipeline.ExperimentConfig(
        synth=pipeline.SynthSpec(n=600, informative=("hydrogen", "methane", "ethylene")),
        seed=0,
    )
    table = pipeline.resolve_data(cfg)
    reduced = pipeline.fit_reducer(table, method, cfg, 0).transform(table)
    train, _ = standardize(reduced.take(kfold(reduced, 5, 0).train_indices(0)))
    return train


def pair(kernel, x, y):
    """Kernel value of one pair of rows, as a 1 x 1 kernel matrix."""
    out = kernel_matrix(kernel, [x], [y])
    assert out.shape == (1, 1)
    return out[0, 0]


class TestKernels:
    def test_rbf_self_is_one(self, rng):
        x = rng.normal(size=4)
        assert pair(Kernel("rbf", gamma=0.7), x, x) == pytest.approx(1.0)

    def test_linear_orthogonal(self):
        assert pair(Kernel("linear"), [1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_polynomial_hand_value(self):
        # (x.y + 1)^2 with x.y = 2
        kernel = Kernel("polynomial", degree=2, coef=1.0)
        assert pair(kernel, [2.0, 0.0], [1.0, 5.0]) == pytest.approx(9.0)

    def test_sigmoid_form(self):
        x, y = np.array([1.0, 2.0]), np.array([0.5, -1.0])
        k = Kernel("sigmoid", scale=0.3, offset=0.1)
        assert pair(k, x, y) == pytest.approx(np.tanh(0.3 * (x @ y) + 0.1))

    def test_symmetry(self, rng):
        kernels = (
            Kernel("linear"),
            Kernel("polynomial", degree=3),
            Kernel("rbf", gamma=0.4),
            Kernel("sigmoid", scale=0.2),
        )
        for kernel in kernels:
            x, y = rng.normal(size=3), rng.normal(size=3)
            assert pair(kernel, x, y) == pytest.approx(pair(kernel, y, x))

    def test_width_mismatch(self):
        with pytest.raises(ShapeError):
            pair(Kernel("linear"), [1.0], [1.0, 2.0])

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            Kernel("rbf", gamma=0.0)
        with pytest.raises(ParameterError):
            Kernel("polynomial", degree=0)
        with pytest.raises(ParameterError):
            Kernel("cosine")

    @pytest.mark.parametrize("kind", svm.KERNEL_KINDS)
    def test_non_integer_degree_rejected_for_every_kind(self, kind):
        # a model file writes degree as an integer, so 2.5 would save but not load
        with pytest.raises(ParameterError, match="^kernel degree must be an integer"):
            Kernel(kind, degree=2.5)

    @pytest.mark.parametrize(
        "kind, setting, message",
        [
            ("rbf", {"gamma": np.nan}, "rbf gamma must be positive"),
            ("rbf", {"gamma": np.inf}, "kernel gamma must be finite"),
            ("polynomial", {"degree": np.inf}, "kernel degree must be finite"),
            ("polynomial", {"coef": np.nan}, "kernel coef must be finite"),
            ("sigmoid", {"scale": np.inf}, "kernel scale must be finite"),
            ("sigmoid", {"offset": -np.inf}, "kernel offset must be finite"),
        ],
        ids=["gamma-nan", "gamma-inf", "degree-inf", "coef-nan", "scale-inf", "offset-inf"],
    )
    def test_non_finite_parameter_rejected(self, kind, setting, message):
        with pytest.raises(ParameterError, match=f"^{message}"):
            Kernel(kind, **setting)

    def test_label_names_the_parameters_each_kind_reads(self):
        labels = [
            pipeline._kernel_label(Kernel(kind, degree=2, coef=0.5, gamma=0.7, scale=0.3,
                                          offset=-0.2))
            for kind in svm.KERNEL_KINDS
        ]
        assert labels == [
            "linear", "polynomial(degree=2,coef=0.5)", "rbf(gamma=0.7)",
            "sigmoid(scale=0.3,offset=-0.2)",
        ]


class TestAnalyticTwoPoint:
    def _model(self):
        table = make_table([[-1.0], [1.0]], [0, 1])
        return train_smo(table, Kernel("linear"), c=1e6)

    def test_weight_bias_margin(self):
        model = self._model()
        w = float(np.sum(model.support_alphas * model.support_labels * model.support_vectors[:, 0]))
        assert w == pytest.approx(1.0, abs=1e-3)
        assert model.bias == pytest.approx(0.0, abs=1e-3)
        assert 2.0 / abs(w) == pytest.approx(2.0, abs=1e-3)

    def test_both_points_support_vectors(self):
        model = self._model()
        assert len(model.support_alphas) == 2
        np.testing.assert_allclose(model.support_alphas, [0.5, 0.5], atol=1e-3)

    def test_midpoint_ties_to_healthy(self):
        model = self._model()
        score = svm.decision_scores(model, [[0.0]])[0]
        assert abs(score) <= 1e-6
        assert svm.evaluate(model, make_table([[0.0]], [1])) == 100.0


class TestTrainSmo:
    def test_duplicated_dataset_same_decision_function(self, rng):
        # equivalence needs interior multipliers, so keep the classes separable
        pos = rng.normal(loc=(1.5, 1.5), scale=0.35, size=(15, 2))
        neg = rng.normal(loc=(-1.5, -1.5), scale=0.35, size=(15, 2))
        values = np.vstack([pos, neg])
        d = np.array([1] * 15 + [0] * 15)
        table = make_table(values, d)
        doubled = make_table(np.vstack([values, values]), np.concatenate([d, d]))
        a = train_smo(table, Kernel("rbf", gamma=0.5), c=100.0)
        b = train_smo(doubled, Kernel("rbf", gamma=0.5), c=100.0)
        probe = rng.normal(size=(40, 2)) * 2
        sa = svm.decision_scores(a, probe)
        sb = svm.decision_scores(b, probe)
        assert np.array_equal(np.sign(sa), np.sign(sb))
        assert np.abs(sa - sb).max() <= 5e-3

    def test_xor_rbf_separates(self):
        table = make_table(
            [[-1.0, -1.0], [-1.0, 1.0], [1.0, -1.0], [1.0, 1.0]], [0, 1, 1, 0]
        )
        model = train_smo(table, Kernel("rbf", gamma=1.0), c=10.0)
        assert svm.evaluate(model, table) == 100.0

    def test_kkt_on_converged_runs(self, rng):
        for trial in range(6):
            n = 40
            values = rng.normal(size=(n, 3))
            d = (values @ np.array([1.0, -0.5, 0.2]) > 0).astype(int)
            if trial % 2:  # non-separable variant
                flips = rng.choice(n, size=4, replace=False)
                d[flips] = 1 - d[flips]
            table = make_table(values, d)
            model = train_smo(table, Kernel("rbf", gamma=0.5), c=5.0)
            if model.converged:
                assert model.training_kkt_rate == 1.0
                assert check_kkt(model, table, tol=1e-3) == 1.0

    def test_dual_feasibility(self, rng):
        values = rng.normal(size=(50, 2))
        d = (values[:, 0] > 0.2).astype(int)
        table = make_table(values, d)
        model = train_smo(table, Kernel("rbf", gamma=0.8), c=3.0)
        assert np.all(model.support_alphas >= 0)
        assert np.all(model.support_alphas <= 3.0 + 1e-12)
        assert abs(np.sum(model.support_alphas * model.support_labels)) <= 1e-8

    def test_margin_matches_brute_force(self, rng):
        for trial in range(3):
            local = np.random.default_rng(100 + trial)
            pos = local.normal(loc=(2.0, 2.0), scale=0.4, size=(8, 2))
            neg = local.normal(loc=(-2.0, -2.0), scale=0.4, size=(8, 2))
            values = np.vstack([pos, neg])
            d = np.array([1] * 8 + [0] * 8)
            table = make_table(values, d)
            model = train_smo(table, Kernel("linear"), c=1e5, tol=1e-4)
            assert svm.evaluate(model, table) == 100.0
            w = (model.support_alphas * model.support_labels) @ model.support_vectors
            margin = 2.0 / np.linalg.norm(w)
            oracle = brute_margin_2d(values, d * 2.0 - 1.0)
            assert margin == pytest.approx(oracle, rel=0.02)

    def test_single_class_rejected(self, rng):
        table = make_table(rng.normal(size=(10, 2)), np.ones(10, dtype=int))
        with pytest.raises(ParameterError):
            train_smo(table, Kernel("linear"))

    def test_non_convergence_flagged(self):
        table = make_table(
            [[-1.0, -1.0], [-1.0, 1.0], [1.0, -1.0], [1.0, 1.0]], [0, 1, 1, 0]
        )
        model = train_smo(table, Kernel("rbf", gamma=1.0), c=10.0, max_passes=1)
        assert not model.converged

    def test_parameter_validation(self, rng):
        table = make_table(rng.normal(size=(6, 2)), [0, 1, 0, 1, 0, 1])
        with pytest.raises(ParameterError):
            train_smo(table, Kernel("linear"), c=0.0)
        with pytest.raises(ParameterError):
            train_smo(table, Kernel("linear"), tol=0.0)


class TestSolver:
    def _noisy(self, n, seed=5):
        local = np.random.default_rng(seed)
        values = local.normal(size=(n, 3))
        d = (values[:, 0] + 0.8 * local.normal(size=n) > 0).astype(int)
        return make_table(values, d)

    def test_pca_fold_of_criterion9_table_converges(self):
        # the first-violator solver stopped at max_passes on this fold with
        # KKT at 95.6 %
        train = criterion9_fold("pca")
        model = train_smo(train, Kernel("rbf", gamma=0.5), c=10.0, tol=1e-3, max_passes=50)
        assert model.converged
        assert model.sweeps <= 50
        assert model.training_kkt_rate == 1.0
        assert check_kkt(model, train, tol=1e-3) == 1.0

    @pytest.mark.parametrize("n", [41, 60])
    def test_budget_bounds_passes_and_updates(self, n, monkeypatch):
        updates = []
        real_step = svm._pair_step

        def counted(*args):
            updates.append(1)
            return real_step(*args)

        monkeypatch.setattr(svm, "_pair_step", counted)
        table = self._noisy(n)
        per_pass = -(-n // 2)
        for max_passes in (1, 2, 3, 5, 100):
            updates.clear()
            model = train_smo(table, Kernel("rbf", gamma=0.5), c=10.0, max_passes=max_passes)
            assert model.sweeps <= max_passes
            assert len(updates) <= max_passes * per_pass
            assert model.sweeps == -(-len(updates) // per_pass)
        assert model.converged  # the 100-pass budget is enough here

    @pytest.mark.parametrize("fold", ["pca", "noisy"])
    def test_evicting_blocks_changes_nothing(self, fold, monkeypatch):
        table = criterion9_fold("pca") if fold == "pca" else self._noisy(81)
        n = table.n_rows
        size = 17 if fold == "pca" else 4  # 480 = 28 * 17 + 4, 81 = 20 * 4 + 1

        def fit():
            return train_smo(table, Kernel("rbf", gamma=0.5), c=10.0, max_passes=50)

        free = fit()
        starts = []
        real = svm.kernel_matrix

        def spy(kernel, a, b):
            if b is table.values:  # a block of rows, not a diagonal block
                starts.append(a.ctypes.data)
            return real(kernel, a, b)

        monkeypatch.setattr(svm, "kernel_matrix", spy)
        monkeypatch.setattr(svm, "_BLOCK_BYTES", 8 * n * size)
        monkeypatch.setattr(svm, "_CACHE_BYTES", 2 * 8 * n * (size + 1))  # two blocks
        tight = fit()
        assert len(starts) > len(set(starts))  # some block was evicted and built again
        assert np.array_equal(tight.support_alphas, free.support_alphas)
        assert np.array_equal(tight.support_indices, free.support_indices)
        assert (tight.sweeps, tight.converged, tight.bias) == (
            free.sweeps,
            free.converged,
            free.bias,
        )

    @pytest.mark.parametrize("n,size", [(35, None), (5, 2), (41, 20)])
    def test_no_kernel_block_of_one_row(self, n, size, monkeypatch):
        # OpenBLAS computes a one-row product by gemv, which rounds unlike gemm
        if size is not None:  # n = 2 * size + 1 leaves a one-row remainder
            monkeypatch.setattr(svm, "_BLOCK_BYTES", 8 * n * size)
        rows, diagonal = [], []
        real = svm.kernel_matrix
        table = self._noisy(n)

        def spy(kernel, a, b):
            (rows if b is table.values else diagonal).append(len(a))
            return real(kernel, a, b)

        monkeypatch.setattr(svm, "kernel_matrix", spy)
        train_smo(table, Kernel("rbf", gamma=0.5), c=10.0)
        assert rows and min(rows) >= 2
        assert max(rows) == (n if size is None else size + 1)
        assert diagonal == [n]  # one square block below 2 * _DIAGONAL_ROWS rows

    def test_training_never_holds_an_n_by_n_kernel(self, monkeypatch):
        monkeypatch.setattr(svm, "_CACHE_BYTES", 1 << 20)
        n = 3000
        table = self._noisy(n)
        tracemalloc.start()
        try:
            train_smo(table, Kernel("rbf", gamma=0.5), c=10.0, max_passes=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n  # an eighth of the kernel, n * n * 8 bytes (72 MB)

    def test_reruns_identical(self):
        table = self._noisy(80)
        a = train_smo(table, Kernel("rbf", gamma=0.5), c=10.0)
        b = train_smo(table, Kernel("rbf", gamma=0.5), c=10.0)
        assert np.array_equal(a.support_alphas, b.support_alphas)
        assert np.array_equal(a.support_indices, b.support_indices)
        assert a.bias == b.bias
        assert a.sweeps == b.sweeps


def _reference_pair_step(alphas, y, c, i, j, step) -> float:
    """The pair step of the solver that recomputed its state every update."""
    moves = ((i, y[i]), (j, -y[j]))
    rooms = [c - alphas[t] if sign > 0 else alphas[t] for t, sign in moves]
    step = min(step, *rooms)
    for (t, sign), room in zip(moves, rooms):
        bound = c if sign > 0 else 0.0
        alphas[t] = bound if step == room else min(max(alphas[t] + sign * step, 0.0), c)
    return step


def reference_smo(data, kernel, c=10.0, tol=1e-3, max_passes=100):
    """Oracle: the SMO loop that rebuilt -y G, I_up and I_low from the whole
    gradient G on every update.  `train_smo` must return the same model bit
    for bit."""
    y = data.decisions.astype(float) * 2.0 - 1.0
    n = data.n_rows
    x = data.values
    rows = svm._KernelRows(kernel, x)
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

    def finalize_bias(raw):
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
            if svm._kkt_ok(alphas, y * (raw + bias), c, tol).all():
                converged = True
                break
            threshold /= 2.0
        candidates = low & (gain > 0)
        if updates >= budget or not candidates.any():
            break
        k_i = rows[i]
        curve = diag[i] + diag - 2.0 * k_i
        curve = np.where(curve > 0, curve, svm._TAU)
        j = int(np.argmin(np.where(candidates, -gain * gain / curve, np.inf)))
        step = _reference_pair_step(alphas, y, c, i, j, gain[j] / curve[j])
        grad += step * y * (k_i - rows[j])
        updates += 1

    raw = y * (grad + 1.0)
    if not converged:
        bias = finalize_bias(raw)
    kkt_rate = float(np.mean(svm._kkt_ok(alphas, y * (raw + bias), c, tol)))
    keep = alphas > 1e-12
    return svm.SvmModel(
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


def assert_same_model(got, want):
    for field in dataclasses.fields(svm.SvmModel):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b), field.name
        else:
            assert a == b, field.name


def oracle_table(n, width):
    """n rows of `width` normal columns; the decision follows the first
    column through noise, and rows 0 and 1 hold one class each."""
    local = np.random.default_rng(1000 * n + width)
    values = local.normal(size=(n, width))
    d = (values[:, 0] + 0.8 * local.normal(size=n) > 0).astype(int)
    d[:2] = (0, 1)
    return make_table(values, d)


class TestMatchesReferenceSolver:
    @pytest.mark.parametrize("n,width", [(2, 1), (3, 2), (41, 3), (81, 10), (300, 3), (601, 10)])
    @pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.kind)
    def test_every_model_field_bit_for_bit(self, kernel, n, width):
        table = oracle_table(n, width)
        for c in (0.5, 10.0, 1000.0):
            for max_passes in (1, 2, 50):
                for tol in (1e-3, 1e-7):
                    args = (table, kernel, c, tol, max_passes)
                    assert_same_model(train_smo(*args), reference_smo(*args))

    @pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.kind)
    def test_near_duplicate_rows(self, kernel):
        # pairs of rows 1e-9 apart and exact repeats give curvatures at or
        # below 0, which take _TAU, and positive ones below _TAU, which do not
        local = np.random.default_rng(0)
        base = local.normal(size=(20, 2))
        values = np.vstack([base, base + 1e-9 * local.normal(size=base.shape), base])
        table = make_table(values, (values[:, 0] + 0.8 * local.normal(size=60) > 0).astype(int))
        for c in (0.5, 10.0, 1000.0):
            args = (table, kernel, c, 1e-3, 50)
            assert_same_model(train_smo(*args), reference_smo(*args))

    def test_pca_fold_of_criterion9_table(self):
        train = criterion9_fold("pca")
        args = (train, Kernel("rbf", gamma=0.5), 10.0, 1e-3, 50)
        assert_same_model(train_smo(*args), reference_smo(*args))


class TestKernelRows:
    @pytest.mark.parametrize("n,size", [(2, 5), (5, 2), (6, 2), (7, 3), (8, 3), (480, 17)])
    def test_blocks_cover_rows_with_two_or_more_each(self, n, size):
        blocks = svm._blocks(n, size)
        assert blocks[0][0] == 0 and blocks[-1][1] == n
        assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
        assert all(2 <= stop - start <= size + 1 for start, stop in blocks)
        assert all(start == b * size for b, (start, _) in enumerate(blocks))

    @pytest.mark.parametrize("width", [1, 3, 10])
    @pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.kind)
    def test_blocks_equal_the_full_kernel_bit_for_bit(self, kernel, width):
        # holds at these sizes on this fold, not at every size: with OpenBLAS,
        # 13-row blocks of 601 rows at width 10 differ from the full kernel in
        # their last bits; a fit's independence of the cache budget is
        # test_evicting_blocks_changes_nothing
        x = np.ascontiguousarray(criterion9_fold("none").values[:, :width])
        full = kernel_matrix(kernel, x, x)
        for size in (2, 17):
            for start, stop in svm._blocks(len(x), size):
                assert np.array_equal(kernel_matrix(kernel, x[start:stop], x), full[start:stop])
        for size in (2, 17, svm._DIAGONAL_ROWS):
            for start, stop in svm._blocks(len(x), size):
                square = kernel_matrix(kernel, x[start:stop], x[start:stop])
                assert np.array_equal(np.diagonal(square), np.diagonal(full)[start:stop])


class TestPredict:
    def _trained(self, rng):
        values = rng.normal(size=(30, 2))
        d = (values[:, 0] > 0).astype(int)
        return train_smo(make_table(values, d), Kernel("rbf", gamma=0.6)), values, d

    def test_unbound_sv_margin_one(self, rng):
        model, values, d = self._trained(rng)
        free = (model.support_alphas > 1e-6) & (model.support_alphas < model.c - 1e-6)
        assert free.any()
        idx = int(np.flatnonzero(free)[0])
        score = svm.decision_scores(model, model.support_vectors[idx : idx + 1])[0]
        assert model.support_labels[idx] * score == pytest.approx(1.0, abs=2e-3)

    def test_repeat_prediction_identical(self, rng):
        model, values, _ = self._trained(rng)
        first = svm.decision_scores(model, values[:1])
        assert np.array_equal(first, svm.decision_scores(model, values[:1]))

    def test_support_vector_permutation_invariant(self, rng):
        model, values, _ = self._trained(rng)
        order = rng.permutation(len(model.support_alphas))
        shuffled = svm.SvmModel(
            kernel=model.kernel,
            c=model.c,
            bias=model.bias,
            support_vectors=model.support_vectors[order],
            support_labels=model.support_labels[order],
            support_alphas=model.support_alphas[order],
            support_indices=model.support_indices[order],
            converged=model.converged,
            sweeps=model.sweeps,
            training_kkt_rate=model.training_kkt_rate,
        )
        probe = values[:5]
        np.testing.assert_allclose(
            svm.decision_scores(model, probe), svm.decision_scores(shuffled, probe), atol=1e-12
        )

    def test_width_mismatch(self, rng):
        model, _, _ = self._trained(rng)
        with pytest.raises(ShapeError):
            svm.decision_scores(model, [[1.0, 2.0, 3.0]])


class TestSaveLoad:
    def test_round_trip_scores(self, tmp_path, rng):
        values = rng.normal(size=(25, 3))
        d = (values[:, 1] > 0).astype(int)
        model = train_smo(make_table(values, d), Kernel("polynomial", degree=2, coef=0.5))
        path = tmp_path / "svm.txt"
        svm.save_model(model, path)
        loaded = svm.load_model(path)
        probe = rng.normal(size=(10, 3))
        np.testing.assert_array_equal(
            svm.decision_scores(model, probe), svm.decision_scores(loaded, probe)
        )

    @pytest.mark.parametrize("kind", svm.KERNEL_KINDS)
    def test_round_trip_keeps_every_kernel_field(self, tmp_path, kind):
        """Every field, whether or not `kind` reads it, at a value other than
        its default."""
        changed = {"degree": 2, "coef": 0.5, "gamma": 0.7, "scale": 0.3, "offset": -0.2}
        kernel = Kernel(kind, **changed)
        defaults = Kernel(kind)
        assert all(getattr(defaults, name) != value for name, value in changed.items())
        assert set(changed) == {f.name for f in dataclasses.fields(Kernel)} - {"kind"}
        table, _ = standardize(synth_generate(40, 0.5, 0.5, 2))
        path = tmp_path / "svm.txt"
        svm.save_model(train_smo(table, kernel, max_passes=5), path)
        assert svm.load_model(path).kernel == kernel

    def test_round_trip_keeps_solver_record(self, tmp_path):
        table, _ = standardize(synth_generate(200, 0.5, 1.5, 1))
        model = train_smo(table, Kernel("rbf", gamma=0.5), max_passes=1)
        record = (model.converged, model.sweeps, model.training_kkt_rate)
        assert record[:2] == (False, 1) and record[2] < 1.0
        path = tmp_path / "svm.txt"
        svm.save_model(model, path)
        loaded = svm.load_model(path)
        assert (loaded.converged, loaded.sweeps, loaded.training_kkt_rate) == record
