"""Acceptance suite: one test per criterion, each printing a pass line and
asserting its own runtime budget.

Numbers reported by the original experiments depend on a proprietary
20k-40k-row dataset, so acceptance is property-based plus directional
replication on seeded synthetic data.
"""

import time
from itertools import combinations

import numpy as np
import pytest

from dgareduce import bpnn, dtree, granular, pca, pipeline, rnn, svm
from dgareduce.dataset import (
    ATTRIBUTES,
    CATEGORY_BOUNDS,
    CategoricalTable,
    Discretizer,
    Table,
    discretize,
    standardize,
    synth_generate,
)
from dgareduce.errors import DependencyDegenerateError, NoUncertaintyWarning
from dgareduce.roughset import (
    InformationSystem,
    _group,
    degree_of_dependency,
    reduct_search,
)
from dgareduce.rnn import IntervalTable, Intervalizer

from conftest import make_categorical, make_gas_table, make_table, row_granules

INFORMATIVE = ("hydrogen", "methane", "ethylene")


class _Budget:
    def __init__(self, seconds):
        self.limit = seconds
        self.start = time.perf_counter()

    def done(self, criterion, label):
        elapsed = time.perf_counter() - self.start
        assert elapsed < self.limit, f"criterion {criterion} took {elapsed:.1f}s"
        print(f"\n[criterion {criterion:2d}] PASS  {label}  ({elapsed:.1f}s)")


def oracle_dependency(values, decisions, cols):
    """Row-match block enumeration, independent of the hash partition path."""
    n = len(decisions)
    positive = 0
    sub = values[:, cols]
    for x in range(n):
        block = np.all(sub == sub[x], axis=1)
        positive += int(len(np.unique(decisions[block])) == 1)
    return positive / n


def test_criterion_01_discretization_conformance():
    budget = _Budget(1.0)
    cases = []
    for gas, (t1, t2, t3) in CATEGORY_BOUNDS.items():
        cases += [(gas, t1, 1), (gas, t1 + 1, 2), (gas, t2 + 1, 3), (gas, t3 + 1, 4)]
    assert len(cases) == 32
    for gas, value, expected in cases:
        table = make_gas_table(n_rows=2, **{gas: [value, value]})
        got = int(discretize(table).column(gas)[0])
        assert got == expected, f"{gas} {value} -> {got}, expected {expected}"
    budget.done(1, "32 boundary cases map exactly")


def test_criterion_02_pca_correctness():
    budget = _Budget(5.0)
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        a = rng.uniform(-1, 1, size=(10, 10))
        a = (a + a.T) / 2
        eig = pca.eigendecompose(a)
        residual = np.abs(a @ eig.eigenvectors - eig.eigenvectors * eig.eigenvalues).max()
        worst = max(worst, residual)
    assert worst <= 1e-8
    for trial in range(10):
        table = make_table(
            rng.normal(size=(80, 10)), rng.integers(0, 2, 80)
        )
        std, scaler = standardize(table)
        corr = pca.covariance(std)
        eig = pca.eigendecompose(corr)
        assert eig.eigenvalues.sum() == pytest.approx(10.0, abs=1e-8)
        basis = eig.eigenvectors
        back = (std.values @ basis) @ basis.T
        assert np.abs(back - std.values).max() <= 1e-8
    budget.done(2, f"eigen residual max {worst:.2e}, trace and reconstruction hold")


def test_criterion_03_roughset_oracle_equivalence():
    budget = _Budget(30.0)
    rng = np.random.default_rng(7)
    degenerate = 0
    for _ in range(200):
        n = int(rng.integers(4, 13))
        m = int(rng.integers(2, 6))
        values = rng.integers(1, 4, size=(n, m))
        decisions = rng.integers(0, 2, n)
        table = CategoricalTable(values, decisions, tuple(f"a{i+1}" for i in range(m)))
        system = InformationSystem.from_table(table)
        all_cols = list(range(m))
        # dependency against the independent block-enumeration oracle
        size = int(rng.integers(1, m + 1))
        names = tuple(system.attributes[:size])
        assert degree_of_dependency(system, names) == oracle_dependency(
            values, decisions, list(range(size))
        )
        full = oracle_dependency(values, decisions, all_cols)
        if full == 0.0:
            with pytest.raises(DependencyDegenerateError):
                reduct_search(system)
            degenerate += 1
            continue
        kept = reduct_search(system).kept
        cols = [system.attributes.index(a) for a in kept]
        assert oracle_dependency(values, decisions, cols) == full
        if len(kept) > 1:
            for drop in kept:
                rest = [system.attributes.index(a) for a in kept if a != drop]
                assert oracle_dependency(values, decisions, rest) < full
        # exhaustive subset enumeration: the result is one of the
        # superset-minimal dependency-preserving subsets
        minimal = set()
        for sz in range(1, m + 1):
            for combo in combinations(range(m), sz):
                if oracle_dependency(values, decisions, list(combo)) != full:
                    continue
                if sz > 1 and any(
                    oracle_dependency(values, decisions, [c for c in combo if c != d])
                    == full
                    for d in combo
                ):
                    continue
                minimal.add(tuple(system.attributes[c] for c in combo))
        assert tuple(kept) in minimal
    budget.done(3, f"200 tables match the oracle ({degenerate} degenerate)")


def test_criterion_04_granular_algebra():
    budget = _Budget(10.0)
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(rng.integers(6, 30))
        m = int(rng.integers(1, 4))
        table = make_categorical(
            rng.integers(1, 4, size=(m, n)).tolist(), rng.integers(0, 2, n)
        )
        cut = int(rng.integers(1, n))
        chunks = [
            row_granules(table.values[rows], table.decisions[rows])
            for rows in (slice(cut), slice(cut, n))
        ]
        direct = row_granules(table.values, table.decisions)
        for first, second in (chunks, chunks[::-1]):
            merged = _group(*(np.concatenate(pair) for pair in zip(first, second)))
            for got, want in zip(merged, direct):
                assert np.array_equal(got, want)
            assert merged.rows == n
        t, f = direct.count_t.tolist(), direct.count_f.tolist()
        patterns = [tuple(p) for p in direct.patterns.tolist()]
        identity = sorted(
            range(len(t)), key=lambda i: (-t[i] ** 2 / (t[i] + f[i]), -t[i], patterns[i])
        )
        assert granular._rank_order(direct).tolist() == identity
    checked = 0
    while checked < 5:
        n = int(np.random.default_rng(checked).integers(20, 40))
        local = np.random.default_rng(1000 + checked)
        table = make_categorical(
            local.integers(1, 4, size=(3, n)).tolist(), local.integers(0, 2, n)
        )
        try:
            incremental = granular.incremental_rank_reduce(table, chunk_size=n + 1, carry=1)
        except DependencyDegenerateError:
            checked += 1
            continue
        granules = row_granules(table.values, table.decisions)
        direct = reduct_search(
            InformationSystem.from_table(granular._expand(granules, table.attributes))
        )
        assert incremental.kept == direct.kept
        checked += 1
    budget.done(4, "granule grouping equivalence, rank identity, single-chunk match")


def test_criterion_05_tree_math():
    budget = _Budget(5.0)
    assert dtree._bits([3, 1], 4) == pytest.approx(0.811278, abs=1e-6)
    worked = make_categorical([[1, 1, 2, 2]], [0, 1, 1, 1])
    _, _, gain = dtree._gain(worked.column("a1"), worked.decisions, 1 - worked.decisions)
    assert gain == pytest.approx(0.311278, abs=1e-6)
    xor = make_categorical([[1, 1, 2, 2] * 2, [1, 2, 1, 2] * 2], [0, 1, 1, 0] * 2)
    tree = dtree.build_tree(xor)
    assert isinstance(tree, dtree.Internal)
    for _, child in tree.children:
        assert isinstance(child, dtree.Internal)
        for _, leaf in child.children:
            assert isinstance(leaf, dtree.Leaf)
            assert leaf.count_t == 0 or leaf.count_f == 0
    rng = np.random.default_rng(23)
    for _ in range(20):
        n = int(rng.integers(12, 40))
        table = make_categorical(
            rng.integers(1, 4, size=(3, n)).tolist(), rng.integers(0, 2, n)
        )
        cut = n * 3 // 4
        grown = dtree.build_tree(table.take(np.arange(cut)))
        val = table.take(np.arange(cut, n))
        pruned = dtree.prune(grown, val)
        assert dtree.accuracy(pruned, val) >= dtree.accuracy(grown, val)
    budget.done(5, "frozen entropy/gain values, XOR depth-2, prune monotone")


def test_criterion_06_bpnn_gradients_and_xor():
    budget = _Budget(60.0)
    rng = np.random.default_rng(5)

    def mse(weights, biases, x, d):
        layers = bpnn.pack(weights, biases)
        return bpnn._mse(layers, bpnn.LayerBuffers(x.T, layers), d)

    for _ in range(20):
        weights = [rng.normal(size=(2, 3)), rng.normal(size=(1, 2))]
        biases = [rng.normal(size=2), rng.normal(size=1)]
        x = rng.normal(size=(5, 3))
        d = rng.integers(0, 2, 5).astype(float)
        layers = bpnn.pack(weights, biases)
        _, grads = bpnn.batch_gradients(layers, bpnn.LayerBuffers(x.T, layers, backward=True), d)
        grads_w = [g[:, :-1] for g in grads]
        h = 1e-5
        for layer in range(2):
            for idx in np.ndindex(weights[layer].shape):
                plus = [w.copy() for w in weights]
                minus = [w.copy() for w in weights]
                plus[layer][idx] += h
                minus[layer][idx] -= h
                numeric = (mse(plus, biases, x, d) - mse(minus, biases, x, d)) / (2 * h)
                analytic = grads_w[layer][idx]
                scale = max(abs(numeric), abs(analytic), 1e-8)
                assert abs(numeric - analytic) / scale <= 1e-4
    base = np.array([[-1.0, -1.0], [-1.0, 1.0], [1.0, -1.0], [1.0, 1.0]])
    xor = Table(np.tile(base, (25, 1)), np.tile([0, 1, 1, 0], 25), ("x1", "x2"))
    failing = []
    for seed in range(10):
        cfg = bpnn.MlpConfig(
            epochs=5000, learning_rate=0.5, hidden=(2,), goal=1e-9,
            ratios=(1.0, 0.0),
        )
        model = bpnn.train(xor, cfg, seed)
        pred = (bpnn.scores(model, xor.values) >= 0.5).astype(int)
        if not np.array_equal(pred, xor.decisions):
            failing.append(seed)
    assert len(failing) <= 2, f"failing seeds: {failing}"
    noise = make_table(
        np.random.default_rng(99).normal(size=(40, 4)),
        np.random.default_rng(98).integers(0, 2, 40),
    )
    cfg = bpnn.MlpConfig(
        epochs=3000, learning_rate=0.9, hidden=(12,), goal=1e-12,
        ratios=(0.5, 0.5), max_fail=6,
    )
    model = bpnn.train(noise, cfg, 0)
    assert model.trace.stop_reason == "early-stop"
    assert model.trace.best_epoch == int(np.argmin(model.trace.val_errors)) + 1
    from dgareduce.dataset import split_indices

    val_idx = split_indices(40, cfg.shares, 0)[1]
    err = float(np.mean((bpnn.scores(model, noise.values[val_idx]) - noise.decisions[val_idx]) ** 2))
    assert err == pytest.approx(min(model.trace.val_errors), abs=1e-15)
    budget.done(6, f"gradients within 1e-4, XOR {10 - len(failing)}/10, early stop restores")


def test_criterion_07_svm():
    budget = _Budget(30.0)
    rng = np.random.default_rng(13)
    converged_runs = 0
    for trial in range(8):
        n = 60
        values = rng.normal(size=(n, 3))
        d = (values @ np.array([1.0, -0.6, 0.3]) > 0).astype(int)
        if trial % 2:
            flips = rng.choice(n, size=5, replace=False)
            d[flips] = 1 - d[flips]
        table = make_table(values, d)
        model = svm.train_smo(table, svm.Kernel("rbf", gamma=0.5), c=5.0)
        if model.converged:
            converged_runs += 1
            assert model.training_kkt_rate == 1.0
            assert svm.check_kkt(model, table, tol=1e-3) == 1.0
    assert converged_runs >= 6
    two_point = make_table([[-1.0], [1.0]], [0, 1])
    model = svm.train_smo(two_point, svm.Kernel("linear"), c=1e6)
    w = float(np.sum(model.support_alphas * model.support_labels * model.support_vectors[:, 0]))
    assert 2.0 / abs(w) == pytest.approx(2.0, abs=1e-3)
    xor = make_table([[-1.0, -1.0], [-1.0, 1.0], [1.0, -1.0], [1.0, 1.0]], [0, 1, 1, 0])
    model = svm.train_smo(xor, svm.Kernel("rbf", gamma=1.0), c=10.0)
    assert svm.evaluate(model, xor) == 100.0
    budget.done(7, f"KKT clean on {converged_runs} converged runs, margin 2, XOR separated")


def test_criterion_08_rnn():
    budget = _Budget(30.0)
    rng = np.random.default_rng(17)
    checked = 0
    for _ in range(100):
        m, h = 4, 6
        sizes = (m,) + (h,) + (1,)
        weights, biases = bpnn.init_layers(sizes, rng)
        model = rnn.RnnModel(
            rough=rnn.pack_rough(
                np.stack((weights[0] * rng.normal(scale=2), weights[0] * rng.normal(scale=2))),
                np.stack((biases[0], biases[0])),
            ),
            shared=bpnn.pack(weights[1:], biases[1:]),
            input_width=m, hidden=(h,), connection="excitatory",
            trace=bpnn.TrainingTrace(stop_reason="t"),
        )
        mid = rng.normal(size=(100, m))
        spread = np.abs(rng.normal(size=(100, m)))
        rows = rnn.RoughBuffers(model, mid - spread, mid + spread)
        rnn._forward(model, rows)
        gl, gu = rows.nets
        assert np.all(np.maximum(gl, gu) - np.minimum(gl, gu) >= 0.0)
        checked += gl.size
    assert checked >= 10_000
    table = make_table(rng.normal(size=(40, 3)), rng.integers(0, 2, 40))
    cfg = bpnn.MlpConfig(epochs=40, hidden=(5,))
    degenerate = IntervalTable(table.values, table.values, table.decisions, table.attributes)
    with pytest.warns(NoUncertaintyWarning):
        rough = rnn.train(degenerate, cfg, 3)
    point = bpnn.train(table, cfg, 3)
    assert np.abs(rnn.scores(rough, degenerate) - bpnn.scores(point, table.values)).max() <= 1e-9
    budget.done(8, f"ordering on {checked} draws, degenerate == point network, warning emitted")


def _criterion9_data():
    return synth_generate(2000, 0.5, 0.25, seed=2024, informative=INFORMATIVE)


def test_criterion_09_end_to_end_directional():
    budget = _Budget(600.0)
    table = _criterion9_data()
    cfg = pipeline.ExperimentConfig(
        synth=pipeline.SynthSpec(n=2000, fault_ratio=0.5, noise=0.25, informative=INFORMATIVE),
        folds_bpnn=5, folds_svm=5, folds_rnn=5,
        mlp=bpnn.MlpConfig(epochs=150, hidden=(12,), learning_rate=0.05),
        svm_max_passes=50,
        gr_chunk_size=250, gr_carry=1,
        seed=2024,
    )
    informative = set(INFORMATIVE) | {"tcg"}  # tcg is the redundant combustible sum
    # (a) every reducer's kept set names at least one injected-informative attribute
    for method in ("rs", "gr", "dt"):
        reducer = pipeline.fit_reducer(table, method, cfg, seed=7)
        assert set(reducer.result.kept) & informative, method
    proj = pipeline.fit_reducer(table, "pca", cfg, seed=7).projection
    top_loaded = {
        ATTRIBUTES[int(np.argmax(np.abs(proj.basis[:, j])))] for j in range(proj.p)
    }
    assert top_loaded & informative
    # (b) every preprocessor x classifier cell reaches 90% CV accuracy
    report = pipeline.run_matrix(cfg)
    for row in report.rows:
        assert not row.failed, row.error
        assert row.accuracy_mean >= 90.0, (row.preprocessor, row.classifier, row.accuracy_mean)
    # (c) reduced-attribute training is faster than full-attribute training
    # for both gradient-descent classifiers (10% slack); each side is the
    # fastest of 5 trainings, since on a shared machine other load only ever
    # adds time, and the methods train in turns so that a burst of load cannot
    # cover all 5 trainings of one method; early stopping disabled so measured
    # time reflects per-epoch cost
    fixed = bpnn.MlpConfig(
        epochs=60, hidden=(64,), learning_rate=0.05, goal=0.0,
        ratios=(1.0, 0.0),
    )
    reduced = {
        method: pipeline.fit_reducer(table, method, cfg, seed=7).transform(table)
        for method in ("none", "pca", "rs", "gr", "dt")
    }

    def bpnn_seconds(t):
        std, _ = standardize(t)
        start = time.perf_counter()
        bpnn.train(std, fixed, 1)
        return time.perf_counter() - start

    def rnn_seconds(t):
        std, _ = standardize(t)
        cats = Discretizer.fit(t).apply(t)
        intervals = Intervalizer.fit(cats, std).apply(cats, std)
        start = time.perf_counter()
        rnn.train(intervals, fixed, 1)
        return time.perf_counter() - start

    for seconds in (bpnn_seconds, rnn_seconds):
        times = dict.fromkeys(reduced, float("inf"))
        for _ in range(5):
            for m in reduced:
                times[m] = min(times[m], seconds(reduced[m]))
        for method in ("pca", "rs", "gr", "dt"):
            assert times[method] < times["none"] * 1.10, (seconds.__name__, method, times)
    budget.done(9, "kept sets informative, 15 cells >= 90%, reduced training faster")


def test_criterion_10_matrix_determinism():
    budget = _Budget(120.0)
    cfg = pipeline.ExperimentConfig(
        synth=pipeline.SynthSpec(n=200, fault_ratio=0.5, noise=0.2),
        folds_bpnn=3, folds_svm=3, folds_rnn=3,
        mlp=bpnn.MlpConfig(epochs=20, hidden=(4,)),
        svm_max_passes=30,
        gr_chunk_size=60,
        seed=77,
    )
    first = pipeline.run_matrix(cfg)
    second = pipeline.run_matrix(cfg)

    def accuracy_columns(report):
        lines = []
        for row in pipeline.emit_report(report, "csv").splitlines()[1:]:
            cells = row.split(",")
            lines.append((cells[0], cells[1], cells[3], cells[4]))
        return lines

    assert accuracy_columns(first) == accuracy_columns(second)
    assert [r.kept for r in first.rows] == [r.kept for r in second.rows]
    assert [r.fold_accuracies for r in first.rows] == [r.fold_accuracies for r in second.rows]
    budget.done(10, "rerun reproduces accuracy columns and kept lists byte for byte")
