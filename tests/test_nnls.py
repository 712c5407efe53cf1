import numpy as np
import pytest

import semo.nnls as nnls_module
from semo import DegenerateSystem, solve_nnls

from _helpers import nnls_oracle, weighted_sse


def random_instance(rng, max_rows=8, max_cols=3):
    m = int(rng.integers(1, max_rows + 1))
    n = int(rng.integers(1, max_cols + 1))
    if rng.random() < 0.5:
        X = rng.normal(size=(m, n))
    else:
        # domain-shaped: binary activity columns behind an always-on one
        X = np.column_stack([np.ones(m)] + [rng.integers(0, 2, size=m) for _ in range(n - 1)]).astype(float)
    if np.any(np.linalg.norm(X, axis=0) == 0):
        X[0, :] = 1.0
    y = rng.normal(size=m) * 10.0
    w = rng.uniform(0.1, 10.0, size=m)
    return X, y, w


class TestKnownSolutions:
    def test_additive_example_recovers_exactly(self):
        # rows: active sets {}, {A}, {B}, {A,B}; columns: baseline, A, B
        X = np.array([[1, 0, 0], [1, 1, 0], [1, 0, 1], [1, 1, 1]], dtype=float)
        y = np.array([2.0, 5.0, 7.0, 10.0])
        oracle_obj, oracle_x = nnls_oracle(X, y)
        assert oracle_obj == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(oracle_x, [2.0, 3.0, 5.0], atol=1e-9)
        beta = solve_nnls(X, y)
        np.testing.assert_allclose(beta, [2.0, 3.0, 5.0], atol=1e-9)
        assert weighted_sse(X, y, beta) == pytest.approx(0.0, abs=1e-12)

    def test_downward_rate_clamps_to_zero(self):
        # presence of A correlates with LOWER drain; A must not go negative
        X = np.array([[1.0, 0.0], [1.0, 1.0]])
        y = np.array([5.0, 3.0])
        oracle_obj, oracle_x = nnls_oracle(X, y)
        np.testing.assert_allclose(oracle_x, [4.0, 0.0], atol=1e-9)
        beta = solve_nnls(X, y)
        np.testing.assert_allclose(beta, [4.0, 0.0], atol=1e-9)
        assert weighted_sse(X, y, beta) == pytest.approx(oracle_obj, abs=1e-12)

    def test_zero_targets_give_zero_solution(self):
        X = np.array([[1.0, 2.0], [3.0, 4.0]])
        beta = solve_nnls(X, np.zeros(2))
        np.testing.assert_array_equal(beta, np.zeros(2))

    def test_weights_change_the_tradeoff(self):
        # one column fighting two incompatible rows: weights pick the winner
        X = np.array([[1.0], [1.0]])
        y = np.array([0.0, 10.0])
        light = solve_nnls(X, y, weights=np.array([1.0, 1.0]))[0]
        heavy = solve_nnls(X, y, weights=np.array([1.0, 9.0]))[0]
        assert light == pytest.approx(5.0, abs=1e-9)
        assert heavy == pytest.approx(9.0, abs=1e-9)


class TestDegenerate:
    def test_zero_column(self):
        X = np.array([[1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(DegenerateSystem):
            solve_nnls(X, np.array([1.0, 2.0]))

    def test_empty_matrix(self):
        with pytest.raises(DegenerateSystem):
            solve_nnls(np.zeros((0, 2)), np.zeros(0))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            solve_nnls(np.ones((2, 2)), np.ones(3))
        with pytest.raises(ValueError, match="^X must be a 2-D matrix$"):
            solve_nnls(np.ones(2), np.ones(2))
        with pytest.raises(ValueError, match=r"^weights have shape \(3,\), expected \(2,\)$"):
            solve_nnls(np.ones((2, 2)), np.ones(2), weights=np.ones(3))

    def test_nonpositive_weights(self):
        with pytest.raises(ValueError):
            solve_nnls(np.ones((2, 1)), np.ones(2), weights=np.array([1.0, 0.0]))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            solve_nnls(np.array([[np.nan], [1.0]]), np.ones(2))

    def test_overflow_in_reduced_system_rejected(self):
        X, y = [[1e308, 1.0], [1e308, 2.0]], [1e308, 1e308]
        assert np.all(np.isfinite(X)) and np.all(np.isfinite(y))
        with pytest.raises(ValueError, match="^X and y must be finite$"):
            solve_nnls(X, y)


class TestAgainstOracle:
    def test_matches_subset_enumeration(self):
        rng = np.random.default_rng(1234)
        for _ in range(300):
            X, y, w = random_instance(rng)
            beta = solve_nnls(X, y, weights=w)
            assert np.all(beta >= 0)
            obj = weighted_sse(X, y, beta, w)
            oracle_obj, _ = nnls_oracle(X, y, w)
            assert obj <= oracle_obj + 1e-9
            assert abs(obj - oracle_obj) <= 1e-9

    def test_wide_problems_too(self):
        rng = np.random.default_rng(99)
        for _ in range(100):
            X, y, w = random_instance(rng, max_rows=5, max_cols=5)
            obj = weighted_sse(X, y, solve_nnls(X, y, weights=w), w)
            oracle_obj, _ = nnls_oracle(X, y, w)
            assert abs(obj - oracle_obj) <= 1e-9


class TestSolutionQuality:
    def test_deterministic(self):
        rng = np.random.default_rng(7)
        X, y, w = random_instance(rng, max_rows=8, max_cols=3)
        a = solve_nnls(X, y, weights=w)
        b = solve_nnls(X, y, weights=w)
        np.testing.assert_array_equal(a, b)

    def test_kkt_conditions_hold(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            X, y, w = random_instance(rng)
            beta = solve_nnls(X, y, weights=w)
            sw = np.sqrt(w)
            A = X * sw[:, None]
            grad = A.T @ (sw * y - A @ beta)
            positive = beta > 1e-12
            # stationarity on the free set, dual feasibility on the bound set
            if positive.any():
                assert np.max(np.abs(grad[positive])) < 1e-6
            if (~positive).any():
                assert np.max(grad[~positive]) <= 1e-9 + 1e-12

    def test_matches_scipy_reference(self):
        scipy_optimize = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(2024)
        for _ in range(50):
            m, n = int(rng.integers(2, 12)), int(rng.integers(1, 6))
            X = rng.normal(size=(m, n))
            y = rng.normal(size=m)
            ours = weighted_sse(X, y, solve_nnls(X, y))
            ref_x, ref_rnorm = scipy_optimize.nnls(X, y)
            assert ours == pytest.approx(ref_rnorm**2, abs=1e-8)


def tall_instance(rng, m, n, kind):
    """Binary activity design behind an always-on column, weights over four decades."""
    X = np.column_stack([np.ones(m), rng.random((m, n - 1)) < rng.uniform(0.1, 0.9, size=n - 1)]).astype(float)
    if kind == "duplicated":
        X[:, -1] = X[:, 1]
    elif kind == "rank-deficient":
        X[:, -1] = X[:, 1] + X[:, 2]
    w = 10.0 ** rng.uniform(-2.0, 2.0, size=m)
    # "positive" keeps every true coefficient well above zero, so the fit is feasible unconstrained
    low = 1.0 if kind == "positive" else -1.0
    y = X @ rng.uniform(low, 3.0, size=n) + rng.normal(scale=0.5, size=m) / np.sqrt(w)
    return X, y, w


TALL_SHAPES = [(50, 5), (400, 30), (2000, 60), (5000, 101)]
TALL_KINDS = ["full-rank", "duplicated", "rank-deficient", "positive"]


def count_free_ls(monkeypatch):
    """Record the free-column count of every active-set solve `solve_nnls` makes."""
    calls = []
    solve = nnls_module._free_ls

    def counted(A, b, free):
        calls.append(int(free.sum()))
        return solve(A, b, free)

    monkeypatch.setattr(nnls_module, "_free_ls", counted)
    return calls


class TestTallWeighted:
    """Weighted problems of the analyzer's shape, up to five reduction blocks tall."""

    @pytest.mark.parametrize("kind", TALL_KINDS)
    @pytest.mark.parametrize("m,n", TALL_SHAPES)
    def test_matches_scipy_on_scaled_system(self, m, n, kind):
        scipy_optimize = pytest.importorskip("scipy.optimize")
        X, y, w = tall_instance(np.random.default_rng([m, n, TALL_KINDS.index(kind)]), m, n, kind)
        sw = np.sqrt(w)
        _, ref_rnorm = scipy_optimize.nnls(X * sw[:, None], y * sw, maxiter=50 * n)
        ours = weighted_sse(X, y, solve_nnls(X, y, weights=w), w)
        assert abs(ours - ref_rnorm**2) <= 1e-9 * max(1.0, ref_rnorm**2)

    @pytest.mark.parametrize("kind", TALL_KINDS)
    @pytest.mark.parametrize("m,n", TALL_SHAPES)
    def test_kkt_conditions_hold(self, m, n, kind):
        X, y, w = tall_instance(np.random.default_rng([m, n, TALL_KINDS.index(kind), 1]), m, n, kind)
        beta = solve_nnls(X, y, weights=w)
        sw = np.sqrt(w)
        A, b = X * sw[:, None], y * sw
        grad = A.T @ (b - A @ beta)
        # the gradient is recomputed on the full system, so allow its rounding
        slack = 1e-9 + 1e-13 * np.linalg.norm(A) * np.linalg.norm(b)
        assert np.all(beta >= 0)
        positive = beta > 0
        if positive.any():
            assert np.max(np.abs(grad[positive])) <= slack
        if (~positive).any():
            assert np.max(grad[~positive]) <= slack

    def test_block_size_does_not_change_the_solution(self, monkeypatch):
        X, y, w = tall_instance(np.random.default_rng(11), 3000, 40, "full-rank")
        default = solve_nnls(X, y, weights=w)
        monkeypatch.setattr(nnls_module, "BLOCK_ROWS", 7)
        np.testing.assert_allclose(solve_nnls(X, y, weights=w), default, rtol=1e-9, atol=1e-12)


class TestFeasibleStart:
    """A positive unconstrained minimizer is returned without the active-set loop."""

    @pytest.mark.parametrize("m,n", TALL_SHAPES)
    def test_positive_unconstrained_fit_skips_the_loop(self, monkeypatch, m, n):
        X, y, w = tall_instance(np.random.default_rng([m, n, 7]), m, n, "positive")
        sw = np.sqrt(w)
        expected, _, rank, _ = np.linalg.lstsq(X * sw[:, None], y * sw, rcond=None)
        assert rank == n and np.all(expected > 0)
        calls = count_free_ls(monkeypatch)
        beta = solve_nnls(X, y, weights=w)
        assert calls == []
        np.testing.assert_allclose(beta, expected, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("kind", ["rank-deficient", "negative"])
    def test_infeasible_start_falls_back_to_the_loop(self, monkeypatch, kind):
        scipy_optimize = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(5)
        m = 300
        X = np.column_stack([np.ones(m), rng.random((m, 3)) < 0.5]).astype(float)
        if kind == "rank-deficient":
            X[:, 3] = X[:, 1]
        truth = [2.0, 1.0, 3.0, 1.0] if kind == "rank-deficient" else [2.0, 1.0, -1.0, 3.0]
        w = 10.0 ** rng.uniform(-2.0, 2.0, size=m)
        y = X @ truth + rng.normal(scale=0.1, size=m) / np.sqrt(w)
        sw = np.sqrt(w)
        A, b = X * sw[:, None], y * sw
        start, _, rank, _ = np.linalg.lstsq(A, b, rcond=None)
        if kind == "rank-deficient":
            # the minimum-norm solution is positive, but it is not the unique minimizer
            assert rank < 4 and np.all(start > 0)
        else:
            assert rank == 4 and np.min(start) <= 0
        calls = count_free_ls(monkeypatch)
        beta = solve_nnls(X, y, weights=w)
        assert calls
        _, ref_rnorm = scipy_optimize.nnls(A, b)
        ours = weighted_sse(X, y, beta, w)
        assert abs(ours - ref_rnorm**2) <= 1e-9 * max(1.0, ref_rnorm**2)
