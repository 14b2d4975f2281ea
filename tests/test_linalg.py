"""Tests for the ridge solver and influence quantities."""

import numpy as np
import pytest

from labelcert import Dataset, fit, linalg
from labelcert.errors import DimensionMismatch, SingularMatrix
from labelcert.linalg import InfluenceMatrix, influence_vector


def gradient_descent_ridge(X, y, lam, iters=40000):
    """Independent iterative minimizer of ||y - X theta||^2 + lam ||theta||^2."""
    gram = X.T @ X + lam * np.eye(X.shape[1])
    step = 1.0 / (2.0 * np.linalg.eigvalsh(gram).max())
    theta = np.zeros(X.shape[1])
    for _ in range(iters):
        grad = 2.0 * (gram @ theta - X.T @ y)
        theta = theta - step * grad
    return theta


class TestSolveRidge:
    """The coefficient vector `fit` returns."""

    def test_identity_design_no_ridge(self):
        ds = Dataset(np.eye(2), np.array([3.0, 4.0]))
        np.testing.assert_array_equal(fit(ds, 0.0)[0].values, [3.0, 4.0])

    def test_identity_design_unit_ridge(self):
        ds = Dataset(np.eye(2), np.array([3.0, 4.0]))
        np.testing.assert_allclose(fit(ds, 1.0)[0].values, [1.5, 2.0], atol=1e-12)

    def test_matches_gradient_descent(self, rng):
        X = rng.normal(size=(20, 3))
        y = rng.normal(size=20)
        lam = 0.7
        closed = fit(Dataset(X, y), lam)[0].values
        iterative = gradient_descent_ridge(X, y, lam)
        np.testing.assert_allclose(closed, iterative, atol=1e-6, rtol=1e-6)

    def test_singular_without_ridge(self):
        X = np.array([[1.0, 1.0], [2.0, 2.0], [-1.0, -1.0]])  # duplicate column
        ds = Dataset(X, np.array([1.0, 2.0, 3.0]))
        with pytest.raises(SingularMatrix):
            fit(ds, 0.0)
        assert fit(ds, 1.0)[0].values.shape == (2,)

    def test_negative_ridge_rejected(self):
        ds = Dataset(np.eye(2), np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            fit(ds, -0.5)


class TestInfluenceMatrix:
    """The influence matrix `fit` returns."""

    def test_identity_design(self):
        ds = Dataset(np.eye(2), np.array([1.0, 1.0]))
        np.testing.assert_allclose(fit(ds, 0.0)[1].values, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(fit(ds, 1.0)[1].values, 0.5 * np.eye(2), atol=1e-12)

    def test_reproduces_solve_for_any_labels(self, rng):
        X = rng.normal(size=(10, 3))
        _, inf = fit(Dataset(X, np.zeros(10)), 0.3)
        for _ in range(5):
            y = rng.normal(size=10)
            theta = fit(Dataset(X, y), 0.3)[0].values
            np.testing.assert_allclose(inf.values @ y, theta, rtol=1e-9, atol=1e-12)

    def test_shape(self, rng):
        ds = Dataset(rng.normal(size=(7, 4)), rng.normal(size=7))
        assert fit(ds, 0.1)[1].values.shape == (4, 7)

    def test_fit_shares_factorization(self, rng):
        # theta is C y from the same factorization, and both match a plain solve
        ds = Dataset(rng.normal(size=(12, 3)), rng.normal(size=12))
        theta, inf = fit(ds, 0.5)
        gram = ds.X.T @ ds.X + 0.5 * np.eye(3)
        np.testing.assert_array_equal(theta.values, inf.values @ ds.y)
        np.testing.assert_allclose(inf.values, np.linalg.solve(gram, ds.X.T), rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(
            theta.values, np.linalg.solve(gram, ds.X.T @ ds.y), rtol=1e-10, atol=1e-12
        )

    def test_solve_chunks_cover_every_column(self, rng, monkeypatch):
        # 3 identity columns and 11 training rows, two at a time: each last chunk holds one
        ds = Dataset(rng.normal(size=(11, 3)), rng.normal(size=11))
        whole = fit(ds, 0.5)[1].values
        monkeypatch.setattr(linalg, "SOLVE_ELEMS", 2 * 3 + 1)
        chunked = fit(ds, 0.5)[1].values
        np.testing.assert_allclose(chunked, whole, rtol=1e-12, atol=1e-15)
        gram = ds.X.T @ ds.X + 0.5 * np.eye(3)
        np.testing.assert_allclose(chunked, np.linalg.solve(gram, ds.X.T), rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("m", [1, 3])
    def test_one_entry_chunks(self, rng, monkeypatch, m):
        # SOLVE_ELEMS = 1: every identity column and every training row is its own chunk
        ds = Dataset(rng.normal(size=(9, m)), rng.normal(size=9))
        whole = fit(ds, 0.5)[1].values
        monkeypatch.setattr(linalg, "SOLVE_ELEMS", 1)
        np.testing.assert_allclose(fit(ds, 0.5)[1].values, whole, rtol=1e-12, atol=0)

    def test_accurate_near_pivot_guard(self):
        # two nearly collinear columns put the pivot ratio within a decade above the guard
        rng = np.random.default_rng(0)
        X = rng.normal(size=(60, 4))
        X[:, 3] = X[:, 2] + 2e-6 * rng.normal(size=60)
        gram = X.T @ X
        ratio = np.linalg.cholesky(gram).diagonal().min() ** 2 / gram.diagonal().max()
        assert linalg.PIVOT_RATIO_THRESHOLD <= ratio <= 10 * linalg.PIVOT_RATIO_THRESHOLD
        C = fit(Dataset(X, np.zeros(60)), 0.0)[1].values
        reference = np.linalg.solve(gram, X.T)
        # forward error of order kappa(G) u for the inverse and for the reference solve
        bound = 4 * np.linalg.cond(gram) * np.finfo(float).eps / 2 * np.abs(reference).max()
        assert np.abs(C - reference).max() <= bound


class TestInfluenceVector:
    def test_unit_vector_selects_row(self):
        inf = InfluenceMatrix(np.eye(2), 0.0)
        np.testing.assert_array_equal(influence_vector(np.array([1.0, 0.0]), inf), [1.0, 0.0])

    def test_half_identity(self):
        inf = InfluenceMatrix(0.5 * np.eye(2), 1.0)
        np.testing.assert_array_equal(
            influence_vector(np.array([1.0, 1.0]), inf), [0.5, 0.5]
        )

    def test_agrees_with_prediction(self, rng):
        ds = Dataset(rng.normal(size=(15, 3)), rng.normal(size=15))
        theta, inf = fit(ds, 0.2)
        for _ in range(5):
            x = rng.normal(size=3)
            z = influence_vector(x, inf)
            np.testing.assert_allclose(z @ ds.y, x @ theta.values, rtol=1e-9, atol=1e-12)

    def test_dimension_mismatch(self):
        inf = InfluenceMatrix(np.eye(2), 0.0)
        with pytest.raises(DimensionMismatch):
            influence_vector(np.array([1.0, 2.0, 3.0]), inf)

    def test_linearity_in_single_label(self, rng):
        ds = Dataset(rng.normal(size=(9, 3)), rng.normal(size=9))
        _, inf = fit(ds, 0.1)
        z = influence_vector(rng.normal(size=3), inf)
        for i in (0, 4, 8):
            d = rng.normal() * 3.0
            bumped = ds.y.copy()
            bumped[i] += d
            change = z @ bumped - z @ ds.y
            np.testing.assert_allclose(change, z[i] * d, rtol=1e-9, atol=1e-12)


class TestPredict:
    """The linear model at a point, x . theta, as `export_attack` sums it."""

    def test_zero_coefficients(self, rng):
        theta = fit(Dataset(rng.normal(size=(6, 4)), np.zeros(6)), 0.1)[0]
        assert (rng.normal(size=4) * theta.values).sum() == 0.0

    def test_single_feature(self):
        theta = fit(Dataset(np.array([[2.0]]), np.array([6.5])), 0.0)[0]
        assert (np.array([1.0]) * theta.values).sum() == 3.25

    def test_interpolates_square_system(self, rng):
        X = np.eye(4) + 0.1 * rng.normal(size=(4, 4))
        y = rng.normal(size=4)
        theta = fit(Dataset(X, y), 0.0)[0]
        for i in range(4):
            np.testing.assert_allclose((X[i] * theta.values).sum(), y[i], rtol=1e-9, atol=1e-9)

    def test_dimension_mismatch(self):
        # a point of the wrong shape is refused before any prediction is formed
        inf = InfluenceMatrix(np.eye(2), 0.0)
        for bad in (np.array([1.0]), np.ones((3, 1)), np.ones((3, 2)), np.ones((2, 2, 2))):
            with pytest.raises(DimensionMismatch):
                influence_vector(bad, inf)


class TestDataset:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            Dataset(np.array([[1.0], [np.nan]]), np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            Dataset(np.eye(2), np.array([1.0, np.inf]))

    def test_rejects_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            Dataset(np.eye(3), np.array([1.0, 2.0]))
        with pytest.raises(DimensionMismatch):
            Dataset(np.eye(2), np.array([1.0, 2.0]), group_labels=("a",))

    def test_arrays_are_read_only(self):
        ds = Dataset(np.eye(2), np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            ds.X[0, 0] = 5.0
        with pytest.raises(ValueError):
            ds.y[0] = 5.0

    def test_subset_keeps_groups(self):
        ds = Dataset(np.eye(3), np.ones(3), group_labels=("a", "b", "c"))
        sub = ds.subset([2, 0])
        assert sub.group_labels == ("c", "a")
        np.testing.assert_array_equal(sub.y, [1.0, 1.0])

    def test_default_feature_names(self):
        ds = Dataset(np.eye(2), np.ones(2))
        assert ds.feature_names == ("x0", "x1")
