"""Numerical robustness of the KCCA stack under adversarial inputs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.api import QueryPerformancePredictor
from repro.core import predictor as predictor_module
from repro.core.cca import CCA
from repro.core.kcca import KCCA
from repro.core.kernels import gaussian_kernel_matrix, scale_factor_heuristic
from repro.core.predictor import KCCAPredictor
from repro.errors import ModelError
from repro.workloads.generator import generate_pool
from repro.workloads.spec import resolve_workload

paired_data = st.integers(8, 40).flatmap(
    lambda n: st.tuples(
        arrays(np.float64, (n, 3), elements=st.floats(-1e4, 1e4)),
        arrays(np.float64, (n, 2), elements=st.floats(-1e4, 1e4)),
    )
)


class TestKCCAStability:
    @given(paired_data)
    @settings(max_examples=30, deadline=None)
    def test_correlations_always_in_unit_interval(self, data):
        """Property: canonical correlations stay in [0, 1] and finite for
        arbitrary (even degenerate) input data."""
        x, y = data
        tau_x = scale_factor_heuristic(x, 0.1)
        tau_y = scale_factor_heuristic(y, 0.2)
        kx = gaussian_kernel_matrix(x, tau_x)
        ky = gaussian_kernel_matrix(y, tau_y)
        model = KCCA(n_components=3).fit(kx, ky)
        assert np.isfinite(model.correlations).all()
        assert (model.correlations >= 0).all()
        assert (model.correlations <= 1).all()
        assert np.isfinite(model.x_projection).all()
        assert np.isfinite(model.y_projection).all()

    @given(paired_data)
    @settings(max_examples=20, deadline=None)
    def test_projection_of_training_rows_is_finite(self, data):
        x, y = data
        kx = gaussian_kernel_matrix(x, scale_factor_heuristic(x, 0.1))
        ky = gaussian_kernel_matrix(y, scale_factor_heuristic(y, 0.2))
        model = KCCA(n_components=2).fit(kx, ky)
        projected = model.project_x(kx)
        assert np.isfinite(projected).all()

    def test_duplicate_training_rows(self):
        """Identical rows make the kernel rank-deficient; the regularised
        solve must still return something sane."""
        x = np.vstack([np.ones((10, 3)), np.zeros((10, 3))])
        y = np.vstack([np.full((10, 2), 5.0), np.zeros((10, 2))])
        kx = gaussian_kernel_matrix(x, 1.0)
        ky = gaussian_kernel_matrix(y, 1.0)
        model = KCCA(n_components=2).fit(kx, ky)
        assert np.isfinite(model.correlations).all()

    def test_constant_performance_metrics(self):
        """A constant metric column (e.g. disk I/O always zero) must not
        break training or prediction."""
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 1, (60, 4))
        base = x[:, 0] * 10 + 1
        y = np.column_stack(
            [base, np.zeros(60), base * 2, base, np.zeros(60), base]
        )
        model = KCCAPredictor(log_features=False).fit(x, y)
        predicted = model.predict(x[:5])
        assert np.isfinite(predicted).all()
        assert np.allclose(predicted[:, 1], 0.0)
        assert np.allclose(predicted[:, 4], 0.0)

    def test_extreme_feature_magnitudes(self):
        """Cardinality features span 1..1e8; conditioning must cope."""
        rng = np.random.default_rng(1)
        x = np.column_stack(
            [
                rng.uniform(0, 5, 80),
                rng.uniform(1, 1e8, 80),
                rng.uniform(0, 1e-6, 80),
            ]
        )
        y = np.column_stack([x[:, 1] / 1e6 + 1] * 6)
        model = KCCAPredictor().fit(x, y)
        predicted = model.predict(x[:10])
        assert np.isfinite(predicted).all()
        assert (predicted > 0).all()

    def test_single_feature_column(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(0, 1, (50, 1))
        y = np.column_stack([x[:, 0] * 100 + 1] * 6)
        model = KCCAPredictor(log_features=False).fit(x, y)
        assert np.isfinite(model.predict(x[:3])).all()

    @given(st.integers(1, 6))
    @settings(max_examples=6, deadline=None)
    def test_components_never_exceed_n_minus_one(self, n_components):
        x = np.random.default_rng(3).uniform(0, 1, (5, 2))
        y = x * 2
        kx = gaussian_kernel_matrix(x, 1.0)
        ky = gaussian_kernel_matrix(y, 1.0)
        model = KCCA(n_components=n_components).fit(kx, ky)
        assert model.alpha.shape[1] <= 4


class TestDegenerateTrainingSets:
    """Training sets a workload can produce that leave nothing to learn
    from: too few rows is a ``ModelError``, the rest fit and forecast
    finite numbers."""

    X = np.random.default_rng(6).uniform(0, 1, (30, 4))
    Y = np.random.default_rng(7).uniform(1, 2, (30, 6))

    @pytest.mark.parametrize("n", [1, 3])
    def test_no_more_rows_than_neighbours(self, n):
        with pytest.raises(ModelError, match=rf"\({n} <= 3\)"):
            KCCAPredictor(k_neighbors=3).fit(self.X[:n], self.Y[:n])

    def test_every_row_a_duplicate(self):
        model = KCCAPredictor().fit(
            np.tile(self.X[:1], (30, 1)), np.tile(self.Y[:1], (30, 1))
        )
        predicted = model.predict(self.X[:5])
        assert np.isfinite(predicted).all()
        np.testing.assert_allclose(predicted, np.tile(self.Y[:1], (5, 1)))

    @pytest.mark.parametrize("columns", [[1], [0, 1, 2, 3]])
    def test_constant_feature_columns(self, columns):
        x = self.X.copy()
        x[:, columns] = 3.0
        model = KCCAPredictor().fit(x, self.Y)
        assert np.isfinite(model.predict(self.X[:5])).all()


class TestUnsolvableInputIsTyped:
    """A fit given NaN / infinity, or a covariance no factorisation takes,
    raises ``ModelError`` — it was scipy's ``ValueError`` or numpy's
    ``LinAlgError``, whichever layer met the value first."""

    X = np.random.default_rng(4).uniform(0, 1, (30, 4))
    Y = np.random.default_rng(5).uniform(1, 2, (30, 6))

    @staticmethod
    def _poisoned(data: np.ndarray, value: float) -> np.ndarray:
        data = data.copy()
        data[3, 1] = data[7, 0] = value
        return data

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=repr)
    def test_predictor_names_the_input_and_the_count(self, value):
        with pytest.raises(ModelError, match=r"plan features hold 2 non-finite"):
            KCCAPredictor().fit(self._poisoned(self.X, value), self.Y)
        with pytest.raises(ModelError, match=r"performance values hold 2 non-finite"):
            KCCAPredictor().fit(self.X, self._poisoned(self.Y, value))

    def test_kcca_refuses_a_non_finite_kernel_entry(self):
        kernel = gaussian_kernel_matrix(self.X, 1.0)
        with pytest.raises(ModelError, match=r"query kernel entries hold 2 non-finite"):
            KCCA().fit(self._poisoned(kernel, np.nan), kernel)
        with pytest.raises(ModelError, match=r"performance kernel entries hold 2"):
            KCCA().fit(kernel, self._poisoned(kernel, np.inf))

    def test_cca_refuses_non_finite_samples(self):
        with pytest.raises(ModelError, match=r"x-view samples hold 2 non-finite"):
            CCA().fit(self._poisoned(self.X, np.nan), self.Y)
        with pytest.raises(ModelError, match=r"y-view samples hold 2 non-finite"):
            CCA().fit(self.X, self._poisoned(self.Y, np.inf))

    def test_cca_covariance_that_is_not_positive_definite(self):
        constant = np.column_stack([self.X, np.ones(len(self.X))])
        with pytest.raises(ModelError, match="cannot fit CCA"):
            CCA(regularization=0.0).fit(constant, self.Y)

    @pytest.mark.parametrize("tau", [0.0, -1.0, np.nan], ids=repr)
    def test_a_kernel_width_that_is_not_positive_is_named(self, tau):
        """It was the kernel's untyped ``ValueError: tau must be positive``
        (NaN passed that check and met the fit's finiteness check as a
        kernel full of NaN, which named neither the parameter nor tau)."""
        with pytest.raises(ModelError, match="query_tau must be a positive number"):
            KCCAPredictor(query_tau=tau).fit(self.X, self.Y)

    def test_a_failed_factorisation_inside_kcca_is_typed(self, monkeypatch):
        def no_convergence(*_args, **_kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        kernel = gaussian_kernel_matrix(self.X, 1.0)
        monkeypatch.setattr(np.linalg, "svd", no_convergence)
        with pytest.raises(ModelError, match="cannot fit KCCA: SVD did not converge"):
            KCCA().fit(kernel, kernel)


# ----------------------------------------------------------------------
# The Cholesky path as oracle.  The fit runs on numpy's LU solves; what
# it replaced — scipy's ``assume_a="pos"`` solves, ``eigh``, ``cholesky``
# and ``solve_triangular`` — is kept here, as it stood, to bound how far
# the two can drift.
# ----------------------------------------------------------------------

ORACLE_RTOL = 1e-9


class _ScipyKCCA(KCCA):
    """``KCCA`` with the solves as the Cholesky path wrote them, the
    performance projection included: ``Ky @ beta`` with ``beta`` a solve
    of its own, where the fit reads it off a solve it already makes.  Also
    keeps the kernels it was given, so a test can refit on them."""

    def fit(self, kx, ky):
        self.kernels = (kx, ky)
        return super().fit(kx, ky)

    def _solve(self, kx_c, ky_c, ridge, d):
        import scipy.linalg

        n = kx_c.shape[0]
        ax = kx_c + ridge * np.eye(n)
        ay = ky_c + ridge * np.eye(n)
        px = scipy.linalg.solve(ax, kx_c, assume_a="pos")
        py = scipy.linalg.solve(ay, ky_c, assume_a="pos")
        u, s, vt = np.linalg.svd(px @ py.T, full_matrices=False)
        beta = scipy.linalg.solve(ay, vt[:d].T, assume_a="pos")
        return (
            scipy.linalg.solve(ax, u[:, :d], assume_a="pos"),
            ky_c @ beta,
            np.clip(s[:d], 0.0, 1.0),
        )


def _scipy_cca(x, y, n_components=2, regularization=1e-6):
    """``CCA.fit`` as the parent commit wrote it: (x_weights, y_weights,
    correlations)."""
    import scipy.linalg

    n = x.shape[0]
    xc = x - x.mean(axis=0)
    yc = y - y.mean(axis=0)
    cxx = (xc.T @ xc) / (n - 1)
    cyy = (yc.T @ yc) / (n - 1)
    cxy = (xc.T @ yc) / (n - 1)
    for cov in (cxx, cyy):
        width = cov.shape[0]
        cov += regularization * np.trace(cov) / max(width, 1) * np.eye(
            width
        ) + regularization * np.eye(width)
    lx = scipy.linalg.cholesky(cxx, lower=True)
    ly = scipy.linalg.cholesky(cyy, lower=True)
    whitened = scipy.linalg.solve_triangular(lx, cxy, lower=True)
    whitened = scipy.linalg.solve_triangular(ly, whitened.T, lower=True).T
    u, s, vt = np.linalg.svd(whitened, full_matrices=False)
    d = min(n_components, len(s))
    return (
        scipy.linalg.solve_triangular(lx.T, u[:, :d], lower=False),
        scipy.linalg.solve_triangular(ly.T, vt[:d].T, lower=False),
        np.clip(s[:d], 0.0, 1.0),
    )


def _distance(ours: np.ndarray, oracle: np.ndarray) -> float:
    """Largest entry-wise difference, relative to the oracle's largest entry."""
    assert ours.shape == oracle.shape
    return float(np.abs(ours - oracle).max() / np.abs(oracle).max())


@pytest.fixture(scope="module")
def gate_models():
    """The gate's model (tpcds, 300 queries, scale 0.05, seed 7) and the
    same corpus fitted through the scipy expressions."""
    pytest.importorskip("scipy.linalg")
    ours = QueryPerformancePredictor.train_on_workload(
        "tpcds", n_queries=300, scale=0.05, seed=7
    )
    oracle = QueryPerformancePredictor(ours.catalog, config=ours.config)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(predictor_module, "KCCA", _ScipyKCCA)
        oracle.fit_corpus(ours.training_corpus)
    return ours, oracle


class TestCholeskyOracle:
    def test_kcca_fit_agrees_with_the_scipy_expressions(self, gate_models):
        _ours, oracle = gate_models
        kx, ky = oracle.pipeline.model._kcca.kernels
        assert kx.shape == (300, 300)
        fitted = KCCA(n_components=8).fit(kx, ky)
        reference = _ScipyKCCA(n_components=8).fit(kx, ky)
        worst = max(
            _distance(fitted.alpha, reference.alpha),
            _distance(fitted.x_projection, reference.x_projection),
            _distance(fitted.y_projection, reference.y_projection),
            _distance(fitted.correlations, reference.correlations),
        )
        print(f"kcca: max relative distance {worst:.3e}")
        assert worst < ORACLE_RTOL

    def test_cca_fit_agrees_with_the_scipy_expressions(self, gate_models):
        corpus = gate_models[0].training_corpus
        x, y = corpus.feature_matrix(), corpus.performance_matrix()
        assert x.shape[0] == 300
        fitted = CCA(n_components=2).fit(x, y)
        x_weights, y_weights, correlations = _scipy_cca(x, y)
        worst = max(
            _distance(fitted.x_weights, x_weights),
            _distance(fitted.y_weights, y_weights),
            _distance(fitted.correlations, correlations),
        )
        print(f"cca: max relative distance {worst:.3e}")
        assert worst < ORACLE_RTOL

    def test_gate_forecasts_agree_with_the_scipy_fit(self, gate_models):
        """600 held-out statements: the same three neighbours and category
        for every one, the six metrics within tolerance."""
        ours, oracle = gate_models
        compiled = resolve_workload("tpcds")
        sqls = [q.sql for q in generate_pool(600, seed=33, workload=compiled)]
        features = np.vstack([ours.features_for(sql) for sql in sqls])
        for mine, theirs in zip(
            ours.pipeline.model.predict_detailed(features),
            oracle.pipeline.model.predict_detailed(features),
        ):
            assert list(mine.neighbor_indices) == list(theirs.neighbor_indices)
        worst = 0.0
        for mine, theirs in zip(ours.forecast_many(sqls), oracle.forecast_many(sqls)):
            assert mine.category == theirs.category
            a, b = mine.metrics.as_vector(), theirs.metrics.as_vector()
            scale = np.maximum(np.abs(b), np.finfo(np.float64).tiny)
            worst = max(worst, float((np.abs(a - b) / scale).max()))
        print(f"forecasts: max relative distance {worst:.3e}")
        assert worst < ORACLE_RTOL
