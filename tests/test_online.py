"""OnlinePredictor sliding-window tests: refit triggers and readiness
edges."""

import numpy as np
import pytest

from repro.core.online import OnlinePredictor
from repro.errors import ModelError, NotFittedError


def _stream(n, n_features=5, n_metrics=6, seed=0):
    rng = np.random.default_rng(seed)
    features = rng.lognormal(mean=2.0, sigma=1.0, size=(n, n_features))
    weights = rng.uniform(0.3, 1.0, size=(n_features, n_metrics))
    performance = np.log1p(features) @ weights
    return features, performance


class TestConstruction:
    def test_parameter_validation(self):
        with pytest.raises(ModelError):
            OnlinePredictor(window_size=3)
        with pytest.raises(ModelError):
            OnlinePredictor(refit_interval=0)
        with pytest.raises(ModelError):
            OnlinePredictor(recency_boost=1.5)

    def test_not_ready_before_data(self):
        predictor = OnlinePredictor()
        assert not predictor.is_ready
        assert len(predictor) == 0
        with pytest.raises(NotFittedError):
            predictor.model
        with pytest.raises(NotFittedError):
            predictor.predict(np.ones((1, 5)))


class TestRefitTriggers:
    def test_first_fit_exactly_at_min_fit_size(self):
        features, performance = _stream(30)
        predictor = OnlinePredictor(
            window_size=64, refit_interval=5, min_fit_size=10
        )
        for row in range(9):
            predictor.observe(features[row], performance[row])
            assert not predictor.is_ready  # one short of the floor
        predictor.observe(features[9], performance[9])
        assert predictor.is_ready
        assert predictor.refit_count == 1

    def test_refit_interval_boundary(self):
        features, performance = _stream(40)
        predictor = OnlinePredictor(
            window_size=64, refit_interval=7, min_fit_size=10
        )
        for row in range(10):
            predictor.observe(features[row], performance[row])
        assert predictor.refit_count == 1
        # Six more observations: strictly inside the interval, no refit.
        for row in range(10, 16):
            predictor.observe(features[row], performance[row])
            assert predictor.refit_count == 1
        # The seventh crosses the boundary.
        predictor.observe(features[16], performance[16])
        assert predictor.refit_count == 2

    def test_interval_one_refits_every_observation(self):
        features, performance = _stream(16)
        predictor = OnlinePredictor(
            window_size=32, refit_interval=1, min_fit_size=10
        )
        for row in range(13):
            predictor.observe(features[row], performance[row])
        assert predictor.refit_count == 4  # at 10, 11, 12, 13

    def test_window_bound_respected(self):
        features, performance = _stream(50)
        predictor = OnlinePredictor(
            window_size=16, refit_interval=50, min_fit_size=10
        )
        for row in range(50):
            predictor.observe(features[row], performance[row])
        assert len(predictor) == 16

    def test_feature_width_change_rejected(self):
        features, performance = _stream(5)
        predictor = OnlinePredictor(min_fit_size=4)
        predictor.observe(features[0], performance[0])
        with pytest.raises(ModelError, match="width"):
            predictor.observe(np.ones(3), performance[1])

    def test_bulk_fit_requires_min_size(self):
        features, performance = _stream(8)
        predictor = OnlinePredictor(min_fit_size=10)
        with pytest.raises(ModelError, match="at least"):
            predictor.fit(features, performance)

    def test_bulk_fit_refits_once(self):
        features, performance = _stream(30)
        predictor = OnlinePredictor(
            window_size=64, refit_interval=5, min_fit_size=10
        )
        predictor.fit(features, performance)
        assert predictor.is_ready
        assert predictor.refit_count == 1
        assert len(predictor) == 30
