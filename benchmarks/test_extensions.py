"""Benchmarks for the paper's discussion/future-work claims.

* Section VII-C.2 — which query operators drive the performance model
  (the paper's cursory finding: join counts/cardinalities contribute most);
* Section VII-C.3 — neighbour distance flags anomalous queries;
* Section VIII — sliding-window retraining adapts to a system change
  (e.g. the OS upgrade that degraded Figure 10's bowling balls);
* Section VIII — calibrating optimizer cost to seconds still cannot match
  KCCA (quantifying Figure 17's message).
"""

import numpy as np

from repro.core.calibration import CostCalibrator
from repro.core.confidence import ConfidenceModel
from repro.core.features import PLAN_FEATURE_NAMES
from repro.core.importance import feature_contributions
from repro.core.metrics import predictive_risk
from repro.core.online import OnlinePredictor
from repro.core.predictor import KCCAPredictor


def test_feature_importance_joins_dominate(
    benchmark, experiment1_split, print_header
):
    """Section VII-C.2: join operators contribute most."""
    train, test = experiment1_split

    def run():
        model = KCCAPredictor().fit(
            train.feature_matrix(), train.performance_matrix()
        )
        return feature_contributions(
            model,
            test.feature_matrix(),
            train.feature_matrix(),
            PLAN_FEATURE_NAMES,
        )

    contributions = benchmark.pedantic(run, rounds=1, iterations=1)

    print_header("Section VII-C.2 — feature contributions (top 12)")
    for c in contributions[:12]:
        print(f"  {c.name:<28} similarity={c.similarity:.3f} "
              f"active={c.active_fraction:.2f} score={c.score:.3f}")

    top_names = {c.name for c in contributions[:12]}
    join_features = {
        name
        for name in top_names
        if "join" in name or "scan" in name
    }
    assert join_features, "join/scan features should rank among the top"


def test_confidence_flags_out_of_distribution(
    benchmark, experiment1_split, customer_corpus, print_header
):
    """Section VII-C.3: far-from-training queries get low confidence."""
    train, test = experiment1_split

    def run():
        model = KCCAPredictor().fit(
            train.feature_matrix(), train.performance_matrix()
        )
        confidence = ConfidenceModel(model)
        in_dist = confidence.assess(test.feature_matrix())
        out_dist = confidence.assess(customer_corpus.feature_matrix())
        return in_dist, out_dist

    in_dist, out_dist = benchmark.pedantic(run, rounds=1, iterations=1)
    in_mean = float(np.mean([r.distance for r in in_dist]))
    out_mean = float(np.mean([r.distance for r in out_dist]))

    print_header("Section VII-C.3 — neighbour-distance confidence")
    print(f"  mean distance, in-distribution test queries : {in_mean:.4f}")
    print(f"  mean distance, different-schema queries     : {out_mean:.4f}")
    print(f"  flagged anomalous (in-dist): "
          f"{sum(r.anomalous for r in in_dist)}/{len(in_dist)}")
    print(f"  flagged anomalous (cross-schema): "
          f"{sum(r.anomalous for r in out_dist)}/{len(out_dist)}")

    assert out_mean > in_mean, (
        "cross-schema queries should sit farther from their neighbours"
    )


def test_online_retraining_adapts_to_upgrade(
    benchmark, experiment1_split, print_header
):
    """Section VIII: a sliding window tracks a system change; a frozen
    model keeps predicting the old regime (the Figure 10 OS-upgrade
    effect)."""
    train, test = experiment1_split
    features = train.feature_matrix()
    performance = train.performance_matrix()
    upgrade_factor = 2.5  # the "upgraded" system runs 2.5x slower

    def run():
        n = len(features)
        half = n // 2
        frozen = KCCAPredictor().fit(
            features[:half], performance[:half]
        )
        online = OnlinePredictor(
            window_size=half, min_fit_size=100, refit_interval=100
        )
        for i in range(half):
            online.observe(features[i], performance[i])
        for i in range(half, n):
            online.observe(features[i], performance[i] * upgrade_factor)
        test_actual = test.performance_matrix() * upgrade_factor
        frozen_risk = predictive_risk(
            frozen.predict(test.feature_matrix())[:, 0], test_actual[:, 0]
        )
        online_risk = predictive_risk(
            online.predict(test.feature_matrix())[:, 0], test_actual[:, 0]
        )
        return frozen_risk, online_risk

    frozen_risk, online_risk = benchmark.pedantic(run, rounds=1, iterations=1)

    print_header("Section VIII — sliding-window retraining after an upgrade")
    print(f"  frozen model elapsed risk on upgraded system : {frozen_risk:.3f}")
    print(f"  online model elapsed risk on upgraded system : {online_risk:.3f}")

    assert online_risk > frozen_risk
    assert online_risk > 0.5


def test_calibrated_cost_still_loses_to_kcca(
    benchmark, experiment1_split, print_header
):
    """Section VIII: even a site-calibrated cost-to-seconds mapping
    scatters far more than KCCA."""
    train, test = experiment1_split

    def run():
        calibrator = CostCalibrator().fit(
            train.optimizer_costs(), train.elapsed_times()
        )
        calibrated = calibrator.predict_seconds(test.optimizer_costs())
        calibrated_risk = predictive_risk(calibrated, test.elapsed_times())
        scatter = calibrator.scatter_factors(
            test.optimizer_costs(), test.elapsed_times()
        )
        model = KCCAPredictor().fit(
            train.feature_matrix(), train.performance_matrix()
        )
        kcca_risk = predictive_risk(
            model.predict(test.feature_matrix())[:, 0], test.elapsed_times()
        )
        return calibrated_risk, kcca_risk, scatter

    calibrated_risk, kcca_risk, scatter = benchmark.pedantic(
        run, rounds=1, iterations=1
    )

    print_header("Section VIII — calibrated optimizer cost vs KCCA")
    print(f"  calibrated-cost elapsed risk : {calibrated_risk:.3f}")
    print(f"  KCCA elapsed risk            : {kcca_risk:.3f}")
    print(f"  median cost scatter factor   : {np.median(scatter):.2f}x, "
          f"max {scatter.max():.1f}x")

    assert kcca_risk > calibrated_risk
    assert scatter.max() > 2.0

