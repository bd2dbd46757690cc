"""The paper's evaluation as one table: one row per table or figure.

``EXPERIMENTS`` holds one :class:`Experiment` row per artifact of the
paper's Section VII, and per study beyond it (ablations, per-family
accuracy): the corpora it reads, the paper's values, its runner, its
floors and the EXPERIMENTS.md section it renders.  The paper's values
are written here and nowhere else.  ``CORPORA`` holds one
:class:`PinnedCorpus` per measured corpus: its builder and the sha256 of
its cache file.

``python -m repro.experiments`` (no arguments) builds or loads every
corpus and refuses one whose digest differs from its pin, runs every
row, checks every floor, and writes EXPERIMENTS.md.  It exits non-zero,
naming the row and the floor, when a floor fails.

Corpora are cached under ``data/corpora`` (override with the
``REPRO_DATA_DIR`` environment variable).  From an empty cache the six
builds take about 2.5 minutes on a 2-vCPU machine, nearly all of it the
research corpus; a run over cached corpora takes well under a minute.

The runners (``fig2_query_pools`` ... ``sec8_calibrated_cost``) take
corpora or a ``(train, test)`` split and return plain result objects,
so tests drive them on small corpora.
"""

from __future__ import annotations

import hashlib
import math
import operator
import os
import sys
import textwrap
from dataclasses import dataclass, field, replace
from functools import lru_cache, partial
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Mapping, Optional, Sequence, Union

import numpy as np

from repro.core.calibration import CostCalibrator
from repro.core.confidence import ConfidenceModel
from repro.core.features import PLAN_FEATURE_NAMES
from repro.core.importance import FeatureContribution, feature_contributions
from repro.core.metrics import (
    classification_accuracy,
    predictive_risk,
    predictive_risk_without_outliers,
    within_factor_fraction,
    within_fraction,
)
from repro.core.neighbors import nearest_neighbors
from repro.core.online import OnlinePredictor
from repro.core.predictor import KCCAPredictor
from repro.core.regression import MultiMetricRegression
from repro.core.two_step import TwoStepPredictor
from repro.engine.metrics import METRIC_NAMES
from repro.engine.system import production_32node, research_4node
from repro.errors import ReproError
from repro.experiments.ablations import (
    ablation_components,
    ablation_feature_encoding,
    ablation_model_classes,
    ablation_regularization,
    ablation_scale_heuristic,
    timing_profile,
)
from repro.experiments.corpus import Corpus, build_corpus, load_or_build_corpus
from repro.experiments.harness import (
    evaluate_by_family,
    evaluate_metrics,
    evaluate_pipeline,
    fit_pipeline,
    split_counts,
    stratified_split,
)
from repro.experiments.report import METRIC_LABELS, format_value, hms
from repro.rng import child_generator
from repro.workloads.categories import QueryCategory
from repro.workloads.customer import build_customer_catalog, customer_templates
from repro.workloads.generator import generate_pool
from repro.workloads.spec import WorkloadRef, build_catalog_for, resolve_workload
from repro.workloads.templates import tpcds_templates
from repro.workloads.tpcds import build_tpcds_catalog

__all__ = [
    "CORPORA",
    "EXPERIMENTS",
    "Experiment",
    "Floor",
    "PinnedCorpus",
    "data_dir",
    "experiment1_split",
    "main",
    "paper_text",
    "pinned_corpus",
    "fig2_query_pools",
    "fig3_fig4_regression",
    "fig6_projections",
    "fig8_sql_text_features",
    "tab1_distance_metrics",
    "tab2_neighbor_counts",
    "tab3_weighting_schemes",
    "fig10_to_12_experiment1",
    "fig13_experiment2",
    "fig14_experiment3",
    "fig15_experiment4",
    "fig16_production_configs",
    "fig17_optimizer_cost",
    "sec7c2_feature_importance",
    "sec7c3_confidence",
    "sec8_online_retraining",
    "sec8_calibrated_cost",
    "FamilyAccuracyResult",
    "workload_family_accuracy",
    "workload_family_report",
    "WORKLOAD_FAMILY_SUITE",
]

#: Paper split for Experiment 1 (Section VII-A.1).
EXPERIMENT1_TRAIN = dict(feathers=767, golf=230, bowling=30)
EXPERIMENT1_TEST = dict(feathers=45, golf=7, bowling=9)
#: Experiment 2 (Section VII-A.2) trains on this many queries a category.
EXPERIMENT2_PER_CATEGORY = 30
#: Experiment 4 (Section VII-A.4) predicts this many customer queries.
CUSTOMER_TEST_SIZE = 45

_N_TRAIN = sum(EXPERIMENT1_TRAIN.values())
_N_TEST = sum(EXPERIMENT1_TEST.values())
#: Section VII-C.2 shows and checks the highest-scoring plan features.
_TOP_FEATURES = 12

_RESEARCH_POOL_SIZE = 1800
_RESEARCH_POOL_SEED = 11
_PRODUCTION_POOL_SIZE = 380
_PRODUCTION_POOL_SEED = 13
_PRODUCTION_NODES = (4, 8, 16, 32)
_CUSTOMER_POOL_SIZE = 60
_CUSTOMER_POOL_SEED = 17

#: Worker processes for a corpus build.  A parallel build is bitwise
#: identical to a serial one, so the pins hold for any value.
_BUILD_JOBS = 2

_ROOT = Path(__file__).resolve().parents[3]
_DOCUMENT = _ROOT / "EXPERIMENTS.md"
_ELAPSED = METRIC_NAMES.index("elapsed_time")


def data_dir() -> Path:
    """Corpus cache directory (env ``REPRO_DATA_DIR`` overrides)."""
    override = os.environ.get("REPRO_DATA_DIR")
    if override:
        return Path(override)
    return _ROOT / "data" / "corpora"


# ----------------------------------------------------------------------
# Corpora: one pinned row per measured corpus
# ----------------------------------------------------------------------


@lru_cache(maxsize=1)
def _tpcds_catalog():
    return build_tpcds_catalog(scale_factor=1.0, seed=42)


@lru_cache(maxsize=1)
def _customer_catalog():
    # Deliberately tiny: the paper's customer queries were "extremely
    # short-running (mini-feathers)", far below the TPC-DS training
    # floor — which is what makes one-model transfer over-predict.
    return build_customer_catalog(seed=99, scale=0.12)


def _build_research(jobs: Optional[int] = None) -> Corpus:
    """The main 4-node research-system corpus (1800 mixed queries)."""
    pool = generate_pool(
        _RESEARCH_POOL_SIZE, seed=_RESEARCH_POOL_SEED, problem_fraction=0.5
    )
    return build_corpus(_tpcds_catalog(), research_4node(), pool, jobs=jobs)


def _build_customer(jobs: Optional[int] = None) -> Corpus:
    """The different-schema customer workload (Experiment 4 test set)."""
    pool = generate_pool(
        _CUSTOMER_POOL_SIZE,
        seed=_CUSTOMER_POOL_SEED,
        templates=customer_templates(),
    )
    return build_corpus(_customer_catalog(), research_4node(), pool, jobs=jobs)


def _build_production(nodes_used: int, jobs: Optional[int] = None) -> Corpus:
    """The TPC-DS pool rerun on one production-system configuration."""
    pool = generate_pool(
        _PRODUCTION_POOL_SIZE,
        seed=_PRODUCTION_POOL_SEED,
        templates=tpcds_templates(),
    )
    return build_corpus(
        _tpcds_catalog(), production_32node(nodes_used), pool, jobs=jobs
    )


@dataclass(frozen=True)
class PinnedCorpus:
    """A measured corpus: how to build it and the sha256 of its cache file."""

    name: str
    build: Callable[..., Corpus]
    sha256: str

    @property
    def path(self) -> Path:
        return data_dir() / f"{self.name}.npz"

    def load(self) -> Corpus:
        """Load the cached corpus, building it first when the cache is
        missing or unreadable.

        Raises:
            ReproError: naming both digests, when the cache file's sha256
                differs from the pin.
        """
        corpus = load_or_build_corpus(self.path, self.build, jobs=_BUILD_JOBS)
        digest = hashlib.sha256(self.path.read_bytes()).hexdigest()
        if digest != self.sha256:
            raise ReproError(
                f"corpus {self.path} has sha256 {digest}, but {self.name} "
                f"is pinned to {self.sha256}; delete the file to rebuild it "
                "from this checkout"
            )
        return corpus


CORPORA: dict[str, PinnedCorpus] = {
    pin.name: pin
    for pin in (
        PinnedCorpus(
            "research_4node",
            _build_research,
            "394fc36519c60ccd26b87980a00ab6936d3afaab6584a5a95feface54c3ab05d",
        ),
        PinnedCorpus(
            "customer_4node",
            _build_customer,
            "400bfbf4c7b4a978c5d862f2b7831998b04a5b83082de662c6c7a242500d66a4",
        ),
        PinnedCorpus(
            "production_4cpu",
            partial(_build_production, 4),
            "19c14b0808d89fc3f432a0aed73aa5741815d0995ce17c6d0c75486e717cd152",
        ),
        PinnedCorpus(
            "production_8cpu",
            partial(_build_production, 8),
            "b9b0df81aec7ce5454739c187cee54cca33a82acac3ae48ad332e3c5a6f25be5",
        ),
        PinnedCorpus(
            "production_16cpu",
            partial(_build_production, 16),
            "fc99f34d73cdc7b27ad0bd9d9f944e5795e04ba4080e6aad59344549721d166f",
        ),
        PinnedCorpus(
            "production_32cpu",
            partial(_build_production, 32),
            "1a115a87df59235effb257f0c37dd5e00575a717165bce1dd41ed6946443d397",
        ),
    )
}


@lru_cache(maxsize=None)
def pinned_corpus(name: str) -> Corpus:
    """The pinned corpus ``name`` (loaded once per process)."""
    return CORPORA[name].load()


def experiment1_split(research: Corpus, seed: int = 5) -> tuple[Corpus, Corpus]:
    """The paper's Experiment 1 split of the research corpus."""
    train_counts, test_counts = split_counts(
        *EXPERIMENT1_TRAIN.values(), *EXPERIMENT1_TEST.values()
    )
    return stratified_split(research, train_counts, test_counts, seed=seed)


def _fit_kcca(train: Corpus) -> KCCAPredictor:
    return KCCAPredictor().fit(
        train.feature_matrix(), train.performance_matrix()
    )


# ----------------------------------------------------------------------
# Runners: one per row
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class PoolRow:
    """One row of the Figure 2 pool table."""

    category: str
    count: int
    mean_s: float
    min_s: float
    max_s: float


def fig2_query_pools(corpus: Corpus) -> list[PoolRow]:
    """Counts and runtime ranges per category (paper Figure 2)."""
    elapsed = corpus.elapsed_times()
    rows = []
    for category in (
        QueryCategory.FEATHER,
        QueryCategory.GOLF_BALL,
        QueryCategory.BOWLING_BALL,
        QueryCategory.WRECKING_BALL,
    ):
        mask = np.array([c == category for c in corpus.categories()])
        if not mask.any():
            continue
        values = elapsed[mask]
        rows.append(
            PoolRow(
                category=category.value,
                count=int(mask.sum()),
                mean_s=float(values.mean()),
                min_s=float(values.min()),
                max_s=float(values.max()),
            )
        )
    return rows


@dataclass(frozen=True)
class RegressionResult:
    """Regression baseline measured on the training set (Figures 3-4)."""

    metric: str
    predictive_risk: float
    negative_predictions: int
    n_queries: int
    zeroed_covariates: int


def fig3_fig4_regression(train: Corpus) -> dict[str, RegressionResult]:
    """Per-metric linear regression, self-predicted on the training set.

    The paper's Figures 3 and 4 plot regression predictions *for the
    training queries themselves* and call out the negative predictions.
    """
    features = train.feature_matrix()
    performance = train.performance_matrix()
    model = MultiMetricRegression(METRIC_NAMES).fit(features, performance)
    predicted = model.predict(features)
    negatives = model.negative_prediction_counts(features)
    results = {}
    for index, name in enumerate(METRIC_NAMES):
        results[name] = RegressionResult(
            metric=name,
            predictive_risk=predictive_risk(
                predicted[:, index], performance[:, index]
            ),
            negative_predictions=negatives[name],
            n_queries=len(train),
            zeroed_covariates=len(model.model_for(name).zeroed_features()),
        )
    return results


@dataclass(frozen=True)
class ProjectionResult:
    """How well KCCA's two projections of the training set agree (Figure 6)."""

    canonical_correlations: np.ndarray
    empirical_correlation: float
    category_agreement: float


def fig6_projections(split: tuple[Corpus, Corpus]) -> ProjectionResult:
    """Canonical correlations, the empirical correlation of the first
    query / performance components, and the share of each training
    query's three query-projection neighbours in its runtime category."""
    train, _test = split
    model = _fit_kcca(train)
    queries = model.query_projection
    performance = model.performance_projection
    indices, _distances = nearest_neighbors(queries, queries, 4)
    categories = train.categories()
    agree = [
        categories[neighbor] == categories[row]
        for row in range(len(queries))
        for neighbor in indices[row][1:]  # the first is the query itself
    ]
    return ProjectionResult(
        canonical_correlations=model.canonical_correlations,
        empirical_correlation=float(
            np.corrcoef(queries[:, 0], performance[:, 0])[0, 1]
        ),
        category_agreement=float(np.mean(agree)),
    )


@dataclass(frozen=True)
class FeatureComparisonResult:
    """KCCA accuracy with SQL-text vs query-plan features (Figure 8)."""

    sql_text_risk: dict[str, float]
    plan_risk: dict[str, float]


def fig8_sql_text_features(
    split: tuple[Corpus, Corpus],
) -> FeatureComparisonResult:
    """KCCA on SQL-text statistics (poor) vs on plan features (good)."""
    train, test = split
    sql_model = KCCAPredictor().fit(
        train.sql_feature_matrix(), train.performance_matrix()
    )
    sql_pred = sql_model.predict(test.sql_feature_matrix())
    plan_pipeline = fit_pipeline(train)
    actual = test.performance_matrix()
    return FeatureComparisonResult(
        sql_text_risk=evaluate_metrics(sql_pred, actual),
        plan_risk=evaluate_pipeline(plan_pipeline, test),
    )


def tab1_distance_metrics(
    split: tuple[Corpus, Corpus],
) -> dict[str, dict[str, float]]:
    """Predictive risk per metric: Euclidean vs cosine neighbours."""
    train, test = split
    model = _fit_kcca(train)
    results = {}
    for metric in ("euclidean", "cosine"):
        model.distance_metric = metric
        predicted = model.predict(test.feature_matrix())
        results[metric] = evaluate_metrics(predicted, test.performance_matrix())
    model.distance_metric = "euclidean"
    return results


def tab2_neighbor_counts(
    split: tuple[Corpus, Corpus],
    ks: tuple[int, ...] = (3, 4, 5, 6, 7),
) -> dict[int, dict[str, float]]:
    """Predictive risk per metric for k in 3..7 nearest neighbours."""
    train, test = split
    model = _fit_kcca(train)
    results = {}
    for k in ks:
        model.k_neighbors = k
        predicted = model.predict(test.feature_matrix())
        results[k] = evaluate_metrics(predicted, test.performance_matrix())
    model.k_neighbors = 3
    return results


def tab3_weighting_schemes(
    split: tuple[Corpus, Corpus],
) -> dict[str, dict[str, float]]:
    """Predictive risk per metric: equal vs 3:2:1 vs distance weighting."""
    train, test = split
    model = _fit_kcca(train)
    results = {}
    for weighting in ("equal", "ranked", "distance"):
        model.weighting = weighting
        predicted = model.predict(test.feature_matrix())
        results[weighting] = evaluate_metrics(
            predicted, test.performance_matrix()
        )
    model.weighting = "equal"
    return results


@dataclass(frozen=True)
class Experiment1Result:
    """KCCA accuracy on one train/test split (Figures 10-13)."""

    risk: dict[str, float]
    risk_without_worst: dict[str, float]
    within_20pct_elapsed: float
    n_train: int
    n_test: int
    predicted: np.ndarray = field(repr=False)
    actual: np.ndarray = field(repr=False)


def _kcca_accuracy(train: Corpus, test: Corpus) -> Experiment1Result:
    """Fit the standard pipeline on ``train`` and score it on ``test``."""
    pipeline = fit_pipeline(train)
    predicted = pipeline.predict(test.feature_matrix())
    actual = test.performance_matrix()
    risk_wo = {
        name: predictive_risk_without_outliers(
            predicted[:, i], actual[:, i], drop=1
        )
        for i, name in enumerate(METRIC_NAMES)
    }
    return Experiment1Result(
        risk=evaluate_metrics(predicted, actual),
        risk_without_worst=risk_wo,
        within_20pct_elapsed=within_fraction(
            predicted[:, _ELAPSED], actual[:, _ELAPSED], 0.2
        ),
        n_train=len(train),
        n_test=len(test),
        predicted=predicted,
        actual=actual,
    )


def fig10_to_12_experiment1(split: tuple[Corpus, Corpus]) -> Experiment1Result:
    """Experiment 1: train on the realistic mix, test on the held-out 61."""
    return _kcca_accuracy(*split)


def fig13_experiment2(corpus: Corpus, seed: int = 5) -> Experiment1Result:
    """Experiment 2: train on only 30 queries of each category.

    The test quota and seed are Experiment 1's, so the test set coincides.
    """
    train_counts, test_counts = split_counts(
        *(EXPERIMENT2_PER_CATEGORY,) * 3, *EXPERIMENT1_TEST.values()
    )
    return _kcca_accuracy(
        *stratified_split(corpus, train_counts, test_counts, seed=seed)
    )


@dataclass(frozen=True)
class TwoStepResult:
    """Two-step vs one-model accuracy (Figure 14)."""

    one_model_risk: dict[str, float]
    two_step_risk: dict[str, float]
    classification_accuracy: float
    within_20pct_elapsed_two_step: float


def fig14_experiment3(split: tuple[Corpus, Corpus]) -> TwoStepResult:
    """Experiment 3: classify query type, then type-specific prediction."""
    train, test = split
    one_pred = fit_pipeline(train).predict(test.feature_matrix())
    two_pipeline = fit_pipeline(train, model=TwoStepPredictor())
    two_pred = two_pipeline.predict(test.feature_matrix())
    actual = test.performance_matrix()
    labels = two_pipeline.model.classify(test.feature_matrix())
    return TwoStepResult(
        one_model_risk=evaluate_metrics(one_pred, actual),
        two_step_risk=evaluate_metrics(two_pred, actual),
        classification_accuracy=classification_accuracy(
            labels, test.categories()
        ),
        within_20pct_elapsed_two_step=within_fraction(
            two_pred[:, _ELAPSED], actual[:, _ELAPSED], 0.2
        ),
    )


@dataclass(frozen=True)
class SchemaTransferResult:
    """Cross-schema prediction of customer queries (Figure 15)."""

    one_model_risk_elapsed: float
    two_step_risk_elapsed: float
    one_model_median_ratio: float
    two_step_median_ratio: float
    one_model_within_10x: float
    two_step_within_10x: float
    n_test: int


def fig15_experiment4(
    split: tuple[Corpus, Corpus], customer: Corpus
) -> SchemaTransferResult:
    """Experiment 4: train on TPC-DS, predict a different-schema workload.

    The median predicted/actual ratio and the within-10x fractions
    quantify how far each model's transfer lands from the truth.
    """
    train, _test = split
    test_subset = customer.subset(range(min(CUSTOMER_TEST_SIZE, len(customer))))
    actual_elapsed = test_subset.performance_matrix()[:, _ELAPSED]

    one_model = _fit_kcca(train)
    one_pred = one_model.predict(test_subset.feature_matrix())[:, _ELAPSED]
    two_step = TwoStepPredictor().fit(
        train.feature_matrix(), train.performance_matrix()
    )
    two_pred = two_step.predict(test_subset.feature_matrix())[:, _ELAPSED]

    def median_ratio(predicted: np.ndarray) -> float:
        ratio = np.maximum(predicted, 1e-9) / np.maximum(actual_elapsed, 1e-9)
        return float(np.median(ratio))

    return SchemaTransferResult(
        one_model_risk_elapsed=predictive_risk(one_pred, actual_elapsed),
        two_step_risk_elapsed=predictive_risk(two_pred, actual_elapsed),
        one_model_median_ratio=median_ratio(one_pred),
        two_step_median_ratio=median_ratio(two_pred),
        one_model_within_10x=within_factor_fraction(
            one_pred, actual_elapsed, 10.0
        ),
        two_step_within_10x=within_factor_fraction(
            two_pred, actual_elapsed, 10.0
        ),
        n_test=len(test_subset),
    )


def fig16_production_configs(
    corpora: Mapping[int, Corpus], seed: int = 23
) -> dict[int, dict[str, float]]:
    """Predictive risk per metric on each production configuration.

    ``corpora`` maps the CPUs used to that configuration's corpus; each
    is split 197 training / 183 test queries (paper Section VII-B).
    Disk I/O comes back NaN ("Null") on configurations whose memory
    holds the whole database.
    """
    results = {}
    for nodes_used, corpus in corpora.items():
        indices = np.arange(len(corpus))
        rng = np.random.default_rng(seed)
        rng.shuffle(indices)
        train = corpus.subset(sorted(int(i) for i in indices[:197]))
        test = corpus.subset(sorted(int(i) for i in indices[197:380]))
        predicted = _fit_kcca(train).predict(test.feature_matrix())
        results[nodes_used] = evaluate_metrics(
            predicted, test.performance_matrix()
        )
    return results


@dataclass(frozen=True)
class OptimizerCostResult:
    """How poorly optimizer cost units track elapsed seconds (Figure 17)."""

    log_correlation: float
    within_10x_of_fit: float
    within_100x_of_fit: float
    max_factor_from_fit: float
    kcca_log_correlation: float
    n_queries: int


def fig17_optimizer_cost(split: tuple[Corpus, Corpus]) -> OptimizerCostResult:
    """Optimizer cost estimates vs actual elapsed times on the test set.

    Since cost units are not seconds, the paper fits a line of best fit
    (log-log) and looks at scatter around it; we report the log-log
    correlation and the fraction of queries within 10x / 100x of the
    fitted line, plus the same correlation for KCCA predictions (which,
    being in seconds, can be compared directly).
    """
    train, test = split
    cost = np.maximum(test.optimizer_costs(), 1e-9)
    actual = np.maximum(test.elapsed_times(), 1e-9)
    log_cost = np.log10(cost)
    log_actual = np.log10(actual)
    correlation = float(np.corrcoef(log_cost, log_actual)[0, 1])
    slope, intercept = np.polyfit(log_cost, log_actual, deg=1)
    residual = np.abs(log_actual - (slope * log_cost + intercept))
    predicted = _fit_kcca(train).predict(test.feature_matrix())
    kcca_log = np.log10(np.maximum(predicted[:, _ELAPSED], 1e-9))
    kcca_corr = float(np.corrcoef(kcca_log, log_actual)[0, 1])
    return OptimizerCostResult(
        log_correlation=correlation,
        within_10x_of_fit=float((residual <= 1.0).mean()),
        within_100x_of_fit=float((residual <= 2.0).mean()),
        max_factor_from_fit=float(10.0 ** residual.max()),
        kcca_log_correlation=kcca_corr,
        n_queries=len(test),
    )


def _ablations(split: tuple[Corpus, Corpus]) -> dict[str, dict]:
    """Elapsed-time risk under each design choice, by ablation."""
    train, test = split
    return {
        "kernel scale": ablation_scale_heuristic(train, test),
        "regularisation": ablation_regularization(train, test),
        "components": ablation_components(train, test),
        "feature encoding": ablation_feature_encoding(train, test),
        "model class": ablation_model_classes(train, test),
    }


def sec7c2_feature_importance(
    split: tuple[Corpus, Corpus],
) -> list[FeatureContribution]:
    """Plan features ranked by query/neighbour agreement (Section VII-C.2)."""
    train, test = split
    return feature_contributions(
        _fit_kcca(train),
        test.feature_matrix(),
        train.feature_matrix(),
        PLAN_FEATURE_NAMES,
    )


@dataclass(frozen=True)
class ConfidenceResult:
    """Neighbour distance of familiar vs foreign queries (Section VII-C.3)."""

    in_mean_distance: float
    out_mean_distance: float
    in_flagged: int
    n_in: int
    out_flagged: int
    n_out: int


def sec7c3_confidence(
    split: tuple[Corpus, Corpus], foreign: Corpus
) -> ConfidenceResult:
    """Confidence reports for the test split and for ``foreign`` queries."""
    train, test = split
    confidence = ConfidenceModel(_fit_kcca(train))
    familiar = confidence.assess(test.feature_matrix())
    unfamiliar = confidence.assess(foreign.feature_matrix())
    return ConfidenceResult(
        in_mean_distance=float(np.mean([r.distance for r in familiar])),
        out_mean_distance=float(np.mean([r.distance for r in unfamiliar])),
        in_flagged=sum(r.anomalous for r in familiar),
        n_in=len(familiar),
        out_flagged=sum(r.anomalous for r in unfamiliar),
        n_out=len(unfamiliar),
    )


@dataclass(frozen=True)
class RetrainingResult:
    """Elapsed-time risk after a system change (Section VIII)."""

    frozen_risk: float
    online_risk: float


def sec8_online_retraining(split: tuple[Corpus, Corpus]) -> RetrainingResult:
    """A frozen model vs a sliding window across a simulated upgrade.

    Both see the first half of the training set; the window then observes
    the second half on an "upgraded" system that runs 2.5x slower, the
    regime the test set is scored in.
    """
    train, test = split
    upgrade_factor = 2.5
    features = train.feature_matrix()
    performance = train.performance_matrix()
    half = len(features) // 2
    frozen = KCCAPredictor().fit(features[:half], performance[:half])
    online = OnlinePredictor(
        window_size=half, min_fit_size=100, refit_interval=100
    )
    for i in range(half):
        online.observe(features[i], performance[i])
    for i in range(half, len(features)):
        online.observe(features[i], performance[i] * upgrade_factor)
    actual = test.performance_matrix()[:, _ELAPSED] * upgrade_factor
    return RetrainingResult(
        frozen_risk=predictive_risk(
            frozen.predict(test.feature_matrix())[:, _ELAPSED], actual
        ),
        online_risk=predictive_risk(
            online.predict(test.feature_matrix())[:, _ELAPSED], actual
        ),
    )


@dataclass(frozen=True)
class CalibrationResult:
    """A cost-to-seconds calibration against KCCA (Section VIII)."""

    calibrated_risk: float
    kcca_risk: float
    median_scatter: float
    max_scatter: float


def sec8_calibrated_cost(split: tuple[Corpus, Corpus]) -> CalibrationResult:
    """Elapsed-time risk of optimizer cost calibrated on the training set."""
    train, test = split
    calibrator = CostCalibrator().fit(
        train.optimizer_costs(), train.elapsed_times()
    )
    calibrated = calibrator.predict_seconds(test.optimizer_costs())
    scatter = calibrator.scatter_factors(
        test.optimizer_costs(), test.elapsed_times()
    )
    kcca = _fit_kcca(train).predict(test.feature_matrix())[:, _ELAPSED]
    return CalibrationResult(
        calibrated_risk=predictive_risk(calibrated, test.elapsed_times()),
        kcca_risk=predictive_risk(kcca, test.elapsed_times()),
        median_scatter=float(np.median(scatter)),
        max_scatter=float(scatter.max()),
    )


# ----------------------------------------------------------------------
# Spec-driven workloads — per-family accuracy
# ----------------------------------------------------------------------

#: Workloads covered by the per-family accuracy report: the classic
#: TPC-DS mix plus the three spec-only families shipped with the specs
#: directory (OLTP point/range, emulated window/rollup analytics, and
#: the skew-shifted TPC-DS variant).
WORKLOAD_FAMILY_SUITE = ("tpcds", "oltp", "analytics", "tpcds_skew")


@dataclass(frozen=True)
class FamilyAccuracyResult:
    """Per-family within-tolerance accuracy for one spec-driven workload.

    Attributes:
        workload: spec name.
        n_train: training-query count.
        n_test: held-out query count.
        within_20pct_elapsed: overall fraction of test queries whose
            elapsed-time prediction is within the tolerance (the paper's
            headline figure, computed across families).
        families: per-family breakdown from
            :func:`repro.experiments.harness.evaluate_by_family` — each
            entry holds ``n`` and per-metric ``within_tolerance``
            fractions.
    """

    workload: str
    n_train: int
    n_test: int
    within_20pct_elapsed: float
    families: dict[str, dict[str, object]]


@lru_cache(maxsize=4)
def _spec_catalog(kind: str, scale: float, seed: int):
    if kind == "customer":
        return build_customer_catalog(seed=seed, scale=scale)
    return build_tpcds_catalog(scale_factor=scale, seed=seed)


def _family_split(
    corpus: Corpus, train_fraction: float, seed: int
) -> tuple[Corpus, Corpus]:
    """Split a corpus stratified by workload family.

    Every family with at least two queries contributes to both sides, so
    :func:`evaluate_by_family` never reports a family the model had zero
    training exposure to.
    """
    rng = child_generator(seed, "family-split")
    train_indices: list[int] = []
    test_indices: list[int] = []
    for _family, indices in corpus.family_indices().items():
        shuffled = [int(i) for i in rng.permutation(indices)]
        n_train = int(round(train_fraction * len(shuffled)))
        if len(shuffled) > 1:
            n_train = min(max(n_train, 1), len(shuffled) - 1)
        train_indices.extend(shuffled[:n_train])
        test_indices.extend(shuffled[n_train:])
    return corpus.subset(sorted(train_indices)), corpus.subset(
        sorted(test_indices)
    )


def workload_family_accuracy(
    workload: WorkloadRef = "tpcds",
    n_queries: int = 120,
    scale: float = 0.05,
    seed: int = 29,
    train_fraction: float = 0.75,
    tolerance: float = 0.2,
    jobs: Optional[int] = None,
) -> FamilyAccuracyResult:
    """Train and evaluate one spec-driven workload, reported per family.

    Generates a pool from the workload spec, executes it on the research
    configuration, fits the standard pipeline on a family-stratified
    split, and reports the within-tolerance fraction per family.  Small
    by default (120 queries at scale 0.05) so the whole suite fits in a
    bench run; corpora are built in memory, not cached on disk.
    """
    compiled = resolve_workload(workload)
    spec = compiled.spec
    recipe = spec.catalog
    kind = str(recipe.get("kind", "tpcds"))
    catalog_seed = int(recipe.get("seed", 42))
    if scale is None:
        catalog = build_catalog_for(spec)
    else:
        catalog = _spec_catalog(kind, float(scale), catalog_seed)
    pool = generate_pool(n_queries, seed=seed, workload=compiled)
    corpus = build_corpus(catalog, research_4node(), pool, jobs=jobs)
    train, test = _family_split(corpus, train_fraction, seed)
    pipeline = fit_pipeline(train)
    families = evaluate_by_family(pipeline, test, tolerance=tolerance)
    predicted = pipeline.predict(test.feature_matrix())
    actual = test.performance_matrix()
    return FamilyAccuracyResult(
        workload=spec.name,
        n_train=len(train),
        n_test=len(test),
        within_20pct_elapsed=within_fraction(
            predicted[:, _ELAPSED], actual[:, _ELAPSED], tolerance
        ),
        families=families,
    )


def workload_family_report(
    workloads: tuple[str, ...] = WORKLOAD_FAMILY_SUITE,
    n_queries: int = 120,
    scale: float = 0.05,
    seed: int = 29,
    jobs: Optional[int] = None,
) -> dict[str, FamilyAccuracyResult]:
    """Per-family accuracy for each workload in the suite."""
    return {
        name: workload_family_accuracy(
            name, n_queries=n_queries, scale=scale, seed=seed, jobs=jobs
        )
        for name in workloads
    }


# ----------------------------------------------------------------------
# Floors and rows
# ----------------------------------------------------------------------

_OPS: dict[str, Callable[[Any, Any], bool]] = {
    ">": operator.gt,
    ">=": operator.ge,
    "<": operator.lt,
    "<=": operator.le,
    "==": operator.eq,
}


@dataclass(frozen=True)
class Floor:
    """One checked claim about a row's result: ``measure(result) op bound``.

    A ``bound`` of ``True`` makes ``what`` a statement that must hold.
    A ``str`` bound names one of the row's paper values.
    """

    what: str
    measure: Callable[[Any], Any]
    op: str
    bound: Union[float, bool, str]

    def __str__(self) -> str:
        if self.bound is True:
            return self.what
        return f"{self.what} {self.op} {self.bound:g}"

    def verdict(self, result: Any) -> tuple[Any, bool]:
        """The measured value and whether the floor holds."""
        value = self.measure(result)
        return value, bool(_OPS[self.op](value, self.bound))


@dataclass(frozen=True)
class Experiment:
    """One paper artifact: what it reads, what the paper says, how it is
    run, what must hold, and how its EXPERIMENTS.md section reads.

    ``claim`` is a ``str.format`` template over ``paper``, the split
    sizes (``train``, ``n_train``, ``per_category``) and the
    other rows' paper values by id (``fig10_12[elapsed]``).
    ``paper_risks`` holds the paper's per-metric risk tables.  ``run``
    is called with the ``corpora``, loaded, in order; ``render`` turns
    its result into the section's measured lines.
    """

    id: str
    title: str
    corpora: tuple[str, ...]
    run: Callable[..., Any]
    render: Callable[[Any], list[str]]
    claim: str
    paper: Mapping[str, Any] = field(default_factory=dict)
    paper_risks: Mapping[str, Mapping[str, float]] = field(default_factory=dict)
    floors: tuple[Floor, ...] = ()
    notes: str = ""

    def __post_init__(self) -> None:
        resolved = tuple(
            replace(f, bound=self.paper[f.bound]) if isinstance(f.bound, str)
            else f
            for f in self.floors
        )
        object.__setattr__(self, "floors", resolved)


def _wrap(text: str) -> list[str]:
    return textwrap.wrap(
        text, width=72, break_long_words=False, break_on_hyphens=False
    )


def _metric_table(columns: Mapping[str, Mapping[str, float]]) -> list[str]:
    labels = list(columns)
    lines = [
        "| metric | " + " | ".join(labels) + " |",
        "|---" * (len(labels) + 1) + "|",
    ]
    for metric in METRIC_NAMES:
        cells = [
            format_value(columns[label].get(metric, float("nan"))).strip()
            for label in labels
        ]
        lines.append(f"| {METRIC_LABELS[metric]} | " + " | ".join(cells) + " |")
    return lines


def paper_text(row: Experiment) -> str:
    """The row's paper paragraph and tables, from the table alone."""
    cited = {other.id.replace("-", "_"): other.paper for other in EXPERIMENTS}
    claim = row.claim.format(
        **row.paper,
        **cited,
        train=EXPERIMENT1_TRAIN,
        n_train=_N_TRAIN,
        per_category=EXPERIMENT2_PER_CATEGORY,
    )
    lines = _wrap(claim)
    if row.paper_risks:
        lines += ["", *_metric_table(
            {f"{label} (paper)": risks for label, risks in row.paper_risks.items()}
        )]
    return "\n".join(lines)


def _on_split(runner: Callable[[tuple[Corpus, Corpus]], Any]) -> Callable:
    """Run ``runner`` on the Experiment 1 split of the research corpus."""
    return lambda research: runner(experiment1_split(research))


def _pool(rows: Sequence[PoolRow], category: str) -> PoolRow:
    nan = float("nan")
    empty = PoolRow(category, 0, nan, nan, nan)
    return next((row for row in rows if row.category == category), empty)


def _fig2_lines(rows: list[PoolRow]) -> list[str]:
    return [
        "| category | count | mean | min | max |",
        "|---|---|---|---|---|",
        *(
            f"| {row.category} | {row.count} | {hms(row.mean_s)} "
            f"| {hms(row.min_s)} | {hms(row.max_s)} |"
            for row in rows
        ),
    ]


def _fig3_4_lines(results: dict[str, RegressionResult]) -> list[str]:
    return [
        "| metric | predictive risk (train) | negative predictions "
        "| zeroed covariates |",
        "|---|---|---|---|",
        *(
            f"| {METRIC_LABELS[name]} | {r.predictive_risk:.3f} "
            f"| {r.negative_predictions} | {r.zeroed_covariates} |"
            for name, r in results.items()
        ),
    ]


def _fig6_lines(result: ProjectionResult) -> list[str]:
    leading = ", ".join(f"{c:.3f}" for c in result.canonical_correlations[:4])
    return [
        f"- leading canonical correlations: {leading}",
        "- empirical projection correlation (component 0): "
        f"{result.empirical_correlation:.3f}",
        "- training neighbours sharing the query's runtime category: "
        f"{result.category_agreement:.0%}",
    ]


def _fig10_12_lines(result: Experiment1Result) -> list[str]:
    return [
        *_metric_table({
            "measured risk": result.risk,
            "w/o worst outlier": result.risk_without_worst,
        }),
        "",
        f"Measured: **{result.within_20pct_elapsed:.0%} of {result.n_test} "
        "test queries within 20 %** on elapsed time.",
    ]


def _fig13_lines(pair: tuple[Experiment1Result, Experiment1Result]) -> list[str]:
    small, full = pair
    return [
        *_metric_table({
            f"{EXPERIMENT2_PER_CATEGORY}-each ({small.n_train}) measured":
                small.risk,
            f"full ({full.n_train}) measured": full.risk,
        }),
        "",
        f"Measured within-20 % (elapsed): {small.within_20pct_elapsed:.0%} "
        f"({small.n_train}) vs {full.within_20pct_elapsed:.0%} "
        f"({full.n_train}).",
    ]


def _fig14_lines(result: TwoStepResult) -> list[str]:
    return [
        *_metric_table({
            "one-model": result.one_model_risk,
            "two-step": result.two_step_risk,
        }),
        "",
        f"Step-1 classification accuracy: {result.classification_accuracy:.0%};"
        " two-step within-20 % (elapsed): "
        f"{result.within_20pct_elapsed_two_step:.0%}.",
    ]


def _fig15_lines(result: SchemaTransferResult) -> list[str]:
    return [
        f"{result.n_test} customer queries:",
        "",
        "| model | median predicted/actual | within 10x | elapsed risk |",
        "|---|---|---|---|",
        f"| one-model | {result.one_model_median_ratio:.2f}x "
        f"| {result.one_model_within_10x:.0%} "
        f"| {result.one_model_risk_elapsed:.2f} |",
        f"| two-step | {result.two_step_median_ratio:.2f}x "
        f"| {result.two_step_within_10x:.0%} "
        f"| {result.two_step_risk_elapsed:.2f} |",
    ]


def _fig17_lines(result: OptimizerCostResult) -> list[str]:
    return [
        "- log-log correlation (cost vs time): "
        f"**{result.log_correlation:.3f}**",
        f"- within 10x of the best-fit line: {result.within_10x_of_fit:.0%}; "
        f"within 100x: {result.within_100x_of_fit:.0%}",
        "- worst deviation from the fit: "
        f"{result.max_factor_from_fit:.1f}x",
        "- log-log correlation (KCCA vs time): "
        f"**{result.kcca_log_correlation:.3f}**",
    ]


def _ablation_lines(results: dict[str, dict]) -> list[str]:
    lines = ["| ablation | setting | risk |", "|---|---|---|"]
    for ablation, risks in results.items():
        for setting, risk in risks.items():
            shown = f"{setting:g}" if isinstance(setting, float) else setting
            lines.append(
                f"| {ablation} | {shown} | {format_value(risk).strip()} |"
            )
    return lines


def _importance_lines(contributions: list[FeatureContribution]) -> list[str]:
    return [
        "| feature | similarity | active share | score |",
        "|---|---|---|---|",
        *(
            f"| {c.name} | {c.similarity:.3f} | {c.active_fraction:.2f} "
            f"| {c.score:.3f} |"
            for c in contributions[:_TOP_FEATURES]
        ),
    ]


def _confidence_lines(result: ConfidenceResult) -> list[str]:
    return [
        "| queries | mean neighbour distance | flagged anomalous |",
        "|---|---|---|",
        f"| Experiment 1 test set | {result.in_mean_distance:.4f} "
        f"| {result.in_flagged}/{result.n_in} |",
        f"| customer schema | {result.out_mean_distance:.4f} "
        f"| {result.out_flagged}/{result.n_out} |",
    ]


def _family_lines(report: dict[str, FamilyAccuracyResult]) -> list[str]:
    lines = [
        "| workload | family | n (test) | within-20% elapsed |",
        "|---|---|---|---|",
    ]
    for name, row in report.items():
        lines.append(
            f"| {name} | *overall* | {row.n_test} "
            f"| {row.within_20pct_elapsed:.2f} |"
        )
        for family, stats in row.families.items():
            frac = stats["within_tolerance"]["elapsed_time"]
            lines.append(f"| {name} | {family} | {stats['n']} | {frac:.2f} |")
    return lines


def _elapsed(risks: Mapping[str, float]) -> float:
    return risks["elapsed_time"]


def _spread(values: Sequence[float]) -> float:
    return max(values) - min(values)


def _most_wins(results: Mapping[Any, Mapping[str, float]],
               metrics: Sequence[str]) -> dict[Any, int]:
    """How many of ``metrics`` each variant scores best on (Null skipped)."""
    wins = {variant: 0 for variant in results}
    for metric in metrics:
        valid = {
            v: risks[metric] for v, risks in results.items()
            if not np.isnan(risks[metric])
        }
        if valid:
            wins[max(valid, key=valid.get)] += 1
    return wins


def _tab1_comparable(results: dict[str, dict[str, float]]) -> list[str]:
    """The metrics neither distance leaves Null."""
    return [
        m for m in METRIC_NAMES
        if not (math.isnan(results["euclidean"][m])
                or math.isnan(results["cosine"][m]))
    ]


def _fig13_worse(pair: tuple[Experiment1Result, Experiment1Result]) -> bool:
    small, full = pair
    return (
        _elapsed(small.risk) < _elapsed(full.risk) - 0.01
        or small.within_20pct_elapsed < full.within_20pct_elapsed - 0.01
    )


def _fig15_log_gap(result: SchemaTransferResult) -> float:
    one_log = abs(math.log10(result.one_model_median_ratio))
    two_log = abs(math.log10(max(result.two_step_median_ratio, 1e-9)))
    return two_log - one_log


def _lowest(results: Mapping[int, Mapping[str, float]], metric: str) -> float:
    """The lowest risk on ``metric`` over configurations (NaN if any is)."""
    return float(np.min([risks[metric] for risks in results.values()]))


def _best_fixed(risks: Mapping[str, float]) -> float:
    return max(v for v in risks.values() if not np.isnan(v))


def _timing_growth(profile) -> float:
    """Training-time growth over training-set growth, smallest to largest."""
    first, last = profile.train_seconds[0], profile.train_seconds[-1]
    return last / first / (profile.train_sizes[-1] / profile.train_sizes[0])


def _exp1_total(category: str) -> int:
    return EXPERIMENT1_TRAIN[category] + EXPERIMENT1_TEST[category]


_RESEARCH = ("research_4node",)
_PRODUCTION = tuple(f"production_{n}cpu" for n in _PRODUCTION_NODES)

#: One row per paper artifact, in EXPERIMENTS.md order.
EXPERIMENTS: tuple[Experiment, ...] = (
    Experiment(
        id="fig2",
        title="Figure 2 — query pools by runtime category",
        corpora=_RESEARCH,
        run=fig2_query_pools,
        render=_fig2_lines,
        claim=(
            "Paper: feathers (mean {feather_mean}, max {feather_max}), golf "
            "balls ({golf_range}), bowling balls ({bowling_range}); counts "
            "{train[feathers]}+/{train[golf]}+/{bowling_count} in the pools "
            "used."
        ),
        paper=dict(
            feather_mean="~8 s",
            feather_max="2:59",
            golf_range="3:00–29:39",
            bowling_range="30:04–1:54:50",
            bowling_count=48,
        ),
        floors=(
            Floor("the pools hold feathers",
                  lambda r: _pool(r, "feather").count > 0, "==", True),
            Floor("the pools hold golf balls",
                  lambda r: _pool(r, "golf_ball").count > 0, "==", True),
            Floor("the pools hold bowling balls",
                  lambda r: _pool(r, "bowling_ball").count > 0, "==", True),
            Floor("feathers − golf balls",
                  lambda r: _pool(r, "feather").count
                  - _pool(r, "golf_ball").count, ">", 0),
            Floor("golf balls − bowling balls",
                  lambda r: _pool(r, "golf_ball").count
                  - _pool(r, "bowling_ball").count, ">", 0),
            Floor("feathers", lambda r: _pool(r, "feather").count,
                  ">=", _exp1_total("feathers")),
            Floor("golf balls", lambda r: _pool(r, "golf_ball").count,
                  ">=", _exp1_total("golf")),
            Floor("bowling balls", lambda r: _pool(r, "bowling_ball").count,
                  ">=", _exp1_total("bowling")),
            Floor("longest feather (s)",
                  lambda r: _pool(r, "feather").max_s, "<", 180),
            Floor("shortest golf ball (s)",
                  lambda r: _pool(r, "golf_ball").min_s, ">=", 180),
            Floor("longest golf ball (s)",
                  lambda r: _pool(r, "golf_ball").max_s, "<", 1800),
            Floor("shortest bowling ball (s)",
                  lambda r: _pool(r, "bowling_ball").min_s, ">=", 1800),
            Floor("longest bowling ball (s)",
                  lambda r: _pool(r, "bowling_ball").max_s, "<", 7200),
        ),
    ),
    Experiment(
        id="fig6",
        title="Figure 6 — correlated query / performance projections",
        corpora=_RESEARCH,
        run=_on_split(fig6_projections),
        render=_fig6_lines,
        claim=(
            "Paper: KCCA projects the same query to similar locations in "
            "the query and performance projections (clustering effect)."
        ),
        floors=(
            Floor("leading canonical correlation",
                  lambda r: r.canonical_correlations[0], ">", 0.8),
            Floor("|empirical correlation of component 0|",
                  lambda r: abs(r.empirical_correlation), ">", 0.8),
            Floor("neighbours sharing the runtime category",
                  lambda r: r.category_agreement, ">", 0.8),
        ),
    ),
    Experiment(
        id="fig3-4",
        title="Figures 3–4 — linear regression baseline",
        corpora=_RESEARCH,
        run=_on_split(lambda split: fig3_fig4_regression(split[0])),
        render=_fig3_4_lines,
        claim=(
            "Paper ({n_train} training queries, self-predicted): many "
            "predictions orders of magnitude off; **{elapsed_negatives} "
            "negative elapsed times** (Fig. 3) and **{records_negatives} "
            "negative records-used predictions** down to {records_lowest} "
            "(Fig. 4); different metrics' fits discard different covariates."
        ),
        paper=dict(
            elapsed_negatives=76, records_negatives=105, records_lowest="−1.8 M"
        ),
        notes=(
            "Negative predictions reproduce for elapsed time and the "
            "message/disk metrics.  **Divergence:** records accessed / used "
            "are nearly linear in our plan features (scan-output estimates "
            "track actual scan outputs closely in the simulator), so "
            "regression predicts them well here, unlike the paper's "
            "Figure 4."
        ),
        floors=(
            Floor("negative elapsed-time predictions",
                  lambda r: r["elapsed_time"].negative_predictions, ">", 0),
            Floor("metrics with negative predictions",
                  lambda r: sum(1 for x in r.values()
                                if x.negative_predictions > 0), ">=", 2),
            Floor("covariates zeroed for elapsed time",
                  lambda r: r["elapsed_time"].zeroed_covariates, ">=", 0),
            Floor("distinct zeroed-covariate counts",
                  lambda r: len({x.zeroed_covariates for x in r.values()}),
                  ">=", 1),
        ),
    ),
    Experiment(
        id="fig8",
        title="Figure 8 — SQL-text features vs query-plan features",
        corpora=_RESEARCH,
        run=_on_split(fig8_sql_text_features),
        render=lambda r: _metric_table({
            "SQL-text (measured)": r.sql_text_risk,
            "Query-plan (measured)": r.plan_risk,
        }),
        claim=(
            "Paper: SQL-text features give predictive risk ≈ "
            "**{sql_text_elapsed:.2f}** on elapsed time; plan features give "
            "{fig10_12[elapsed]}."
        ),
        paper=dict(sql_text_elapsed=-0.10),
        notes=(
            "Plan features beat SQL-text features decisively on elapsed "
            "time; textually identical queries with different constants "
            "collapse onto one SQL-text vector."
        ),
        floors=(
            Floor("plan − SQL-text elapsed risk",
                  lambda r: _elapsed(r.plan_risk) - _elapsed(r.sql_text_risk),
                  ">", 0.2),
            Floor("SQL-text elapsed risk",
                  lambda r: _elapsed(r.sql_text_risk), "<", 0.7),
        ),
    ),
    Experiment(
        id="tab1",
        title="Table I — Euclidean vs cosine neighbour distance",
        corpora=_RESEARCH,
        run=_on_split(tab1_distance_metrics),
        render=lambda r: _metric_table({
            "Euclidean (measured)": r["euclidean"],
            "Cosine (measured)": r["cosine"],
        }),
        claim=(
            "Paper: Euclidean distance gives better predictive risk than "
            "cosine on every metric."
        ),
        paper_risks={
            "Euclidean": dict(
                elapsed_time=0.55, records_accessed=0.68, records_used=0.98,
                disk_ios=0.36, message_count=0.35, message_bytes=0.87,
            ),
            "Cosine": dict(
                elapsed_time=0.40, records_accessed=0.27, records_used=0.95,
                disk_ios=0.02, message_count=0.18, message_bytes=0.23,
            ),
        },
        notes=(
            "Our projections are better conditioned than the paper's, so "
            "cosine is closer behind than in the original."
        ),
        floors=(
            Floor("metrics comparable (neither Null)",
                  lambda r: len(_tab1_comparable(r)), ">=", 4),
            Floor("metrics where cosine beats Euclidean by > 0.02",
                  lambda r: sum(1 for m in _tab1_comparable(r)
                                if r["euclidean"][m] < r["cosine"][m] - 0.02),
                  "<=", 1),
            Floor("Euclidean elapsed risk",
                  lambda r: _elapsed(r["euclidean"]), ">", 0.3),
        ),
    ),
    Experiment(
        id="tab2",
        title="Table II — number of neighbours k",
        corpora=_RESEARCH,
        run=_on_split(tab2_neighbor_counts),
        render=lambda r: [
            *_metric_table({f"{k}NN": r[k] for k in sorted(r)}),
            "",
            "Elapsed-time risk spread across k: "
            f"{_spread([_elapsed(risks) for risks in r.values()]):.3f}.",
        ],
        claim=(
            "Paper: k = 3..7 nearly indistinguishable (elapsed "
            "{elapsed_low}–{elapsed_high}); k = 3 chosen by intuition, not "
            "measurement."
        ),
        paper=dict(elapsed_low=0.51, elapsed_high=0.61),
        floors=(
            Floor("lowest elapsed risk over k",
                  lambda r: min(_elapsed(x) for x in r.values()), ">", 0.3),
            Floor("elapsed risk spread over k",
                  lambda r: _spread([_elapsed(x) for x in r.values()]),
                  "<", 0.35),
            Floor("lowest records-used risk over k",
                  lambda r: min(x["records_used"] for x in r.values()),
                  ">", 0.5),
            Floor("distinct k best on some metric",
                  lambda r: sum(1 for n in _most_wins(r, (
                      "elapsed_time", "records_accessed", "records_used",
                      "message_count", "message_bytes")).values() if n),
                  ">=", 2),
        ),
    ),
    Experiment(
        id="tab3",
        title="Table III — neighbour weighting schemes",
        corpora=_RESEARCH,
        run=_on_split(tab3_weighting_schemes),
        render=lambda r: _metric_table({
            "Equal": r["equal"], "3:2:1": r["ranked"], "Distance": r["distance"],
        }),
        claim=(
            "Paper: equal vs 3:2:1 vs distance-proportional — no consistent "
            "winner; the simplest (equal) chosen."
        ),
        floors=(
            Floor("lowest elapsed risk over schemes",
                  lambda r: min(_elapsed(x) for x in r.values()), ">", 0.3),
            Floor("elapsed risk spread over schemes",
                  lambda r: _spread([_elapsed(x) for x in r.values()]),
                  "<", 0.3),
            Floor("most metrics one scheme is best on",
                  lambda r: max(_most_wins(r, METRIC_NAMES).values()),
                  "<", len(METRIC_NAMES)),
        ),
    ),
    Experiment(
        id="fig10-12",
        title=f"Figures 10–12 — Experiment 1 ({_N_TRAIN} train / {_N_TEST} test)",
        corpora=_RESEARCH,
        run=_on_split(fig10_to_12_experiment1),
        render=_fig10_12_lines,
        claim=(
            "Paper: elapsed-time risk **{elapsed}** ({elapsed_wo_outlier} "
            "without the worst outlier); **≥{within_20pct:.0%} of test "
            "queries within 20 %** of actual elapsed time; records used "
            "**{records_used}**; message count **{message_count}**."
        ),
        paper=dict(
            elapsed=0.55,
            elapsed_wo_outlier=0.61,
            within_20pct=0.85,
            records_used=0.98,
            message_count=0.35,
        ),
        notes=(
            "All six metrics are predicted simultaneously from one model.  "
            "Our absolute risks are higher than the paper's (the simulated "
            "system is less noisy than real Neoview); the residual misses "
            "concentrate in theta-join (`nested_join`) queries whose cost "
            "is quadratic in inputs the per-operator feature sums cannot "
            "separate — the same character as the paper's outliers."
        ),
        floors=(
            Floor("training queries", lambda r: r.n_train, ">=", 1000),
            Floor("test queries", lambda r: r.n_test, ">=", 55),
            Floor("share of test queries within 20 % on elapsed time",
                  lambda r: r.within_20pct_elapsed, ">=", "within_20pct"),
            Floor("elapsed risk", lambda r: _elapsed(r.risk), ">", 0.4),
            Floor("elapsed risk gain from dropping the worst outlier",
                  lambda r: _elapsed(r.risk_without_worst) - _elapsed(r.risk),
                  ">=", -1e-9),
            Floor("records-used risk",
                  lambda r: r.risk["records_used"], ">", 0.9),
            Floor("metrics with risk > 0.3",
                  lambda r: sum(1 for v in r.risk.values() if v > 0.3),
                  ">=", 4),
            Floor("negative KCCA predictions",
                  lambda r: int((r.predicted < 0).sum()), "==", 0),
        ),
    ),
    Experiment(
        id="fig13",
        title=(
            f"Figure 13 — Experiment 2 ({EXPERIMENT2_PER_CATEGORY} queries "
            "per category)"
        ),
        corpora=_RESEARCH,
        run=lambda research: (
            fig13_experiment2(research),
            fig10_to_12_experiment1(experiment1_split(research)),
        ),
        render=_fig13_lines,
        claim=(
            "Paper: training on {per_category} queries of each category is "
            "visibly less accurate than the {n_train}-query training set — "
            "“more data is always better”."
        ),
        floors=(
            Floor("Experiment 2 training queries", lambda r: r[0].n_train,
                  "==", 3 * EXPERIMENT2_PER_CATEGORY),
            Floor("worse than Experiment 1 by over 0.01 in elapsed risk or "
                  "within-20 % share", _fig13_worse, "==", True),
        ),
    ),
    Experiment(
        id="fig14",
        title="Figure 14 — Experiment 3 (two-step type-specific models)",
        corpora=_RESEARCH,
        run=_on_split(fig14_experiment3),
        render=_fig14_lines,
        claim=(
            "Paper: two-step raises elapsed-time risk from "
            "{fig10_12[elapsed]} to **{two_step_elapsed}**; occasional "
            "misrouting near category boundaries hurts a few queries."
        ),
        paper=dict(two_step_elapsed=0.82),
        notes=(
            "The classifier routes almost all queries correctly and the "
            "two-step model is comparable to the one-model (our one-model "
            "baseline is already strong, so there is less headroom than the "
            "paper had)."
        ),
        floors=(
            Floor("step-1 classification accuracy",
                  lambda r: r.classification_accuracy, ">=", 0.85),
            Floor("two-step elapsed risk",
                  lambda r: _elapsed(r.two_step_risk), ">", 0.4),
            Floor("two-step − one-model elapsed risk",
                  lambda r: _elapsed(r.two_step_risk)
                  - _elapsed(r.one_model_risk), ">=", -0.15),
        ),
    ),
    Experiment(
        id="fig15",
        title="Figure 15 — Experiment 4 (different schema)",
        corpora=(*_RESEARCH, "customer_4node"),
        run=lambda research, customer: fig15_experiment4(
            experiment1_split(research), customer
        ),
        render=_fig15_lines,
        claim=(
            "Paper: a TPC-DS-trained model predicting customer "
            "mini-feathers — most one-model predictions **{orders} orders "
            "of magnitude too long**; two-step relatively more accurate."
        ),
        paper=dict(orders="1–3"),
        notes=(
            "Systematic over-prediction of the cross-schema mini-feathers "
            "reproduces (every prediction is dragged toward longer TPC-DS "
            "neighbours).  **Divergence:** the one-model vs two-step gap is "
            "small here — our one-model transfer already lands on feather "
            "neighbours, so routing through the classifier has little left "
            "to fix."
        ),
        floors=(
            Floor("customer test queries", lambda r: r.n_test,
                  "==", CUSTOMER_TEST_SIZE),
            Floor("one-model median predicted/actual",
                  lambda r: r.one_model_median_ratio, ">", 2.0),
            Floor("two-step − one-model |log10 median ratio|",
                  _fig15_log_gap, "<=", 0.35),
        ),
    ),
    Experiment(
        id="fig16",
        title="Figure 16 — 32-node production system (4/8/16/32 CPUs)",
        corpora=_PRODUCTION,
        run=lambda *corpora: fig16_production_configs(
            dict(zip(_PRODUCTION_NODES, corpora))
        ),
        render=lambda r: _metric_table(
            {f"{n} CPUs (measured)": risks for n, risks in r.items()}
        ),
        claim=(
            "Paper: strong risks on all configurations; Disk I/O **Null** "
            "on every configuration except 4 CPUs (only there is memory too "
            "small to cache the tables)."
        ),
        paper_risks={
            "4 CPUs": dict(
                elapsed_time=0.92, records_accessed=0.99, records_used=0.99,
                disk_ios=0.80, message_count=0.94, message_bytes=0.99,
            ),
            "8 CPUs": dict(
                elapsed_time=0.93, records_accessed=0.98, records_used=0.99,
                disk_ios=float("nan"), message_count=0.87, message_bytes=0.99,
            ),
            "16 CPUs": dict(
                elapsed_time=0.95, records_accessed=0.99, records_used=0.98,
                disk_ios=float("nan"), message_count=0.99, message_bytes=0.96,
            ),
            "32 CPUs": dict(
                elapsed_time=0.93, records_accessed=0.99, records_used=0.99,
                disk_ios=float("nan"), message_count=0.99, message_bytes=0.99,
            ),
        },
        floors=(
            Floor("lowest elapsed risk over configurations",
                  lambda r: _lowest(r, "elapsed_time"), ">", 0.7),
            Floor("lowest records-accessed risk over configurations",
                  lambda r: _lowest(r, "records_accessed"), ">", 0.9),
            Floor("lowest records-used risk over configurations",
                  lambda r: _lowest(r, "records_used"), ">", 0.9),
            Floor("lowest message-bytes risk over configurations",
                  lambda r: _lowest(r, "message_bytes"), ">", 0.7),
            Floor("disk I/O is learnable (not Null) on 4 CPUs",
                  lambda r: not math.isnan(r[4]["disk_ios"]), "==", True),
            Floor("4-CPU disk-I/O risk", lambda r: r[4]["disk_ios"], ">", 0.5),
            Floor("disk I/O is Null on 8, 16 and 32 CPUs",
                  lambda r: all(math.isnan(r[n]["disk_ios"])
                                for n in (8, 16, 32)), "==", True),
        ),
    ),
    Experiment(
        id="fig17",
        title="Figure 17 — optimizer cost vs actual elapsed time",
        corpora=_RESEARCH,
        run=_on_split(fig17_optimizer_cost),
        render=_fig17_lines,
        claim=(
            "Paper: cost units are not seconds; scatter around the best-fit "
            "line reaches {scatter}, especially for queries over a minute; "
            "KCCA is clearly more accurate."
        ),
        paper=dict(scatter="10x–100x"),
        notes=(
            "**Divergence:** our simulated optimizer's cost scatters less "
            "than Neoview's commercial optimizer's did: our cost model and "
            "timing model share more structure than theirs."
        ),
        floors=(
            Floor("log-log correlation of cost and time",
                  lambda r: r.log_correlation, ">", 0.2),
            Floor("log-log correlation of cost and time",
                  lambda r: r.log_correlation, "<", 0.995),
            Floor("worst factor from the best-fit line",
                  lambda r: r.max_factor_from_fit, ">", 4.0),
            Floor("share within 100x − share within 10x of the fit",
                  lambda r: r.within_100x_of_fit - r.within_10x_of_fit,
                  ">=", 0),
            Floor("KCCA − cost log-log correlation",
                  lambda r: r.kcca_log_correlation - r.log_correlation,
                  ">", 0),
        ),
    ),
    Experiment(
        id="ablations",
        title="Ablations (beyond the paper's tables)",
        corpora=_RESEARCH,
        run=_on_split(_ablations),
        render=_ablation_lines,
        claim=(
            "Beyond the paper: elapsed-time predictive risk under each "
            "design choice DESIGN.md §5 calls out."
        ),
        floors=(
            Floor("paper-fractions kernel scale risk",
                  lambda r: r["kernel scale"]["paper-fractions"], ">", 0.4),
            Floor("paper-fractions − best kernel scale risk",
                  lambda r: r["kernel scale"]["paper-fractions"]
                  - _best_fixed(r["kernel scale"]), ">=", -0.25),
            Floor("regularisation 1e-3 risk",
                  lambda r: r["regularisation"][1e-3], ">", 0.4),
            Floor("|regularisation 1e-3 − 1e-4 risk|",
                  lambda r: abs(r["regularisation"][1e-3]
                                - r["regularisation"][1e-4]), "<", 0.4),
            Floor("8 components risk", lambda r: r["components"][8], ">", 0.4),
            Floor("8 components − 1 component risk",
                  lambda r: r["components"][8] - r["components"][1],
                  ">=", -0.05),
            Floor("32 components − 8 components risk",
                  lambda r: r["components"][32] - r["components"][8],
                  ">", -0.3),
            Floor("log+standardize encoding risk",
                  lambda r: r["feature encoding"]["log+standardize"],
                  ">", 0.4),
            Floor("KCCA+kNN − regression risk",
                  lambda r: r["model class"]["kcca+knn"]
                  - r["model class"]["regression"], ">", 0),
            Floor("KCCA+kNN risk",
                  lambda r: r["model class"]["kcca+knn"], ">", 0.4),
        ),
    ),
    Experiment(
        id="sec7c2",
        title="Section VII-C.2 — which plan features drive the model",
        corpora=_RESEARCH,
        run=_on_split(sec7c2_feature_importance),
        render=_importance_lines,
        claim=(
            "Paper: a cursory look at the model finds that join operators "
            "contribute most."
        ),
        notes=(
            "Score = mean query/neighbour agreement on the feature × the "
            "share of test queries where it is active; the top "
            f"{_TOP_FEATURES} shown.  **Divergence:** the features every "
            "plan carries (root, scan, project, exchange) rank first here; "
            "the join features follow them."
        ),
        floors=(
            Floor(f"join or scan features in the top {_TOP_FEATURES}",
                  lambda r: sum(1 for c in r[:_TOP_FEATURES]
                                if "join" in c.name or "scan" in c.name),
                  ">=", 1),
        ),
    ),
    Experiment(
        id="sec7c3",
        title="Section VII-C.3 — confidence from neighbour distance",
        corpora=(*_RESEARCH, "customer_4node"),
        run=lambda research, customer: sec7c3_confidence(
            experiment1_split(research), customer
        ),
        render=_confidence_lines,
        claim=(
            "Paper: a query far from its nearest training neighbours is "
            "one the model has seen nothing like, so its prediction "
            "deserves less confidence."
        ),
        floors=(
            Floor("customer − test-set mean neighbour distance",
                  lambda r: r.out_mean_distance - r.in_mean_distance, ">", 0),
        ),
    ),
    Experiment(
        id="sec7c4",
        title="Section VII-C.4 — how fast is KCCA",
        corpora=_RESEARCH,
        run=timing_profile,
        render=lambda profile: _wrap(
            "Wall-clock times vary from run to run, so they are printed "
            "when the table runs and not recorded here; the floors are."
        ),
        claim=(
            "Paper: predicting one query takes under {predict_s:g} s; "
            "training takes minutes to hours, because every training query "
            "is compared with every other and the correlation solve is "
            "cubic in the training-set size."
        ),
        paper=dict(predict_s=1.0),
        floors=(
            Floor("predict one query (s)",
                  lambda r: r.predict_seconds_per_query, "<", "predict_s"),
            Floor("training-time growth ÷ training-set growth",
                  _timing_growth, ">", 0.8),
        ),
    ),
    Experiment(
        id="sec8-online",
        title="Section VIII — sliding-window retraining after a system change",
        corpora=_RESEARCH,
        run=_on_split(sec8_online_retraining),
        render=lambda r: [
            "| model | elapsed risk on the upgraded system |",
            "|---|---|",
            f"| frozen | {r.frozen_risk:.3f} |",
            f"| sliding window | {r.online_risk:.3f} |",
        ],
        claim=(
            "Paper: a model retrained continuously on a sliding window "
            "would track a system change, such as the OS upgrade that "
            "slowed Figure 10's bowling balls."
        ),
        notes=(
            "The second half of the training stream runs 2.5x slower, as "
            "does the test set; the frozen model saw only the first half."
        ),
        floors=(
            Floor("sliding-window − frozen elapsed risk",
                  lambda r: r.online_risk - r.frozen_risk, ">", 0),
            Floor("sliding-window elapsed risk",
                  lambda r: r.online_risk, ">", 0.5),
        ),
    ),
    Experiment(
        id="sec8-calibration",
        title="Section VIII — calibrated optimizer cost vs KCCA",
        corpora=_RESEARCH,
        run=_on_split(sec8_calibrated_cost),
        render=lambda r: [
            f"- calibrated-cost elapsed risk: {r.calibrated_risk:.3f}",
            f"- KCCA elapsed risk: {r.kcca_risk:.3f}",
            "- cost scatter around the calibration: median "
            f"{r.median_scatter:.2f}x, worst {r.max_scatter:.1f}x",
        ],
        claim=(
            "Paper: optimizer cost is in units, not seconds; mapping it to "
            "seconds for one site is the obvious alternative to a learned "
            "model."
        ),
        floors=(
            Floor("KCCA − calibrated-cost elapsed risk",
                  lambda r: r.kcca_risk - r.calibrated_risk, ">", 0),
            Floor("worst calibrated-cost scatter factor",
                  lambda r: r.max_scatter, ">", 2.0),
        ),
    ),
    Experiment(
        id="families",
        title="Per-family accuracy on the spec-driven workloads",
        corpora=(),
        run=workload_family_report,
        render=_family_lines,
        claim=(
            "Beyond the paper: each shipped workload spec (docs/WORKLOADS.md) "
            "trained and evaluated end-to-end on the research configuration, "
            "with the within-20% elapsed-time fraction broken down per "
            "family (120 queries at scale 0.05, family-stratified 75/25 "
            "split)."
        ),
        notes=(
            "Accuracy is clearly family-dependent: the analytic and "
            "standard families sit at or above the paper's headline figure, "
            "while the deliberately hard `problem` family and the Zipf-hot "
            "OLTP point lookups carry most of the misses — sub-millisecond "
            "queries make a relative 20% band very narrow in absolute "
            "terms, the same mini-feather effect the paper hits in "
            "Experiment 4."
        ),
    ),
)


# ----------------------------------------------------------------------
# The command
# ----------------------------------------------------------------------

_HEADER = (
    "# EXPERIMENTS — paper vs measured",
    "",
    *_wrap(
        "Generated by `python -m repro.experiments` from the measured "
        "corpora in `data/corpora/`, each pinned by its sha256.  Every "
        "section is one row of the experiment table in "
        "`src/repro/experiments/experiments.py`: the paper's values, what "
        "we measured, and each floor the measurement must clear, checked "
        "or crossed by its verdict.  The reproduction "
        "substitutes a simulated parallel DBMS and scaled-down "
        "TPC-DS-like data for the paper's HP Neoview hardware (DESIGN.md "
        "§2), so the comparison targets are *shape-level*: orderings, "
        "directions and rough magnitudes."
    ),
    "",
)

_FOOTER = (
    "## Known divergences (summary)",
    "",
    "1. Absolute predictive risks run higher than the paper's — the",
    "   simulated substrate is cleaner than real hardware (documented per",
    "   artifact above); all orderings/crossovers match.",
    "2. Records accessed/used are too easy for the regression baseline",
    "   (Figure 4's negative-record pathology shows up on the message and",
    "   disk metrics instead).",
    "3. The Experiment 4 two-step advantage and Figure 17's 100x cost",
    "   outliers reproduce only in weakened form, for the reasons noted",
    "   in their sections.",
)


def _section(
    row: Experiment, result: Any, verdicts: list[tuple[Floor, Any, bool]]
) -> list[str]:
    lines = [f"## {row.title}", "", paper_text(row), "", *row.render(result), ""]
    if row.notes:
        lines += [*_wrap(row.notes), ""]
    if verdicts:
        lines += ["Floors:", ""]
        lines += [f"- {_mark(held)} {floor}" for floor, _value, held in verdicts]
        lines.append("")
    return lines


def _mark(held: bool) -> str:
    return "✔" if held else "✘"


def _shown(value: Any) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main() -> int:
    """Build or load the pinned corpora, run every row, check every floor
    and write EXPERIMENTS.md.

    Returns 1, after naming each failed floor and its row on stderr, when
    a floor fails or a corpus is refused; 0 otherwise.
    """
    lines = list(_HEADER)
    failed: list[str] = []
    try:
        for name in sorted({n for row in EXPERIMENTS for n in row.corpora}):
            start = perf_counter()
            pinned_corpus(name)
            print(f"corpus {name}: {perf_counter() - start:.1f} s")
        for row in EXPERIMENTS:
            start = perf_counter()
            result = row.run(*(pinned_corpus(name) for name in row.corpora))
            verdicts = [(floor, *floor.verdict(result)) for floor in row.floors]
            print(f"{row.id}: {perf_counter() - start:.1f} s")
            for floor, value, held in verdicts:
                print(f"  {_mark(held)} {floor}: {_shown(value)}")
                if not held:
                    failed.append(
                        f"{row.id}: floor '{floor}' failed "
                        f"(measured {_shown(value)})"
                    )
            lines += _section(row, result, verdicts)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    lines += _FOOTER
    _DOCUMENT.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {_DOCUMENT.name}: {len(failed)} floor(s) failed")
    for message in failed:
        print(f"FAIL {message}", file=sys.stderr)
    return 1 if failed else 0
