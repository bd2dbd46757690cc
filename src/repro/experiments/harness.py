"""Train/test splitting and predictor evaluation helpers."""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

import numpy as np

from repro.core.metrics import predictive_risk, within_fraction
from repro.engine.metrics import METRIC_NAMES
from repro.errors import ReproError
from repro.experiments.corpus import Corpus
from repro.pipeline.pipeline import PipelineModel, PredictionPipeline
from repro.rng import child_generator
from repro.workloads.categories import QueryCategory

__all__ = [
    "stratified_split",
    "split_counts",
    "evaluate_metrics",
    "fit_pipeline",
    "evaluate_pipeline",
    "evaluate_by_family",
]


def stratified_split(
    corpus: Corpus,
    train_counts: Mapping[QueryCategory, int],
    test_counts: Mapping[QueryCategory, int],
    seed: int = 0,
) -> tuple[Corpus, Corpus]:
    """Sample disjoint train/test corpora with per-category counts.

    Mirrors the paper's experiment construction, e.g. Experiment 1's 1027
    training queries (767 feathers / 230 golf balls / 30 bowling balls)
    and 61 test queries (45 / 7 / 9).  When the pool holds fewer queries
    of a category than requested, the available ones are used (test quota
    is filled first so the evaluation set is never starved).

    Raises:
        ReproError: when a requested category is entirely absent.
    """
    rng = child_generator(seed, "stratified-split")
    by_category = corpus.category_indices()
    train_indices: list[int] = []
    test_indices: list[int] = []
    categories = set(train_counts) | set(test_counts)
    for category in sorted(categories, key=lambda c: c.value):
        available = list(by_category.get(category, []))
        wanted_test = test_counts.get(category, 0)
        wanted_train = train_counts.get(category, 0)
        if (wanted_test or wanted_train) and not available:
            raise ReproError(
                f"corpus has no {category.value} queries "
                f"(requested {wanted_train} train / {wanted_test} test)"
            )
        shuffled = list(rng.permutation(available))
        n_test = min(wanted_test, len(shuffled))
        test_indices.extend(int(i) for i in shuffled[:n_test])
        remaining = shuffled[n_test:]
        n_train = min(wanted_train, len(remaining))
        train_indices.extend(int(i) for i in remaining[:n_train])
    return corpus.subset(sorted(train_indices)), corpus.subset(
        sorted(test_indices)
    )


def split_counts(
    train_feathers: int,
    train_golf: int,
    train_bowling: int,
    test_feathers: int,
    test_golf: int,
    test_bowling: int,
) -> tuple[dict[QueryCategory, int], dict[QueryCategory, int]]:
    """Convenience constructor for the paper's split specifications."""
    train = {
        QueryCategory.FEATHER: train_feathers,
        QueryCategory.GOLF_BALL: train_golf,
        QueryCategory.BOWLING_BALL: train_bowling,
    }
    test = {
        QueryCategory.FEATHER: test_feathers,
        QueryCategory.GOLF_BALL: test_golf,
        QueryCategory.BOWLING_BALL: test_bowling,
    }
    return train, test


def evaluate_metrics(
    predicted: np.ndarray,
    actual: np.ndarray,
    metric_names: Sequence[str] = METRIC_NAMES,
) -> dict[str, float]:
    """Per-metric predictive risk; NaN where the metric is degenerate.

    Degenerate columns (zero variance in the actuals — e.g. disk I/O when
    everything fits in memory) come back as NaN, which the report layer
    renders as "Null" exactly like the paper's Figure 16.
    """
    predicted = np.asarray(predicted, dtype=np.float64)
    actual = np.asarray(actual, dtype=np.float64)
    if predicted.shape != actual.shape:
        raise ReproError("predicted and actual matrices differ in shape")
    return {
        name: predictive_risk(predicted[:, i], actual[:, i])
        for i, name in enumerate(metric_names)
    }


def fit_pipeline(
    train: Corpus,
    model: Optional[PipelineModel] = None,
    **pipeline_kwargs,
) -> PredictionPipeline:
    """Fit a prediction pipeline on a training corpus.

    The standard experiment entry point: experiments go through the
    public pipeline (model + confidence) rather than poking
    predictor internals.

    Args:
        train: the executed training corpus.
        model: the model stage; default a fresh KCCA predictor.
        **pipeline_kwargs: forwarded to
            :class:`~repro.pipeline.PredictionPipeline`.
    """
    pipeline = PredictionPipeline(model=model, **pipeline_kwargs)
    return pipeline.fit_corpus(train)


def evaluate_pipeline(
    pipeline: PredictionPipeline, test: Corpus
) -> dict[str, float]:
    """Per-metric predictive risk of a fitted pipeline on a test corpus."""
    predicted = pipeline.predict(test.feature_matrix())
    return evaluate_metrics(predicted, test.performance_matrix())


def evaluate_by_family(
    pipeline: PredictionPipeline,
    test: Corpus,
    tolerance: float = 0.2,
    metric_names: Sequence[str] = METRIC_NAMES,
) -> dict[str, dict[str, object]]:
    """Per-family accuracy: fraction of predictions within ``tolerance``.

    The paper headlines elapsed-time predictions "within 20% of actual";
    with spec-driven workloads the interesting question is how that figure
    decomposes across families (e.g. OLTP point lookups vs analytic
    rollups).  For each family present in the test corpus the result holds
    ``n`` (query count) and ``within_tolerance``, a per-metric
    :func:`~repro.core.metrics.within_fraction` of its queries: the share
    with ``|predicted - actual| <= tolerance * |actual|``, where a zero
    actual is a hit only for a (near) zero prediction.

    Raises:
        ModelError: when ``tolerance`` is not positive.
    """
    report: dict[str, dict[str, object]] = {}
    for family, indices in test.family_indices().items():
        subset = test.subset(indices)
        predicted = pipeline.predict(subset.feature_matrix())
        actual = subset.performance_matrix()
        fractions = {
            name: within_fraction(predicted[:, i], actual[:, i], tolerance)
            for i, name in enumerate(metric_names)
        }
        report[family] = {
            "n": len(indices),
            "within_tolerance": fractions,
        }
    return report
