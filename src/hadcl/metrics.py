"""Evaluation statistics: accuracy, rank-based ROC AUC (Mann-Whitney with
mid-rank tie handling), DeLong variance and 95% CI, and the paired DeLong
test for two models scored on the same cases.

The DeLong quantities follow the fast mid-rank formulation of Sun & Xu
(IEEE SPL 2014). The mid-ranks come from one sort of the pooled scores, and
the normal quantile and tail from `scipy.special`, so importing this module
does not load `scipy.stats`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from .exceptions import ValidationError


@dataclass
class ScoredOutcomes:
    """Positive-class scores with binary labels. The scores may be infinite
    but not NaN, which has no rank."""

    scores: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.scores = np.asarray(self.scores, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.scores.shape != self.labels.shape or self.scores.ndim != 1:
            raise ValidationError("scores and labels must be equal-length 1-D")
        if self.scores.size == 0:
            raise ValidationError("empty outcomes")
        if not np.isin(self.labels, (0, 1)).all():
            raise ValidationError("labels must be 0/1")
        if np.isnan(self.scores).any():
            raise ValidationError("scores must not be NaN")

    @property
    def n_pos(self) -> int:
        return int(self.labels.sum())

    @property
    def n_neg(self) -> int:
        return int(self.labels.size - self.labels.sum())


@dataclass
class AucEstimate:
    auc: float
    variance: float
    ci95: tuple


def accuracy(predictions, labels) -> float:
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if predictions.shape != labels.shape or predictions.size == 0:
        raise ValidationError("predictions and labels must be equal-length, nonempty")
    return float(np.mean(predictions == labels))


def _placements(outcomes: ScoredOutcomes):
    """(AUC, V10, V01): the mid-rank placement components per positive and
    per negative, in the order of the scores.

    With mid-ranks, a positive's rank among all scores less its rank among
    the positives is the number of negatives below its score plus half of
    those tied with it; a negative's is the same count of positives. Both
    counts come from one sort of the pooled scores and are exact multiples
    of 1/2, so they equal the differences of the three rank vectors bit for
    bit. The order of tied scores in the sort does not enter them."""
    scores, labels = outcomes.scores, outcomes.labels
    is_pos = labels == 1
    order = np.argsort(scores)
    sorted_scores, sorted_pos = scores[order], is_pos[order]
    # tie groups of the sorted scores: their starts, and each score's group
    new_group = np.empty(scores.size, dtype=bool)
    new_group[0] = True
    np.not_equal(sorted_scores[1:], sorted_scores[:-1], out=new_group[1:])
    starts = np.flatnonzero(new_group)
    group = np.cumsum(new_group) - 1
    # positives before each group and within it; negatives are the rest
    bounds = np.append(starts, scores.size)
    pos_upto = np.concatenate(([0], np.cumsum(sorted_pos)))[bounds]
    pos_before, pos_in = pos_upto[:-1], np.diff(pos_upto)
    neg_before, neg_in = starts - pos_before, np.diff(bounds) - pos_in
    # each score counts the other class: below it, then tied with it
    other_before = np.where(sorted_pos, neg_before[group], pos_before[group])
    other_tied = np.where(sorted_pos, neg_in[group], pos_in[group])
    placed = np.empty(scores.size)
    placed[order] = other_before + other_tied / 2
    m = int(pos_upto[-1])
    n = scores.size - m
    v10 = placed[is_pos] / n
    v01 = 1.0 - placed[~is_pos] / m
    return float(v10.mean()), v10, v01


def auc(outcomes: ScoredOutcomes) -> float:
    """Probability a random positive outscores a random negative (ties count
    half); computed from mid-ranks, identical to the pairwise statistic."""
    if outcomes.n_pos < 1 or outcomes.n_neg < 1:
        raise ValidationError("AUC needs at least one positive and one negative")
    auc_val, _, _ = _placements(outcomes)
    return auc_val


def delong_ci(outcomes: ScoredOutcomes, level: float = 0.95) -> AucEstimate:
    """DeLong variance of the AUC and a normal-approximation CI clipped to [0,1]."""
    if outcomes.n_pos < 2 or outcomes.n_neg < 2:
        raise ValidationError("DeLong CI needs >= 2 positives and >= 2 negatives")
    auc_val, v10, v01 = _placements(outcomes)
    var = v10.var(ddof=1) / len(v10) + v01.var(ddof=1) / len(v01)
    z = ndtri(0.5 + level / 2.0)
    half = z * np.sqrt(var)
    lo = float(np.clip(auc_val - half, 0.0, 1.0))
    hi = float(np.clip(auc_val + half, 0.0, 1.0))
    return AucEstimate(auc=auc_val, variance=float(var), ci95=(lo, hi))


def delong_paired_test(outcomes_a: ScoredOutcomes,
                       outcomes_b: ScoredOutcomes) -> float:
    """Two-sided p-value for AUC(a) != AUC(b), both models scored on the same
    cases (identical labels required)."""
    if not np.array_equal(outcomes_a.labels, outcomes_b.labels):
        raise ValidationError("paired test requires identical labels")
    if outcomes_a.n_pos < 2 or outcomes_a.n_neg < 2:
        raise ValidationError("paired test needs >= 2 positives and >= 2 negatives")
    auc_a, v10_a, v01_a = _placements(outcomes_a)
    auc_b, v10_b, v01_b = _placements(outcomes_b)
    diff = auc_a - auc_b
    s10 = np.cov(v10_a, v10_b, ddof=1)
    s01 = np.cov(v01_a, v01_b, ddof=1)
    s = s10 / len(v10_a) + s01 / len(v01_a)
    var_diff = s[0, 0] + s[1, 1] - 2.0 * s[0, 1]
    if var_diff <= 0.0:
        return 1.0 if diff == 0.0 else 0.0
    z = diff / np.sqrt(var_diff)
    return float(2.0 * ndtr(-abs(z)))
