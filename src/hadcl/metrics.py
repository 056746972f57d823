"""Evaluation statistics: accuracy, rank-based ROC AUC (Mann-Whitney with
mid-rank tie handling), DeLong variance and 95% CI, and the paired DeLong
test for two models scored on the same cases.

The DeLong quantities follow the fast mid-rank formulation of Sun & Xu
(IEEE SPL 2014). The mid-ranks come from one sort of the pooled scores. The
normal tail is a port of Cephes `ndtr` (S. L. Moshier) to Python floats,
with Cephes's coefficient tables and evaluation order, so it gives
`scipy.special.ndtr`'s bits without importing SciPy. The port keeps only
the branches `ndtr` reaches: Cephes's `erf` also serves |x| > 1 and its
`erfc` x < 0, which `ndtr` never passes them. The 95% CI's normal quantile
is a constant with `scipy.special.ndtri(0.975)`'s bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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


# --- the normal tail, ported from Cephes, and the 95% quantile --------------

_SQRT1_2 = 7.07106781186547524401E-1
_MAXLOG = 7.09782712893383996843E2
# the standard normal quantile at 0.975, which a 95% CI's half-width scales
_Z975 = 1.959963984540054

# erfc, 1 <= x < 8: P(x) / Q(x)
_ERFC_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1,
           7.46321056442269912687E0, 4.86371970985681366614E1,
           1.96520832956077098242E2, 5.26445194995477358631E2,
           9.34528527171957607540E2, 1.02755188689515710272E3,
           5.57535335369399327526E2)
_ERFC_Q = (1.32281951154744992508E1, 8.67072140885989742329E1,
           3.54937778887819891062E2, 9.75708501743205489753E2,
           1.82390916687909736289E3, 2.24633760818710981792E3,
           1.65666309194161350182E3, 5.57535340817727675546E2)
# erfc, x >= 8: R(x) / S(x)
_ERFC_R = (5.64189583547755073984E-1, 1.27536670759978104416E0,
           5.01905042251180477414E0, 6.16021097993053585195E0,
           7.40974269950448939160E0, 2.97886665372100240670E0)
_ERFC_S = (2.26052863220117276590E0, 9.39603524938001434673E0,
           1.20489539808096656605E1, 1.70814450747565897222E1,
           9.60896809063285878198E0, 3.36907645100081516050E0)
# erf, |x| <= 1: x T(x^2) / U(x^2)
_ERF_T = (9.60497373987051638749E0, 9.00260197203842689217E1,
          2.23200534594684319226E3, 7.00332514112805075473E3,
          5.55923013010394962768E4)
_ERF_U = (3.35617141647503099647E1, 5.21357949780152679795E2,
          4.59432382970980127987E3, 2.26290000613890934246E4,
          4.92673942608635921086E4)


def _polevl(x, coef):
    """coef[0] x^N + ... + coef[N] by Horner's rule."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x, coef):
    """_polevl with a leading coefficient of 1 that `coef` leaves out."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _erf(x):
    """The error function for |x| < 1, as x T(x^2) / U(x^2)."""
    z = x * x
    return x * _polevl(z, _ERF_T) / _p1evl(z, _ERF_U)


def _erfc(x):
    """1 - erf(x) for x >= 0: for x >= 1 from exp(-x^2) P(x) / Q(x), so that
    its tail keeps its relative precision, and 0 once exp(-x^2) underflows."""
    if x < 1.0:
        return 1.0 - _erf(x)
    z = -x * x
    if z < -_MAXLOG:
        return 0.0
    if x < 8.0:
        p, q = _polevl(x, _ERFC_P), _p1evl(x, _ERFC_Q)
    else:
        p, q = _polevl(x, _ERFC_R), _p1evl(x, _ERFC_S)
    return math.exp(z) * p / q


def _ndtr(a):
    """The standard normal CDF at a: scipy.special.ndtr, bit for bit."""
    x = a * _SQRT1_2
    z = abs(x)
    if z < _SQRT1_2:
        return 0.5 + 0.5 * _erf(x)
    y = 0.5 * _erfc(z)
    return 1.0 - y if x > 0 else y


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


def delong_ci(outcomes: ScoredOutcomes) -> AucEstimate:
    """DeLong variance of the AUC and a normal-approximation 95% CI clipped
    to [0,1]."""
    if outcomes.n_pos < 2 or outcomes.n_neg < 2:
        raise ValidationError("DeLong CI needs >= 2 positives and >= 2 negatives")
    auc_val, v10, v01 = _placements(outcomes)
    var = v10.var(ddof=1) / len(v10) + v01.var(ddof=1) / len(v01)
    half = _Z975 * np.sqrt(var)
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
    return 2.0 * _ndtr(-abs(float(z)))
