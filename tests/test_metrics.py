import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import special
from scipy.stats import norm, rankdata

import hadcl
from hadcl.exceptions import ValidationError
from hadcl.metrics import (_Z975, AucEstimate, ScoredOutcomes, _ndtr,
                           _placements, accuracy, auc, delong_ci,
                           delong_paired_test)


def pairwise_auc(scores, labels):
    # O(P*N) brute-force oracle with half-credit for ties
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


class TestAccuracy:
    def test_all_correct(self):
        assert accuracy([0, 1, 1], [0, 1, 1]) == 1.0

    def test_all_wrong(self):
        assert accuracy([1, 0], [0, 1]) == 0.0

    def test_matches_count_oracle(self):
        rng = np.random.default_rng(0)
        preds = rng.integers(0, 2, 100)
        labels = rng.integers(0, 2, 100)
        want = sum(int(p == l) for p, l in zip(preds, labels)) / 100
        assert accuracy(preds, labels) == want

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            accuracy([], [])


class TestAuc:
    def test_perfect_separation(self):
        out = ScoredOutcomes([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0])
        assert auc(out) == 1.0

    def test_all_ties(self):
        out = ScoredOutcomes([0.5] * 6, [1, 0, 1, 0, 1, 0])
        assert auc(out) == 0.5

    def test_matches_quadratic_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = int(rng.integers(10, 200))
            # coarse quantization forces heavy ties
            scores = np.round(rng.uniform(size=n), 1)
            labels = rng.integers(0, 2, n)
            if labels.sum() in (0, n):
                labels[0] = 1 - labels[0]
            out = ScoredOutcomes(scores, labels)
            assert abs(auc(out) - pairwise_auc(scores, labels)) < 1e-12

    def test_single_class_rejected(self):
        with pytest.raises(ValidationError):
            auc(ScoredOutcomes([0.1, 0.2], [1, 1]))

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(2)
        scores = rng.normal(size=80)
        labels = rng.integers(0, 2, 80)
        labels[:2] = [0, 1]
        a = ScoredOutcomes(scores, labels)
        b = ScoredOutcomes(np.exp(scores) * 3 + 1, labels)
        assert auc(a) == auc(b)
        est_a, est_b = delong_ci(a), delong_ci(b)
        assert est_a.auc == est_b.auc
        assert est_a.variance == pytest.approx(est_b.variance, abs=1e-15)

    def test_complement_identity(self):
        rng = np.random.default_rng(3)
        scores = rng.uniform(size=60)
        labels = rng.integers(0, 2, 60)
        labels[:2] = [0, 1]
        a = auc(ScoredOutcomes(scores, labels))
        b = auc(ScoredOutcomes(1.0 - scores, labels))
        assert a == pytest.approx(1.0 - b, abs=1e-15)


def stratified_bootstrap_ci(scores, labels, n_boot=10_000, seed=0):
    rng = np.random.default_rng(seed)
    pos_idx = np.where(labels == 1)[0]
    neg_idx = np.where(labels == 0)[0]
    aucs = np.empty(n_boot)
    for i in range(n_boot):
        p = rng.choice(pos_idx, size=len(pos_idx), replace=True)
        n = rng.choice(neg_idx, size=len(neg_idx), replace=True)
        idx = np.concatenate([p, n])
        aucs[i] = auc(ScoredOutcomes(scores[idx], labels[idx]))
    return np.percentile(aucs, 2.5), np.percentile(aucs, 97.5)


class TestDelongCi:
    def test_perfect_separation_collapses(self):
        scores = np.concatenate([np.linspace(0.6, 1.0, 50),
                                 np.linspace(0.0, 0.4, 50)])
        labels = np.array([1] * 50 + [0] * 50)
        est = delong_ci(ScoredOutcomes(scores, labels))
        assert est.auc == 1.0
        assert est.variance == pytest.approx(0.0, abs=1e-15)
        assert est.ci95 == (1.0, 1.0)

    def test_score_negation_symmetry(self):
        rng = np.random.default_rng(4)
        scores = rng.normal(size=100)
        labels = rng.integers(0, 2, 100)
        labels[:4] = [0, 0, 1, 1]
        a = delong_ci(ScoredOutcomes(scores, labels))
        b = delong_ci(ScoredOutcomes(-scores, 1 - labels))
        assert a.auc == pytest.approx(b.auc, abs=1e-15)
        assert a.variance == pytest.approx(b.variance, abs=1e-15)

    def test_close_to_bootstrap(self):
        rng = np.random.default_rng(5)
        labels = np.array([1] * 100 + [0] * 100)
        scores = np.where(labels == 1, rng.normal(0.8, 1.0, 200),
                          rng.normal(0.0, 1.0, 200))
        est = delong_ci(ScoredOutcomes(scores, labels))
        lo, hi = stratified_bootstrap_ci(scores, labels, n_boot=4000, seed=6)
        assert abs(est.ci95[0] - lo) < 0.02
        assert abs(est.ci95[1] - hi) < 0.02

    def test_degenerate_counts_rejected(self):
        with pytest.raises(ValidationError):
            delong_ci(ScoredOutcomes([0.1, 0.5, 0.9], [1, 0, 0]))

    def test_ci_clipped_and_ordered(self):
        rng = np.random.default_rng(7)
        scores = rng.uniform(size=30)
        labels = rng.integers(0, 2, 30)
        labels[:4] = [0, 0, 1, 1]
        est = delong_ci(ScoredOutcomes(scores, labels))
        assert 0.0 <= est.ci95[0] <= est.auc <= est.ci95[1] <= 1.0


def paired_permutation_p(scores_a, scores_b, labels, n_perm=10_000, seed=0):
    # swap the two models' scores case-wise under the null of equal AUC
    rng = np.random.default_rng(seed)
    observed = abs(auc(ScoredOutcomes(scores_a, labels))
                   - auc(ScoredOutcomes(scores_b, labels)))
    count = 0
    for _ in range(n_perm):
        swap = rng.integers(0, 2, len(labels)).astype(bool)
        a = np.where(swap, scores_b, scores_a)
        b = np.where(swap, scores_a, scores_b)
        diff = abs(auc(ScoredOutcomes(a, labels)) - auc(ScoredOutcomes(b, labels)))
        if diff >= observed - 1e-15:
            count += 1
    return count / n_perm


class TestDelongPaired:
    def test_identical_models_give_p_one(self):
        rng = np.random.default_rng(8)
        scores = rng.uniform(size=50)
        labels = rng.integers(0, 2, 50)
        labels[:4] = [0, 0, 1, 1]
        out = ScoredOutcomes(scores, labels)
        assert delong_paired_test(out, out) == 1.0

    def test_perfect_vs_coinflip_rejects(self):
        rng = np.random.default_rng(9)
        labels = np.array([1] * 250 + [0] * 250)
        perfect = labels + rng.uniform(-0.4, 0.4, 500)
        coin = rng.uniform(size=500)
        p = delong_paired_test(ScoredOutcomes(perfect, labels),
                               ScoredOutcomes(coin, labels))
        assert p < 0.001
        perm_p = paired_permutation_p(perfect, coin, labels, n_perm=300, seed=1)
        assert perm_p < 0.01

    def test_random_pair_matches_permutation_test(self):
        rng = np.random.default_rng(10)
        labels = np.array([1] * 60 + [0] * 60)
        scores_a = labels * 0.4 + rng.normal(0, 1, 120)
        scores_b = labels * 0.55 + rng.normal(0, 1, 120)
        p = delong_paired_test(ScoredOutcomes(scores_a, labels),
                               ScoredOutcomes(scores_b, labels))
        perm_p = paired_permutation_p(scores_a, scores_b, labels,
                                      n_perm=2000, seed=2)
        assert abs(p - perm_p) < 0.03

    def test_mismatched_labels_rejected(self):
        rng = np.random.default_rng(11)
        scores = rng.uniform(size=20)
        la = np.array([0, 1] * 10)
        lb = la.copy()
        lb[0] = 1
        with pytest.raises(ValidationError):
            delong_paired_test(ScoredOutcomes(scores, la),
                               ScoredOutcomes(scores, lb))


# --- the statistics as scipy.stats computes them ------------------------------

def rankdata_placements(scores, labels):
    """(AUC, V10, V01) from three scipy.stats.rankdata calls, the form of
    Sun & Xu (IEEE SPL 2014)."""
    scores, labels = np.asarray(scores, dtype=np.float64), np.asarray(labels)
    pos, neg = scores[labels == 1], scores[labels == 0]
    m, n = len(pos), len(neg)
    all_ranks = rankdata(np.concatenate([pos, neg]))
    v10 = (all_ranks[:m] - rankdata(pos)) / n
    v01 = 1.0 - (all_ranks[m:] - rankdata(neg)) / m
    return float(v10.mean()), v10, v01


def rankdata_delong_ci(scores, labels):
    auc_val, v10, v01 = rankdata_placements(scores, labels)
    var = v10.var(ddof=1) / len(v10) + v01.var(ddof=1) / len(v01)
    half = norm.ppf(0.975) * np.sqrt(var)
    return (auc_val, float(var), (float(np.clip(auc_val - half, 0.0, 1.0)),
                                  float(np.clip(auc_val + half, 0.0, 1.0))))


def rankdata_paired_p(scores_a, scores_b, labels):
    auc_a, v10_a, v01_a = rankdata_placements(scores_a, labels)
    auc_b, v10_b, v01_b = rankdata_placements(scores_b, labels)
    diff = auc_a - auc_b
    s = (np.cov(v10_a, v10_b, ddof=1) / len(v10_a)
         + np.cov(v01_a, v01_b, ddof=1) / len(v01_a))
    var_diff = s[0, 0] + s[1, 1] - 2.0 * s[0, 1]
    if var_diff <= 0.0:
        return 1.0 if diff == 0.0 else 0.0
    return float(2.0 * norm.sf(abs(diff / np.sqrt(var_diff))))


def oracle_cases():
    """(scores, labels) with at least two of each class: continuous scores,
    heavy ties, a few distinct values, all tied, infinities and signed
    zeros, down to two positives and two negatives."""
    rng = np.random.default_rng(12)
    cases = []
    for size in (4, 5, 9, 30, 257, 1000):
        for _ in range(8):
            labels = rng.permutation(np.arange(size) % 2)
            if size > 4 and rng.random() < 0.5:  # unbalanced classes
                labels = (rng.random(size) < 0.2).astype(int)
                labels[:2], labels[2:4] = 1, 0
            u = rng.random(size)
            for scores in (u, np.round(u, 1), rng.integers(0, 3, size) * 0.5,
                           np.full(size, 0.25),
                           np.where(u < 0.1, -np.inf, np.where(u > 0.9, np.inf, u)),
                           np.where(u < 0.5, -0.0, 0.0)):
                cases.append((scores.astype(np.float64), labels))
    return cases


class TestRankdataOracle:
    def test_placements_bit_equal(self):
        for scores, labels in oracle_cases():
            got = _placements(ScoredOutcomes(scores, labels))
            want = rankdata_placements(scores, labels)
            assert got[0] == want[0]
            assert got[1].tobytes() == want[1].tobytes()
            assert got[2].tobytes() == want[2].tobytes()

    def test_auc_and_delong_ci_bit_equal(self):
        for scores, labels in oracle_cases():
            est = delong_ci(ScoredOutcomes(scores, labels))
            assert (est.auc, est.variance, est.ci95) == rankdata_delong_ci(
                scores, labels)
            assert auc(ScoredOutcomes(scores, labels)) == est.auc

    def test_paired_test_bit_equal(self):
        cases = oracle_cases()
        rng = np.random.default_rng(13)
        p_values = set()
        for scores, labels in cases:
            # a second model on the same cases: a noisy copy, with ties
            other = np.round(scores + rng.normal(0, 0.3, scores.size), 1)
            for b in (other, scores[::-1].copy()):
                p = delong_paired_test(ScoredOutcomes(scores, labels),
                                       ScoredOutcomes(b, labels))
                assert p == rankdata_paired_p(scores, b, labels)
                p_values.add(p)
        # the cases reach both degenerate returns and the normal tail
        assert {0.0, 1.0} <= p_values and len(p_values) > 100

    def test_one_of_each_class_auc(self):
        for scores in ([0.2, 0.7], [0.7, 0.2], [0.5, 0.5], [np.inf, -np.inf]):
            out = ScoredOutcomes(scores, [1, 0])
            assert auc(out) == rankdata_placements(scores, [1, 0])[0]


class TestScoreValues:
    def test_nan_score_rejected(self):
        with pytest.raises(ValidationError, match="NaN"):
            ScoredOutcomes([0.1, np.nan, 0.3], [0, 1, 1])

    def test_infinite_scores_ranked(self):
        out = ScoredOutcomes([np.inf, -np.inf, np.inf, 0.0], [1, 0, 0, 1])
        # +inf ties +inf, -inf is below every positive, 0.0 is below +inf
        assert auc(out) == pairwise_auc([np.inf, -np.inf, np.inf, 0.0],
                                        [1, 0, 0, 1]) == 2.5 / 4


# --- the normal tail and quantile as scipy.special computes them --------------

def around(values, ulps=40):
    """Each of `values` and its `ulps` nearest floats on either side."""
    out = []
    for v in values:
        out.append(v)
        lo = hi = v
        for _ in range(ulps):
            lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
            out += [lo, hi]
    return out


def assert_bits_equal(got, want):
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want)
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


class TestNormalPorts:
    def test_ndtr_bit_equal(self):
        rng = np.random.default_rng(14)
        # |a| / sqrt(2) at sqrt(1/2) (erf or erfc), at 1 (erfc's own erf
        # branch) and at 8 (its two rational forms), and a^2 / 2 at MAXLOG
        # (underflow to 0); each with either sign
        edges = around([1.0, math.sqrt(2.0), 8.0 * math.sqrt(2.0),
                        math.sqrt(2.0 * 7.09782712893383996843E2)])
        xs = np.concatenate([
            rng.uniform(-40.0, 40.0, 20_000), rng.normal(0.0, 3.0, 20_000),
            edges, np.negative(edges),
            [0.0, -0.0, math.inf, -math.inf, math.nan, 1e300, -1e300]])
        assert_bits_equal([_ndtr(float(x)) for x in xs], special.ndtr(xs))

    def test_z975_is_ndtri_bit_equal(self):
        # delong_ci's 95% quantile, a constant in place of a quantile port
        assert np.float64(_Z975).tobytes() == special.ndtri(0.975).tobytes()


def test_cli_import_loads_no_scipy():
    src = str(Path(hadcl.__file__).resolve().parent.parent)
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import hadcl.cli; "
            "loaded = sorted(m for m in sys.modules if m.startswith('scipy')); "
            "assert not loaded, loaded")
    subprocess.run([sys.executable, "-c", code, src], check=True)
