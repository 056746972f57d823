"""Acceptance suite: one test per headline criterion, at the stated
tolerance and runtime budget. Each test is a single pass/fail line under
``pytest -v``; none of them may be weakened to force a pass.

Criteria covered:
  1. threshold schedule endpoints and monotonicity, exhaustive T in 1..1000
  2. selection/decision equivalence vs brute force, 10,000 random batches
  3. analytic gradients vs central finite differences, 100 random draws
  4. alpha=1.0 curriculum bit-identical to plain fine-tuning
  5. rank-based AUC vs quadratic pairwise oracle, 1,000 score sets
  6. DeLong CI endpoints vs 10,000-resample stratified bootstrap
  7. connected components vs flood-fill oracle, 200 random grids
  8. directional curriculum gain on the reference task (10 paired seeds)
  9. ablation shape: interior alpha beats both grid extremes on val AUC
 10. bit-identical reports across repeated runs of the same config
"""

import collections
import json
import math
import os
import time

import numpy as np
import pytest
from scipy.stats import binomtest

from hadcl import curriculum, data, harness, metrics, numcore, slidelevel
from hadcl.curriculum import (BatchHardness, CurriculumTrainConfig,
                              TrainConfig, decide_update_stage1,
                              decide_update_stage2, threshold)

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")
REFERENCE_CONFIG = os.path.join(CONFIG_DIR, "reference.yaml")
SMOKE_CONFIG = os.path.join(CONFIG_DIR, "smoke.yaml")
WORKERS = min(4, os.cpu_count() or 1)
ALPHA_GRID = (0.05, 0.10, 0.15, 0.20)
INTERIOR_ALPHA = 0.10


# --- 1. threshold schedule -------------------------------------------------

def test_threshold_schedule_exact_endpoints_and_decrease_T_1_to_1000():
    a, b = 0.7, 0.2
    start = time.perf_counter()
    for T in range(1, 1001):
        vals = np.array([threshold(t, T, a, b) for t in range(T + 1)])
        assert vals[0] == a + b          # exact, not approximate
        assert vals[-1] == b             # exact, not approximate
        assert np.all(np.diff(vals) < 0.0)
    assert time.perf_counter() - start < 1.0


# --- 2. selection / decision oracle equivalence ----------------------------

def test_selection_and_decisions_match_bruteforce_10000_batches():
    rng = np.random.default_rng(20240)
    start = time.perf_counter()
    for _ in range(10_000):
        batch = int(rng.integers(1, 65))
        losses = rng.uniform(0.0, 5.0, size=batch)
        if rng.random() < 0.3:           # force heavy ties
            losses = np.round(losses, 1)
        alpha = float(rng.uniform(0.02, 1.0))
        thres = float(rng.uniform(0.2, 0.9))

        top_k = CurriculumTrainConfig(epochs=1, lr=1e-3, batch_size=batch,
                                      alpha=alpha).top_k
        h = BatchHardness.from_losses(losses, top_k, thres=thres)

        # independent brute-force recomputation
        order = sorted(range(batch), key=lambda i: (-losses[i], i))
        k = max(1, math.floor(alpha * batch))
        k_prime = max(1, math.floor(thres * k))
        assert list(h.order) == order
        assert list(h.top_k) == order[:k]
        assert list(h.top_k_prime) == order[:k_prime]

        total = sum(losses)
        sum_k = sum(losses[i] for i in order[:k])
        sum_kp = sum(losses[i] for i in order[:k_prime])
        d1 = decide_update_stage1(losses, thres, top_k)
        assert d1.branch == (curriculum.TOP_K_BRANCH if sum_k > thres * total
                             else curriculum.TOTAL_BRANCH)
        d2 = decide_update_stage2(losses, thres, top_k)
        assert d2.branch == (curriculum.TOP_K_PRIME_BRANCH
                             if sum_kp > thres * sum_k
                             else curriculum.TOP_K_BRANCH)
    assert time.perf_counter() - start < 10.0


# --- 3. gradient correctness ------------------------------------------------

def _masked_mean_loss(model, x, y, mask):
    logits = numcore.forward(model, x if mask is None else x[mask])
    labels = y if mask is None else y[mask]
    buffers = numcore.StepBuffers(len(labels), model)
    return float(numcore.per_sample_cross_entropy(logits, labels, buffers).mean())


def _near_relu_kink(model, x, margin=1e-5):
    """True when any ReLU preactivation sits within `margin` of zero, where
    the loss is not differentiable and finite differences straddle the kink."""
    h1_pre = x @ model.w1 + model.b1
    h2_pre = np.maximum(h1_pre, 0.0) @ model.w2 + model.b2
    return min(np.abs(h1_pre).min(), np.abs(h2_pre).min()) < margin


def test_gradients_match_central_differences_100_draws(step_backward):
    rng = np.random.default_rng(777)
    h = 1e-6
    start = time.perf_counter()
    checked = 0
    while checked < 100:
        dim = int(rng.integers(2, 7))
        hidden = int(rng.integers(3, 9))
        n_classes = int(rng.integers(2, 5))
        batch = int(rng.integers(2, 13))
        # backward is one code for every dtype; central differences resolve
        # these tolerances in float64, the dtype the harness casts models up
        # to (test_numcore checks the float32 step's bytes)
        model = numcore.init_model(dim, hidden, n_classes,
                                   seed=int(rng.integers(0, 10_000))).astype(np.float64)
        x = rng.normal(size=(batch, dim))
        y = rng.integers(0, n_classes, size=batch)
        if rng.random() < 0.5:
            m = int(rng.integers(1, batch + 1))
            mask = np.sort(rng.choice(batch, size=m, replace=False))
        else:
            mask = None

        # the gradient only exists away from ReLU kinks; redraw otherwise
        if _near_relu_kink(model, x if mask is None else x[mask]):
            continue
        checked += 1

        grads, _ = step_backward(model, x, y, mask)
        for name in numcore.PARAM_NAMES:
            param = getattr(model, name)
            fd = np.zeros_like(param)
            it = np.nditer(param, flags=["multi_index"])
            while not it.finished:
                idx = it.multi_index
                orig = param[idx]
                param[idx] = orig + h
                up = _masked_mean_loss(model, x, y, mask)
                param[idx] = orig - h
                down = _masked_mean_loss(model, x, y, mask)
                param[idx] = orig
                fd[idx] = (up - down) / (2.0 * h)
                it.iternext()
            np.testing.assert_allclose(getattr(grads, name), fd,
                                       rtol=1e-4, atol=1e-6)
    assert time.perf_counter() - start < 30.0


# --- 4. degenerate equivalence ----------------------------------------------

def test_alpha_one_curriculum_bit_identical_to_plain_5_epochs():
    spec = data.BlobTaskSpec(dim=6, n_classes=2, per_class=120, separation=4.0,
                             spread=1.1, hard_fraction=0.2, noise_fraction=0.05,
                             seed=9)
    ds = data.generate_blobs(spec)
    model = numcore.init_model(6, 12, 2, seed=31)
    plain_cfg = TrainConfig(epochs=5, lr=1e-3, milestones=(3,), gamma=0.1,
                            batch_size=40)
    cfg = CurriculumTrainConfig(epochs=5, lr=1e-3, milestones=(3,), gamma=0.1,
                                batch_size=40, alpha=1.0, a=0.7, b=0.2)

    cur, cur_rep = curriculum.run_stage(model, ds.features, ds.labels, cfg,
                                        decide_update_stage1, seed=17)
    plain, plain_rep = curriculum.finetune_plain(
        model, ds.features, ds.labels, plain_cfg, seed=17)

    for name in numcore.PARAM_NAMES:
        assert getattr(cur, name).tobytes() == getattr(plain, name).tobytes()
    # trajectories agree iteration by iteration, not just at the end
    assert [r.mean_loss for r in cur_rep.records] == \
           [r.mean_loss for r in plain_rep.records]


# --- 5. AUC correctness -----------------------------------------------------

def _quadratic_auc(scores, labels):
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def test_auc_matches_quadratic_pairwise_oracle_1000_sets():
    rng = np.random.default_rng(4242)
    for _ in range(1000):
        n = int(rng.integers(4, 60))
        labels = np.zeros(n, dtype=int)
        labels[rng.choice(n, size=int(rng.integers(1, n)), replace=False)] = 1
        if labels.sum() in (0, n):
            labels[0] = 1 - labels[0]
        if rng.random() < 0.5:            # heavy ties from a coarse score set
            scores = rng.integers(0, 4, size=n).astype(float)
        else:
            scores = rng.normal(size=n)
        got = metrics.auc(metrics.ScoredOutcomes(scores, labels))
        want = _quadratic_auc(scores, labels)
        assert abs(got - want) <= 1e-12


# --- 6. DeLong CI vs stratified bootstrap -----------------------------------

def _bootstrap_ci(scores, labels, n_resamples=10_000, seed=0):
    rng = np.random.default_rng(seed)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    aucs = np.empty(n_resamples)
    chunk = 500
    for lo in range(0, n_resamples, chunk):
        m = min(chunk, n_resamples - lo)
        ps = pos[rng.integers(0, len(pos), size=(m, len(pos)))]
        ns = neg[rng.integers(0, len(neg), size=(m, len(neg)))]
        gt = (ps[:, :, None] > ns[:, None, :]).mean(axis=(1, 2))
        eq = (ps[:, :, None] == ns[:, None, :]).mean(axis=(1, 2))
        aucs[lo:lo + m] = gt + 0.5 * eq
    return float(np.quantile(aucs, 0.025)), float(np.quantile(aucs, 0.975))


def test_delong_ci_within_002_of_bootstrap_20_cohorts():
    rng = np.random.default_rng(99)
    start = time.perf_counter()
    for cohort in range(20):
        n_pos = int(rng.integers(60, 141))
        n_neg = 200 - n_pos
        sep = float(rng.uniform(0.3, 1.5))
        scores = np.concatenate([rng.normal(sep, 1.0, n_pos),
                                 rng.normal(0.0, 1.0, n_neg)])
        labels = np.concatenate([np.ones(n_pos, int), np.zeros(n_neg, int)])
        est = metrics.delong_ci(metrics.ScoredOutcomes(scores, labels))
        lo, hi = _bootstrap_ci(scores, labels, seed=cohort)
        assert abs(est.ci95[0] - lo) <= 0.02
        assert abs(est.ci95[1] - hi) <= 0.02
    assert time.perf_counter() - start < 120.0


# --- 7. connected components vs flood fill ----------------------------------

def _flood_fill_partition(mask):
    h, w = mask.shape
    seen = np.zeros_like(mask, dtype=bool)
    regions = set()
    for r0 in range(h):
        for c0 in range(w):
            if not mask[r0, c0] or seen[r0, c0]:
                continue
            stack, cells = [(r0, c0)], []
            seen[r0, c0] = True
            while stack:
                r, c = stack.pop()
                cells.append((r, c))
                for dr, dc in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                    rr, cc = r + dr, c + dc
                    if 0 <= rr < h and 0 <= cc < w and mask[rr, cc] \
                            and not seen[rr, cc]:
                        seen[rr, cc] = True
                        stack.append((rr, cc))
            regions.add(frozenset(cells))
    return regions


def test_connected_components_match_flood_fill_200_grids():
    rng = np.random.default_rng(512)
    for _ in range(200):
        h = int(rng.integers(1, 65))
        w = int(rng.integers(1, 65))
        probs = rng.random((h, w))
        grid = slidelevel.SlideGrid(probs=probs)
        for tau in (0.5, 0.95):
            labels, n = slidelevel.connected_components(grid, tau)
            got = {frozenset(map(tuple, np.argwhere(labels == i)))
                   for i in range(1, n + 1)}
            want = _flood_fill_partition(probs > tau)
            assert len(got) == n
            assert got == want


# --- 8/9. reference-task experiments ----------------------------------------

@pytest.fixture(scope="module")
def reference_report():
    config = harness.load_config(REFERENCE_CONFIG)
    start = time.perf_counter()
    report = harness.run_experiment(config, workers=WORKERS)
    elapsed = time.perf_counter() - start
    return config, report, elapsed


def test_directional_gain_on_reference_task(reference_report):
    config, report, elapsed = reference_report
    assert elapsed < 900.0               # < 15 min
    assert report.all_ok

    ood = collections.defaultdict(dict)
    for cell in report.cells:
        ood[cell["strategy"]][cell["seed"]] = cell["metrics"]["ood"]["auc"]
    seeds = sorted(ood["baseline"])
    assert len(seeds) == 10

    med = {s: float(np.median([ood[s][k] for k in seeds]))
           for s in ("baseline", "curriculum1", "curriculum2")}
    assert med["curriculum2"] >= med["curriculum1"] >= med["baseline"]

    wins = sum(ood["curriculum2"][k] > ood["baseline"][k] for k in seeds)
    ties = sum(ood["curriculum2"][k] == ood["baseline"][k] for k in seeds)
    p = binomtest(wins, len(seeds) - ties, 0.5, alternative="greater").pvalue
    assert p < 0.05


def test_ablation_interior_alpha_beats_extremes(reference_report):
    config, _, _ = reference_report
    start = time.perf_counter()
    reports = harness.run_ablation_alpha(config, list(ALPHA_GRID),
                                         workers=WORKERS)
    assert time.perf_counter() - start < 900.0
    assert all(r.all_ok for r in reports)
    med = {alpha: r.summary()["curriculum1"]["median_auc_val"]
           for alpha, r in zip(ALPHA_GRID, reports)}
    assert med[INTERIOR_ALPHA] > med[ALPHA_GRID[0]]
    assert med[INTERIOR_ALPHA] > med[ALPHA_GRID[-1]]


# --- 10. determinism ----------------------------------------------------------

def _canonical(report):
    cells = []
    for cell in report.cells:
        c = dict(cell)
        c.pop("wall_clock", None)        # the only timing-dependent field
        cells.append(c)
    return json.dumps(cells, sort_keys=True)


def test_reports_bit_identical_across_runs():
    config = harness.load_config(SMOKE_CONFIG)
    first = harness.run_experiment(config, workers=1)
    second = harness.run_experiment(config, workers=2)
    assert _canonical(first) == _canonical(second)
