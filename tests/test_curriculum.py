import math

import numpy as np
import pytest

from hadcl import curriculum, data, numcore
from hadcl.curriculum import (BatchHardness, CurriculumConfig,
                              ThresholdSchedule,
                              decide_update_stage1, decide_update_stage2,
                              finetune_plain, rank_by_loss, run_stage,
                              threshold)
from hadcl.exceptions import NumericError, ValidationError
from hadcl.numcore import LrSchedule, init_model

SCHED = ThresholdSchedule(a=0.7, b=0.2)
T = 100


class TestThreshold:
    def test_endpoints_and_midpoint(self):
        assert threshold(0, SCHED, T) == pytest.approx(0.9)
        assert threshold(100, SCHED, T) == pytest.approx(0.2)
        assert threshold(50, SCHED, T) == pytest.approx(0.55)

    def test_strictly_decreasing(self):
        vals = [threshold(t, SCHED, T) for t in range(101)]
        assert all(u > v for u, v in zip(vals, vals[1:]))

    def test_out_of_range(self):
        with pytest.raises(ValidationError):
            threshold(101, SCHED, T)
        with pytest.raises(ValidationError):
            threshold(-1, SCHED, T)

    def test_schedule_validation(self):
        with pytest.raises(ValidationError):
            ThresholdSchedule(a=0.2, b=0.7)   # a must exceed b
        with pytest.raises(ValidationError):
            ThresholdSchedule(a=0.9, b=0.2)   # fraction above 1
        with pytest.raises(ValidationError):
            threshold(0, SCHED, 0)            # an epoch has at least one batch


class TestRanking:
    def test_simple_case(self):
        np.testing.assert_array_equal(rank_by_loss([0.2, 0.9, 0.5]), [1, 2, 0])

    def test_stable_ties(self):
        np.testing.assert_array_equal(rank_by_loss([0.5, 0.5]), [0, 1])
        np.testing.assert_array_equal(rank_by_loss([1.0, 0.3, 1.0, 0.3]),
                                      [0, 2, 1, 3])

    def test_against_reference_sort(self):
        rng = np.random.default_rng(0)
        losses = rng.uniform(size=1000)
        order = rank_by_loss(losses)
        ref = sorted(range(1000), key=lambda i: (-losses[i], i))
        np.testing.assert_array_equal(order, ref)
        # prefix sums agree with the reference ordering
        np.testing.assert_allclose(np.cumsum(losses[order]),
                                   np.cumsum(losses[ref]))

    def test_nan_rejected(self):
        with pytest.raises(NumericError):
            rank_by_loss([0.1, np.nan])


class TestSelection:
    @pytest.mark.parametrize("alpha,batch,k", [
        (0.10, 512, 51),
        (0.25, 4, 1),
        (0.10, 32, 3),
        (1.0, 16, 16),
        (0.01, 10, 1),   # floor would be 0; minimum of 1 applies
    ])
    def test_top_k_size(self, alpha, batch, k):
        config = CurriculumConfig(alpha=alpha, schedule=SCHED, epochs=1,
                                  batch_size=batch)
        assert config.top_k == k
        h = BatchHardness.from_losses(np.zeros(batch), config.top_k)
        assert len(h.top_k) == k

    @pytest.mark.parametrize("thres,k,kp", [
        (0.9, 51, 45),
        (0.2, 3, 1),
        (0.55, 10, 5),
    ])
    def test_top_k_prime_size(self, thres, k, kp):
        h = BatchHardness.from_losses(np.zeros(k), k, thres=thres)
        assert len(h.top_k_prime) == kp

    def test_nesting_on_small_grids(self):
        for batch in range(1, 65):
            losses = np.zeros(batch)
            for alpha in (0.05, 0.1, 0.33, 0.5, 1.0):
                k = CurriculumConfig(alpha=alpha, schedule=SCHED, epochs=1,
                                     batch_size=batch).top_k
                assert k == max(1, int(alpha * batch))
                for thres in (0.2, 0.55, 0.9):
                    h = BatchHardness.from_losses(losses, k, thres=thres)
                    assert len(h.top_k) == k
                    assert len(h.top_k_prime) == max(1, int(thres * k))
                    assert set(h.top_k_prime) <= set(h.top_k) <= set(h.order)


class TestDecisions:
    def test_stage1_examples(self):
        d = decide_update_stage1([3.0, 1.0, 0.5, 0.5], 0.5, k=1)
        assert d.branch == curriculum.TOP_K_BRANCH
        assert (d.lhs, d.rhs) == (3.0, 2.5)
        assert list(d.mask) == [0]

        d = decide_update_stage1([1.0, 1.0, 1.0, 1.0], 0.5, k=1)
        assert d.branch == curriculum.TOTAL_BRANCH
        assert d.mask is None

    def test_stage2_examples(self):
        # K = 3 and thres = 0.5 give K' = 1
        d = decide_update_stage2([2.0, 0.1, 0.1], 0.5, k=3)
        assert d.branch == curriculum.TOP_K_PRIME_BRANCH
        assert (d.k, d.k_prime, list(d.mask)) == (3, 1, [0])

        d = decide_update_stage2([1.0, 1.0], 0.9, k=2)
        assert d.branch == curriculum.TOP_K_BRANCH
        assert list(d.mask) == [0, 1]

    def test_random_batches_match_bruteforce(self):
        rng = np.random.default_rng(1)
        for _ in range(500):
            batch = int(rng.integers(1, 65))
            losses = rng.uniform(0.0, 5.0, size=batch)
            alpha = float(rng.uniform(0.02, 1.0))
            thres = float(rng.uniform(0.2, 0.9))
            top_k = CurriculumConfig(alpha=alpha, schedule=SCHED, epochs=1,
                                     batch_size=batch).top_k

            order = sorted(range(batch), key=lambda i: (-losses[i], i))
            k = max(1, math.floor(alpha * batch))
            kp = max(1, math.floor(thres * k))
            sum_k = sum(losses[i] for i in order[:k])
            sum_kp = sum(losses[i] for i in order[:kp])
            total = sum(losses)

            d1 = decide_update_stage1(losses, thres, top_k)
            want1 = (curriculum.TOP_K_BRANCH if sum_k > thres * total
                     else curriculum.TOTAL_BRANCH)
            assert d1.branch == want1

            d2 = decide_update_stage2(losses, thres, top_k)
            want2 = (curriculum.TOP_K_PRIME_BRANCH if sum_kp > thres * sum_k
                     else curriculum.TOP_K_BRANCH)
            assert d2.branch == want2

    def test_decision_monotone_in_threshold(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            losses = rng.uniform(0.0, 3.0, size=32)
            fired = [decide_update_stage1(losses, tau, k=8).branch
                     == curriculum.TOP_K_BRANCH
                     for tau in np.linspace(0.2, 0.9, 15)]
            # once the condition stops firing at some threshold it stays off
            # for every larger threshold
            assert fired == sorted(fired, reverse=True)


def separable_task(seed=0, n_per_class=150):
    spec = data.BlobTaskSpec(dim=4, n_classes=2, per_class=n_per_class,
                             separation=8.0, spread=0.7, hard_fraction=0.0,
                             noise_fraction=0.0, seed=seed)
    return data.generate_blobs(spec)


def lr_sched(lr=1e-3):
    return LrSchedule(base=lr)


STAGE1 = curriculum.decide_update_stage1
STAGE2 = curriculum.decide_update_stage2


def stage_config(alpha=0.1, epochs=5, batch=30, a=0.7, b=0.2):
    return CurriculumConfig(alpha=alpha, schedule=ThresholdSchedule(a, b),
                            epochs=epochs, batch_size=batch)


def model_bytes(model):
    return model.theta.tobytes()


class TestRunStage:
    def test_separable_blobs_reach_99_percent(self):
        ds = separable_task()
        model = init_model(4, 16, 2, seed=0)
        trained, report = run_stage(model, ds.features, ds.labels,
                                    stage_config(epochs=50), STAGE1,
                                    lr_sched(), seed=3)
        preds = numcore.forward(trained, ds.features).argmax(axis=1)
        assert np.mean(preds == ds.labels) >= 0.99
        assert len(report.records) == 50 * (ds.n // 30)

    def test_alpha_one_matches_plain_finetuning_bitwise(self):
        ds = separable_task(seed=1)
        model = init_model(4, 16, 2, seed=5)
        cur, _ = run_stage(model, ds.features, ds.labels,
                           stage_config(alpha=1.0, epochs=5), STAGE1,
                           lr_sched(), seed=7)
        plain, _ = finetune_plain(model, ds.features, ds.labels, epochs=5,
                                  batch_size=30, lr_schedule=lr_sched(), seed=7)
        assert model_bytes(cur) == model_bytes(plain)

    def test_same_seed_identical_report(self):
        ds = separable_task(seed=2)
        model = init_model(4, 16, 2, seed=6)
        runs = [run_stage(model, ds.features, ds.labels,
                          stage_config(epochs=3), STAGE1,
                          lr_sched(), seed=11) for _ in range(2)]
        assert model_bytes(runs[0][0]) == model_bytes(runs[1][0])
        assert runs[0][1].records == runs[1][1].records

    def test_thres_logged_within_range(self):
        ds = separable_task(seed=3)
        model = init_model(4, 16, 2, seed=6)
        _, report = run_stage(model, ds.features, ds.labels,
                              stage_config(epochs=2), STAGE2,
                              lr_sched(), seed=1)
        for rec in report.records:
            assert 0.2 <= rec.thres <= 0.9
            assert rec.k_prime <= rec.k

    def test_branch_soundness_from_log(self):
        # replaying the logged thresholds against recomputed losses is not
        # possible from the log alone, but branch labels must be legal
        ds = separable_task(seed=4)
        model = init_model(4, 16, 2, seed=6)
        _, rep1 = run_stage(model, ds.features, ds.labels,
                            stage_config(epochs=2), STAGE1,
                            lr_sched(), seed=2)
        assert {r.branch for r in rep1.records} <= {
            curriculum.TOP_K_BRANCH, curriculum.TOTAL_BRANCH}
        _, rep2 = run_stage(model, ds.features, ds.labels,
                            stage_config(epochs=2), STAGE2,
                            lr_sched(), seed=2)
        assert {r.branch for r in rep2.records} <= {
            curriculum.TOP_K_PRIME_BRANCH, curriculum.TOP_K_BRANCH}

    def test_excluded_samples_do_not_touch_gradient(self):
        # zeroing features of non-selected samples leaves the masked
        # gradient unchanged
        rng = np.random.default_rng(12)
        model = init_model(4, 8, 2, seed=1)
        x = rng.normal(size=(10, 4))
        y = rng.integers(0, 2, 10)
        mask = [1, 4, 7]
        g1, _ = numcore.backward(model, x, y, mask)
        x2 = x.copy()
        excluded = [i for i in range(10) if i not in mask]
        x2[excluded] = 0.0
        g2, _ = numcore.backward(model, x2, y, mask)
        np.testing.assert_array_equal(g1.theta, g2.theta)

    @pytest.mark.filterwarnings("error")  # overflow is reported once, here
    def test_divergence_names_epoch_iteration_and_seed(self):
        ds = separable_task(seed=4)
        model = init_model(4, 16, 2, seed=6)
        with pytest.raises(NumericError,
                           match=r"logits .* at epoch 0, iteration \d+ \(seed 2\)"):
            run_stage(model, ds.features, ds.labels, stage_config(),
                      STAGE1, LrSchedule(base=1e200), seed=2)

    def test_empty_dataset_rejected(self):
        model = init_model(4, 8, 2, seed=1)
        with pytest.raises(ValidationError):
            run_stage(model, np.zeros((10, 4)), np.zeros(10, dtype=int),
                      stage_config(batch=64), STAGE1,
                      lr_sched(), seed=0)


class TestRunHadcl:
    def test_zero_epoch_stage2_is_identity(self):
        ds = separable_task(seed=5)
        model = init_model(4, 16, 2, seed=2)
        theta1, _ = run_stage(model, ds.features, ds.labels,
                              stage_config(epochs=3), STAGE1,
                              lr_sched(), seed=9)
        theta2, r2 = run_stage(theta1, ds.features, ds.labels,
                               stage_config(epochs=0), STAGE2,
                               lr_sched(), seed=9)
        assert model_bytes(theta2) == model_bytes(theta1)
        assert len(r2.records) == 0

    def test_stage2_starts_from_theta1(self):
        # first stage-2 batch loss should be lower starting from theta1 than
        # from a random re-initialization, in at least 9 of 10 seeds
        wins = 0
        for seed in range(10):
            ds = separable_task(seed=100 + seed)
            model = init_model(4, 16, 2, seed=seed)
            theta1, _ = run_stage(model, ds.features, ds.labels,
                                  stage_config(epochs=15), STAGE1,
                                  lr_sched(), seed=seed)
            fresh = init_model(4, 16, 2, seed=777 + seed)

            def first_loss(m):
                _, rep = run_stage(m, ds.features, ds.labels,
                                   stage_config(epochs=1), STAGE2,
                                   lr_sched(lr=0.0), seed=seed)
                return rep.records[0].mean_loss

            if first_loss(theta1) < first_loss(fresh):
                wins += 1
        assert wins >= 9


class TestGoldenRun:
    # frozen fixture: sha256 of theta2's parameter bytes from a seeded
    # full-pipeline run; any change to data generation, initialization,
    # update rules, or optimizer numerics will move this hash
    GOLDEN_THETA2 = ("e4fe93ae09bbbf20504a24c89d24b5fb"
                     "12d9aefe2986e69c401a083c020354d5")

    def test_theta2_hash_matches_reference_run(self):
        import hashlib

        spec = data.BlobTaskSpec(dim=5, n_classes=2, per_class=80,
                                 separation=4.0, spread=1.0,
                                 hard_fraction=0.25, noise_fraction=0.05,
                                 seed=13)
        ds = data.generate_blobs(spec)
        model = init_model(5, 10, 2, seed=3)
        s = LrSchedule(base=1e-3, milestones=(4,), gamma=0.1)
        theta1, _ = run_stage(model, ds.features, ds.labels,
                              stage_config(epochs=6, batch=32), STAGE1, s,
                              seed=42)
        theta2, _ = run_stage(theta1, ds.features, ds.labels,
                              stage_config(epochs=2, batch=32), STAGE2, s,
                              seed=42)
        digest = hashlib.sha256(model_bytes(theta2)).hexdigest()
        assert digest == self.GOLDEN_THETA2


class TestValidationSelection:
    def test_select_set_keeps_best_scoring_epoch(self):
        ds = separable_task(seed=8)
        model = init_model(4, 16, 2, seed=4)
        val = separable_task(seed=9)
        best, rep_sel = run_stage(model, ds.features, ds.labels,
                                  stage_config(epochs=6), STAGE2,
                                  lr_sched(), seed=5,
                                  select_set=(val.features, val.labels))
        final, _ = run_stage(model, ds.features, ds.labels,
                             stage_config(epochs=6), STAGE2,
                             lr_sched(), seed=5)
        assert rep_sel.best_epoch is not None
        assert -1 <= rep_sel.best_epoch < 6
        # the selected parameters never score below the final-epoch ones
        assert curriculum._val_score(best, val.features, val.labels) >= \
            curriculum._val_score(final, val.features, val.labels)

    def test_initial_model_is_a_candidate(self):
        # with zero learning rate no epoch can improve on the initial
        # parameters, so the stage must return them (best_epoch == -1)
        ds = separable_task(seed=10)
        model = init_model(4, 16, 2, seed=4)
        val = separable_task(seed=11)
        kept, rep = run_stage(model, ds.features, ds.labels,
                              stage_config(epochs=3), STAGE1,
                              lr_sched(lr=0.0), seed=5,
                              select_set=(val.features, val.labels))
        assert rep.best_epoch == -1
        assert model_bytes(kept) == model_bytes(model)

    def test_no_select_set_returns_final_epoch(self):
        ds = separable_task(seed=12)
        model = init_model(4, 16, 2, seed=4)
        _, rep = run_stage(model, ds.features, ds.labels,
                           stage_config(epochs=2), STAGE1,
                           lr_sched(), seed=5)
        assert rep.best_epoch is None

