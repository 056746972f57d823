import ast
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from hadcl import curriculum, data, harness, metrics, numcore
from hadcl.cli import build_parser
from hadcl.curriculum import (BatchHardness, CurriculumTrainConfig,
                              TrainConfig,
                              decide_update_stage1, decide_update_stage2,
                              finetune_plain, rank_by_loss, run_stage,
                              threshold)
from hadcl.exceptions import NumericError, ValidationError
from hadcl.harness import load_config
from hadcl.numcore import init_model

A, B = 0.7, 0.2
CONFIGS = Path(__file__).resolve().parents[1] / "configs"
T = 100


def stage_config(alpha=0.1, epochs=5, batch=30, a=A, b=B, lr=1e-3,
                 milestones=(), gamma=0.1):
    return CurriculumTrainConfig(epochs=epochs, lr=lr, milestones=milestones,
                                 gamma=gamma, batch_size=batch, alpha=alpha,
                                 a=a, b=b)


class TestThreshold:
    def test_endpoints_and_midpoint(self):
        assert threshold(0, T, A, B) == pytest.approx(0.9)
        assert threshold(100, T, A, B) == pytest.approx(0.2)
        assert threshold(50, T, A, B) == pytest.approx(0.55)

    def test_strictly_decreasing(self):
        vals = [threshold(t, T, A, B) for t in range(101)]
        assert all(u > v for u, v in zip(vals, vals[1:]))

    def test_out_of_range(self):
        with pytest.raises(ValidationError):
            threshold(101, T, A, B)
        with pytest.raises(ValidationError):
            threshold(-1, T, A, B)

    def test_schedule_validation(self):
        with pytest.raises(ValidationError):
            stage_config(a=0.2, b=0.7)        # a must exceed b
        with pytest.raises(ValidationError):
            stage_config(a=0.9, b=0.2)        # fraction above 1
        with pytest.raises(ValidationError):
            threshold(0, 0, A, B)             # an epoch has at least one batch


class TestTrainConfig:
    def test_paper_style_schedule(self):
        config = TrainConfig(epochs=200, lr=5e-4, milestones=(60, 120, 180),
                             gamma=0.1)
        assert config.lr_at(0) == 5e-4
        assert config.lr_at(60) == pytest.approx(5e-5)
        assert config.lr_at(200) == pytest.approx(5e-7)

    def test_bad_milestones(self):
        with pytest.raises(ValidationError):
            TrainConfig(epochs=20, lr=1e-3, milestones=(10, 10))
        with pytest.raises(ValidationError, match="milestones must be non-negative"):
            TrainConfig(epochs=20, lr=1e-3, milestones=(-1,))
        # a milestone at or past the last epoch is valid: it never decays
        assert TrainConfig(epochs=20, lr=1e-3, milestones=(20, 60)).lr_at(19) == 1e-3

    def test_negative_epoch(self):
        with pytest.raises(ValidationError):
            TrainConfig(epochs=1, lr=1e-3).lr_at(-1)


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
        config = stage_config(alpha=alpha, epochs=1, batch=batch)
        assert config.top_k == k
        h = BatchHardness.from_losses(np.zeros(batch), config.top_k)
        assert len(h.top_k) == k

    @pytest.mark.parametrize("alpha,batch,k", [
        (0.29, 100, 29), (0.58, 50, 29), (0.57, 100, 57),
    ])
    def test_top_k_floors_the_decimal_product(self, alpha, batch, k):
        # the float product lands just below k, which int() would truncate
        assert int(alpha * batch) == k - 1
        assert stage_config(alpha=alpha, epochs=1, batch=batch).top_k == k

    @pytest.mark.parametrize("name,ks", [
        ("reference", [2, 5, 7, 10]), ("smoke", [1, 2, 3, 5]),
        ("full_scale", [25, 51, 76, 102]),
    ])
    def test_shipped_k_unchanged(self, name, ks):
        # ablate-alpha's default grid on each shipped config's batch size
        config = load_config(CONFIGS / f"{name}.yaml")
        grid = build_parser().parse_args(
            ["ablate-alpha", "--config", "unused"]).grid
        assert [replace(config.curriculum1, alpha=a).top_k for a in grid] == ks

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
                k = stage_config(alpha=alpha, epochs=1, batch=batch).top_k
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
            top_k = stage_config(alpha=alpha, epochs=1, batch=batch).top_k

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


STAGE1 = curriculum.decide_update_stage1
STAGE2 = curriculum.decide_update_stage2


def model_bytes(model):
    return model.theta.tobytes()


class TestRunStage:
    def test_separable_blobs_reach_99_percent(self):
        ds = separable_task()
        model = init_model(4, 16, 2, seed=0)
        trained, report = run_stage(model, ds.features, ds.labels,
                                    stage_config(epochs=50), STAGE1, seed=3)
        preds = numcore.forward(trained, ds.features).argmax(axis=1)
        assert np.mean(preds == ds.labels) >= 0.99
        assert len(report.records) == 50 * (len(ds.labels) // 30)

    def test_alpha_one_matches_plain_finetuning_bitwise(self):
        ds = separable_task(seed=1)
        model = init_model(4, 16, 2, seed=5)
        cur, _ = run_stage(model, ds.features, ds.labels,
                           stage_config(alpha=1.0, epochs=5), STAGE1, seed=7)
        plain, _ = finetune_plain(model, ds.features, ds.labels,
                                  TrainConfig(epochs=5, lr=1e-3, batch_size=30),
                                  seed=7)
        assert model_bytes(cur) == model_bytes(plain)

    def test_same_seed_identical_report(self):
        ds = separable_task(seed=2)
        model = init_model(4, 16, 2, seed=6)
        runs = [run_stage(model, ds.features, ds.labels,
                          stage_config(epochs=3), STAGE1, seed=11)
                for _ in range(2)]
        assert model_bytes(runs[0][0]) == model_bytes(runs[1][0])
        assert runs[0][1].records == runs[1][1].records

    def test_thres_logged_within_range(self):
        ds = separable_task(seed=3)
        model = init_model(4, 16, 2, seed=6)
        _, report = run_stage(model, ds.features, ds.labels,
                              stage_config(epochs=2), STAGE2, seed=1)
        for rec in report.records:
            assert 0.2 <= rec.thres <= 0.9
            assert rec.k_prime <= rec.k

    def test_branch_soundness_from_log(self):
        # replaying the logged thresholds against recomputed losses is not
        # possible from the log alone, but branch labels must be legal
        ds = separable_task(seed=4)
        model = init_model(4, 16, 2, seed=6)
        _, rep1 = run_stage(model, ds.features, ds.labels,
                            stage_config(epochs=2), STAGE1, seed=2)
        assert {r.branch for r in rep1.records} <= {
            curriculum.TOP_K_BRANCH, curriculum.TOTAL_BRANCH}
        _, rep2 = run_stage(model, ds.features, ds.labels,
                            stage_config(epochs=2), STAGE2, seed=2)
        assert {r.branch for r in rep2.records} <= {
            curriculum.TOP_K_PRIME_BRANCH, curriculum.TOP_K_BRANCH}

    def test_excluded_samples_do_not_touch_gradient(self, step_backward):
        # zeroing features of non-selected samples leaves the masked
        # gradient unchanged
        rng = np.random.default_rng(12)
        model = init_model(4, 8, 2, seed=1)
        x = rng.normal(size=(10, 4))
        y = rng.integers(0, 2, 10)
        mask = [1, 4, 7]
        g1, _ = step_backward(model, x, y, mask)
        x2 = x.copy()
        excluded = [i for i in range(10) if i not in mask]
        x2[excluded] = 0.0
        g2, _ = step_backward(model, x2, y, mask)
        np.testing.assert_array_equal(g1.theta, g2.theta)

    @pytest.mark.filterwarnings("error")  # overflow is reported once, here
    def test_divergence_names_epoch_iteration_and_seed(self):
        ds = separable_task(seed=4)
        model = init_model(4, 16, 2, seed=6)
        with pytest.raises(NumericError,
                           match=r"logits .* at epoch 0, iteration \d+ \(shuffle seed 2\)"):
            run_stage(model, ds.features, ds.labels, stage_config(lr=1e200),
                      STAGE1, seed=2)

    def test_empty_dataset_rejected(self):
        model = init_model(4, 8, 2, seed=1)
        with pytest.raises(ValidationError):
            run_stage(model, np.zeros((10, 4)), np.zeros(10, dtype=int),
                      stage_config(batch=64), STAGE1, seed=0)

    @pytest.mark.parametrize("dtype", [np.float64, bool])
    def test_labels_must_be_integers(self, dtype):
        ds = separable_task(seed=5)
        model = init_model(4, 16, 2, seed=1)
        config = TrainConfig(epochs=1, lr=1e-3, batch_size=30)
        with pytest.raises(ValidationError, match="labels must be integers"):
            finetune_plain(model, ds.features, ds.labels.astype(dtype), config,
                           seed=0)


WHERE = r" at epoch 0, iteration 1 \(shuffle seed 3\); run aborted"


class TestStepChecks:
    """Each check of a training step fires from inside run_stage, with its
    own exception and message."""

    def run(self, model=None, features=None, labels=None, decide=STAGE1):
        ds = separable_task(seed=6)
        model = init_model(4, 16, 2, seed=1) if model is None else model
        features = ds.features if features is None else features
        labels = ds.labels if labels is None else labels
        return run_stage(model, features, labels, stage_config(epochs=1),
                         decide, seed=3)

    def test_label_out_of_range(self):
        labels = separable_task(seed=6).labels.copy()
        labels[::7] = 2
        with pytest.raises(ValidationError, match=r"labels must lie in \[0, 2\)"):
            self.run(labels=labels)

    def test_nonfinite_features(self):
        features = separable_task(seed=6).features.copy()
        features[:, 1] = np.inf
        with pytest.raises(NumericError, match="non-finite logits in forward pass" + WHERE):
            self.run(features=features)

    # logits of +-1.5e308 are finite, but their difference overflows; the
    # step fails with no RuntimeWarning
    def test_overflowing_loss(self):
        model = init_model(4, 16, 2, seed=1)
        model.w3[...] = 0.0
        model.b3[...] = (1.5e308, -1.5e308)
        with pytest.raises(NumericError, match="non-finite loss" + WHERE):
            self.run(model=model)

    @pytest.mark.parametrize("decide", [STAGE1, STAGE2], ids=["stage1", "stage2"])
    def test_nan_loss_handed_to_the_decision(self, decide):
        def poisoned(losses, thres, k):
            losses = losses.copy()
            losses[3] = np.nan
            return decide(losses, thres, k)

        with pytest.raises(NumericError, match="NaN loss in ranking" + WHERE):
            self.run(decide=poisoned)

    def test_overflowing_gradient(self):
        # h2 of 1e200 with logits of 0: the w3 gradient passes the limit
        model = init_model(4, 16, 2, seed=1)
        model.b2[...] = 1e200
        model.w3[...] = 0.0
        with pytest.raises(NumericError, match="overflowing gradient; step aborted" + WHERE):
            self.run(model=model)

    @pytest.mark.parametrize("mask,message", [
        ([], "sample_mask must be nonempty"),
        ([0, 30], "sample_mask index out of range"),
        ([-1], "sample_mask index out of range"),
    ], ids=["empty", "past_the_batch", "negative"])
    def test_bad_mask(self, mask, message):
        def bad(losses, thres, k):
            return curriculum.UpdateDecision(curriculum.TOP_K_BRANCH,
                                             np.array(mask, dtype=np.intp),
                                             k, None, None, None)

        with pytest.raises(ValidationError, match=message):
            self.run(decide=bad)

    def test_the_loss_pass_softmax_is_reused(self, monkeypatch):
        # every step makes one loss pass, a row-subset update too;
        # backward never calls softmax
        ds = separable_task(seed=7)
        model = init_model(4, 16, 2, seed=1)
        calls = 0
        loss_pass = numcore.per_sample_cross_entropy

        def counted(*args):
            nonlocal calls
            calls += 1
            return loss_pass(*args)

        def no_softmax(logits):
            raise AssertionError("softmax called in a training step")

        monkeypatch.setattr(numcore, "per_sample_cross_entropy", counted)
        monkeypatch.setattr(numcore, "softmax", no_softmax)
        _, report = run_stage(model, ds.features, ds.labels,
                              stage_config(alpha=0.3, epochs=2), STAGE1, seed=3)
        subsets = sum(r.branch != curriculum.TOTAL_BRANCH for r in report.records)
        assert 0 < subsets < len(report.records)
        assert calls == len(report.records)


class TestRankedLosses:
    """A row-subset update differentiates the mean of exactly the losses its
    gate ranked: backward reads them from the step's one loss pass and makes
    no forward or loss pass of its own."""

    def test_update_differentiates_the_ranked_losses(self, monkeypatch):
        # a task shaped like configs/reference.yaml's target
        spec = data.BlobTaskSpec(dim=12, n_classes=2, per_class=100,
                                 separation=4.0, spread=1.1, hard_fraction=0.3,
                                 hard_wrong_side=0.0, hard_tilt_angle=1.0,
                                 noise_fraction=0.05, seed=202)
        ds = data.generate_blobs(spec, draw_seed=0)
        config = CurriculumTrainConfig(epochs=10, lr=2e-3, batch_size=50, alpha=0.1)
        calls = {"forward": 0, "per_sample_cross_entropy": 0}
        for name in calls:
            def counted(*args, _call=getattr(numcore, name), _name=name):
                calls[_name] += 1
                return _call(*args)
            monkeypatch.setattr(numcore, name, counted)

        def recording(decide, seen):
            def wrapped(losses, thres, k):
                decision = decide(losses, thres, k)
                seen.append((losses.copy(), decision.mask))
                return decision
            return wrapped

        model, subsets = init_model(12, 96, 2, seed=1), 0
        for decide in (decide_update_stage1, decide_update_stage2):
            seen = []
            before = dict(calls)
            model, report = run_stage(model, ds.features, ds.labels, config,
                                      recording(decide, seen), seed=3)
            steps = len(report.records)
            assert steps == len(seen) == 10 * 4
            assert calls == {name: before[name] + steps for name in calls}
            for record, (losses, mask) in zip(report.records, seen):
                if mask is None:
                    continue
                subsets += 1
                ranked = losses[np.unique(mask)]
                assert record.mean_loss == float(np.add.reduce(ranked)) / len(mask)
        assert subsets > 40   # every stage-2 update and some of stage 1's


class TestRunHadcl:
    def test_zero_epoch_stage2_is_identity(self):
        ds = separable_task(seed=5)
        model = init_model(4, 16, 2, seed=2)
        theta1, _ = run_stage(model, ds.features, ds.labels,
                              stage_config(epochs=3), STAGE1, seed=9)
        theta2, r2 = run_stage(theta1, ds.features, ds.labels,
                               stage_config(epochs=0), STAGE2, seed=9)
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
                                  stage_config(epochs=15), STAGE1, seed=seed)
            fresh = init_model(4, 16, 2, seed=777 + seed)

            def first_loss(m):
                _, rep = run_stage(m, ds.features, ds.labels,
                                   stage_config(epochs=1, lr=0.0), STAGE2,
                                   seed=seed)
                return rep.records[0].mean_loss

            if first_loss(theta1) < first_loss(fresh):
                wins += 1
        assert wins >= 9


class TestGoldenRun:
    # frozen fixture: sha256 of theta2's parameter bytes from a seeded
    # full-pipeline run; any change to data generation, initialization,
    # update rules, or optimizer numerics will move this hash
    GOLDEN_THETA2 = ("1fa63965456eda4770b683093f8e7e2c"
                     "fc12ecfcd099393a993311ba83699743")

    def test_theta2_hash_matches_reference_run(self):
        import hashlib

        spec = data.BlobTaskSpec(dim=5, n_classes=2, per_class=80,
                                 separation=4.0, spread=1.0,
                                 hard_fraction=0.25, noise_fraction=0.05,
                                 seed=13)
        ds = data.generate_blobs(spec)
        model = init_model(5, 10, 2, seed=3)
        lr = dict(lr=1e-3, milestones=(4,), gamma=0.1)
        theta1, _ = run_stage(model, ds.features, ds.labels,
                              stage_config(epochs=6, batch=32, **lr), STAGE1,
                              seed=42)
        theta2, _ = run_stage(theta1, ds.features, ds.labels,
                              stage_config(epochs=2, batch=32, **lr), STAGE2,
                              seed=42)
        digest = hashlib.sha256(model_bytes(theta2)).hexdigest()
        assert digest == self.GOLDEN_THETA2


def val_auc(ds):
    """A `select` score as run_seed builds one: the AUC of a model's logit
    margin on ds, scored by the harness."""
    return lambda model: metrics.auc(harness._scored(model, ds))


class TestValidationSelection:
    def test_select_keeps_best_scoring_epoch(self):
        ds = separable_task(seed=8)
        model = init_model(4, 16, 2, seed=4)
        select = val_auc(separable_task(seed=9))
        best, rep_sel = run_stage(model, ds.features, ds.labels,
                                  stage_config(epochs=6), STAGE2, seed=5,
                                  select=select)
        final, _ = run_stage(model, ds.features, ds.labels,
                             stage_config(epochs=6), STAGE2, seed=5)
        assert rep_sel.best_epoch is not None
        assert -1 <= rep_sel.best_epoch < 6
        # the selected parameters never score below the final-epoch ones
        assert select(best) >= select(final)

    def test_initial_model_is_a_candidate(self):
        # with zero learning rate no epoch can improve on the initial
        # parameters, so the stage must return them (best_epoch == -1)
        ds = separable_task(seed=10)
        model = init_model(4, 16, 2, seed=4)
        kept, rep = run_stage(model, ds.features, ds.labels,
                              stage_config(epochs=3, lr=0.0), STAGE1, seed=5,
                              select=val_auc(separable_task(seed=11)))
        assert rep.best_epoch == -1
        assert model_bytes(kept) == model_bytes(model)

    def test_no_select_returns_final_epoch(self):
        ds = separable_task(seed=12)
        model = init_model(4, 16, 2, seed=4)
        _, rep = run_stage(model, ds.features, ds.labels,
                           stage_config(epochs=2), STAGE1, seed=5)
        assert rep.best_epoch is None


def test_curriculum_imports_neither_metrics_nor_harness():
    # the training loop gets its selection score as a function: scoring a
    # model, and what it is scored on, stay with the harness
    tree = ast.parse(Path(curriculum.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(part for a in node.names for part in a.name.split("."))
        elif isinstance(node, ast.ImportFrom):
            imported.update((node.module or "").split("."))
            imported.update(a.name for a in node.names)
    assert imported and not imported & {"metrics", "harness"}


def fresh_pass(model, x):
    """h1, h2 and the logits, one new array per operation."""
    h1 = np.maximum(x @ model.w1 + model.b1, 0.0)
    h2 = np.maximum(h1 @ model.w2 + model.b2, 0.0)
    return h1, h2, h2 @ model.w3 + model.b3


def fresh_losses(model, logits, labels):
    """The loss pass into new StepBuffers."""
    return numcore.per_sample_cross_entropy(
        logits, labels, numcore.StepBuffers(len(labels), model))


def fresh_stage(model, features, labels, config, decide, seed):
    """run_stage's loop with a new array for every intermediate: the batch by
    fancy indexing, the gradients and Adam as expressions, the moments from
    the scalar 0.0. Returns the final model and the curve records."""
    model = model.copy()
    theta = model.theta
    opt = numcore.OptimizerState()
    moment1 = moment2 = 0.0
    rng = np.random.default_rng(seed)
    batch = config.batch_size
    n_batches = len(features) // batch
    records = []
    for epoch in range(config.epochs):
        lr = config.lr_at(epoch)
        perm = rng.permutation(len(features))
        for t in range(1, n_batches + 1):
            idx = perm[(t - 1) * batch: t * batch]
            x, y = features[idx], labels[idx]
            thres = threshold(t, n_batches, config.a, config.b)
            h1, h2, logits = fresh_pass(model, x)
            losses = fresh_losses(model, logits, y)
            decision = decide(losses, thres, config.top_k)
            if decision.mask is not None and len(decision.mask) < batch:
                # the sorted mask's rows of the whole batch's pass
                rows = np.sort(decision.mask)
                x, y, h1, h2 = x[rows], y[rows], h1[rows], h2[rows]
                logits, losses = logits[rows], losses[rows]
            d_logits = numcore.softmax(logits)
            d_logits[np.arange(len(y)), y] -= 1.0
            d_logits /= len(y)
            d_h2 = (d_logits @ model.w3.T) * (h2 > 0.0)
            d_h1 = (d_h2 @ model.w2.T) * (h1 > 0.0)
            g = np.concatenate([
                (x.T @ d_h1).ravel(), d_h1.sum(axis=0),
                (h1.T @ d_h2).ravel(), d_h2.sum(axis=0),
                (h2.T @ d_logits).ravel(), d_logits.sum(axis=0)])
            step = len(records) + 1
            moment1 = opt.beta1 * moment1 + (1.0 - opt.beta1) * g
            moment2 = opt.beta2 * moment2 + (1.0 - opt.beta2) * g * g
            m_hat = moment1 / (1.0 - opt.beta1 ** step)
            v_hat = moment2 / (1.0 - opt.beta2 ** step)
            theta -= lr * (m_hat / (np.sqrt(v_hat) + opt.eps)
                           + opt.weight_decay * theta)
            records.append(curriculum.IterationRecord(
                epoch=epoch, t=t, thres=thres, k=decision.k,
                k_prime=decision.k_prime, branch=decision.branch,
                mean_loss=float(losses.mean()), lr=lr))
    return model, records


PLAIN = curriculum._decide_whole_batch


class TestStepBuffers:
    """run_stage writes each step into buffers made once per stage; its bits
    must be those of a step that makes new arrays."""

    # (batch, dim, hidden) as in test_numcore's blocked-forward cases, so
    # forward's row blocks are known to give one product's bits
    @pytest.mark.parametrize("batch,dim,hidden,alpha,decide,branches", [
        (1, 12, 96, 0.1, STAGE1, {"top_k"}),
        (50, 12, 96, 0.1, STAGE1, {"top_k", "total"}),
        (4, 12, 96, 0.25, STAGE1, {"top_k", "total"}),         # K = 1
        (50, 12, 96, 1.0, STAGE1, {"top_k"}),                  # mask = batch
        (50, 12, 96, 0.3, STAGE2, {"top_k_prime"}),
        (50, 12, 96, 1.0, PLAIN, {"total"}),
        (numcore.BLOCK_ROWS + 1, 12, 96, 0.1, STAGE1, {"top_k", "total"}),
        (numcore.BLOCK_ROWS + 1, 12, 96, 0.2, STAGE2, {"top_k_prime"}),
        (512, 16, 64, 0.1, STAGE1, {"top_k", "total"}),
        (512, 16, 64, 0.2, STAGE2, {"top_k_prime"}),
    ], ids=["B1", "B50", "B4-K1", "B50-alpha1", "B50-stage2", "B50-plain",
            "B257", "B257-stage2", "B512", "B512-stage2"])
    def test_matches_a_step_with_fresh_arrays(self, monkeypatch, batch, dim,
                                              hidden, alpha, decide, branches):
        rng = np.random.default_rng(batch)
        # two full batches and a short one, which is dropped
        features = rng.normal(size=(2 * batch + batch // 2, dim))
        labels = (features[:, 0] + rng.normal(size=len(features)) > 0).astype(np.int64)
        model = init_model(dim, hidden, 2, seed=batch)
        before = model_bytes(model)
        config = stage_config(alpha=alpha, epochs=3, batch=batch, lr=1e-2,
                              milestones=(2,))
        buffers = []
        backward = numcore.backward

        def keeping(*args):
            # the batch, then each array of the StepBuffers
            arrays = (v for v in vars(args[4]).values() if isinstance(v, np.ndarray))
            buffers.append((args[1], args[2], *arrays))
            return backward(*args)

        monkeypatch.setattr(numcore, "backward", keeping)
        got, report = run_stage(model, features, labels, config, decide, seed=7)
        want, records = fresh_stage(model, features, labels, config, decide, seed=7)
        assert model_bytes(got) == model_bytes(want)
        assert report.records == records
        assert {r.branch for r in records} == branches
        assert model_bytes(model) == before
        # the gathered batch and StepBuffers of the stage, one set per stage
        assert len({tuple(map(id, arrays)) for arrays in buffers}) == 1
        assert not any(np.shares_memory(got.theta, a) for a in buffers[0])
