import itertools
import math
import tracemalloc

import numpy as np
import pytest

from hadcl import numcore
from hadcl.exceptions import DimensionError, NumericError, ValidationError
from hadcl.numcore import (MlpModel, OptimizerState, StepBuffers, adam_step,
                           backward, forward, init_model,
                           per_sample_cross_entropy)


def random_model(rng, d=5, hidden=7, classes=3):
    """A float64 model: float64 is where the tolerances of the oracles that
    use it (a naive forward, finite differences) resolve the math, which is
    the same code in every dtype."""
    return init_model(d, hidden, classes,
                      seed=int(rng.integers(1 << 30))).astype(np.float64)


def loss_pass(logits, labels, model=None):
    """per_sample_cross_entropy into new StepBuffers, of `model` or else of
    a model with one class per column of the logits, in their dtype."""
    if model is None:
        model = init_model(1, 1, np.shape(logits)[1], seed=0).astype(
            np.asarray(logits).dtype)
    return per_sample_cross_entropy(logits, labels, StepBuffers(len(logits), model))


def naive_forward(model, x):
    # straight-line triple-loop oracle, no vectorization
    def matmul(a, b):
        out = np.zeros((a.shape[0], b.shape[1]))
        for i in range(a.shape[0]):
            for j in range(b.shape[1]):
                s = 0.0
                for k in range(a.shape[1]):
                    s += a[i, k] * b[k, j]
                out[i, j] = s
        return out

    h1 = np.maximum(matmul(x, model.w1) + model.b1, 0.0)
    h2 = np.maximum(matmul(h1, model.w2) + model.b2, 0.0)
    return matmul(h2, model.w3) + model.b3


class TestForward:
    def test_zero_weights_give_zero_logits(self):
        m = MlpModel(np.zeros((3, 4)), np.zeros(4), np.zeros((4, 4)),
                     np.zeros(4), np.zeros((4, 2)), np.zeros(2))
        x = np.random.default_rng(0).normal(size=(6, 3))
        assert np.all(forward(m, x) == 0.0)

    def test_identity_hidden_layers_pass_through(self):
        # identity hidden chain: logits of e_0 equal the first row of the
        # final weight matrix
        w3 = np.arange(6.0).reshape(2, 3)
        m = MlpModel(np.eye(2), np.zeros(2), np.eye(2), np.zeros(2),
                     w3, np.zeros(3))
        out = forward(m, np.array([[1.0, 0.0]]))
        np.testing.assert_array_equal(out[0], w3[0])

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(5):
            m = random_model(rng)
            x = rng.normal(size=(4, 5))
            np.testing.assert_allclose(forward(m, x), naive_forward(m, x),
                                       rtol=1e-12, atol=1e-12)

    def test_shape_mismatch_raises(self):
        m = init_model(5, 7, 3, seed=0)
        with pytest.raises(DimensionError):
            forward(m, np.zeros((2, 4)))


def unblocked_forward(model, x):
    """The hidden layers and logits as one product per layer over all rows."""
    h1 = np.maximum(x @ model.w1 + model.b1, 0.0)
    h2 = np.maximum(h1 @ model.w2 + model.b2, 0.0)
    return h1, h2, h2 @ model.w3 + model.b3


class TestBlockedForward:
    """forward computes the hidden layers in row blocks; its bits must be
    those of one product per layer over all rows."""

    @pytest.mark.parametrize("rows,dim,hidden", [
        (4000, 12, 96), (144, 12, 96), (50, 12, 96),
        (10000, 16, 64), (5000, 16, 64), (576, 16, 64), (512, 16, 64),
        (0, 12, 96), (1, 12, 96), (257, 12, 96), (513, 12, 96),
    ])
    def test_bytes_equal_unblocked(self, rows, dim, hidden):
        # in the training dtype and in float64, the harness's scoring dtype
        rng = np.random.default_rng(rows)
        m = init_model(dim, hidden, 2, seed=rows)
        m.theta += 0.1 * rng.normal(size=m.theta.shape)  # nonzero biases
        x = rng.normal(size=(rows, dim))
        for model in (m, m.astype(np.float64)):
            xd = x.astype(model.theta.dtype)
            h1, h2, logits = unblocked_forward(model, xd)
            assert logits.dtype == model.theta.dtype
            acts = StepBuffers(rows, model)
            assert forward(model, xd, acts).tobytes() == logits.tobytes()
            assert forward(model, xd).tobytes() == logits.tobytes()
            assert acts.h1.shape == h1.shape and acts.h2.shape == h2.shape
            assert acts.h1.tobytes() == h1.tobytes()
            assert acts.h2.tobytes() == h2.tobytes()

    @pytest.mark.parametrize("keep_hidden", [False, True])
    def test_nonfinite_row_in_last_block_raises(self, keep_hidden):
        m = init_model(12, 96, 2, seed=0)
        x = np.random.default_rng(0).normal(size=(2 * numcore.BLOCK_ROWS + 10, 12))
        x[-1, 3] = np.inf
        with pytest.raises(NumericError, match="non-finite logits"):
            forward(m, x, StepBuffers(len(x), m) if keep_hidden else None)


class TestCrossEntropy:
    def test_uniform_logits(self):
        losses = loss_pass(np.zeros((3, 2)), [0, 1, 0])
        np.testing.assert_allclose(losses, np.log(2.0))

    def test_extreme_logits_stable(self):
        losses = loss_pass(np.array([[1000.0, -1000.0]]), [0])
        assert losses[0] == pytest.approx(0.0, abs=1e-12)
        assert np.isfinite(losses).all()

    def test_overflowing_loss_is_inf_without_a_warning(self):
        # finite logits 3e308 apart: logits - max and the second row's loss
        # overflow, which the caller's finite-loss check rejects, and NumPy
        # warns of nothing
        logits = np.array([[1.5e308, -1.5e308]] * 2)
        losses = loss_pass(logits, [0, 1])
        assert losses.tolist() == [0.0, np.inf]

    def test_matches_naive_softmax_log(self):
        rng = np.random.default_rng(3)
        logits = rng.normal(size=(50, 4)) * 3
        labels = rng.integers(0, 4, 50)
        p = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        naive = -np.log(p[np.arange(50), labels])
        got = loss_pass(logits, labels)
        np.testing.assert_allclose(got, naive, atol=1e-10)

    def test_label_out_of_range(self):
        with pytest.raises(ValidationError):
            loss_pass(np.zeros((2, 3)), [0, 3])

    @pytest.mark.parametrize("labels", [[0.0, 1.0], np.array([0.0, 1.0]),
                                        [False, True], np.array([True, False])],
                             ids=["float_list", "float_array", "bool_list",
                                  "bool_array"])
    def test_labels_must_be_integers(self, labels):
        # a float would fail the gather as a raw IndexError, and a bool would
        # index as 0 or 1
        with pytest.raises(ValidationError, match="labels must be integers"):
            loss_pass(np.zeros((2, 2)), labels)

    def test_buffers_hold_the_loss_pass(self):
        rng = np.random.default_rng(4)
        m = init_model(5, 7, 3, seed=4)
        buffers = StepBuffers(9, m)
        logits = forward(m, rng.normal(size=(6, 5)), buffers)
        labels = rng.integers(0, 3, 6)
        want = loss_pass(logits.copy(), labels)
        got = per_sample_cross_entropy(logits, labels, buffers)
        assert got.tobytes() == want.tobytes()
        assert np.shares_memory(got, buffers.losses) and buffers.loss_rows == 6
        e, sums = buffers.exp[:6], buffers.sums[:6]
        assert (e / sums[:, None]).tobytes() == numcore.softmax(logits).tobytes()
        forward(m, rng.normal(size=(6, 5)), buffers)
        assert buffers.loss_rows is None

    def test_nonnegative(self):
        rng = np.random.default_rng(9)
        losses = loss_pass(rng.normal(size=(200, 5)), rng.integers(0, 5, 200))
        assert (losses >= 0.0).all()

    def test_one_column_rejected(self):
        with pytest.raises(DimensionError, match="C >= 2"):
            per_sample_cross_entropy(np.zeros((3, 1)), [0, 0, 0],
                                     StepBuffers(3, init_model(1, 1, 2, seed=0)))


def column_logits(rng, n_classes, dtype):
    """Logits that the column forms could get wrong if any can: every sign
    pattern of an all-zero row (so both columns +-0.0 in all four pairs at
    two columns), zero maxima beside negative columns, ties at the maximum,
    columns further apart than float32's exp underflow (about 104) and
    float64's (about 745), and random rows of several scales, enough of
    them that NumPy's unrolled and SIMD loops run."""
    rows = [list(p) for p in itertools.product([0.0, -0.0], repeat=n_classes)]
    for s0, s1 in itertools.product([0.0, -0.0], repeat=2):
        rows.append([s0, s1] + [-1.5] * (n_classes - 2))
        rows.append([-2.0] * (n_classes - 2) + [s0, s1])
    for v in (-3.25, 0.5, 7.0):
        rows.append([v] * n_classes)  # all tied
        rows.append([v, v] + [v - 1.0] * (n_classes - 2))  # tied at the max
    for gap in (105.0, 110.0, 800.0, 1e4):
        rows.append([0.0] + [-gap] * (n_classes - 1))
        rows.append([-gap] * (n_classes - 1) + [3.0])
        rows.append([gap / 2] + [-gap / 2] * (n_classes - 1))
    for scale in (1e-3, 1.0, 40.0, 300.0):
        rows.extend(scale * rng.normal(size=(150, n_classes)))
    return np.array(rows, dtype=dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n_classes", range(2, 8))
class TestColumnForms:
    """The step's row maxima, sums, shift, divide and bias add go one call
    per column. Below 8 columns they must give, byte for byte, the exp, sums,
    losses, softmax, d_logits and logits of the reduce and broadcast
    expressions, computed here inline (not through numcore.softmax). A zero
    row maximum may differ in sign, so the maxima are compared by value."""

    def reference(self, logits, labels):
        shift = np.maximum.reduce(logits, axis=1)
        e = np.exp(logits - shift[:, None])
        sums = np.add.reduce(e, axis=1)
        losses = np.log(sums) + shift - logits[np.arange(len(logits)), labels]
        return shift, e, sums, np.maximum(losses, 0.0)

    def test_loss_pass_and_softmax(self, n_classes, dtype):
        rng = np.random.default_rng(n_classes)
        logits = column_logits(rng, n_classes, dtype)
        labels = rng.integers(0, n_classes, len(logits))
        shift, e, sums, losses = self.reference(logits, labels)
        buffers = StepBuffers(len(logits), init_model(1, 1, n_classes, seed=0).astype(dtype))
        got = per_sample_cross_entropy(logits, labels, buffers)
        n = len(logits)
        assert (buffers.shift[:n] == shift).all()
        assert buffers.exp[:n].tobytes() == e.tobytes()
        assert buffers.sums[:n].tobytes() == sums.tobytes()
        assert got.tobytes() == losses.tobytes()
        softmax = numcore.softmax(logits)
        assert softmax.dtype == dtype
        assert softmax.tobytes() == (e / sums[:, None]).tobytes()

    def test_backward_d_logits(self, n_classes, dtype):
        # the loss pass of the special logits beside a forward of random
        # inputs: backward builds d_logits from that pass's exp and sums
        rng = np.random.default_rng(10 + n_classes)
        logits = column_logits(rng, n_classes, dtype)
        n = len(logits)
        labels = rng.integers(0, n_classes, n)
        _, e, sums, _ = self.reference(logits, labels)
        m = init_model(3, 4, n_classes, seed=n_classes).astype(dtype)
        x = rng.normal(size=(n, 3)).astype(dtype)
        subset = np.sort(rng.choice(n, size=n // 3, replace=False))
        for rows in (np.arange(n), subset):
            buffers = StepBuffers(n, m)
            forward(m, x, buffers)
            per_sample_cross_entropy(logits, labels, buffers)
            backward(m, x, labels, None if len(rows) == n else rows, buffers, m.copy())
            want = e[rows] / sums[rows, None]
            np.subtract.at(want, (np.arange(len(rows)), labels[rows]), 1.0)
            want /= len(rows)
            assert buffers.d_logits[:len(rows)].tobytes() == want.tobytes()

    def test_forward_bias_add(self, n_classes, dtype):
        rng = np.random.default_rng(20 + n_classes)
        m = init_model(3, 5, n_classes, seed=n_classes).astype(dtype)
        m.b3[:] = rng.normal(size=n_classes)
        x = rng.normal(size=(600, 3))
        buffers = StepBuffers(600, m)
        got = forward(m, x, buffers)
        assert got.tobytes() == (np.matmul(buffers.h2, m.w3) + m.b3).tobytes()
        assert forward(m, x).tobytes() == got.tobytes()


def masked_mean_loss(model, x, y, mask):
    rows = slice(None) if mask is None else np.unique(mask)
    return float(loss_pass(forward(model, x[rows]), y[rows], model).mean())


def fd_gradient(model, x, y, mask, name, h=1e-6):
    p = getattr(model, name)
    grad = np.zeros_like(p)
    it = np.nditer(p, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = p[idx]
        p[idx] = orig + h
        lp = masked_mean_loss(model, x, y, mask)
        p[idx] = orig - h
        lm = masked_mean_loss(model, x, y, mask)
        p[idx] = orig
        grad[idx] = (lp - lm) / (2 * h)
    return grad


class TestBackward:
    """Each test runs backward as the training step does (`step_backward`
    in conftest.py), which also checks its bytes against the expression
    form."""

    def test_full_mask_equals_none(self, step_backward):
        rng = np.random.default_rng(5)
        m = random_model(rng)
        x = rng.normal(size=(8, 5))
        y = rng.integers(0, 3, 8)
        g_none, l_none = step_backward(m, x, y, None)
        g_all, l_all = step_backward(m, x, y, np.arange(8))
        assert l_none == l_all
        np.testing.assert_array_equal(g_none.theta, g_all.theta)

    def test_single_sample_matches_finite_differences(self, step_backward):
        rng = np.random.default_rng(6)
        m = random_model(rng)
        x = rng.normal(size=(4, 5))
        y = rng.integers(0, 3, 4)
        mask = [2]
        grads, _ = step_backward(m, x, y, mask)
        for name in ("w1", "b2", "w3"):
            fd = fd_gradient(m, x, y, mask, name)
            denom = np.maximum(np.abs(fd), 1e-8)
            assert np.max(np.abs(getattr(grads, name) - fd) / denom) < 1e-5

    def test_duplicate_rows_mean_invariance(self, step_backward):
        rng = np.random.default_rng(7)
        m = random_model(rng)
        row = rng.normal(size=5)
        x = np.stack([row, row, rng.normal(size=5)])
        y = np.array([1, 1, 0])
        g_both, _ = step_backward(m, x, y, [0, 1])
        g_one, _ = step_backward(m, x, y, [0])
        np.testing.assert_allclose(g_both.theta, g_one.theta, atol=1e-14)

    def test_empty_mask_raises(self, step_backward):
        m = init_model(5, 7, 3, seed=0)
        with pytest.raises(ValidationError):
            step_backward(m, np.zeros((2, 5)), [0, 1], [])

    @pytest.mark.parametrize("mask", [[True, False, True, False, False],
                                      [0.0, 1.9], np.array([0.0, 2.0])],
                             ids=["bool", "float", "float_array"])
    def test_a_mask_of_no_integer_dtype_raises(self, mask, step_backward):
        # cast to indices, the bool mask would be rows 1, 0, 1 (rows 0 and 1,
        # not 0 and 2) and the float one rows 0 and 1
        rng = np.random.default_rng(9)
        m = random_model(rng)
        x, y = rng.normal(size=(5, 5)), rng.integers(0, 3, 5)
        with pytest.raises(ValidationError, match="integer indices"):
            step_backward(m, x, y, mask)
        # the integer masks of those rows
        want = step_backward(m, x, y, [0, 2])
        for rows in ([2, 0], np.array([0, 2], dtype=np.int32),
                     np.array([0, 2], dtype=np.uint8)):
            got = step_backward(m, x, y, rows)
            assert (got[0].theta.tobytes(), got[1]) == (want[0].theta.tobytes(), want[1])

    def test_masked_gradient_additivity(self, step_backward):
        rng = np.random.default_rng(8)
        m = random_model(rng)
        x = rng.normal(size=(6, 5))
        y = rng.integers(0, 3, 6)
        mask = [1, 3, 4]
        g_mask, _ = step_backward(m, x, y, mask)
        singles = [step_backward(m, x, y, [i])[0] for i in mask]
        summed = sum(g.theta for g in singles) / len(mask)
        np.testing.assert_allclose(g_mask.theta, summed, atol=1e-10)

    def test_gradient_check_random_draws(self, step_backward):
        rng = np.random.default_rng(11)
        for _ in range(10):
            m = random_model(rng, d=4, hidden=5, classes=3)
            x = rng.normal(size=(5, 4))
            y = rng.integers(0, 3, 5)
            mask = sorted(rng.choice(5, size=rng.integers(1, 6), replace=False))
            grads, _ = step_backward(m, x, y, mask)
            for name in numcore.PARAM_NAMES:
                fd = fd_gradient(m, x, y, mask, name)
                scale = np.maximum(np.abs(fd), 1e-6)
                assert np.max(np.abs(getattr(grads, name) - fd) / scale) < 1e-4

    def test_gradients_share_the_model_layout(self, step_backward):
        rng = np.random.default_rng(13)
        m = random_model(rng)
        grads, _ = step_backward(m, rng.normal(size=(4, 5)), [0, 1, 2, 0])
        assert grads.theta.shape == m.theta.shape
        offset = 0
        for name in numcore.PARAM_NAMES:
            g = getattr(grads, name)
            assert g.shape == getattr(m, name).shape
            assert np.shares_memory(g, grads.theta)
            np.testing.assert_array_equal(
                g.ravel(), grads.theta[offset:offset + g.size])
            offset += g.size


@pytest.mark.parametrize("batch,dim,hidden", [(50, 12, 96), (512, 16, 64)],
                         ids=["reference_shape", "large_batch_shape"])
class TestForwardReuse:
    """backward reads the training step's forward pass from the buffers for
    every mask: a mask that covers every row gives the whole batch's bytes,
    a row subset the bytes of its rows of the whole batch's pass, and every
    gradient byte is written."""

    def case(self, batch, dim, hidden):
        rng = np.random.default_rng(batch)
        m = init_model(dim, hidden, 2, seed=batch)
        m.theta += 0.1 * rng.normal(size=m.theta.shape)  # nonzero biases
        return rng, m, rng.normal(size=(batch, dim)), rng.integers(0, 2, batch)

    def test_whole_batch_reuse_is_bit_equal(self, batch, dim, hidden,
                                            step_backward):
        rng, m, x, y = self.case(batch, dim, hidden)
        want, want_loss = step_backward(m, x, y, None)
        got, got_loss = step_backward(m, x, y, rng.permutation(batch))
        assert got.theta.tobytes() == want.theta.tobytes()
        assert got_loss == want_loss

    def test_row_subset_is_recomputed(self, batch, dim, hidden, step_backward):
        rng, m, x, y = self.case(batch, dim, hidden)
        for k in (2, 3, 5, 16, 25, 51):
            if k < batch:
                step_backward(m, x, y, rng.choice(batch, size=k, replace=False))

    def test_buffer_is_overwritten(self, batch, dim, hidden, step_backward):
        # step_backward's gradient buffer starts as NaN
        rng, m, x, y = self.case(batch, dim, hidden)
        for mask in (None, rng.choice(batch, size=5, replace=False)):
            grads, _ = step_backward(m, x, y, mask)
            assert np.isfinite(grads.theta).all()


@pytest.mark.parametrize("batch,dim,hidden", [(50, 12, 96), (512, 16, 64)],
                         ids=["reference_shape", "large_batch_shape"])
class TestStackedBackward:
    """backward on a stack with one mask per model gives each model the
    gradient bytes and mean loss of its backward alone (step_backward, which
    also checks the expression form)."""

    @pytest.fixture
    def stack_pass(self, batch, dim, hidden, garbage_buffers):
        """A stack of five float32 models with their batches, the step's
        pass in NaN-filled buffers, and a NaN-filled gradient stack."""
        rng = np.random.default_rng(batch)
        g = 5
        models = [init_model(dim, hidden, 2, seed=s) for s in range(g)]
        for m in models:
            m.theta += (0.1 * rng.normal(size=m.theta.shape)).astype(m.theta.dtype)
        stack = MlpModel.stack(models)
        x = rng.normal(size=(g, batch, dim)).astype(np.float32)
        y = rng.integers(0, 2, (g, batch))
        buffers = garbage_buffers(batch, stack)
        per_sample_cross_entropy(forward(stack, x, buffers), y, buffers)
        grads = stack.copy()
        grads.theta[:] = np.nan
        return rng, models, stack, x, y, buffers, grads

    def test_each_model_gets_its_lone_gradients(self, batch, stack_pass,
                                                step_backward):
        rng, models, stack, x, y, buffers, grads = stack_pass
        five = rng.choice(batch, size=5, replace=False)
        masks = [None,                     # the whole batch
                 np.sort(five),            # sorted
                 five,                     # unsorted, the same rows
                 rng.choice(batch, size=3, replace=False),   # a second size
                 rng.permutation(batch)]   # every row: the whole batch
        means = backward(stack, x, y, masks, buffers, grads)
        for j, (model, mask) in enumerate(zip(models, masks, strict=True)):
            want, want_mean = step_backward(model, x[j], y[j], mask)
            assert grads.theta[j].tobytes() == want.theta.tobytes()
            assert means[j] == want_mean

    @pytest.mark.parametrize("size", [None, 1, 5])
    def test_one_mask_size_for_every_model(self, batch, size, stack_pass,
                                           step_backward):
        # every model on its whole batch (the views path), and every model
        # on its own rows of one size (one group)
        rng, models, stack, x, y, buffers, grads = stack_pass
        masks = [None if size is None else rng.choice(batch, size=size, replace=False)
                 for _ in models]
        means = backward(stack, x, y, masks, buffers, grads)
        for j, (model, mask) in enumerate(zip(models, masks, strict=True)):
            want, want_mean = step_backward(model, x[j], y[j], mask)
            assert grads.theta[j].tobytes() == want.theta.tobytes()
            assert means[j] == want_mean
        if size is None:
            assert backward(stack, x, y, None, buffers, grads) == means

    def test_bad_mask_lists_raise(self, batch, stack_pass):
        _, models, stack, x, y, buffers, grads = stack_pass
        ok = [None, [0, 1]] + [None] * (len(models) - 2)
        for masks, message in (
                (ok[:-1], f"one sample_mask per model, got {len(models) - 1}"),
                (ok + [None], f"one sample_mask per model, got {len(models) + 1}"),
                ([*ok[:-1], [0, batch]], "index out of range"),
                ([*ok[:-1], [-1]], "index out of range"),
                ([*ok[:-1], []], "must be nonempty"),
                ([*ok[:-1], [True, False]], "integer indices"),
                # one mask, not one per model: a row for each model
                (np.arange(len(models)), r"one-dimensional, got shape \(\)"),
                ([*ok[:-1], [[0, 1]]], r"one-dimensional, got shape \(1, 2\)")):
            with pytest.raises(ValidationError, match=message):
                backward(stack, x, y, masks, buffers, grads)


def refused(m, x, y, mask, buffers):
    """backward on buffers that hold no loss pass of these rows raises
    DimensionError for every mask, a row subset too: it makes no pass of its
    own."""
    with pytest.raises(DimensionError, match=f"no loss pass of the {len(x)} rows"):
        backward(m, x, y, mask, buffers, m.copy())


@pytest.mark.parametrize("batch", [1, 2, 50, 257, 512])
class TestSoftmaxReuse:
    """backward builds d_logits from the exp and row sums that the loss pass
    left in the buffers. Its gradient bytes must equal an expression form
    that calls numcore.softmax, whatever the buffers held before, and it
    must refuse buffers whose loss pass is not of the batch's rows, for a
    row subset too, rather than read their softmax."""

    def case(self, batch):
        rng = np.random.default_rng(batch)
        m = init_model(12, 96, 2, seed=batch)
        m.theta += 0.1 * rng.normal(size=m.theta.shape)  # nonzero biases
        x = rng.normal(size=(batch, 12))
        y = rng.integers(0, 2, batch)
        subset = rng.choice(batch, size=max(1, batch // 3), replace=False)
        masks = {"none": None, "full": rng.permutation(batch), "subset": subset}
        return rng, m, x, y, masks

    @pytest.mark.parametrize("mask_name", ["none", "full", "subset"])
    def test_loop_pass_with_buffers(self, batch, mask_name, step_backward):
        # the training loop's order, in buffers filled with NaN
        _, m, x, y, masks = self.case(batch)
        step_backward(m, x, y, masks[mask_name])

    @pytest.mark.parametrize("mask_name", ["none", "full", "subset"])
    @pytest.mark.parametrize("garbage", [False, True])
    def test_no_forward_pass(self, batch, mask_name, garbage, garbage_buffers):
        # backward straight after the buffers are made, with no forward or
        # loss pass in them
        _, m, x, y, masks = self.case(batch)
        buffers = (garbage_buffers if garbage else StepBuffers)(batch, m)
        refused(m, x, y, masks[mask_name], buffers)

    @pytest.mark.parametrize("mask_name", ["none", "full", "subset"])
    @pytest.mark.parametrize("buffers_held", ["none", "garbage", "other_pass",
                                              "cleared_pass"])
    def test_forward_pass_made_without_buffers(self, batch, mask_name,
                                               buffers_held, garbage_buffers):
        # the caller's pass, made without the buffers backward gets, is not
        # one backward reads, whatever those buffers hold: new, NaN, a loss
        # pass of one more row, or a loss pass followed by a forward
        rng, m, x, y, masks = self.case(batch)
        loss_pass(forward(m, x), y, m)
        if buffers_held == "none":
            buffers = StepBuffers(batch + 1, m)
        else:
            buffers = garbage_buffers(batch + 1, m)
        if buffers_held in ("other_pass", "cleared_pass"):
            other = forward(m, rng.normal(size=(batch + 1, 12)) * 3.0, buffers)
            per_sample_cross_entropy(other, rng.integers(0, 2, batch + 1), buffers)
            if buffers_held == "cleared_pass":
                forward(m, x, buffers)  # new logits, no loss pass
        refused(m, x, y, masks[mask_name], buffers)

    def test_a_new_forward_voids_the_softmax(self, batch):
        # a forward into the buffers after the loss pass, with no loss pass
        # after it: the loss pass's exp no longer belongs to the logits, so
        # backward raises rather than read it
        rng, m, x, y, masks = self.case(batch)
        buffers = StepBuffers(batch, m)
        logits = forward(m, rng.normal(size=x.shape), buffers)
        per_sample_cross_entropy(logits, y, buffers)
        forward(m, x, buffers)
        for mask in (None, masks["full"]):
            with pytest.raises(DimensionError, match=f"loss pass of the {batch} rows"):
                backward(m, x, y, mask, buffers, m.copy())

    def test_fallback_leaves_no_stale_softmax(self, batch):
        # the step's pass, then a loss pass of a different row count into
        # the same buffers before backward: backward raises rather than
        # read that pass's softmax
        rng, m, x, y, masks = self.case(batch)
        buffers = StepBuffers(batch + 1, m)
        per_sample_cross_entropy(forward(m, x, buffers), y, buffers)
        other = forward(m, rng.normal(size=(batch + 1, 12)), buffers)
        per_sample_cross_entropy(other, rng.integers(0, 2, batch + 1), buffers)
        for mask in (None, masks["full"]):
            with pytest.raises(DimensionError, match=f"loss pass of the {batch} rows"):
                backward(m, x, y, mask, buffers, m.copy())


def zero_grads(m):
    """Zero gradients in the model's flat layout."""
    grads = m.copy()
    grads.theta[:] = 0.0
    return grads


class TestAdam:
    def test_zero_gradient_no_decay_is_identity(self):
        m = init_model(3, 4, 2, seed=1)
        before = m.theta.copy()
        state = OptimizerState(weight_decay=0.0)
        grads = zero_grads(m)
        adam_step(m, grads, state, lr=0.1)
        np.testing.assert_array_equal(before, m.theta)
        assert state.step == 1

    def test_first_step_is_signed_lr(self):
        m = init_model(3, 4, 2, seed=2)
        before = m.copy()
        state = OptimizerState(weight_decay=0.0, eps=1e-12)
        rng = np.random.default_rng(0)
        grads = zero_grads(m)
        for k in numcore.PARAM_NAMES:
            getattr(grads, k)[...] = rng.normal(size=getattr(m, k).shape) + 3.0
        adam_step(m, grads, state, lr=0.01)
        for k in numcore.PARAM_NAMES:
            delta = getattr(m, k) - getattr(before, k)
            np.testing.assert_allclose(delta, -0.01 * np.sign(getattr(grads, k)),
                                       rtol=1e-6)

    def test_ten_step_trace_matches_unrolled_recurrence(self):
        # scalar quadratic 0.5*w^2, gradient w; hand-unrolled Adam oracle
        w = np.full((1, 1), 2.0)
        m = MlpModel(w.copy(), np.zeros(1), np.ones((1, 1)), np.zeros(1),
                     np.ones((1, 1)), np.zeros(1))
        state = OptimizerState(weight_decay=0.0)
        b1, b2, eps, lr = state.beta1, state.beta2, state.eps, 0.05

        w_ref = 2.0
        m_acc = v_acc = 0.0
        for t in range(1, 11):
            g = w_ref
            m_acc = b1 * m_acc + (1 - b1) * g
            v_acc = b2 * v_acc + (1 - b2) * g * g
            m_hat = m_acc / (1 - b1 ** t)
            v_hat = v_acc / (1 - b2 ** t)
            w_ref = w_ref - lr * m_hat / (np.sqrt(v_hat) + eps)

            grads = zero_grads(m)
            grads.w1[...] = m.w1  # gradient of 0.5*w^2 at current w
            adam_step(m, grads, state, lr)
        assert abs(m.w1[0, 0] - w_ref) < 1e-10

    def test_nonfinite_gradient_aborts(self):
        m = init_model(3, 4, 2, seed=3)
        state = OptimizerState()
        grads = zero_grads(m)
        grads.w2[0, 0] = np.nan
        with pytest.raises(NumericError):
            adam_step(m, grads, state, lr=0.1)
        assert state.step == 0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("value", [np.inf, -np.inf, 1e20, -3e38])
    def test_overflowing_gradient_aborts_without_warning(self, value):
        # a gradient whose square would overflow the float32 second moment
        # (above about 1.8e19) is rejected before any arithmetic, like a
        # non-finite one
        m = init_model(3, 4, 2, seed=3)
        before = m.theta.copy()
        state = OptimizerState()
        grads = zero_grads(m)
        grads.b3[1] = value
        with pytest.raises(NumericError, match="overflowing gradient"):
            adam_step(m, grads, state, lr=0.1)
        assert state.step == 0
        np.testing.assert_array_equal(m.theta, before)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_large_finite_gradient_steps(self):
        # just below the float32 limit, sqrt(float32 max): its square, in
        # the second moment, stays finite
        m = init_model(3, 4, 2, seed=3)
        state = OptimizerState()
        grads = zero_grads(m)
        grads.w1[0, 0] = -0.99 * numcore._GRAD_LIMIT
        adam_step(m, grads, state, lr=0.1)
        assert state.step == 1 and np.isfinite(m.theta).all()


def expression_adam(theta, g, moments, step, lr, opt):
    """Folded Adam as expressions on new arrays in theta's dtype, from the
    scalar 0.0 moments: one scalar step size and eps scaled to match, in
    place of the bias-corrected moments."""
    m, v = moments
    m = opt.beta1 * m + (1.0 - opt.beta1) * g
    v = opt.beta2 * v + (1.0 - opt.beta2) * g * g
    root = math.sqrt(1.0 - opt.beta2 ** step)
    step_size = lr * root / (1.0 - opt.beta1 ** step)
    theta -= (m / (np.sqrt(v) + opt.eps * root) * step_size
              + lr * opt.weight_decay * theta)
    return m, v


class TestInPlaceAdam:
    @staticmethod
    def check_steps(m, rng):
        """30 adam_steps of m against expression_adam on fresh arrays."""
        want = m.theta.copy()
        state, moments = OptimizerState(), (0.0, 0.0)
        for step in range(1, 31):
            g = rng.normal(size=m.theta.shape) * 10.0 ** rng.integers(-8, 3)
            g = g.astype(m.theta.dtype)
            g[rng.random(g.shape) < 0.3] = -0.0
            g[rng.random(g.shape) < 0.1] = 0.0
            grads = m.copy()
            grads.theta[:] = g
            lr = float(10.0 ** -rng.integers(1, 5))
            adam_step(m, grads, state, lr)
            moments = expression_adam(want, g, moments, step, lr, state)
            assert m.theta.tobytes() == want.tobytes(), step
            assert state.m.tobytes() == moments[0].tobytes()
            assert state.v.tobytes() == moments[1].tobytes()
        assert want.dtype == state.m.dtype == state.v.dtype == m.theta.dtype

    def test_bits_equal_expressions(self):
        # signed zeros in the first gradients: 0.0*beta + (-0.0) is +0.0,
        # as the scalar 0.0 start gives
        self.check_steps(init_model(6, 9, 2, seed=17), np.random.default_rng(17))

    def test_folded_adam_equals_its_expression_in_float64(self):
        # the same code in float64, the dtype of a model cast up
        self.check_steps(init_model(6, 9, 2, seed=18).astype(np.float64),
                         np.random.default_rng(18))


def traced_peak(call) -> int:
    """Bytes the call allocates at its peak, beyond what was live before."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestStepAllocations:
    """A training step allocates nothing of batch or parameter size; NumPy's
    own iterator buffers stay under 64 KiB (8192 elements)."""

    def test_adam_steps_after_the_first_allocate_less_than_theta(self):
        m = init_model(16, 64, 2, seed=0)
        grads = m.copy()
        grads.theta[:] = np.random.default_rng(0).normal(size=m.theta.shape)
        state = OptimizerState()
        adam_step(m, grads, state, 1e-3)  # makes the moments and scratch

        def ten_steps():
            for _ in range(10):
                adam_step(m, grads, state, 1e-3)

        assert traced_peak(ten_steps) < m.theta.nbytes

    def test_whole_batch_backward_with_buffers(self):
        batch, dim, hidden = 512, 16, 64
        rng = np.random.default_rng(1)
        m = init_model(dim, hidden, 2, seed=1)
        x = rng.normal(size=(batch, dim))
        y = rng.integers(0, 2, batch)
        buffers, grads = StepBuffers(batch, m), m.copy()
        per_sample_cross_entropy(forward(m, x, buffers), y, buffers)
        one_activation = batch * hidden * 8
        # the measurement sees NumPy's arrays: forward without buffers makes
        # its own
        assert traced_peak(lambda: forward(m, x)) > one_activation
        assert traced_peak(lambda: backward(m, x, y, None, buffers, grads)) \
            < one_activation

    def test_buffers_too_small_rejected(self):
        m = init_model(5, 7, 2, seed=0)
        x = np.zeros((4, 5))
        with pytest.raises(DimensionError, match="exceed"):
            forward(m, x, StepBuffers(3, m))
        with pytest.raises(DimensionError, match="exceed"):
            backward(m, x, [0, 1, 0, 1], None, StepBuffers(3, m), m.copy())


def test_init_determinism():
    a = init_model(6, 8, 3, seed=99)
    b = init_model(6, 8, 3, seed=99)
    assert a.theta.tobytes() == b.theta.tobytes()


class TestFlatLayout:
    def test_arrays_are_views_into_theta_in_param_order(self):
        m = init_model(5, 7, 3, seed=4)
        arrays = [getattr(m, name) for name in numcore.PARAM_NAMES]
        assert m.theta.dtype == numcore.TRAIN_DTYPE and m.theta.flags.c_contiguous
        assert m.theta.tobytes() == b"".join(a.tobytes() for a in arrays)
        m.theta[:] = np.arange(m.theta.size)
        assert m.w1[0, 0] == 0.0 and m.b3[-1] == m.theta.size - 1

    def test_dtype_comes_from_the_arrays(self):
        m = init_model(5, 7, 3, seed=4)
        up = m.astype(np.float64)
        assert m.theta.dtype == np.float32 and up.theta.dtype == np.float64
        assert all(getattr(up, name).dtype == np.float64
                   for name in numcore.PARAM_NAMES)
        # float32 to float64 is exact, and back gives the same bytes
        assert (up.theta == m.theta).all()
        assert up.astype(np.float32).theta.tobytes() == m.theta.tobytes()
        assert up.copy().theta.dtype == np.float64
        assert m.copy().theta.dtype == np.float32

    def test_astype_to_its_own_dtype_is_the_model(self):
        m = init_model(5, 7, 3, seed=4)
        up = m.astype(np.float64)
        assert m.astype(np.float32) is m and up.astype(np.float64) is up
        assert not np.shares_memory(up.theta, m.theta)

    def test_copy_is_independent(self):
        m = init_model(5, 7, 3, seed=4)
        c = m.copy()
        assert c.theta.tobytes() == m.theta.tobytes()
        c.w2[0, 0] += 1.0
        assert c.theta.tobytes() != m.theta.tobytes()
        assert not np.shares_memory(c.theta, m.theta)

    def test_constructor_copies_its_arrays(self):
        w1 = np.ones((2, 3))
        m = MlpModel(w1, np.zeros(3), np.ones((3, 3)), np.zeros(3),
                     np.ones((3, 2)), np.zeros(2))
        m.w1[0, 0] = 5.0
        assert w1[0, 0] == 1.0

    def test_bad_shapes_rejected(self):
        with pytest.raises(DimensionError):
            MlpModel(np.ones((2, 3)), np.zeros(3), np.ones((4, 3)),
                     np.zeros(3), np.ones((3, 2)), np.zeros(2))
        with pytest.raises(DimensionError):
            MlpModel(np.ones((2, 3)), np.zeros(2), np.ones((3, 3)),
                     np.zeros(3), np.ones((3, 2)), np.zeros(2))
