import tracemalloc

import numpy as np
import pytest

from hadcl import numcore
from hadcl.exceptions import DimensionError, NumericError, ValidationError
from hadcl.numcore import (MlpModel, OptimizerState, StepBuffers, adam_step,
                           backward, forward, init_model,
                           per_sample_cross_entropy)


def random_model(rng, d=5, hidden=7, classes=3):
    return init_model(d, hidden, classes, seed=int(rng.integers(1 << 30)))


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
        rng = np.random.default_rng(rows)
        m = init_model(dim, hidden, 2, seed=rows)
        m.theta += 0.1 * rng.normal(size=m.theta.shape)  # nonzero biases
        x = rng.normal(size=(rows, dim))
        h1, h2, logits = unblocked_forward(m, x)
        acts = StepBuffers(rows, m)
        assert forward(m, x, acts).tobytes() == logits.tobytes()
        assert forward(m, x).tobytes() == logits.tobytes()
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
        losses = per_sample_cross_entropy(np.zeros((3, 2)), [0, 1, 0])
        np.testing.assert_allclose(losses, np.log(2.0))

    def test_extreme_logits_stable(self):
        losses = per_sample_cross_entropy(np.array([[1000.0, -1000.0]]), [0])
        assert losses[0] == pytest.approx(0.0, abs=1e-12)
        assert np.isfinite(losses).all()

    def test_matches_naive_softmax_log(self):
        rng = np.random.default_rng(3)
        logits = rng.normal(size=(50, 4)) * 3
        labels = rng.integers(0, 4, 50)
        p = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        naive = -np.log(p[np.arange(50), labels])
        got = per_sample_cross_entropy(logits, labels)
        np.testing.assert_allclose(got, naive, atol=1e-10)

    def test_label_out_of_range(self):
        with pytest.raises(ValidationError):
            per_sample_cross_entropy(np.zeros((2, 3)), [0, 3])

    @pytest.mark.parametrize("labels", [[0.0, 1.0], np.array([0.0, 1.0]),
                                        [False, True], np.array([True, False])],
                             ids=["float_list", "float_array", "bool_list",
                                  "bool_array"])
    def test_labels_must_be_integers(self, labels):
        # a float would fail the gather as a raw IndexError, and a bool would
        # index as 0 or 1
        with pytest.raises(ValidationError, match="labels must be integers"):
            per_sample_cross_entropy(np.zeros((2, 2)), labels)

    def test_buffers_hold_the_loss_pass(self):
        rng = np.random.default_rng(4)
        m = init_model(5, 7, 3, seed=4)
        buffers = StepBuffers(9, m)
        logits = forward(m, rng.normal(size=(6, 5)), buffers)
        labels = rng.integers(0, 3, 6)
        want = per_sample_cross_entropy(logits.copy(), labels)
        got = per_sample_cross_entropy(logits, labels, buffers)
        assert got.tobytes() == want.tobytes()
        assert np.shares_memory(got, buffers.losses) and buffers.exp_of is logits
        e, sums = buffers.exp[:6], buffers.sums[:6]
        assert (e / sums[:, None]).tobytes() == numcore.softmax(logits).tobytes()
        forward(m, rng.normal(size=(6, 5)), buffers)
        assert buffers.exp_of is None

    def test_nonnegative(self):
        rng = np.random.default_rng(9)
        losses = per_sample_cross_entropy(rng.normal(size=(200, 5)),
                                          rng.integers(0, 5, 200))
        assert (losses >= 0.0).all()


def fd_gradient(model, x, y, mask, name, h=1e-6):
    p = getattr(model, name)
    grad = np.zeros_like(p)
    it = np.nditer(p, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = p[idx]
        p[idx] = orig + h
        _, lp = backward(model, x, y, mask)
        p[idx] = orig - h
        _, lm = backward(model, x, y, mask)
        p[idx] = orig
        grad[idx] = (lp - lm) / (2 * h)
    return grad


class TestBackward:
    def test_full_mask_equals_none(self):
        rng = np.random.default_rng(5)
        m = random_model(rng)
        x = rng.normal(size=(8, 5))
        y = rng.integers(0, 3, 8)
        g_none, l_none = backward(m, x, y, None)
        g_all, l_all = backward(m, x, y, np.arange(8))
        assert l_none == l_all
        np.testing.assert_array_equal(g_none.theta, g_all.theta)

    def test_single_sample_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        m = random_model(rng)
        x = rng.normal(size=(4, 5))
        y = rng.integers(0, 3, 4)
        mask = [2]
        grads, _ = backward(m, x, y, mask)
        for name in ("w1", "b2", "w3"):
            fd = fd_gradient(m, x, y, mask, name)
            denom = np.maximum(np.abs(fd), 1e-8)
            assert np.max(np.abs(getattr(grads, name) - fd) / denom) < 1e-5

    def test_duplicate_rows_mean_invariance(self):
        rng = np.random.default_rng(7)
        m = random_model(rng)
        row = rng.normal(size=5)
        x = np.stack([row, row, rng.normal(size=5)])
        y = np.array([1, 1, 0])
        g_both, _ = backward(m, x, y, [0, 1])
        g_one, _ = backward(m, x, y, [0])
        np.testing.assert_allclose(g_both.theta, g_one.theta, atol=1e-14)

    def test_empty_mask_raises(self):
        m = init_model(5, 7, 3, seed=0)
        with pytest.raises(ValidationError):
            backward(m, np.zeros((2, 5)), [0, 1], [])

    def test_masked_gradient_additivity(self):
        rng = np.random.default_rng(8)
        m = random_model(rng)
        x = rng.normal(size=(6, 5))
        y = rng.integers(0, 3, 6)
        mask = [1, 3, 4]
        g_mask, _ = backward(m, x, y, mask)
        singles = [backward(m, x, y, [i])[0] for i in mask]
        summed = sum(g.theta for g in singles) / len(mask)
        np.testing.assert_allclose(g_mask.theta, summed, atol=1e-10)

    def test_gradient_check_random_draws(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            m = random_model(rng, d=4, hidden=5, classes=3)
            x = rng.normal(size=(5, 4))
            y = rng.integers(0, 3, 5)
            mask = sorted(rng.choice(5, size=rng.integers(1, 6), replace=False))
            grads, _ = backward(m, x, y, mask)
            for name in numcore.PARAM_NAMES:
                fd = fd_gradient(m, x, y, mask, name)
                scale = np.maximum(np.abs(fd), 1e-6)
                assert np.max(np.abs(getattr(grads, name) - fd) / scale) < 1e-4

    def test_gradients_share_the_model_layout(self):
        rng = np.random.default_rng(13)
        m = random_model(rng)
        grads, _ = backward(m, rng.normal(size=(4, 5)), [0, 1, 2, 0])
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
    """backward reuses the training loop's forward pass only where that is
    bit-equal to recomputing it: masks that cover every row."""

    def loop_pass(self, batch, dim, hidden):
        rng = np.random.default_rng(batch)
        m = init_model(dim, hidden, 2, seed=batch)
        m.theta += 0.1 * rng.normal(size=m.theta.shape)  # nonzero biases
        x = rng.normal(size=(batch, dim))
        y = rng.integers(0, 2, batch)
        acts = StepBuffers(batch, m)
        logits = forward(m, x, acts)
        losses = per_sample_cross_entropy(logits, y)
        return rng, m, x, y, (acts.h1, acts.h2, logits, losses)

    def test_whole_batch_reuse_is_bit_equal(self, batch, dim, hidden):
        rng, m, x, y, fp = self.loop_pass(batch, dim, hidden)
        want, want_loss = backward(m, x, y, None)
        for mask in (None, rng.permutation(batch)):
            got, got_loss = backward(m, x, y, mask, fp)
            assert got.theta.tobytes() == want.theta.tobytes()
            assert got_loss == want_loss

    def test_row_subset_is_recomputed(self, batch, dim, hidden):
        rng, m, x, y, fp = self.loop_pass(batch, dim, hidden)
        for k in (2, 3, 5, 16, 25, 51):
            if k >= batch:
                continue
            mask = rng.choice(batch, size=k, replace=False)
            want, want_loss = backward(m, x, y, mask)
            got, got_loss = backward(m, x, y, mask, fp)
            assert got.theta.tobytes() == want.theta.tobytes(), k
            assert got_loss == want_loss

    def test_buffer_is_overwritten(self, batch, dim, hidden):
        rng, m, x, y, fp = self.loop_pass(batch, dim, hidden)
        buf = m.copy()
        buf.theta[:] = np.nan
        for mask in (None, rng.choice(batch, size=5, replace=False)):
            want, _ = backward(m, x, y, mask)
            got, _ = backward(m, x, y, mask, fp, out=buf)
            assert got is buf
            assert buf.theta.tobytes() == want.theta.tobytes()


def expression_backward(model, x, y, mask):
    """backward as expressions on new arrays, with the softmax from
    `numcore.softmax`: the gradient bytes and mean loss backward must give."""
    if mask is not None and len(np.unique(mask)) < len(x):
        rows = np.unique(mask)
        x, y = x[rows], y[rows]
    buffers = StepBuffers(len(x), model)
    logits = forward(model, x, buffers).copy()
    h1, h2 = buffers.h1.copy(), buffers.h2.copy()
    m = len(y)
    d_logits = numcore.softmax(logits)
    d_logits[np.arange(m), y] -= 1.0
    d_logits /= m
    d_h2 = (d_logits @ model.w3.T) * (h2 > 0.0)
    d_h1 = (d_h2 @ model.w2.T) * (h1 > 0.0)
    grads = np.concatenate([
        (x.T @ d_h1).ravel(), d_h1.sum(axis=0),
        (h1.T @ d_h2).ravel(), d_h2.sum(axis=0),
        (h2.T @ d_logits).ravel(), d_logits.sum(axis=0)])
    return grads.tobytes(), float(per_sample_cross_entropy(logits, y).mean())


def garbage_buffers(rows, model):
    """StepBuffers whose every float holds NaN and every mask True."""
    buffers = StepBuffers(rows, model)
    for value in vars(buffers).values():
        if isinstance(value, np.ndarray) and value.dtype == np.float64:
            value[...] = np.nan
        elif isinstance(value, np.ndarray) and value.dtype == bool:
            value[...] = True
    return buffers


@pytest.mark.parametrize("batch", [1, 2, 50, 257, 512])
class TestSoftmaxReuse:
    """backward builds d_logits from the exp and row sums of the loss pass
    that saw the same logits. Its gradient bytes must equal an expression
    form that calls numcore.softmax, whatever the buffers held before."""

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
    def test_loop_pass_with_buffers(self, batch, mask_name):
        # the training loop's order: forward and the loss pass into the
        # buffers, then backward with the 4-tuple they made
        _, m, x, y, masks = self.case(batch)
        mask = masks[mask_name]
        want = expression_backward(m, x, y, mask)
        buffers = garbage_buffers(batch, m)
        logits = forward(m, x, buffers)
        fp = (buffers.h1[:batch], buffers.h2[:batch], logits,
              per_sample_cross_entropy(logits, y, buffers))
        grads, loss = backward(m, x, y, mask, fp, m.copy(), buffers)
        assert (grads.theta.tobytes(), loss) == want

    @pytest.mark.parametrize("mask_name", ["none", "full", "subset"])
    @pytest.mark.parametrize("with_buffers", [False, True])
    def test_no_forward_pass(self, batch, mask_name, with_buffers):
        _, m, x, y, masks = self.case(batch)
        mask = masks[mask_name]
        buffers = garbage_buffers(batch, m) if with_buffers else None
        grads, loss = backward(m, x, y, mask, None, None, buffers)
        assert (grads.theta.tobytes(), loss) == expression_backward(m, x, y, mask)

    @pytest.mark.parametrize("mask_name", ["none", "full", "subset"])
    @pytest.mark.parametrize("buffers_held", ["none", "garbage", "other_pass",
                                              "cleared_pass"])
    def test_forward_pass_made_without_buffers(self, batch, mask_name,
                                               buffers_held):
        # the caller's 4-tuple owes nothing to the buffers: backward must not
        # read the softmax they hold, however it got there
        rng, m, x, y, masks = self.case(batch)
        mask = masks[mask_name]
        own = StepBuffers(batch, m)
        forward(m, x, own)
        logits = forward(m, x)
        fp = (own.h1.copy(), own.h2.copy(), logits,
              per_sample_cross_entropy(logits, y))
        buffers = None if buffers_held == "none" else garbage_buffers(batch, m)
        if buffers_held in ("other_pass", "cleared_pass"):
            other = forward(m, rng.normal(size=x.shape) * 3.0, buffers)
            per_sample_cross_entropy(other, y, buffers)
            if buffers_held == "cleared_pass":
                forward(m, x, buffers)  # new logits, no loss pass
        grads, loss = backward(m, x, y, mask, fp, None, buffers)
        assert (grads.theta.tobytes(), loss) == expression_backward(m, x, y, mask)

    def test_a_new_forward_voids_the_softmax(self, batch):
        # forward writes into the memory the old logits view shows, so the
        # loss pass's exp no longer belongs to it
        rng, m, x, y, _ = self.case(batch)
        buffers = StepBuffers(batch, m)
        logits = forward(m, rng.normal(size=x.shape), buffers)
        per_sample_cross_entropy(logits, y, buffers)
        forward(m, x, buffers)
        fp = (buffers.h1[:batch], buffers.h2[:batch], logits,
              per_sample_cross_entropy(logits.copy(), y))
        grads, loss = backward(m, x, y, None, fp, None, buffers)
        assert (grads.theta.tobytes(), loss) == expression_backward(m, x, y, None)

    def test_fallback_leaves_no_stale_softmax(self, batch):
        # a caller's own 4-tuple passed with the loop's buffers, between the
        # loop's loss pass and its backward
        rng, m, x, y, _ = self.case(batch)
        buffers = StepBuffers(batch, m)
        x_loop = rng.normal(size=x.shape)
        logits = forward(m, x_loop, buffers)
        fp_loop = (buffers.h1[:batch], buffers.h2[:batch], logits,
                   per_sample_cross_entropy(logits, y, buffers))
        own = StepBuffers(batch, m)
        own_logits = forward(m, x, own)
        fp_own = (own.h1, own.h2, own_logits, per_sample_cross_entropy(own_logits, y))
        backward(m, x, y, None, fp_own, None, buffers)
        grads, loss = backward(m, x_loop, y, None, fp_loop, None, buffers)
        want = expression_backward(m, x_loop, y, None)
        assert (grads.theta.tobytes(), loss) == want


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
    @pytest.mark.parametrize("value", [np.inf, -np.inf, 1e155, -1e300])
    def test_overflowing_gradient_aborts_without_warning(self, value):
        # a gradient whose square would overflow the second moment is
        # rejected before any arithmetic, like a non-finite one
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
        m = init_model(3, 4, 2, seed=3)
        state = OptimizerState()
        grads = zero_grads(m)
        grads.w1[0, 0] = -1e150
        adam_step(m, grads, state, lr=0.1)
        assert state.step == 1 and np.isfinite(m.theta).all()


def expression_adam(theta, g, moments, step, lr, opt):
    """Adam as expressions on new arrays, from the scalar 0.0 moments."""
    m, v = moments
    m = opt.beta1 * m + (1.0 - opt.beta1) * g
    v = opt.beta2 * v + (1.0 - opt.beta2) * g * g
    m_hat = m / (1.0 - opt.beta1 ** step)
    v_hat = v / (1.0 - opt.beta2 ** step)
    theta -= lr * (m_hat / (np.sqrt(v_hat) + opt.eps) + opt.weight_decay * theta)
    return m, v


class TestInPlaceAdam:
    def test_bits_equal_expressions(self):
        # signed zeros in the first gradients: 0.0*beta + (-0.0) is +0.0,
        # as the scalar 0.0 start gives
        rng = np.random.default_rng(17)
        m = init_model(6, 9, 2, seed=17)
        want = m.theta.copy()
        state, moments = OptimizerState(), (0.0, 0.0)
        for step in range(1, 31):
            g = rng.normal(size=m.theta.shape) * 10.0 ** rng.integers(-8, 3)
            g[rng.random(g.shape) < 0.3] = -0.0
            g[rng.random(g.shape) < 0.1] = 0.0
            grads = m.copy()
            grads.theta[:] = g
            lr = 10.0 ** -rng.integers(1, 5)
            adam_step(m, grads, state, lr)
            moments = expression_adam(want, g, moments, step, lr, state)
            assert m.theta.tobytes() == want.tobytes(), step
            assert state.m.tobytes() == moments[0].tobytes()
            assert state.v.tobytes() == moments[1].tobytes()


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
        logits = forward(m, x, buffers)
        fp = (buffers.h1, buffers.h2, logits, per_sample_cross_entropy(logits, y))
        one_activation = batch * hidden * 8
        # the measurement sees NumPy's arrays: without buffers, backward
        # makes its own
        assert traced_peak(lambda: backward(m, x, y, None, fp, grads)) \
            > 2 * one_activation
        assert traced_peak(lambda: backward(m, x, y, None, fp, grads, buffers)) \
            < one_activation

    def test_buffers_too_small_rejected(self):
        m = init_model(5, 7, 2, seed=0)
        x = np.zeros((4, 5))
        with pytest.raises(DimensionError, match="exceed"):
            forward(m, x, StepBuffers(3, m))
        with pytest.raises(DimensionError, match="exceed"):
            backward(m, x, [0, 1, 0, 1], None, None, None, StepBuffers(3, m))


def test_init_determinism():
    a = init_model(6, 8, 3, seed=99)
    b = init_model(6, 8, 3, seed=99)
    assert a.theta.tobytes() == b.theta.tobytes()


class TestFlatLayout:
    def test_arrays_are_views_into_theta_in_param_order(self):
        m = init_model(5, 7, 3, seed=4)
        arrays = [getattr(m, name) for name in numcore.PARAM_NAMES]
        assert m.theta.dtype == np.float64 and m.theta.flags.c_contiguous
        assert m.theta.tobytes() == b"".join(a.tobytes() for a in arrays)
        m.theta[:] = np.arange(m.theta.size)
        assert m.w1[0, 0] == 0.0 and m.b3[-1] == m.theta.size - 1

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
