import numpy as np
import pytest

from hadcl import numcore
from hadcl.exceptions import DimensionError, NumericError, ValidationError
from hadcl.numcore import (MlpModel, OptimizerState, adam_step, backward,
                           forward, init_model, per_sample_cross_entropy)


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
        acts = []
        assert forward(m, x, acts).tobytes() == logits.tobytes()
        assert forward(m, x).tobytes() == logits.tobytes()
        assert acts[0].shape == h1.shape and acts[1].shape == h2.shape
        assert acts[0].tobytes() == h1.tobytes()
        assert acts[1].tobytes() == h2.tobytes()

    @pytest.mark.parametrize("keep_hidden", [False, True])
    def test_nonfinite_row_in_last_block_raises(self, keep_hidden):
        m = init_model(12, 96, 2, seed=0)
        x = np.random.default_rng(0).normal(size=(2 * numcore.BLOCK_ROWS + 10, 12))
        x[-1, 3] = np.inf
        with pytest.raises(NumericError, match="non-finite logits"):
            forward(m, x, [] if keep_hidden else None)


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
        hidden_acts = []
        logits = forward(m, x, hidden_acts)
        losses = per_sample_cross_entropy(logits, y)
        return rng, m, x, y, (*hidden_acts, logits, losses)

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
