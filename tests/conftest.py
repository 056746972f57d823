"""Fixtures shared by the test modules: backward as the training step calls
it, the expression form its bytes must equal, and NaN-filled buffers."""

import numpy as np
import pytest

from hadcl import numcore


def _garbage_buffers(rows, model):
    """StepBuffers whose every float holds NaN and every mask True."""
    buffers = numcore.StepBuffers(rows, model)
    for value in vars(buffers).values():
        if isinstance(value, np.ndarray) and value.dtype == np.float64:
            value[...] = np.nan
        elif isinstance(value, np.ndarray) and value.dtype == bool:
            value[...] = True
    return buffers


def _expression_backward(model, x, y, mask):
    """backward as expressions on new arrays, with the softmax from
    `numcore.softmax`: the gradient bytes and mean loss backward must give.
    The forward and loss pass are the whole batch's; a row subset takes the
    sorted mask's rows of them."""
    buffers = numcore.StepBuffers(len(x), model)
    logits = numcore.forward(model, x, buffers).copy()
    h1, h2 = buffers.h1.copy(), buffers.h2.copy()
    d_logits = numcore.softmax(logits)
    losses = numcore.per_sample_cross_entropy(logits, y, buffers).copy()
    if mask is not None and len(np.unique(mask)) < len(x):
        rows = np.unique(mask)
        x, y, h1, h2 = x[rows], y[rows], h1[rows], h2[rows]
        d_logits, losses = d_logits[rows], losses[rows]
    m = len(y)
    d_logits[np.arange(m), y] -= 1.0
    d_logits /= m
    d_h2 = (d_logits @ model.w3.T) * (h2 > 0.0)
    d_h1 = (d_h2 @ model.w2.T) * (h1 > 0.0)
    grads = np.concatenate([
        (x.T @ d_h1).ravel(), d_h1.sum(axis=0),
        (h1.T @ d_h2).ravel(), d_h2.sum(axis=0),
        (h2.T @ d_logits).ravel(), d_logits.sum(axis=0)])
    return grads.tobytes(), float(losses.mean())


def _step_backward(model, x, y, mask=None):
    """The training step's order: forward and the loss pass into new
    StepBuffers filled with NaN, then backward into a gradient buffer filled
    with NaN. Asserts that the gradient bytes and mean loss are the
    expression form's and returns (grads, mean_loss)."""
    x, y = np.asarray(x, dtype=np.float64), np.asarray(y)
    buffers, grads = _garbage_buffers(len(x), model), model.copy()
    grads.theta[:] = np.nan
    numcore.per_sample_cross_entropy(numcore.forward(model, x, buffers), y, buffers)
    loss = numcore.backward(model, x, y, mask, buffers, grads)
    assert (grads.theta.tobytes(), loss) == _expression_backward(model, x, y, mask)
    return grads, loss


@pytest.fixture
def garbage_buffers():
    return _garbage_buffers


@pytest.fixture
def step_backward():
    return _step_backward
