"""Deterministic numerical core: a two-hidden-layer MLP classifier with
hand-derived gradients, per-sample cross-entropy, and Adam with decoupled
weight decay; the learning rate of each step is the caller's.

Everything is float64; identical seeds give bit-identical parameter
trajectories.

`forward` computes the two hidden layers in blocks of BLOCK_ROWS rows, into
buffers it allocates once per call, so an evaluation split of thousands of
rows builds no fresh temporary per operation and each block's activations
stay in cache between the two layers. In a matrix-matrix product a row's sums
do not depend on the rows beside it, so the blocks give the bits of one
product over all rows; a one-row block would take the matrix-vector path
instead, so a last row left on its own joins the block before it. The last
layer stays one product over all rows: OpenBLAS switches kernel for the
(rows, 2) product once rows x hidden x 2 passes about 10^6, and a blocked
last layer would change which kernel, and so which bits, a large split gets.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import DimensionError, NumericError, ValidationError

PARAM_NAMES = ("w1", "b1", "w2", "b2", "w3", "b3")
# rows per block of the hidden layers in `forward`: a 256 x 96 float64 block
# is 192 KiB
BLOCK_ROWS = 256


@dataclass
class MlpModel:
    """input -> hidden1 (ReLU) -> hidden2 (ReLU) -> logits.

    Weights are stored (fan_in, fan_out); biases are 1-D. All six arrays are
    views into one contiguous float64 vector `theta`, packed in PARAM_NAMES
    order; gradients and the Adam moments share that flat layout.
    """

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    w3: np.ndarray
    b3: np.ndarray
    theta: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.w1.shape[1] != self.w2.shape[0] or self.w2.shape[1] != self.w3.shape[0]:
            raise DimensionError("layer shapes do not chain")
        for w, b in ((self.w1, self.b1), (self.w2, self.b2), (self.w3, self.b3)):
            if b.shape != (w.shape[1],):
                raise DimensionError("bias shape does not match weight fan-out")
        arrays = [getattr(self, name) for name in PARAM_NAMES]
        self.theta = np.concatenate([a.ravel() for a in arrays], dtype=np.float64)
        offset = 0
        for name, a in zip(PARAM_NAMES, arrays):
            setattr(self, name, self.theta[offset:offset + a.size].reshape(a.shape))
            offset += a.size

    @property
    def in_dim(self) -> int:
        return self.w1.shape[0]

    def copy(self) -> "MlpModel":
        return MlpModel(*(getattr(self, name) for name in PARAM_NAMES))


def init_model(in_dim: int, hidden: int, n_classes: int, seed: int) -> MlpModel:
    """He-uniform fan-in initialization for weights, zero biases."""
    if in_dim < 1 or hidden < 1 or n_classes < 2:
        raise ValidationError("in_dim and hidden must be >= 1, n_classes >= 2")
    rng = np.random.default_rng(seed)

    def he(fan_in, fan_out):
        limit = np.sqrt(6.0 / fan_in)
        return rng.uniform(-limit, limit, size=(fan_in, fan_out))

    return MlpModel(
        he(in_dim, hidden), np.zeros(hidden),
        he(hidden, hidden), np.zeros(hidden),
        he(hidden, n_classes), np.zeros(n_classes),
    )


def forward(model: MlpModel, inputs: np.ndarray, hidden=None) -> np.ndarray:
    """Logits for a batch. inputs is (B, d). When `hidden` is a list, it is
    set to the post-ReLU activations [h1, h2], which `backward` can reuse."""
    x = np.asarray(inputs, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.in_dim:
        raise DimensionError(
            f"expected inputs of shape (B, {model.in_dim}), got {x.shape}")
    n = x.shape[0]
    keep = hidden is not None
    # without `hidden`, h1 is one block's scratch, reused by every block
    h1 = np.empty((n if keep else min(n, BLOCK_ROWS + 1), model.w1.shape[1]))
    h2 = np.empty((n, model.w2.shape[1]))
    with np.errstate(over="ignore", invalid="ignore"):  # raised just below
        start = 0
        while start < n:
            stop = start + BLOCK_ROWS
            if stop >= n - 1:  # no one-row last block (module docstring)
                stop = n
            a1 = h1[start:stop] if keep else h1[:stop - start]
            _affine_relu(x[start:stop], model.w1, model.b1, out=a1)
            _affine_relu(a1, model.w2, model.b2, out=h2[start:stop])
            start = stop
        logits = h2 @ model.w3 + model.b3
    if not np.all(np.isfinite(logits)):
        raise NumericError("non-finite logits in forward pass")
    if keep:
        hidden[:] = (h1, h2)
    return logits


def _affine_relu(x: np.ndarray, w: np.ndarray, b: np.ndarray,
                 out: np.ndarray) -> None:
    """out = max(x @ w + b, 0), in the bits of that expression."""
    np.matmul(x, w, out=out)
    out += b
    np.maximum(out, 0.0, out=out)


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def per_sample_cross_entropy(logits: np.ndarray, labels) -> np.ndarray:
    """Cross-entropy of each row, via max-shifted log-sum-exp."""
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels)
    if logits.ndim != 2 or labels.shape != (logits.shape[0],):
        raise DimensionError("logits must be (B, C) with one label per row")
    n_classes = logits.shape[1]
    if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
        raise ValidationError(f"labels must lie in [0, {n_classes})")
    shift = logits.max(axis=1)
    lse = shift + np.log(np.exp(logits - shift[:, None]).sum(axis=1))
    losses = lse - logits[np.arange(len(labels)), labels]
    return np.maximum(losses, 0.0)


def backward(model: MlpModel, inputs: np.ndarray, labels, sample_mask=None,
             forward_pass=None, out: MlpModel | None = None):
    """Gradients of the MEAN cross-entropy over the masked subset.

    sample_mask is an index subset of [0, B); None means all samples. The mask
    is sorted internally so the result is independent of the order the caller
    selected samples in (summation order matters bit-wise).

    forward_pass is (h1, h2, logits, losses) of this model on all of
    `inputs`: the hidden activations `forward(model, inputs, hidden)` set and
    `per_sample_cross_entropy(logits, labels)`. It is used only when the mask
    covers every row; a row subset is recomputed, because its products are
    not bit-equal to the same rows of the whole batch's.

    Returns (grads, mean_loss) with grads an MlpModel of the model's shapes,
    so grads.theta lines up with model.theta. The gradients are written into
    `out` when it is given (and `out` is returned), else into a new model.
    """
    x = np.asarray(inputs, dtype=np.float64)
    labels = np.asarray(labels)
    if sample_mask is not None:
        mask = np.unique(np.asarray(sample_mask, dtype=np.intp))
        if mask.size == 0:
            raise ValidationError("sample_mask must be nonempty")
        if mask.size and (mask[0] < 0 or mask[-1] >= x.shape[0]):
            raise ValidationError("sample_mask index out of range")
        if mask.size < x.shape[0]:  # distinct and in range: not every row
            x = x[mask]
            labels = labels[mask]
            forward_pass = None

    if forward_pass is not None:
        h1, h2, logits, losses = forward_pass
    else:
        h1 = np.maximum(x @ model.w1 + model.b1, 0.0)
        h2 = np.maximum(h1 @ model.w2 + model.b2, 0.0)
        logits = h2 @ model.w3 + model.b3
        losses = per_sample_cross_entropy(logits, labels)
    m = x.shape[0]
    mean_loss = float(losses.mean())

    probs = softmax(logits)
    d_logits = probs
    d_logits[np.arange(m), labels] -= 1.0
    d_logits /= m

    if out is None:
        out = MlpModel(*(np.empty_like(getattr(model, name)) for name in PARAM_NAMES))
    # h > 0 is h_pre > 0: ReLU keeps the positive entries and zeroes the rest
    np.matmul(h2.T, d_logits, out=out.w3)
    d_logits.sum(axis=0, out=out.b3)
    d_h2 = (d_logits @ model.w3.T) * (h2 > 0.0)
    np.matmul(h1.T, d_h2, out=out.w2)
    d_h2.sum(axis=0, out=out.b2)
    d_h1 = (d_h2 @ model.w2.T) * (h1 > 0.0)
    np.matmul(x.T, d_h1, out=out.w1)
    d_h1.sum(axis=0, out=out.b1)
    return out, mean_loss


@dataclass
class OptimizerState:
    """Adam moments, flat like MlpModel.theta (the scalar 0.0 until the first
    step), plus hyperparameters; step counter is strictly increasing."""

    m: np.ndarray | float = 0.0
    v: np.ndarray | float = 0.0
    step: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    weight_decay: float = 1e-4
    eps: float = 1e-8


def adam_step(model: MlpModel, grads: MlpModel, state: OptimizerState,
              lr: float) -> None:
    """One bias-corrected Adam step with decoupled weight decay, in place."""
    g = grads.theta
    if not np.all(np.isfinite(g)):
        raise NumericError("non-finite gradient; step aborted")
    state.step += 1
    t = state.step
    state.m = state.beta1 * state.m + (1.0 - state.beta1) * g
    state.v = state.beta2 * state.v + (1.0 - state.beta2) * g * g
    m_hat = state.m / (1.0 - state.beta1 ** t)
    v_hat = state.v / (1.0 - state.beta2 ** t)
    p = model.theta
    p -= lr * (m_hat / (np.sqrt(v_hat) + state.eps) + state.weight_decay * p)

