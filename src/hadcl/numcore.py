"""Deterministic numerical core: a two-hidden-layer MLP classifier with
hand-derived gradients, per-sample cross-entropy, Adam with decoupled weight
decay, and a multi-step learning-rate schedule.

Everything is float64 and single-threaded; identical seeds give bit-identical
parameter trajectories.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import DimensionError, NumericError, ValidationError

PARAM_NAMES = ("w1", "b1", "w2", "b2", "w3", "b3")


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


def forward(model: MlpModel, inputs: np.ndarray) -> np.ndarray:
    """Logits for a batch. inputs is (B, d)."""
    x = np.asarray(inputs, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.in_dim:
        raise DimensionError(
            f"expected inputs of shape (B, {model.in_dim}), got {x.shape}")
    with np.errstate(over="ignore", invalid="ignore"):  # raised just below
        h1 = np.maximum(x @ model.w1 + model.b1, 0.0)
        h2 = np.maximum(h1 @ model.w2 + model.b2, 0.0)
        logits = h2 @ model.w3 + model.b3
    if not np.all(np.isfinite(logits)):
        raise NumericError("non-finite logits in forward pass")
    return logits


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


def backward(model: MlpModel, inputs: np.ndarray, labels, sample_mask=None):
    """Gradients of the MEAN cross-entropy over the masked subset.

    sample_mask is an index subset of [0, B); None means all samples. The mask
    is sorted internally so the result is independent of the order the caller
    selected samples in (summation order matters bit-wise).

    Returns (grads, mean_loss) with grads an MlpModel of the model's shapes,
    so grads.theta lines up with model.theta.
    """
    x = np.asarray(inputs, dtype=np.float64)
    labels = np.asarray(labels)
    if sample_mask is not None:
        mask = np.unique(np.asarray(sample_mask, dtype=np.intp))
        if mask.size == 0:
            raise ValidationError("sample_mask must be nonempty")
        if mask.size and (mask[0] < 0 or mask[-1] >= x.shape[0]):
            raise ValidationError("sample_mask index out of range")
        x = x[mask]
        labels = labels[mask]

    m = x.shape[0]
    h1_pre = x @ model.w1 + model.b1
    h1 = np.maximum(h1_pre, 0.0)
    h2_pre = h1 @ model.w2 + model.b2
    h2 = np.maximum(h2_pre, 0.0)
    logits = h2 @ model.w3 + model.b3

    losses = per_sample_cross_entropy(logits, labels)
    mean_loss = float(losses.mean())

    probs = softmax(logits)
    d_logits = probs
    d_logits[np.arange(m), labels] -= 1.0
    d_logits /= m

    d_h2 = (d_logits @ model.w3.T) * (h2_pre > 0.0)
    d_h1 = (d_h2 @ model.w2.T) * (h1_pre > 0.0)
    grads = MlpModel(x.T @ d_h1, d_h1.sum(axis=0), h1.T @ d_h2, d_h2.sum(axis=0),
                     h2.T @ d_logits, d_logits.sum(axis=0))
    return grads, mean_loss


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


@dataclass
class LrSchedule:
    """Multi-step decay: base * gamma^(milestones passed)."""

    base: float
    milestones: tuple = ()
    gamma: float = 0.1

    def __post_init__(self):
        ms = tuple(self.milestones)
        if any(ms[i] >= ms[i + 1] for i in range(len(ms) - 1)):
            raise ValidationError("milestones must be strictly increasing")
        if not (0.0 < self.gamma <= 1.0):
            raise ValidationError("gamma must be in (0, 1]")
        if self.base < 0.0:
            raise ValidationError("lr must be >= 0")
        self.milestones = ms


def lr_at(schedule: LrSchedule, epoch: int) -> float:
    if epoch < 0:
        raise ValidationError("epoch must be >= 0")
    passed = sum(1 for m in schedule.milestones if epoch >= m)
    return schedule.base * schedule.gamma ** passed

