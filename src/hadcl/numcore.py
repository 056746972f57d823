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

A training step makes none of its batch- or parameter-sized arrays. The
loop makes one StepBuffers per stage: `forward` writes the step's
activations and logits into its first rows, `per_sample_cross_entropy` the
row maxima, exp(logits - max), its row sums and the losses, and `backward`
d_logits, the row gradients and the ReLU masks. `backward` never runs a
forward or loss pass: it reads the rows it differentiates from the step's
pass in the buffers, the activations, the losses and the softmax built from
the loss pass's exp and row sums (the bits `softmax` would compute), so a
top-K update differentiates the mean of exactly the losses its gate ranked.
It raises DimensionError unless the buffers' last loss pass, made after
their last forward, covered every row of the batch. Adam
updates its moments in place with two scratch vectors held by the
OptimizerState, in the operation order of its textbook expression, so the
bits are those of fresh arrays. The step's sums and maxima call the ufunc's
reduce directly (np.add.reduce for a sum or a mean) and its checks the
ndarray's all/any, so no call goes through fromnumeric's Python layers; the
bits are those of the calls they replace. What a step still allocates:
vectors of B or B x classes elements (the label gather and the finite and
NaN checks), the decision's ranking and index arrays, a row subset's
gathered rows, and NumPy's own iterator scratch for the broadcast bias adds
and the products with a boolean mask, at most 8192 elements (a whole
50 x 96 activation at the reference shape).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import DimensionError, NumericError, ValidationError

PARAM_NAMES = ("w1", "b1", "w2", "b2", "w3", "b3")
# rows per block of the hidden layers in `forward`: a 256 x 96 float64 block
# is 192 KiB
BLOCK_ROWS = 256
# adam_step takes gradient entries below this size only: the square of
# each, in the second moment, must stay finite
_GRAD_LIMIT = float(np.sqrt(np.finfo(np.float64).max))


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


class StepBuffers:
    """The batch-sized arrays of a training step with up to `rows` rows:
    the hidden activations h1 and h2 and the logits that `forward` writes;
    the row maxima `shift`, exp(logits - shift), its row sums `sums` and the
    losses that `per_sample_cross_entropy` writes; and the d_logits, row
    gradients d_h1, d_h2 and ReLU masks relu1, relu2 that `backward` writes.
    `rows` is arange(rows), the row index of the label gathers. A call on n
    rows uses the first n rows of each.

    `loss_rows` is the row count of the loss pass the buffers hold: the loss
    pass sets it, and `forward` clears it to None before it writes new
    logits, so `backward` raises rather than read a softmax and losses that
    the current logits did not give."""

    def __init__(self, rows: int, model: MlpModel):
        width1, width2 = model.w1.shape[1], model.w2.shape[1]
        n_classes = model.w3.shape[1]
        self.h1, self.d_h1 = np.empty((2, rows, width1))
        self.h2, self.d_h2 = np.empty((2, rows, width2))
        self.logits, self.exp, self.d_logits = np.empty((3, rows, n_classes))
        self.shift, self.sums, self.losses = np.empty((3, rows))
        self.relu1 = np.empty((rows, width1), dtype=bool)
        self.relu2 = np.empty((rows, width2), dtype=bool)
        self.rows = np.arange(rows)
        self.loss_rows = None

    def check_rows(self, n: int) -> None:
        if n > len(self.h1):
            raise DimensionError(f"{n} rows exceed the buffers' {len(self.h1)}")


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


def forward(model: MlpModel, inputs: np.ndarray,
            buffers: StepBuffers | None = None) -> np.ndarray:
    """Logits for a batch. inputs is (B, d). With `buffers`, the post-ReLU
    activations h1 and h2, which `backward` reads, and the logits are
    written into their first B rows, and the logits returned are a view."""
    x = np.asarray(inputs, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.in_dim:
        raise DimensionError(
            f"expected inputs of shape (B, {model.in_dim}), got {x.shape}")
    n = x.shape[0]
    if buffers is None:
        # h1 is one block's scratch, reused by every block
        h1 = np.empty((min(n, BLOCK_ROWS + 1), model.w1.shape[1]))
        h2 = np.empty((n, model.w2.shape[1]))
        logits = np.empty((n, model.w3.shape[1]))
    else:
        buffers.check_rows(n)
        buffers.loss_rows = None  # the logits are about to change
        h1, h2, logits = buffers.h1[:n], buffers.h2[:n], buffers.logits[:n]
    with np.errstate(over="ignore", invalid="ignore"):  # raised just below
        start = 0
        while start < n:
            stop = start + BLOCK_ROWS
            if stop >= n - 1:  # no one-row last block (module docstring)
                stop = n
            a1 = h1[:stop - start] if buffers is None else h1[start:stop]
            _affine_relu(x[start:stop], model.w1, model.b1, out=a1)
            _affine_relu(a1, model.w2, model.b2, out=h2[start:stop])
            start = stop
        np.matmul(h2, model.w3, out=logits)
        logits += model.b3
    if not np.isfinite(logits).all():
        raise NumericError("non-finite logits in forward pass")
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


def per_sample_cross_entropy(logits: np.ndarray, labels,
                             buffers: StepBuffers) -> np.ndarray:
    """Cross-entropy of each row, via max-shifted log-sum-exp. Labels are
    integers in [0, classes); a bool is not an integer. The row maxima,
    exp(logits - max), its row sums, which `backward` turns into the
    softmax, and the losses are written into the first B rows of `buffers`,
    and the losses returned are a view."""
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels)
    if logits.ndim != 2 or labels.shape != (logits.shape[0],):
        raise DimensionError("logits must be (B, C) with one label per row")
    n, n_classes = logits.shape
    if labels.dtype.kind not in "iu":
        raise ValidationError("labels must be integers")
    if n and (np.minimum.reduce(labels) < 0 or np.maximum.reduce(labels) >= n_classes):
        raise ValidationError(f"labels must lie in [0, {n_classes})")
    buffers.check_rows(n)
    shift, sums, losses = buffers.shift[:n], buffers.sums[:n], buffers.losses[:n]
    e, rows = buffers.exp[:n], buffers.rows[:n]
    # finite logits about 3e308 apart overflow logits - max and the loss to
    # inf, which the caller's finite-loss check rejects, so no warning
    with np.errstate(over="ignore"):
        # the row maxima, exp(logits - max) and its row sums: the bits
        # `softmax` computes on its way
        np.maximum.reduce(logits, axis=1, out=shift)
        np.subtract(logits, shift[:, None], out=e)
        np.exp(e, out=e)
        np.add.reduce(e, axis=1, out=sums)
        # lse - logits[label], with lse = shift + log(sums)
        np.log(sums, out=losses)
        losses += shift
        losses -= logits[rows, labels]
    buffers.loss_rows = n
    return np.maximum(losses, 0.0, out=losses)


def backward(model: MlpModel, inputs: np.ndarray, labels, sample_mask,
             buffers: StepBuffers, out: MlpModel) -> float:
    """Writes into `out` the gradients of the MEAN cross-entropy over the
    masked subset and returns that mean. `out` has the model's shapes, so
    out.theta lines up with model.theta.

    sample_mask is an index subset of [0, B); None means all samples. The mask
    is sorted internally so the result is independent of the order the caller
    selected samples in (summation order matters bit-wise).

    `buffers` must hold this step's pass: `forward(model, inputs, buffers)`,
    then `per_sample_cross_entropy(logits, labels, buffers)`; backward raises
    DimensionError unless their loss pass, made after their last forward,
    covered all B rows. It reads the masked rows of the activations, the loss
    pass's exp and row sums (the softmax) and the losses from them: views of
    the first B rows when the mask covers every row, copies of the sorted
    mask's rows otherwise. The row gradients and ReLU masks go into the
    buffers too.
    """
    x = np.asarray(inputs, dtype=np.float64)
    labels = np.asarray(labels)
    n = x.shape[0]
    rows = slice(0, n)
    if sample_mask is not None:
        mask = np.unique(np.asarray(sample_mask, dtype=np.intp))
        if mask.size == 0:
            raise ValidationError("sample_mask must be nonempty")
        if mask[0] < 0 or mask[-1] >= n:
            raise ValidationError("sample_mask index out of range")
        if mask.size < n:  # distinct and in range: not every row
            rows = mask
    buffers.check_rows(n)
    if buffers.loss_rows != n:
        raise DimensionError(f"the buffers hold no loss pass of the {n} rows "
                             "of the batch")
    x, labels = x[rows], labels[rows]
    h1, h2, losses = buffers.h1[rows], buffers.h2[rows], buffers.losses[rows]
    m = len(losses)
    mean_loss = float(np.add.reduce(losses)) / m  # the bits of losses.mean()

    # d_logits = (softmax(logits) - onehot(labels)) / m, the softmax from the
    # loss pass's exp and row sums
    d_logits = np.divide(buffers.exp[rows], buffers.sums[rows, None],
                         out=buffers.d_logits[:m])
    # one (row, label) pair per row, so this subtracts 1.0 once from each
    np.subtract.at(d_logits, (buffers.rows[:m], labels), 1.0)
    d_logits /= m

    d_h1, d_h2 = buffers.d_h1[:m], buffers.d_h2[:m]
    # h > 0 is h_pre > 0: ReLU keeps the positive entries and zeroes the rest;
    # d *= (h > 0) gives the bits of (d_logits @ w.T) * (h > 0.0)
    np.matmul(h2.T, d_logits, out=out.w3)
    np.add.reduce(d_logits, axis=0, out=out.b3)
    np.matmul(d_logits, model.w3.T, out=d_h2)
    d_h2 *= np.greater(h2, 0.0, out=buffers.relu2[:m])
    np.matmul(h1.T, d_h2, out=out.w2)
    np.add.reduce(d_h2, axis=0, out=out.b2)
    np.matmul(d_h2, model.w2.T, out=d_h1)
    d_h1 *= np.greater(h1, 0.0, out=buffers.relu1[:m])
    np.matmul(x.T, d_h1, out=out.w1)
    np.add.reduce(d_h1, axis=0, out=out.b1)
    return mean_loss


@dataclass
class OptimizerState:
    """Adam moments, flat like MlpModel.theta (None until the first step
    makes them zero), plus hyperparameters; step counter is strictly
    increasing. `scratch` holds the two theta-sized vectors a step works in."""

    m: np.ndarray | None = None
    v: np.ndarray | None = None
    step: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    weight_decay: float = 1e-4
    eps: float = 1e-8
    scratch: np.ndarray | None = field(default=None, repr=False)


def adam_step(model: MlpModel, grads: MlpModel, state: OptimizerState,
              lr: float) -> None:
    """One bias-corrected Adam step with decoupled weight decay, in place.

    It computes m = beta1*m + (1-beta1)*g, v = beta2*v + (1-beta2)*g*g and
    p -= lr*(m_hat/(sqrt(v_hat) + eps) + weight_decay*p), with m_hat and
    v_hat the bias-corrected moments, one operation at a time in that order,
    into the moments and state.scratch: the bits of the expressions.
    """
    g = grads.theta
    if state.scratch is None:
        state.scratch = np.empty((2, g.size))
    s, u = state.scratch
    if not np.maximum.reduce(np.abs(g, out=s)) < _GRAD_LIMIT:  # False for NaN too
        raise NumericError("non-finite or overflowing gradient; step aborted")
    if state.m is None:  # 0.0*beta + x gives the bits of a scalar 0.0 start
        state.m, state.v = np.zeros((2, g.size))
    state.step += 1
    t = state.step
    m, v, p = state.m, state.v, model.theta
    m *= state.beta1
    m += np.multiply(g, 1.0 - state.beta1, out=s)
    v *= state.beta2
    np.multiply(g, 1.0 - state.beta2, out=s)
    v += np.multiply(s, g, out=s)
    np.divide(m, 1.0 - state.beta1 ** t, out=s)
    np.divide(v, 1.0 - state.beta2 ** t, out=u)
    np.sqrt(u, out=u)
    u += state.eps
    s /= u
    s += np.multiply(p, state.weight_decay, out=u)
    s *= lr
    p -= s

