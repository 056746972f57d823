"""Deterministic numerical core: a two-hidden-layer MLP classifier with
hand-derived gradients, per-sample cross-entropy, and Adam with decoupled
weight decay; the learning rate of each step is the caller's.

Training is float32: `init_model` returns float32 parameters, and the
gradients, the Adam moments and scratch and a stage's StepBuffers take the
model's dtype, so a step's products and Adam passes move half the bytes of
float64. Evaluation is float64: the harness scores a model cast up to
float64 (exact), so every score, margin and statistic keeps its float64
form. Each function computes in the dtype of the model (or buffers) it is
given, and identical seeds give bit-identical parameter trajectories.

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
their last forward, covered every row of the batch. Adam takes the folded
form of Kingma & Ba (one scalar step size, no bias-corrected moment arrays)
and updates its moments in place with two scratch vectors held by the
OptimizerState, in the operation order of its expression, so the bits are
those of fresh arrays.

Each operation along the rows of a (rows, C) array of logits, exp or
softmax makes one call per column, since NumPy would run one inner loop of
C elements per row (at B=512 and C=2 that was about 15% of a step): the
row maxima and sums (`_reduce_columns`), the shift by the maxima and the
divide by the sums (`_by_columns`), `logits += b3`, and backward's one-hot
subtract, a fancy-index `-=` that gathers each row's label entry into a
row-sized temporary and writes it back (one (row, label) pair per row, so
the bits of np.subtract.at). For fewer than 8 columns these are the bits
of np.maximum.reduce and np.add.reduce along axis 1, which take the
columns left to right (add.reduce starts from +0.0, which changes no sum
of exp values: none is -0.0); from 8 columns on, add.reduce sums in pairs.
A zero row maximum may come out with the other sign, but it never reaches
a result: x - 0.0 and x - (-0.0) differ only as +-0.0 at x = +-0.0, whose
exp is 1.0 either way, and log(sums) >= 0 absorbs it in the losses. Every
task is binary, so the exp, sums, losses and softmax keep their bits. Other sums
and maxima call the ufunc's reduce directly (np.add.reduce for a sum or a
mean) and the checks the ndarray's all/any, so no call goes through
fromnumeric's Python layers; the bits are those of the calls they replace.
What a step still allocates: vectors of B or B x classes elements (the
label gather, the one-hot subtract's temporary and the finite and NaN
checks), the decision's ranking and index arrays, a row subset's gathered
rows (in a stack, also the gathered w2 and w3 of the models that update
on row subsets), and NumPy's own iterator scratch for the hidden layers'
broadcast bias adds and the products with a boolean mask, at most 8192
elements (a whole 50 x 96 activation at the reference shape).

A stack of G models (MlpModel.stack) trains G trajectories in lockstep:
every array of a step, the model, its gradients, the Adam moments and
scratch and the StepBuffers, gets a leading axis of G, and each function
runs once on the whole stack. A stacked np.matmul makes one BLAS call per
model, with that model's shapes and strides; every other operation is
elementwise, or reduces along the batch axis in the order of a model alone
(np.add.reduce along axis -2 of (G, B, h) takes each model's rows as it
takes them along axis 0 of (B, h)); and backward sums each model's mean
loss in a call of its own. So each model's slice keeps the bits it has
alone, at about 140 instead of 240 us a step per model for ten models at
the reference shape (one BLAS thread, a 2-vCPU x86-64 host): a step of
tiny products costs its calls, which the stack shares. A failed check
raises for the whole stack.

Each model of a stack updates on its own rows: `backward` takes one mask
per model. When every model takes its whole batch it reads views of the
buffers, as one model does, and gathers nothing. Otherwise it groups the
models by update size (at most two groups a step, since every model of a
stack has the same threshold: B and K in stage 1, K and K' in stage 2) and
runs its operations once per group on (models, rows, ...) copies of the
group's rows, indexed on the model and row axes at once. Those copies are
C-contiguous, so each model's slice has the shape and strides of the rows
a lone model gathers, and each per-model BLAS call is the lone call. A
group's gradients go into the first models of a stack-sized scratch that
the stack's StepBuffers hold and are copied into the stack's gradients by
model, so a step of mixed branches takes the bits of each model alone. A
stage-1 step of ten models takes about 110 us per model at the reference
shape, against 167 us alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .exceptions import DimensionError, NumericError, ValidationError

PARAM_NAMES = ("w1", "b1", "w2", "b2", "w3", "b3")
# the dtype of every trained parameter, gradient and optimizer array
TRAIN_DTYPE = np.dtype(np.float32)
# rows per block of the hidden layers in `forward`: a 256 x 96 float64 block
# is 192 KiB
BLOCK_ROWS = 256
# adam_step takes gradient entries below this size only: the square of
# each, in the second moment, must stay finite in the training dtype
_GRAD_LIMIT = float(np.sqrt(np.finfo(TRAIN_DTYPE).max))


@dataclass
class MlpModel:
    """input -> hidden1 (ReLU) -> hidden2 (ReLU) -> logits.

    Weights are stored (fan_in, fan_out); biases are 1-D. All six arrays are
    views into one contiguous vector `theta`, packed in PARAM_NAMES order;
    gradients and the Adam moments share that flat layout. Its dtype is the
    arrays' common float type: float32 as `init_model` makes it and training
    keeps it, float64 as the harness casts it up for scoring.

    A stack of G models of one shape (`stack`) gives each array one leading
    axis of G: theta is (G, P), one row per model, w1 is (G, in, hidden) and
    b1 is (G, hidden). Every function of this module takes a stack where it
    takes a model, with inputs, labels and buffers that carry the same
    leading axis, and computes each model's slice in the bits it computes
    for that model alone (module docstring).
    """

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    w3: np.ndarray
    b3: np.ndarray
    theta: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        lead = self.w1.shape[:-2]
        if len(lead) > 1:
            raise DimensionError("a stack has one leading axis")
        if self.w1.shape[-1] != self.w2.shape[-2] or self.w2.shape[-1] != self.w3.shape[-2]:
            raise DimensionError("layer shapes do not chain")
        for w, b in ((self.w1, self.b1), (self.w2, self.b2), (self.w3, self.b3)):
            if w.shape[:-2] != lead or b.shape != (*lead, w.shape[-1]):
                raise DimensionError("bias shape does not match weight fan-out")
        arrays = [getattr(self, name) for name in PARAM_NAMES]
        self.theta = np.concatenate([a.reshape(*lead, -1) for a in arrays], axis=-1,
                                    dtype=np.result_type(*arrays, np.float32))
        offset = 0
        for name, a in zip(PARAM_NAMES, arrays):
            size = math.prod(a.shape[len(lead):])
            setattr(self, name, self.theta[..., offset:offset + size].reshape(a.shape))
            offset += size

    @classmethod
    def stack(cls, models) -> "MlpModel":
        """The models, of one shape, as a stack in their order (a copy)."""
        return cls(*(np.stack([getattr(m, name) for m in models]) for name in PARAM_NAMES))

    def take(self, index) -> "MlpModel":
        """Model `index` of a stack as a model of its own, or, for a list of
        positions, those models as a stack; a copy either way."""
        if self.theta.ndim != 2:
            raise DimensionError("take needs a stack of models")
        return MlpModel(*(getattr(self, name)[index] for name in PARAM_NAMES))

    @property
    def in_dim(self) -> int:
        return self.w1.shape[-2]

    def copy(self) -> "MlpModel":
        return MlpModel(*(getattr(self, name) for name in PARAM_NAMES))

    def astype(self, dtype) -> "MlpModel":
        """The model in `dtype`: itself when it is in `dtype` already, else a
        copy; float32 to float64 is exact."""
        if self.theta.dtype == dtype:
            return self
        return MlpModel(*(getattr(self, name).astype(dtype) for name in PARAM_NAMES))


class StepBuffers:
    """The batch-sized arrays of a training step with up to `rows` rows:
    the hidden activations h1 and h2 and the logits that `forward` writes;
    the row maxima `shift`, exp(logits - shift), its row sums `sums` and the
    losses that `per_sample_cross_entropy` writes; and the d_logits, row
    gradients d_h1, d_h2 and ReLU masks relu1, relu2 that `backward` writes.
    `rows` is arange(rows), the row index of the label gathers, and `stack`
    the index of each row's model that precedes it there: () for one model,
    a (G, 1) column for a stack of G, whose buffers carry its leading axis.
    A call on n rows uses the first n rows of each. A stack's buffers also
    hold `grads`, gradients of the stack's shape into whose first models
    `backward` writes a group of models that update on row subsets; None
    for one model.

    `loss_rows` is the row count of the loss pass the buffers hold: the loss
    pass sets it, and `forward` clears it to None before it writes new
    logits, so `backward` raises rather than read a softmax and losses that
    the current logits did not give."""

    def __init__(self, rows: int, model: MlpModel):
        lead = model.theta.shape[:-1]
        width1, width2 = model.w1.shape[-1], model.w2.shape[-1]
        n_classes, dtype = model.w3.shape[-1], model.theta.dtype
        self.h1, self.d_h1 = np.empty((2, *lead, rows, width1), dtype=dtype)
        self.h2, self.d_h2 = np.empty((2, *lead, rows, width2), dtype=dtype)
        self.logits, self.exp, self.d_logits = np.empty((3, *lead, rows, n_classes),
                                                        dtype=dtype)
        self.shift, self.sums, self.losses = np.empty((3, *lead, rows), dtype=dtype)
        self.relu1 = np.empty((*lead, rows, width1), dtype=bool)
        self.relu2 = np.empty((*lead, rows, width2), dtype=bool)
        self.rows = np.arange(rows)
        self.stack = tuple(np.arange(g).reshape(g, 1) for g in lead)
        self.grads = model.copy() if lead else None
        self.loss_rows = None

    def check_rows(self, n: int, lead: tuple = ()) -> None:
        """Raises DimensionError unless n rows, of a stack of leading shape
        `lead` (() for one model), fit the buffers."""
        if lead != self.losses.shape[:-1]:
            raise DimensionError(f"a stack of shape {lead} does not match the "
                                 f"buffers' {self.losses.shape[:-1]}")
        if n > self.losses.shape[-1]:
            raise DimensionError(f"{n} rows exceed the buffers' {self.losses.shape[-1]}")


def init_model(in_dim: int, hidden: int, n_classes: int, seed: int) -> MlpModel:
    """He-uniform fan-in initialization for weights, zero biases; float64
    draws rounded to TRAIN_DTYPE."""
    if in_dim < 1 or hidden < 1 or n_classes < 2:
        raise ValidationError("in_dim and hidden must be >= 1, n_classes >= 2")
    rng = np.random.default_rng(seed)

    def he(fan_in, fan_out):
        limit = np.sqrt(6.0 / fan_in)
        return rng.uniform(-limit, limit, size=(fan_in, fan_out)).astype(TRAIN_DTYPE)

    return MlpModel(
        he(in_dim, hidden), np.zeros(hidden, TRAIN_DTYPE),
        he(hidden, hidden), np.zeros(hidden, TRAIN_DTYPE),
        he(hidden, n_classes), np.zeros(n_classes, TRAIN_DTYPE),
    )


def forward(model: MlpModel, inputs: np.ndarray,
            buffers: StepBuffers | None = None) -> np.ndarray:
    """Logits for a batch, in the model's dtype. inputs is (B, d), or
    (G, B, d) for a stack of G. With `buffers`, the post-ReLU activations h1
    and h2, which `backward` reads, and the logits are written into their
    first B rows, and the logits returned are a view. Non-finite logits are
    a NumericError."""
    dtype, lead = model.theta.dtype, model.theta.shape[:-1]
    x = np.asarray(inputs, dtype=dtype)
    if x.ndim != len(lead) + 2 or x.shape[:-2] != lead or x.shape[-1] != model.in_dim:
        shape = ", ".join(map(str, (*lead, "B", model.in_dim)))
        raise DimensionError(f"expected inputs of shape ({shape}), got {x.shape}")
    n = x.shape[-2]
    if buffers is None:
        # h1 is one block's scratch, reused by every block
        h1 = np.empty((*lead, min(n, BLOCK_ROWS + 1), model.w1.shape[-1]), dtype)
        h2 = np.empty((*lead, n, model.w2.shape[-1]), dtype)
        logits = np.empty((*lead, n, model.w3.shape[-1]), dtype)
    else:
        buffers.check_rows(n, lead)
        buffers.loss_rows = None  # the logits are about to change
        h1, h2 = buffers.h1[..., :n, :], buffers.h2[..., :n, :]
        logits = buffers.logits[..., :n, :]
    with np.errstate(over="ignore", invalid="ignore"):  # raised just below
        start = 0
        while start < n:
            stop = start + BLOCK_ROWS
            if stop >= n - 1:  # no one-row last block (module docstring)
                stop = n
            a1 = h1[..., :stop - start, :] if buffers is None else h1[..., start:stop, :]
            _affine_relu(x[..., start:stop, :], model.w1, model.b1, out=a1)
            _affine_relu(a1, model.w2, model.b2, out=h2[..., start:stop, :])
            start = stop
        np.matmul(h2, model.w3, out=logits)
        for j in range(logits.shape[-1]):  # logits += b3, by column
            logits[..., j] += model.b3[..., j, None]
    if not np.isfinite(logits).all():
        raise NumericError("non-finite logits in forward pass")
    return logits


def _affine_relu(x: np.ndarray, w: np.ndarray, b: np.ndarray,
                 out: np.ndarray) -> None:
    """out = max(x @ w + b, 0), in the bits of that expression."""
    np.matmul(x, w, out=out)
    out += b[..., None, :]
    np.maximum(out, 0.0, out=out)


def _reduce_columns(ufunc, a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """ufunc.reduce(a, axis=1, out=out) of a (rows, C >= 2) array, one call
    per column: the reduce's bits for C < 8 (module docstring)."""
    ufunc(a[..., 0], a[..., 1], out=out)
    for j in range(2, a.shape[-1]):
        ufunc(out, a[..., j], out=out)
    return out


def _by_columns(ufunc, a: np.ndarray, v: np.ndarray, out: np.ndarray) -> np.ndarray:
    """ufunc(a, v[..., None], out=out), one call per column of `a`."""
    for j in range(a.shape[-1]):
        ufunc(a[..., j], v, out=out[..., j])
    return out


def softmax(logits: np.ndarray) -> np.ndarray:
    """Each row's softmax of a (..., rows, C >= 2) array, max-shifted."""
    e = np.empty_like(logits)
    per_row = np.empty_like(logits, shape=logits.shape[:-1])
    _by_columns(np.subtract, logits, _reduce_columns(np.maximum, logits, per_row), e)
    np.exp(e, out=e)
    return _by_columns(np.divide, e, _reduce_columns(np.add, e, per_row), e)


def per_sample_cross_entropy(logits: np.ndarray, labels,
                             buffers: StepBuffers) -> np.ndarray:
    """Cross-entropy of each row, via max-shifted log-sum-exp. Labels are
    integers in [0, classes), one per row, (G, B) for the (G, B, C) logits
    of a stack; a bool is not an integer. The row maxima, exp(logits - max),
    its row sums, which `backward` turns into the softmax, and the losses
    are written into the first B rows of `buffers`, and the losses returned
    are a view, in the buffers' dtype."""
    logits = np.asarray(logits, dtype=buffers.losses.dtype)
    labels = np.asarray(labels)
    if logits.ndim < 2 or logits.shape[-1] < 2 or labels.shape != logits.shape[:-1]:
        raise DimensionError("logits must be (B, C >= 2) with one label per row")
    n, n_classes = logits.shape[-2:]
    if labels.dtype.kind not in "iu":
        raise ValidationError("labels must be integers")
    if labels.size and (np.minimum.reduce(labels, axis=None) < 0
                        or np.maximum.reduce(labels, axis=None) >= n_classes):
        raise ValidationError(f"labels must lie in [0, {n_classes})")
    buffers.check_rows(n, logits.shape[:-2])
    shift, sums = buffers.shift[..., :n], buffers.sums[..., :n]
    losses, e = buffers.losses[..., :n], buffers.exp[..., :n, :]
    # finite logits further apart than the dtype's largest float overflow
    # logits - max and the loss to inf, which the caller's finite-loss check
    # rejects, so no warning
    with np.errstate(over="ignore"):
        # the row maxima, exp(logits - max) and its row sums: the bits
        # `softmax` computes on its way
        _reduce_columns(np.maximum, logits, shift)
        _by_columns(np.subtract, logits, shift, e)
        np.exp(e, out=e)
        _reduce_columns(np.add, e, sums)
        # lse - logits[label], with lse = shift + log(sums)
        np.log(sums, out=losses)
        losses += shift
        losses -= logits[(*buffers.stack, buffers.rows[:n], labels)]
    buffers.loss_rows = n
    return np.maximum(losses, 0.0, out=losses)


def _mask_rows(sample_mask, n: int) -> np.ndarray | None:
    """The sorted distinct rows of an index mask of a batch of n rows, or
    None for the whole batch: a mask of None or of every row. A mask that is
    not one-dimensional (a stack's per-model list read as one mask, or one
    index read as a mask), is empty, has a dtype that is not an integer (a
    bool or float mask would be cast to other rows) or an index outside
    [0, n) is a ValidationError."""
    if sample_mask is None:
        return None
    mask = np.asarray(sample_mask)
    if mask.ndim != 1:
        raise ValidationError(f"sample_mask must be one-dimensional, got shape "
                              f"{mask.shape}")
    if mask.size == 0:
        raise ValidationError("sample_mask must be nonempty")
    if mask.dtype.kind not in "iu":
        raise ValidationError(f"sample_mask must hold integer indices, got {mask.dtype}")
    mask = np.unique(mask)
    if mask[0] < 0 or mask[-1] >= n:
        raise ValidationError("sample_mask index out of range")
    return mask if mask.size < n else None


def backward(model: MlpModel, inputs: np.ndarray, labels, sample_mask,
             buffers: StepBuffers, out: MlpModel) -> float | list:
    """Writes into `out` the gradients of the MEAN cross-entropy over the
    masked subset and returns that mean; for a stack, each model's gradients
    and a list of their means. `out` has the model's shapes, so out.theta
    lines up with model.theta.

    sample_mask is an index subset of [0, B) of integer dtype; None means all
    samples. The mask is sorted internally so the result is independent of
    the order the caller selected samples in (summation order matters
    bit-wise). For a stack it is None, every model's whole batch, or a
    sequence of one mask per model, each an index subset or None for that
    model's whole batch.

    `buffers` must hold this step's pass: `forward(model, inputs, buffers)`,
    then `per_sample_cross_entropy(logits, labels, buffers)`; backward raises
    DimensionError unless their loss pass, made after their last forward,
    covered all B rows. It reads the masked rows of the activations, the loss
    pass's exp and row sums (the softmax) and the losses from them: views of
    the first B rows when the mask covers every row, copies of the sorted
    mask's rows otherwise. A stack whose models all take the whole batch
    reads views too; otherwise its models go in groups of one update size,
    and each group's rows are gathered into (models, rows, ...) copies whose
    model slices are laid out as one model's copies, differentiated in one
    pass per group into the buffers' gradient scratch and scattered into
    `out` by model (module docstring). The row gradients and ReLU masks go
    into the buffers too. The gradients are in the model's dtype; the mean
    loss is summed in float64, as the decisions sum the losses they rank.
    """
    x = np.asarray(inputs, dtype=model.theta.dtype)
    labels = np.asarray(labels)
    n = x.shape[-2]
    lone = model.theta.ndim == 1
    if lone or sample_mask is None:
        rows = [_mask_rows(sample_mask, n)]
    else:
        if len(sample_mask) != len(x):
            raise ValidationError(f"a stack of {len(x)} models takes one sample_mask "
                                  f"per model, got {len(sample_mask)}")
        rows = [_mask_rows(mask, n) for mask in sample_mask]
    buffers.check_rows(n, x.shape[:-2])
    if buffers.loss_rows != n:
        raise DimensionError(f"the buffers hold no loss pass of the {n} rows "
                             "of the batch")
    if lone or all(r is None for r in rows):
        # one model, or a stack whose every model takes the whole batch
        lead = () if lone else (slice(None),)
        at = (*lead, slice(0, n) if rows[0] is None else rows[0])
        return _differentiate(model.w2, model.w3, x, labels, at, lead, buffers.stack,
                              buffers, out)

    # one pass per update size, on the group's rows gathered on the model and
    # row axes at once: C-contiguous, each model's as its lone gather lays
    # them out, so each per-model BLAS call is the lone call
    sizes = [n if r is None else len(r) for r in rows]
    mean_loss = [0.0] * len(rows)
    scratch = buffers.grads
    for m in dict.fromkeys(sizes):
        group = [j for j, size in enumerate(sizes) if size == m]
        g = np.array(group)
        at = (g[:, None], np.array([buffers.rows[:n] if rows[j] is None else rows[j]
                                    for j in group]))
        cut = (slice(0, len(group)),)
        means = _differentiate(model.w2[g], model.w3[g], x, labels, at, cut,
                               (buffers.stack[0][cut],), buffers,
                               SimpleNamespace(**{name: getattr(scratch, name)[cut]
                                                  for name in PARAM_NAMES}))
        out.theta[g] = scratch.theta[cut]
        for j, mean in zip(group, means):
            mean_loss[j] = mean
    return mean_loss


def _differentiate(w2, w3, x, labels, at: tuple, cut: tuple, stack: tuple,
                   buffers: StepBuffers, out) -> float | list:
    """backward's pass on the rows that `at` indexes in the batch `x`,
    `labels` and the buffers, with the weights w2 and w3 of their models.
    The row gradients go into the first rows of the buffers' models that
    `cut` indexes, the label gathers index with `stack`, and the gradients
    go into `out`'s arrays w1 ... b3. Returns the mean loss, or a list of
    each model's."""
    x, labels = x[at], labels[at]
    h1, h2 = buffers.h1[at], buffers.h2[at]
    losses = buffers.losses[at]
    m = losses.shape[-1]
    # the bits of losses.mean(dtype=np.float64), which cannot overflow; a
    # stack's one model at a time, each a call on its own row of losses
    if losses.ndim == 1:
        mean_loss = float(np.add.reduce(losses, dtype=np.float64)) / m
    else:
        mean_loss = [float(np.add.reduce(row, dtype=np.float64)) / m for row in losses]

    head = (*cut, slice(0, m))
    # d_logits = (softmax(logits) - onehot(labels)) / m, the softmax from the
    # loss pass's exp and row sums
    d_logits = _by_columns(np.divide, buffers.exp[at], buffers.sums[at],
                           buffers.d_logits[head])
    # one (row, label) pair per row, so this subtracts 1.0 once from each
    d_logits[(*stack, buffers.rows[:m], labels)] -= 1.0
    d_logits /= m

    d_h1, d_h2 = buffers.d_h1[head], buffers.d_h2[head]
    # h > 0 is h_pre > 0: ReLU keeps the positive entries and zeroes the rest;
    # d *= (h > 0) gives the bits of (d_logits @ w.T) * (h > 0.0); .mT is
    # .T of a matrix, and of each matrix of a stack. Finite activations near
    # the dtype's largest may overflow a gradient to inf (and inf * 0 to
    # NaN), which adam_step rejects, so no warning
    with np.errstate(over="ignore", invalid="ignore"):
        np.matmul(h2.mT, d_logits, out=out.w3)
        np.add.reduce(d_logits, axis=-2, out=out.b3)
        np.matmul(d_logits, w3.mT, out=d_h2)
        d_h2 *= np.greater(h2, 0.0, out=buffers.relu2[head])
        np.matmul(h1.mT, d_h2, out=out.w2)
        np.add.reduce(d_h2, axis=-2, out=out.b2)
        np.matmul(d_h2, w2.mT, out=d_h1)
        d_h1 *= np.greater(h1, 0.0, out=buffers.relu1[head])
        np.matmul(x.mT, d_h1, out=out.w1)
        np.add.reduce(d_h1, axis=-2, out=out.b1)
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
    """One Adam step with decoupled weight decay, in place, in the folded
    form of Kingma & Ba (ICLR 2015, end of section 2).

    It computes m = beta1*m + (1-beta1)*g, v = beta2*v + (1-beta2)*g*g and
    p -= m/(sqrt(v) + eps_t)*step_size + (lr*weight_decay)*p with the scalars
    step_size = lr*sqrt(1-beta2^t)/(1-beta1^t) and eps_t = eps*sqrt(1-beta2^t),
    which is lr*(m_hat/(sqrt(v_hat) + eps) + weight_decay*p) of the
    bias-corrected moments m_hat and v_hat without making them. It works one
    operation at a time in that order, into the moments and state.scratch, in
    the model's dtype: the bits of the expressions. A gradient entry at or
    past the limit, or NaN, is a NumericError before anything changes. A
    step that overflows leaves a non-finite p, which the caller rejects:
    run_stage's next forward pass, or its check at the end of each epoch.
    """
    g = grads.theta
    if state.scratch is None:
        state.scratch = np.empty((2, *g.shape), g.dtype)
    s, u = state.scratch
    if not np.maximum.reduce(np.abs(g, out=s), axis=None) < _GRAD_LIMIT:  # False for NaN too
        raise NumericError("non-finite or overflowing gradient; step aborted")
    if state.m is None:  # 0.0*beta + x gives the bits of a scalar 0.0 start
        state.m, state.v = np.zeros((2, *g.shape), g.dtype)
    state.step += 1
    t = state.step
    # Python floats, which take the arrays' dtype in each operation
    lr, root = float(lr), math.sqrt(1.0 - state.beta2 ** t)
    step_size = lr * root / (1.0 - state.beta1 ** t)
    m, v, p = state.m, state.v, model.theta
    with np.errstate(over="ignore", invalid="ignore"):
        m *= state.beta1
        m += np.multiply(g, 1.0 - state.beta1, out=s)
        v *= state.beta2
        np.multiply(g, 1.0 - state.beta2, out=s)
        v += np.multiply(s, g, out=s)
        np.sqrt(v, out=u)
        u += state.eps * root
        np.divide(m, u, out=s)
        s *= step_size
        s += np.multiply(p, lr * state.weight_decay, out=u)
        p -= s
