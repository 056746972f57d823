"""Dual-stage hardness-aware curriculum fine-tuning.

Stage 1 ("easy-to-hard") updates on the top-K highest-loss samples of a
mini-batch whenever their loss sum exceeds an adaptive fraction of the total
batch loss; otherwise it updates on the whole batch. Stage 2
("hard-to-very-hard") starts from the stage-1 parameters and applies the same
gate one level down: top-K' within top-K, compared against the top-K sum.

The gating fraction decays linearly from a+b to b over each epoch, so early
iterations of an epoch favour broad updates and late iterations favour hard
ones.

Plain fine-tuning and both stages share one training loop; they differ only
in the decision function it calls once per mini-batch. Each stage's
hyperparameters are one TrainConfig (epochs, lr schedule, batch size), or one
CurriculumTrainConfig (plus alpha, a and b), which checks its own values.
The loop also trains a stack of trajectories in lockstep, one numcore stack
in which each trajectory's update takes its own rows, as the harness
pretrains and trains the baseline and stage 1: each trajectory keeps the
bits it has alone. A stack that fails runs each trajectory again alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from decimal import Decimal

import numpy as np

from . import numcore
from .exceptions import NumericError, ValidationError
from .numcore import MlpModel, OptimizerState

TOP_K_BRANCH = "top_k"
TOTAL_BRANCH = "total"
TOP_K_PRIME_BRANCH = "top_k_prime"


@dataclass(frozen=True)
class TrainConfig:
    """One training section: epochs of mini-batches of batch_size samples,
    with the learning rate decayed by gamma at each epoch in milestones."""

    epochs: int
    lr: float
    milestones: tuple = ()
    gamma: float = 0.1
    batch_size: int = 64

    def __post_init__(self):
        ms = tuple(self.milestones)
        object.__setattr__(self, "milestones", ms)
        if any(isinstance(m, bool) or not isinstance(m, int) or m < 0 for m in ms):
            raise ValidationError(
                f"milestones must be non-negative integer epochs, got {list(ms)}")
        if any(ms[i] >= ms[i + 1] for i in range(len(ms) - 1)):
            raise ValidationError("milestones must be strictly increasing")
        if not (0.0 < self.gamma <= 1.0):
            raise ValidationError("gamma must be in (0, 1]")
        if self.lr < 0.0:
            raise ValidationError("lr must be >= 0")
        if self.epochs < 0 or self.batch_size < 1:
            raise ValidationError(f"need epochs >= 0 and batch_size >= 1; got "
                                  f"{self.epochs}, {self.batch_size}")

    def lr_at(self, epoch: int) -> float:
        """Multi-step decay: lr * gamma^(milestones passed)."""
        if epoch < 0:
            raise ValidationError("epoch must be >= 0")
        passed = sum(1 for m in self.milestones if epoch >= m)
        return self.lr * self.gamma ** passed


@dataclass(frozen=True)
class CurriculumTrainConfig(TrainConfig):
    """A curriculum stage: K = floor(alpha * batch_size) hard samples per
    batch, at least one, and the gating threshold a*(1 - t/T) + b of
    `threshold`."""

    alpha: float = 0.10
    a: float = 0.7
    b: float = 0.2

    def __post_init__(self):
        super().__post_init__()
        if not (0.0 < self.alpha <= 1.0):
            raise ValidationError("alpha must be in (0, 1]")
        if not (self.a > self.b > 0.0):
            raise ValidationError("require a > b > 0")
        if self.a + self.b > 1.0:
            raise ValidationError("a + b must be <= 1 (threshold is a loss fraction)")

    @property
    def top_k(self) -> int:
        # the floor of the decimal product: in floats, 0.29 * 100 is
        # 28.999999999999996
        return max(1, int(Decimal(repr(float(self.alpha))) * self.batch_size))


def threshold(t: int, T: int, a: float, b: float) -> float:
    """Gating fraction at iteration t of T; a+b at t=0 decaying linearly to b
    at t=T. T is the number of batches an epoch actually runs."""
    if T < 1:
        raise ValidationError("T must be >= 1")
    if not (0 <= t <= T):
        raise ValidationError(f"iteration t={t} outside [0, {T}]")
    return a * (1.0 - t / T) + b


def rank_by_loss(losses) -> np.ndarray:
    """Indices sorted by loss descending; ties keep original index order."""
    losses = np.asarray(losses, dtype=np.float64)
    if losses.size < 1:
        raise ValidationError("need at least one loss")
    if np.isnan(losses).any():
        raise NumericError("NaN loss in ranking")
    return np.negative(losses).argsort(kind="stable")


@dataclass
class BatchHardness:
    """Per-batch loss ranking and the nested hard-sample sets."""

    order: np.ndarray
    top_k: np.ndarray
    top_k_prime: np.ndarray | None
    loss_total: float
    loss_k: float
    loss_k_prime: float | None

    @classmethod
    def from_losses(cls, losses, k: int,
                    thres: float | None = None) -> "BatchHardness":
        """Top-K = the k highest losses; pass thres to also form the stage-2
        top-K' set, the first max(1, floor(thres * K)) entries of top-K."""
        losses = np.asarray(losses, dtype=np.float64)
        order = rank_by_loss(losses)
        top_k = order[:k]
        top_k_prime = loss_k_prime = None
        if thres is not None:
            top_k_prime = top_k[:max(1, int(thres * len(top_k)))]
            loss_k_prime = float(np.add.reduce(losses[top_k_prime]))
        return cls(
            order=order,
            top_k=top_k,
            top_k_prime=top_k_prime,
            loss_total=float(np.add.reduce(losses)),
            loss_k=float(np.add.reduce(losses[top_k])),
            loss_k_prime=loss_k_prime,
        )


@dataclass(frozen=True)
class UpdateDecision:
    """Which samples of a batch one update uses.

    mask is an index subset of the batch, or None for the whole batch;
    lhs > rhs is the gate comparison behind the branch (None without a gate).
    """

    branch: str
    mask: np.ndarray | None
    k: int
    k_prime: int | None
    lhs: float | None
    rhs: float | None


def decide_update_stage1(losses, thres: float, k: int) -> UpdateDecision:
    """Top-K iff the top-K loss sum exceeds thres times the batch total,
    otherwise the whole batch."""
    h = BatchHardness.from_losses(losses, k)
    lhs, rhs = h.loss_k, thres * h.loss_total
    if lhs > rhs:
        return UpdateDecision(TOP_K_BRANCH, h.top_k, len(h.top_k), None, lhs, rhs)
    return UpdateDecision(TOTAL_BRANCH, None, len(h.top_k), None, lhs, rhs)


def decide_update_stage2(losses, thres: float, k: int) -> UpdateDecision:
    """Top-K' iff the top-K' loss sum exceeds thres times the top-K sum,
    otherwise top-K."""
    h = BatchHardness.from_losses(losses, k, thres=thres)
    lhs, rhs = h.loss_k_prime, thres * h.loss_k
    k, k_prime = len(h.top_k), len(h.top_k_prime)
    if lhs > rhs:
        return UpdateDecision(TOP_K_PRIME_BRANCH, h.top_k_prime, k, k_prime, lhs, rhs)
    return UpdateDecision(TOP_K_BRANCH, h.top_k, k, k_prime, lhs, rhs)


def _decide_whole_batch(losses, thres: float, k: int) -> UpdateDecision:
    """Plain fine-tuning: every update uses the whole batch."""
    return UpdateDecision(TOTAL_BRANCH, None, len(losses), None, None, None)


@dataclass
class IterationRecord:
    epoch: int
    t: int
    thres: float
    k: int
    k_prime: int | None
    branch: str
    mean_loss: float
    lr: float


@dataclass
class StageReport:
    """Per-iteration log of one curriculum (or plain) fine-tuning stage."""

    records: list = field(default_factory=list)
    # epoch whose parameters were kept under selection; None when the stage
    # ran without a `select` score (the final epoch is returned)
    best_epoch: int | None = None


def training_features(features) -> np.ndarray:
    """`features` in numcore.TRAIN_DTYPE: the array itself if it is already,
    else a cast copy, made once per array. A finite feature beyond float32's
    range is a NumericError; a NaN or infinity casts quietly, and the first
    forward of a stage rejects it."""
    try:
        with np.errstate(over="raise", invalid="ignore"):
            return np.asarray(features).astype(numcore.TRAIN_DTYPE, copy=False)
    except FloatingPointError:
        raise NumericError(f"features overflow {numcore.TRAIN_DTYPE}; "
                           "stage not run") from None


def run_stage(model: MlpModel, features, labels, config: TrainConfig,
              decide, seed, select=None):
    """Run one training stage from the given parameters: the loop behind
    plain, stage-1 and stage-2 fine-tuning.

    `decide` is `decide_update_stage1` (returns theta_1),
    `decide_update_stage2` (run from theta_1, returns theta_2) or the
    whole-batch decision of plain fine-tuning. Each iteration hands the batch's
    per-sample losses, the threshold and K to `decide(losses, thres, k)` and
    updates on the samples the returned decision selects. Every caller draws
    identical epoch shuffles from the same seed, so runs differ only in which
    samples each update touches. A NumericError raised anywhere in an
    iteration is re-raised with its epoch, iteration and shuffle seed.

    Plain fine-tuning has no gate, but its curve rows carry a threshold
    column like every other strategy's: a TrainConfig `config` runs as alpha
    1.0 with the fixed (a, b) = (0.7, 0.2) schedule, so plain rows in
    report.json and curves.tsv stay byte-comparable across versions.

    The model trains in numcore.TRAIN_DTYPE, float32, and a model of another
    dtype is a ValidationError. The features go through training_features,
    which copies nothing when they are float32 already.

    Returns the trained parameters and the per-iteration report; the input
    model is not mutated. When `select` is given, a function from a model to
    its score, the parameters kept are those of the epoch that scores
    highest (earliest epoch on ties); otherwise the final-epoch parameters
    are returned.

    A list `seed` trains a stack of trajectories in lockstep, one per seed:
    `model`, `features` and `labels` are then lists too, one entry each, and
    the trajectories share `config`, `decide` and `select`. Their training
    sets must have one shape and one label dtype. They train as one
    numcore stack (numcore.MlpModel.stack): each step gathers every
    trajectory's batch from its own features, `decide` runs on each
    trajectory's losses, and forward, the loss pass, backward (handed one
    mask per trajectory, so each updates on the rows its decision selects)
    and adam_step run once on the whole stack, which gives each trajectory
    the bits it gets alone. The call returns a list with each trajectory's
    (model, report), or the NumericError that ended it: a NumericError
    anywhere in the stack, the features' cast included, ends the whole
    stack, and then each trajectory runs again alone, so each gets the
    bits, curve or error it gets alone (a shared `select` may so be called
    again for an epoch it scored already). A stack of one is not run
    again: its error is the one it gets alone.
    """
    if not isinstance(seed, list):
        return _lockstep([model], [features], [labels], config, decide, [seed],
                         select)[0]
    try:
        return _lockstep(model, features, labels, config, decide, seed, select)
    except NumericError as exc:
        if len(seed) == 1:
            return [exc]
    # the stack's exception, and with it the stack's arrays, is gone here
    results = []
    for m, f, y, s in zip(model, features, labels, seed):
        try:
            results.append(run_stage(m, f, y, config, decide, s, select))
        except NumericError as exc:
            results.append(exc)
    return results


def _lockstep(model: list, features: list, labels: list, config: TrainConfig,
              decide, seed: list, select) -> list:
    """run_stage's loop on lists of trajectories, one entry each, trained as
    one stack (one model's arrays for one trajectory). Returns each
    trajectory's (model, report), or raises the stack's first NumericError,
    named with the first trajectory's shuffle seed: the message a lone run
    shows."""
    if not len(model) == len(features) == len(labels) == len(seed) > 0:
        raise ValidationError("a stack needs one model, feature set, label set "
                              "and seed per trajectory")
    if not isinstance(config, CurriculumTrainConfig):
        config = CurriculumTrainConfig(**vars(config), alpha=1.0, a=0.7, b=0.2)
    for m in model:
        if m.theta.dtype != numcore.TRAIN_DTYPE:
            raise ValidationError(f"a stage trains {numcore.TRAIN_DTYPE} parameters, "
                                  f"got {m.theta.dtype}")
    labels = [np.asarray(y) for y in labels]
    if any(np.shape(f) != np.shape(features[0]) or y.dtype != labels[0].dtype
           for f, y in zip(features, labels)):
        raise ValidationError("a stack's training sets must have one shape and "
                              "one label dtype")
    features = [training_features(f) for f in features]
    n, batch_size = features[0].shape[0], config.batch_size
    # short trailing batches are dropped so K is constant
    n_batches = n // batch_size
    if n_batches < 1:
        raise ValidationError(
            f"dataset of {n} samples yields no full batch of size {batch_size}")

    # One trajectory trains in the arrays of one model, which skip the
    # stack's indexing, several in a stack's; by_trajectory views either
    # kind of array with one row per trajectory.
    one = len(seed) == 1
    stack = model[0].copy() if one else MlpModel.stack(model)
    state = OptimizerState()

    def by_trajectory(a: np.ndarray) -> np.ndarray:
        return a[None] if one else a

    def trajectory(i: int) -> MlpModel:
        """The model of trajectory i, a copy."""
        return stack.copy() if one else stack.take(i)

    # the batch x and y, which each step gathers, and the buffers that
    # forward, the loss pass, backward and adam_step write; backward reads
    # the ranking pass's activations, softmax and losses of the rows it
    # updates on from them
    lead = stack.theta.shape[:-1]
    x = np.empty((*lead, batch_size, *features[0].shape[1:]), features[0].dtype)
    y = np.empty((*lead, batch_size), labels[0].dtype)
    buffers, grads = numcore.StepBuffers(batch_size, stack), stack.copy()
    k = config.top_k
    thresholds = [threshold(t, n_batches, config.a, config.b)
                  for t in range(1, n_batches + 1)]
    rngs = [np.random.default_rng(s) for s in seed]
    reports = [StageReport() for _ in seed]
    best_models, best_scores = [None] * len(seed), [-1.0] * len(seed)
    if select is not None:
        # The incoming parameters compete too: epoch -1 means the stage kept
        # its initial model because no epoch improved its score.
        for i, m in enumerate(model):
            best_models[i], best_scores[i] = m.copy(), select(m)
            reports[i].best_epoch = -1

    for epoch in range(config.epochs):
        lr = config.lr_at(epoch)
        perms = [rng.permutation(n) for rng in rngs]
        for t, thres in enumerate(thresholds, start=1):
            batch = slice((t - 1) * batch_size, t * batch_size)
            for perm, f, y_all, x_i, y_i in zip(perms, features, labels,
                                                by_trajectory(x), by_trajectory(y)):
                idx = perm[batch]
                # mode="clip" (idx is in range) lets take write straight
                # into out
                f.take(idx, axis=0, out=x_i, mode="clip")
                y_all.take(idx, out=y_i, mode="clip")
            try:
                logits = numcore.forward(stack, x, buffers)
                losses = numcore.per_sample_cross_entropy(logits, y, buffers)
                if not np.isfinite(losses).all():
                    raise NumericError("non-finite loss")
                decisions = [decide(row, thres, k) for row in by_trajectory(losses)]
                mask = decisions[0].mask if one else [d.mask for d in decisions]
                mean_losses = numcore.backward(stack, x, y, mask, buffers, grads)
                numcore.adam_step(stack, grads, state, lr)
            except NumericError as exc:
                raise NumericError(f"{exc} at epoch {epoch}, iteration {t} (shuffle "
                                   f"seed {seed[0]}); run aborted") from None
            if one:
                mean_losses = [mean_losses]
            for report, d, mean_loss in zip(reports, decisions, mean_losses):
                report.records.append(IterationRecord(
                    epoch=epoch, t=t, thres=thres, k=d.k, k_prime=d.k_prime,
                    branch=d.branch, mean_loss=mean_loss, lr=lr))
        # the epoch's last update, which no forward pass has checked
        if not np.isfinite(stack.theta).all():
            raise NumericError(f"non-finite parameters at epoch {epoch}, iteration "
                               f"{n_batches} (shuffle seed {seed[0]}); run aborted")
        if select is not None:
            for i in range(len(seed)):
                trained = trajectory(i)
                score = select(trained)
                if score > best_scores[i]:
                    best_models[i], best_scores[i] = trained, score
                    reports[i].best_epoch = epoch
    return [(best_models[i] if select is not None else trajectory(i), reports[i])
            for i in range(len(seed))]


def finetune_plain(model: MlpModel, features, labels, config: TrainConfig,
                   seed) -> tuple[MlpModel, StageReport]:
    """Plain fine-tuning, every update on the whole mini-batch, as the
    pretraining of the harness and the baseline row of STRATEGY_TABLE run
    it; a list `seed` trains a stack of trajectories, as in run_stage."""
    return run_stage(model, features, labels, config, _decide_whole_batch, seed)


@dataclass(frozen=True)
class Strategy:
    """A row of STRATEGY_TABLE: how run_seed trains a strategy's cells with
    run_stage. `decide` is looked up per cell, so that a wrapper set on
    this module sees every call."""

    name: str
    section: str  # the ExperimentConfig section of its stage
    decide: str  # the name of its decision function in this module
    start: str | None = None  # whose last model it starts from; None: theta_0
    shuffle_offset: int = 3000  # its shuffle seed less the run's seed
    select: bool = False  # whether it keeps its best validation epoch


# A run's strategies, in cell order, each below the one it starts from.
# Baseline and stage 1 share their shuffles, so only the update rule differs.
STRATEGY_TABLE = (
    Strategy("baseline", "baseline", "_decide_whole_batch"),
    Strategy("curriculum1", "curriculum1", "decide_update_stage1"),
    Strategy("curriculum2", "curriculum2", "decide_update_stage2",
             start="curriculum1", shuffle_offset=4000, select=True),
)
# the strategy every other one gets a paired DeLong test against
BASELINE = "baseline"
