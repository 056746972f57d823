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


def run_stage(model: MlpModel, features, labels, config: TrainConfig,
              decide, seed: int, select=None) -> tuple[MlpModel, StageReport]:
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

    Returns the trained parameters and the per-iteration report; the input
    model is not mutated. When `select` is given, a function from a model to
    its score, the parameters kept are those of the epoch that scores
    highest (earliest epoch on ties); otherwise the final-epoch parameters
    are returned.
    """
    if not isinstance(config, CurriculumTrainConfig):
        config = CurriculumTrainConfig(**vars(config), alpha=1.0, a=0.7, b=0.2)
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    n, batch_size = features.shape[0], config.batch_size
    # short trailing batches are dropped so K is constant
    n_batches = n // batch_size
    if n_batches < 1:
        raise ValidationError(
            f"dataset of {n} samples yields no full batch of size {batch_size}")

    model = model.copy()
    state = OptimizerState()
    # each step gathers its batch into x and y, and forward, the loss pass,
    # backward and adam_step write into buffers made here; backward reads
    # the ranking pass's activations, softmax and losses of the rows it
    # updates on from them
    x = np.empty((batch_size, *features.shape[1:]))
    y = np.empty(batch_size, dtype=labels.dtype)
    buffers, grads = numcore.StepBuffers(batch_size, model), model.copy()
    k = config.top_k
    thresholds = [threshold(t, n_batches, config.a, config.b)
                  for t in range(1, n_batches + 1)]
    rng = np.random.default_rng(seed)
    report = StageReport()
    best_model, best_score = None, -1.0
    if select is not None:
        # The incoming parameters compete too: epoch -1 means the stage kept
        # its initial model because no epoch improved its score.
        best_model = model.copy()
        best_score = select(model)
        report.best_epoch = -1

    for epoch in range(config.epochs):
        lr = config.lr_at(epoch)
        perm = rng.permutation(n)
        for t, thres in enumerate(thresholds, start=1):
            idx = perm[(t - 1) * batch_size: t * batch_size]
            # mode="clip" (idx is in range) lets take write straight into out
            features.take(idx, axis=0, out=x, mode="clip")
            labels.take(idx, out=y, mode="clip")
            try:
                logits = numcore.forward(model, x, buffers)
                losses = numcore.per_sample_cross_entropy(logits, y, buffers)
                if not np.isfinite(losses).all():
                    raise NumericError("non-finite loss")
                decision = decide(losses, thres, k)
                mean_loss = numcore.backward(model, x, y, decision.mask,
                                             buffers, grads)
                numcore.adam_step(model, grads, state, lr)
            except NumericError as exc:
                raise NumericError(f"{exc} at epoch {epoch}, iteration {t} "
                                   f"(shuffle seed {seed}); run aborted") from None
            report.records.append(IterationRecord(
                epoch=epoch, t=t, thres=thres, k=decision.k,
                k_prime=decision.k_prime, branch=decision.branch,
                mean_loss=mean_loss, lr=lr))
        if select is not None:
            score = select(model)
            if score > best_score:
                best_model, best_score = model.copy(), score
                report.best_epoch = epoch
    if best_model is not None:
        return best_model, report
    return model, report


def finetune_plain(model: MlpModel, features, labels, config: TrainConfig,
                   seed: int) -> tuple[MlpModel, StageReport]:
    """Plain fine-tuning, every update on the whole mini-batch, as the
    pretraining of run_seed and the baseline row of STRATEGY_TABLE run it."""
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
