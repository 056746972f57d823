"""Slide-level pipeline: assemble patch probabilities into a heatmap grid,
extract connected-component geometry at thresholds 0.5 and 0.95, and train a
regularized logistic slide classifier on those features.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import ValidationError

FEATURE_THRESHOLDS = (0.5, 0.95)
# per threshold: region count, largest area, total area, largest-region mean
# prob, largest-region extent; plus the global max probability
N_FEATURES = 5 * len(FEATURE_THRESHOLDS) + 1


@dataclass
class SlideGrid:
    probs: np.ndarray          # (H, W), values in [0, 1]

    def __post_init__(self):
        self.probs = np.asarray(self.probs, dtype=np.float64)
        if self.probs.ndim != 2:
            raise ValidationError("grid must be 2-D")
        if self.probs.size and (self.probs.min() < 0.0 or self.probs.max() > 1.0):
            raise ValidationError("probabilities must lie in [0, 1]")


def connected_components(grid: SlideGrid, tau: float) -> tuple[np.ndarray, int]:
    """Maximal 4-connected regions of cells with probability > tau, as
    (labels, n): labels (int32) numbers the regions 1..n in row-major order
    of their first cell and is 0 elsewhere.

    The row runs of on-cells are numbered in row-major order and joined
    where they touch vertically by a union-find in which the smaller root
    wins, so each region's root is its first run."""
    if not (0.0 < tau < 1.0):
        raise ValidationError("tau must lie in (0, 1)")
    mask = grid.probs > tau
    if not mask.any():
        return np.zeros(mask.shape, dtype=np.int32), 0
    w = mask.shape[1]
    starts = mask.copy()
    starts[:, 1:] &= ~mask[:, :-1]
    run_at = np.cumsum(starts.ravel()) - 1  # the run of each on-cell
    flat = mask.ravel()
    above = np.flatnonzero(flat[:-w] & flat[w:])  # on-cells with one below
    parent = list(range(int(run_at[-1]) + 1))
    for a, b in zip(run_at[above].tolist(), run_at[above + w].tolist()):
        while parent[a] != a:
            a = parent[a]
        while parent[b] != b:
            b = parent[b]
        if a < b:
            parent[b] = a
        elif b < a:
            parent[a] = b
    # a run's parent precedes it and so already points at its root
    number, n = [], 0
    for r, p in enumerate(parent):
        if p == r:
            n += 1
            number.append(n)
        else:
            parent[r] = root = parent[p]
            number.append(number[root])
    numbered = np.array(number, dtype=np.int32)[run_at].reshape(mask.shape)
    return np.where(mask, numbered, 0), n


def extract_features(grid: SlideGrid) -> np.ndarray:
    """11 geometric features: 5 per threshold in FEATURE_THRESHOLDS plus the
    global max probability. All zeros on an empty heatmap. The largest
    region is the first one labelled among those of the largest area."""
    feats = []
    for tau in FEATURE_THRESHOLDS:
        labels, n = connected_components(grid, tau)
        if n:
            areas = np.bincount(labels.ravel())[1:]
            i = int(np.argmax(areas))
            region = labels == i + 1
            rows, cols = np.nonzero(region)  # rows ascending
            largest = float(areas[i])
            feats.extend([
                float(n),
                largest,
                float(areas.sum()),
                # boolean indexing keeps the row-major order of the cells
                float(grid.probs[region].mean()),
                largest / float((rows[-1] - rows[0] + 1)
                                * (cols.max() - cols.min() + 1)),
            ])
        else:
            feats.extend([0.0] * 5)
    feats.append(float(grid.probs.max()) if grid.probs.size else 0.0)
    return np.array(feats)


def _sigmoid(logit: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-logit)). A logit below about -709 overflows exp to inf
    and gives 0.0, as it should, so the overflow warning is silenced rather
    than the formula changed, which would change the bits of other logits."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-logit))


@dataclass
class SlideClassifier:
    """L2-regularized logistic model on standardized features."""

    weights: np.ndarray
    bias: float
    feat_mean: np.ndarray
    feat_std: np.ndarray

    def predict(self, features) -> np.ndarray:
        """Slide probabilities, one per row of `features`; a single feature
        vector gives an array of shape (1,)."""
        x = np.atleast_2d(np.asarray(features, dtype=np.float64))
        z = (x - self.feat_mean) / self.feat_std
        logit = z @ self.weights + self.bias
        return _sigmoid(logit)


def train_slide_classifier(features, labels, l2: float = 1.0,
                           n_iter: int = 50) -> SlideClassifier:
    """Deterministic Newton (IRLS) fit; no randomness involved."""
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if x.ndim != 2 or y.shape != (x.shape[0],):
        raise ValidationError("features must be (n, p) with one label per row")
    if len(np.unique(y)) < 2:
        raise ValidationError("training set must contain both classes")

    mean = x.mean(axis=0)
    std = x.std(axis=0)
    std[std == 0.0] = 1.0
    z = np.hstack([(x - mean) / std, np.ones((x.shape[0], 1))])

    w = np.zeros(z.shape[1])
    reg = l2 * np.eye(z.shape[1])
    reg[-1, -1] = 0.0  # do not penalize the bias
    for _ in range(n_iter):
        p = _sigmoid(z @ w)
        g = z.T @ (p - y) + reg @ w
        s = np.clip(p * (1.0 - p), 1e-9, None)
        h = (z * s[:, None]).T @ z + reg
        step = np.linalg.solve(h, g)
        w = w - step
        if np.max(np.abs(step)) < 1e-10:
            break
    return SlideClassifier(weights=w[:-1], bias=float(w[-1]),
                           feat_mean=mean, feat_std=std)

