"""Seeded synthetic data: Gaussian blob classification tasks with a
controllable hard stratum (samples placed near the decision boundary) and
label noise, a parametric domain shift, and grid "slide" synthesis for the
slide-level pipeline.

Every task is binary (class 1 = tumor, class 0 = normal), as the paper's
tumor-vs-normal tasks are. All generators are pure functions of their spec
and draw seed: same arguments, same bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import ValidationError


def _check_seed(seed: int) -> None:
    # NumPy seeds its generators only from non-negative integers
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")


@dataclass(frozen=True)
class BlobTaskSpec:
    dim: int
    # always 2; kept as a field so that configs state the task they describe
    n_classes: int
    per_class: int
    separation: float
    spread: float
    hard_fraction: float
    noise_fraction: float
    # fraction of hard samples left on the wrong side of the class boundary;
    # keeps the boundary stratum difficult but still learnable
    hard_wrong_side: float = 0.1
    # rotation of the local class boundary inside the hard stratum relative
    # to the global inter-center axis; a nonzero tilt means the boundary
    # region carries structure the easy bulk does not determine
    hard_tilt_angle: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.per_class < 1:
            raise ValidationError("per_class must be >= 1")
        if self.dim < 2:
            raise ValidationError("dim must be >= 2")
        if self.n_classes != 2:
            raise ValidationError(f"n_classes must be 2 (every task is binary), "
                                  f"got {self.n_classes}")
        if self.separation <= 0 or self.spread <= 0:
            raise ValidationError("separation and spread must be > 0")
        if not (0.0 <= self.hard_fraction <= 1.0 and 0.0 <= self.noise_fraction <= 1.0):
            raise ValidationError("hard_fraction and noise_fraction must be in [0, 1]")
        if not (0.0 <= self.hard_wrong_side <= 0.5):
            raise ValidationError("hard_wrong_side must be in [0, 0.5]")
        _check_seed(self.seed)


@dataclass(frozen=True)
class DomainShiftSpec:
    """x -> R(s x) + eps: scale, plane rotation, additive Gaussian noise."""

    scale: float = 1.0
    rotation_angle: float = 0.0
    noise_level: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.scale <= 0:
            raise ValidationError("scale must be > 0")
        if self.noise_level < 0:
            raise ValidationError("noise_level must be >= 0")
        _check_seed(self.seed)


@dataclass
class Dataset:
    """Samples as rows of `features` with 0/1 `labels`; the ids in
    `provenance` are row indices."""

    features: np.ndarray
    labels: np.ndarray
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        n = self.features.shape[0]
        if n < 1:
            raise ValidationError("dataset must contain at least one sample")
        if self.labels.shape != (n,):
            raise ValidationError("labels must have one entry per sample")
        if self.labels.min() < 0 or self.labels.max() > 1:
            raise ValidationError("labels must be 0 or 1")

    @property
    def dim(self) -> int:
        return self.features.shape[1]


def class_centers(spec: BlobTaskSpec) -> np.ndarray:
    """The two class centers, antipodal at separation/2 from the origin in a
    direction seeded by `spec.seed`, so their distance equals `separation`."""
    rng = np.random.default_rng(spec.seed)
    dirs = rng.normal(size=(2, spec.dim))
    dirs[1] = -dirs[0]
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return dirs * (spec.separation / 2.0)


def _hard_axis(spec: BlobTaskSpec, centers: np.ndarray) -> np.ndarray:
    """Unit normal of the local boundary inside the hard stratum, pointing
    from class 0 toward class 1.

    With hard_tilt_angle 0 this is the inter-center direction; otherwise it
    is rotated toward a seeded orthogonal direction, so the hard strata of
    both classes see one consistent (tilted) boundary.
    """
    axis = centers[1] - centers[0]
    axis = axis / np.linalg.norm(axis)
    if spec.hard_tilt_angle != 0.0:
        v = np.random.default_rng((spec.seed, 0, 1, 2)).normal(size=spec.dim)
        v -= (v @ axis) * axis
        v /= np.linalg.norm(v)
        axis = (np.cos(spec.hard_tilt_angle) * axis
                + np.sin(spec.hard_tilt_angle) * v)
    return axis


def _hard_samples(spec: BlobTaskSpec, rng: np.random.Generator, n_hard: int,
                  midpoint: np.ndarray, axis: np.ndarray) -> np.ndarray:
    """n_hard uniform draws inside a ball of radius `spread` around the
    midpoint, reflected onto the side `axis` points to except for a
    hard_wrong_side fraction that stays across the boundary."""
    u = rng.normal(size=(n_hard, spec.dim))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    u *= spec.spread * rng.uniform(size=(n_hard, 1)) ** (1.0 / spec.dim)
    proj = u @ axis
    wrong = proj < 0.0
    keep_wrong = rng.uniform(size=n_hard) < 2.0 * spec.hard_wrong_side
    reflect = wrong & ~keep_wrong
    u[reflect] -= 2.0 * proj[reflect, None] * axis
    u += midpoint
    return u


# columns per block of generate_blobs's in-place row shuffle. On 80,000 x 16
# float64 rows, blocks of 8 take about 8 ms against 5 ms for one gather of
# whole rows, which needs a second copy of the array; single columns, 20 ms
_PERMUTE_COLUMNS = 8


def generate_blobs(spec: BlobTaskSpec, draw_seed: int = 0) -> Dataset:
    """Gaussian blobs per class, with hard_fraction of each class drawn inside
    a spread-radius ball around the midpoint of the two centers, and
    noise_fraction of all labels flipped.

    `draw_seed` varies the sample draws while keeping the class centers
    (which depend only on `spec.seed`) fixed, so train/val/test splits share
    one geometry. The rows are shuffled in place, a block of columns at a
    time, so the draw needs little more memory than the set it returns."""
    rng = np.random.default_rng((spec.seed, draw_seed, 1))
    centers = class_centers(spec)
    midpoint = (centers[0] + centers[1]) / 2.0
    hard_axis = _hard_axis(spec, centers)
    n_total = 2 * spec.per_class

    feats = np.empty((n_total, spec.dim))
    labels = np.empty(n_total, dtype=np.int64)
    hard_flags = np.zeros(n_total, dtype=bool)
    n_hard = int(round(spec.hard_fraction * spec.per_class))
    n_easy = spec.per_class - n_hard
    row = 0
    for c in range(2):
        # drawn into place, then scaled and shifted there: the bits of
        # center + spread * z, with one temporary block instead of two
        easy = feats[row:row + n_easy]
        easy[...] = rng.normal(size=(n_easy, spec.dim))
        easy *= spec.spread
        easy += centers[c]
        axis = hard_axis if c == 1 else -hard_axis
        feats[row + n_easy:row + spec.per_class] = _hard_samples(
            spec, rng, n_hard, midpoint, axis)
        hard_flags[row + n_easy:row + spec.per_class] = True
        labels[row:row + spec.per_class] = c
        row += spec.per_class

    perm = rng.permutation(n_total)
    # one column block at a time, so no permuted copy of the whole array
    # sits beside it
    for j in range(0, spec.dim, _PERMUTE_COLUMNS):
        feats[:, j:j + _PERMUTE_COLUMNS] = feats[perm, j:j + _PERMUTE_COLUMNS]
    labels, hard_flags = labels[perm], hard_flags[perm]

    n_flip = int(round(spec.noise_fraction * n_total))
    flip_idx = rng.choice(n_total, size=n_flip, replace=False)
    labels[flip_idx] = 1 - labels[flip_idx]

    return Dataset(features=feats, labels=labels, provenance={
        "hard_ids": np.flatnonzero(hard_flags).tolist(),
        "flipped_ids": np.sort(flip_idx).tolist(),
    })


def rotation_matrix(dim: int, angle: float) -> np.ndarray:
    """Rotation by `angle` in the plane of the first two coordinates."""
    r = np.eye(dim)
    c, s = np.cos(angle), np.sin(angle)
    r[0, 0], r[0, 1], r[1, 0], r[1, 1] = c, -s, s, c
    return r


def apply_domain_shift(ds: Dataset, shift: DomainShiftSpec) -> Dataset:
    """Deterministic covariate shift; labels and provenance are untouched."""
    rot = rotation_matrix(ds.dim, shift.rotation_angle)
    rng = np.random.default_rng(shift.seed)
    noise = shift.noise_level * rng.normal(size=ds.features.shape)
    shifted = (shift.scale * ds.features) @ rot.T + noise
    return Dataset(features=shifted, labels=ds.labels.copy(),
                   provenance=dict(ds.provenance))


@dataclass(frozen=True)
class SlideSpec:
    """A cohort of grid slides with disk-shaped tumor regions; the slide
    label is the OR over its patch labels."""

    height: int
    width: int
    n_slides: int
    tumor_slide_fraction: float
    region_count: int
    radius_lo: float
    radius_hi: float
    seed: int

    def __post_init__(self):
        if self.height < 1 or self.width < 1:
            raise ValidationError("grid dims must be >= 1")
        if self.n_slides < 1:
            raise ValidationError("n_slides must be >= 1")
        if not (0.0 <= self.tumor_slide_fraction <= 1.0):
            raise ValidationError("tumor_slide_fraction must be in [0, 1]")
        if self.region_count < 0 or self.radius_lo < 0 or self.radius_hi < self.radius_lo:
            raise ValidationError("bad region count or radius range")
        _check_seed(self.seed)

    @property
    def n_tumor(self) -> int:
        """How many slides of the cohort get tumor regions."""
        return int(round(self.tumor_slide_fraction * self.n_slides))


@dataclass
class Slide:
    slide_id: int
    label: int
    patch_labels: np.ndarray   # (H, W) 0/1
    features: np.ndarray       # (H*W, d), row-major over the grid


def _patch_features(labels_flat: np.ndarray, patch_spec: BlobTaskSpec,
                    rng: np.random.Generator) -> np.ndarray:
    centers = class_centers(patch_spec)
    noise = patch_spec.spread * rng.normal(size=(labels_flat.size, patch_spec.dim))
    return centers[labels_flat] + noise


def generate_slides(spec: SlideSpec, patch_spec: BlobTaskSpec,
                    draw_seed: int = 0) -> list[Slide]:
    """The cohort of `spec`. Patch features are drawn around the class
    centers of `patch_spec` (class 1 = tumor) with its spread; its hard
    stratum and label noise are not used. `draw_seed` varies the draws."""
    rng = np.random.default_rng((spec.seed, draw_seed))
    is_tumor = np.zeros(spec.n_slides, dtype=bool)
    is_tumor[:spec.n_tumor] = True
    rng.shuffle(is_tumor)

    rows, cols = np.mgrid[0:spec.height, 0:spec.width]
    slides = []
    for sid in range(spec.n_slides):
        patch_labels = np.zeros((spec.height, spec.width), dtype=np.int64)
        if is_tumor[sid]:
            for _ in range(spec.region_count):
                cy = rng.uniform(0, spec.height - 1) if spec.height > 1 else 0.0
                cx = rng.uniform(0, spec.width - 1) if spec.width > 1 else 0.0
                radius = rng.uniform(spec.radius_lo, spec.radius_hi)
                d2 = (rows - cy) ** 2 + (cols - cx) ** 2
                patch_labels[d2 <= radius ** 2] = 1
            if spec.region_count and not patch_labels.any():
                # a region center always claims its nearest cell
                patch_labels[int(round(cy)), int(round(cx))] = 1
        feats = _patch_features(patch_labels.ravel(), patch_spec, rng)
        slides.append(Slide(
            slide_id=sid, label=int(patch_labels.any()),
            patch_labels=patch_labels, features=feats))
    return slides

