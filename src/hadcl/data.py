"""Seeded synthetic data: Gaussian blob classification tasks with a
controllable hard stratum (samples placed near the decision boundary) and
label noise, a parametric domain shift, and grid "slide" synthesis for the
slide-level pipeline.

All generators are pure functions of their spec: same spec, same bytes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from .exceptions import ValidationError


def _spec_hash(spec) -> str:
    payload = json.dumps(dataclasses.asdict(spec), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


@dataclass(frozen=True)
class BlobTaskSpec:
    dim: int
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
    # varies the sample draws while keeping class centers (which depend only
    # on `seed`) fixed, so train/val/test splits share one geometry
    draw_seed: int = 0

    def __post_init__(self):
        if self.per_class < 1:
            raise ValidationError("per_class must be >= 1")
        if self.dim < 2 or self.n_classes < 2:
            raise ValidationError("need dim >= 2 and n_classes >= 2")
        if self.separation <= 0 or self.spread <= 0:
            raise ValidationError("separation and spread must be > 0")
        if not (0.0 <= self.hard_fraction <= 1.0 and 0.0 <= self.noise_fraction <= 1.0):
            raise ValidationError("hard_fraction and noise_fraction must be in [0, 1]")
        if not (0.0 <= self.hard_wrong_side <= 0.5):
            raise ValidationError("hard_wrong_side must be in [0, 0.5]")


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


@dataclass
class Dataset:
    features: np.ndarray
    labels: np.ndarray
    ids: np.ndarray
    n_classes: int
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        n = self.features.shape[0]
        if n < 1:
            raise ValidationError("dataset must contain at least one sample")
        if self.labels.shape != (n,) or self.ids.shape != (n,):
            raise ValidationError("labels/ids must have one entry per sample")
        if self.labels.min() < 0 or self.labels.max() >= self.n_classes:
            raise ValidationError("labels out of range")
        if len(np.unique(self.ids)) != n:
            raise ValidationError("ids must be unique")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


def class_centers(spec: BlobTaskSpec) -> np.ndarray:
    """Class centers at separation/2 from the origin, seeded directions.

    Two classes are placed antipodally so their distance equals `separation`.
    """
    rng = np.random.default_rng(spec.seed)
    dirs = rng.normal(size=(spec.n_classes, spec.dim))
    if spec.n_classes == 2:
        dirs[1] = -dirs[0]
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return dirs * (spec.separation / 2.0)


def _hard_axis(spec: BlobTaskSpec, centers: np.ndarray, c: int,
               nearest_pos: int, others: list) -> np.ndarray:
    """Unit normal of the local boundary inside the hard stratum of class c.

    With hard_tilt_angle 0 this is the inter-center direction; otherwise it
    is rotated toward a fixed orthogonal direction shared by both classes of
    the pair, so their hard strata see one consistent (tilted) boundary.
    """
    other = others[nearest_pos]
    lo, hi = min(c, other), max(c, other)
    pair_axis = centers[hi] - centers[lo]
    pair_axis = pair_axis / np.linalg.norm(pair_axis)
    if spec.hard_tilt_angle != 0.0:
        ortho_rng = np.random.default_rng((spec.seed, lo, hi, 2))
        v = ortho_rng.normal(size=spec.dim)
        v -= (v @ pair_axis) * pair_axis
        v /= np.linalg.norm(v)
        pair_axis = (np.cos(spec.hard_tilt_angle) * pair_axis
                     + np.sin(spec.hard_tilt_angle) * v)
    return pair_axis if c == hi else -pair_axis


def generate_blobs(spec: BlobTaskSpec) -> Dataset:
    """Gaussian blobs per class, with hard_fraction of each class drawn inside
    a spread-radius ball around the midpoint to its nearest other class, and
    noise_fraction of all labels flipped."""
    rng = np.random.default_rng((spec.seed, spec.draw_seed, 1))
    centers = class_centers(spec)
    n_total = spec.per_class * spec.n_classes

    feats = np.empty((n_total, spec.dim))
    labels = np.empty(n_total, dtype=np.int64)
    hard_flags = np.zeros(n_total, dtype=bool)
    row = 0
    for c in range(spec.n_classes):
        others = [k for k in range(spec.n_classes) if k != c]
        dists = [np.linalg.norm(centers[c] - centers[k]) for k in others]
        nearest = centers[others[int(np.argmin(dists))]]
        midpoint = (centers[c] + nearest) / 2.0

        n_hard = int(round(spec.hard_fraction * spec.per_class))
        n_easy = spec.per_class - n_hard
        feats[row:row + n_easy] = centers[c] + spec.spread * rng.normal(
            size=(n_easy, spec.dim))
        # uniform draws inside a ball of radius `spread` around the midpoint,
        # reflected onto the class's own side except for a hard_wrong_side
        # fraction that stays across the boundary
        v = rng.normal(size=(n_hard, spec.dim))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        r = spec.spread * rng.uniform(size=(n_hard, 1)) ** (1.0 / spec.dim)
        u = r * v
        axis = _hard_axis(spec, centers, c, int(np.argmin(dists)), others)
        proj = u @ axis
        wrong = proj < 0.0
        keep_wrong = rng.uniform(size=n_hard) < 2.0 * spec.hard_wrong_side
        reflect = wrong & ~keep_wrong
        u[reflect] -= 2.0 * proj[reflect, None] * axis
        feats[row + n_easy:row + spec.per_class] = midpoint + u
        hard_flags[row + n_easy:row + spec.per_class] = True
        labels[row:row + spec.per_class] = c
        row += spec.per_class

    perm = rng.permutation(n_total)
    feats, labels, hard_flags = feats[perm], labels[perm], hard_flags[perm]
    ids = np.arange(n_total, dtype=np.int64)

    n_flip = int(round(spec.noise_fraction * n_total))
    flip_idx = rng.choice(n_total, size=n_flip, replace=False)
    for i in flip_idx:
        choices = [c for c in range(spec.n_classes) if c != labels[i]]
        labels[i] = choices[rng.integers(len(choices))]

    return Dataset(
        features=feats, labels=labels, ids=ids, n_classes=spec.n_classes,
        provenance={
            "spec_hash": _spec_hash(spec),
            "hard_ids": sorted(int(i) for i in ids[hard_flags]),
            "flipped_ids": sorted(int(i) for i in flip_idx),
        })


def rotation_matrix(dim: int, angle: float) -> np.ndarray:
    """Rotation by `angle` in the plane of the first two coordinates."""
    r = np.eye(dim)
    c, s = np.cos(angle), np.sin(angle)
    r[0, 0], r[0, 1], r[1, 0], r[1, 1] = c, -s, s, c
    return r


def apply_domain_shift(ds: Dataset, shift: DomainShiftSpec) -> Dataset:
    """Deterministic covariate shift; labels and ids are untouched."""
    rot = rotation_matrix(ds.dim, shift.rotation_angle)
    rng = np.random.default_rng(shift.seed)
    noise = shift.noise_level * rng.normal(size=ds.features.shape)
    shifted = (shift.scale * ds.features) @ rot.T + noise
    provenance = dict(ds.provenance)
    provenance["shift_hash"] = _spec_hash(shift)
    return Dataset(features=shifted, labels=ds.labels.copy(), ids=ds.ids.copy(),
                   n_classes=ds.n_classes, provenance=provenance)


@dataclass(frozen=True)
class SlideSpec:
    """A cohort of grid slides with disk-shaped tumor regions.

    Patch features come from the class-conditional blob distributions of
    `patch_spec` (class 1 = tumor); the slide label is the OR over its patch
    labels.
    """

    height: int
    width: int
    n_slides: int
    tumor_slide_fraction: float
    region_count: int
    radius_lo: float
    radius_hi: float
    patch_spec: BlobTaskSpec
    seed: int
    draw_seed: int = 0

    def __post_init__(self):
        if self.height < 1 or self.width < 1:
            raise ValidationError("grid dims must be >= 1")
        if self.n_slides < 1:
            raise ValidationError("n_slides must be >= 1")
        if not (0.0 <= self.tumor_slide_fraction <= 1.0):
            raise ValidationError("tumor_slide_fraction must be in [0, 1]")
        if self.region_count < 0 or self.radius_lo < 0 or self.radius_hi < self.radius_lo:
            raise ValidationError("bad region count or radius range")
        if self.patch_spec.n_classes != 2:
            raise ValidationError("patch_spec must be binary (normal/tumor)")


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


def generate_slides(spec: SlideSpec) -> list[Slide]:
    rng = np.random.default_rng((spec.seed, spec.draw_seed))
    n_tumor = int(round(spec.tumor_slide_fraction * spec.n_slides))
    is_tumor = np.zeros(spec.n_slides, dtype=bool)
    is_tumor[:n_tumor] = True
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
        feats = _patch_features(patch_labels.ravel(), spec.patch_spec, rng)
        slides.append(Slide(
            slide_id=sid, label=int(patch_labels.any()),
            patch_labels=patch_labels, features=feats))
    return slides

