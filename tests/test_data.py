import dataclasses
import hashlib
import tracemalloc

import numpy as np
import pytest

from hadcl import data
from hadcl.data import (BlobTaskSpec, Dataset, DomainShiftSpec, SlideSpec,
                        apply_domain_shift, generate_blobs, generate_slides)
from hadcl.exceptions import ValidationError


def base_spec(**over):
    kw = dict(dim=4, n_classes=2, per_class=500, separation=6.0, spread=1.0,
              hard_fraction=0.0, noise_fraction=0.0, seed=11)
    kw.update(over)
    return BlobTaskSpec(**kw)


def lda_accuracy(train, test):
    # closed-form linear discriminant with pooled identity-free covariance
    mu0 = train.features[train.labels == 0].mean(axis=0)
    mu1 = train.features[train.labels == 1].mean(axis=0)
    w = mu1 - mu0
    c = (mu0 + mu1) / 2.0
    preds = ((test.features - c) @ w > 0).astype(int)
    return np.mean(preds == test.labels)


class TestGenerateBlobs:
    def test_separable_when_no_hard_no_noise(self):
        ds = generate_blobs(base_spec(separation=12.0, spread=0.5))
        assert lda_accuracy(ds, ds) == 1.0

    def test_full_label_flip_symmetry(self):
        clean = generate_blobs(base_spec())
        flipped = generate_blobs(base_spec(noise_fraction=1.0))
        # same geometry: the complement of a good classifier on the clean set
        # is optimal on the flipped one
        mu0 = clean.features[clean.labels == 0].mean(axis=0)
        mu1 = clean.features[clean.labels == 1].mean(axis=0)
        w, c = mu1 - mu0, (mu0 + mu1) / 2.0
        preds = ((flipped.features - c) @ w > 0).astype(int)
        assert np.mean(1 - preds == flipped.labels) > 0.99

    def test_hard_count_exact(self):
        ds = generate_blobs(base_spec(hard_fraction=0.3))  # N = 1000
        assert len(ds.provenance["hard_ids"]) == 300

    def test_flip_count_exact(self):
        ds = generate_blobs(base_spec(noise_fraction=0.05))
        assert len(ds.provenance["flipped_ids"]) == 50

    def test_hard_samples_near_midpoint(self):
        spec = base_spec(hard_fraction=0.25)
        ds = generate_blobs(spec)
        centers = data.class_centers(spec)
        midpoint = centers.mean(axis=0)
        hard = ds.provenance["hard_ids"]
        dists = np.linalg.norm(ds.features[hard] - midpoint, axis=1)
        assert dists.max() <= spec.spread + 1e-12

    def test_generator_purity(self):
        a = generate_blobs(base_spec(hard_fraction=0.2, noise_fraction=0.1))
        b = generate_blobs(base_spec(hard_fraction=0.2, noise_fraction=0.1))
        assert a.features.tobytes() == b.features.tobytes()
        assert a.labels.tobytes() == b.labels.tobytes()
        assert a.provenance.keys() == b.provenance.keys()
        for key, ids in a.provenance.items():
            np.testing.assert_array_equal(ids, b.provenance[key], strict=True)

    def test_draw_seed_changes_samples_not_centers(self):
        a = generate_blobs(base_spec())
        b = generate_blobs(base_spec(), draw_seed=1)
        assert a.features.tobytes() != b.features.tobytes()
        np.testing.assert_allclose(
            a.features[a.labels == 0].mean(axis=0),
            b.features[b.labels == 0].mean(axis=0), atol=0.2)

    def test_hard_stratum_is_harder(self):
        # the closed-form discriminant errs more on the boundary stratum
        hard_err, easy_err = [], []
        for seed in range(10):
            spec = base_spec(hard_fraction=0.3, seed=50 + seed)
            ds = generate_blobs(spec)
            centers = data.class_centers(spec)
            w, c = centers[1] - centers[0], centers.mean(axis=0)
            preds = ((ds.features - c) @ w > 0).astype(int)
            hard = np.isin(np.arange(len(ds.labels)), ds.provenance["hard_ids"])
            hard_err.append(np.mean(preds[hard] != ds.labels[hard]))
            easy_err.append(np.mean(preds[~hard] != ds.labels[~hard]))
        assert np.mean(hard_err) > np.mean(easy_err)

    def test_zero_samples_rejected(self):
        with pytest.raises(ValidationError):
            base_spec(per_class=0)

    # frozen fixture: sha256 of a tilted, noisy task's bytes (features,
    # labels, hard and flipped ids, then the shifted features); any change
    # to the draws of the hard stratum or the label flips changes it
    GOLDEN_TILTED = ("9cdb6cc95dc1e91a6f8b42b60d037735"
                     "56fc6123b1a585e64236a142355f2fd4")

    def test_tilted_hard_stratum_bytes_pinned(self):
        spec = base_spec(per_class=300, hard_fraction=0.3, hard_tilt_angle=1.0,
                         hard_wrong_side=0.1, noise_fraction=0.05)
        ds = generate_blobs(spec)
        shifted = apply_domain_shift(ds, DomainShiftSpec(
            scale=1.3, rotation_angle=0.4, noise_level=0.3, seed=303))
        digest = hashlib.sha256()
        for part in (ds.features, ds.labels,
                     np.asarray(ds.provenance["hard_ids"], dtype=np.int64),
                     np.asarray(ds.provenance["flipped_ids"], dtype=np.int64),
                     shifted.features):
            digest.update(part.tobytes())
        assert digest.hexdigest() == self.GOLDEN_TILTED

    def test_provenance_ids_are_sorted_int64_arrays(self):
        ds = generate_blobs(base_spec(hard_fraction=0.3, noise_fraction=0.1))
        for key in ("hard_ids", "flipped_ids"):
            ids = ds.provenance[key]
            assert isinstance(ids, np.ndarray) and ids.dtype == np.int64
            assert ids.ndim == 1 and ids.size
            assert np.all(np.diff(ids) > 0)   # sorted and distinct

    @pytest.mark.parametrize("hard_fraction", [0.0, 0.3, 1.0])
    def test_peak_memory_near_output_size(self, hard_fraction):
        # the rows are shuffled in place, so no whole copy of the features
        # sits beside them; the output is what the returned set still holds
        spec = base_spec(dim=16, per_class=20_000, hard_fraction=hard_fraction,
                         hard_tilt_angle=1.0, noise_fraction=0.05)
        tracemalloc.start()
        try:
            ds = generate_blobs(spec)
            output, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert output >= ds.features.nbytes + ds.labels.nbytes
        assert peak < 1.7 * output


class TestDataset:
    @pytest.mark.parametrize("labels", [[0, 2], [-1, 1]])
    def test_non_binary_labels_rejected(self, labels):
        with pytest.raises(ValidationError, match="labels must be 0 or 1"):
            Dataset(features=np.zeros((2, 2)), labels=np.array(labels))


class TestDomainShift:
    def test_identity_shift(self):
        ds = generate_blobs(base_spec())
        out = apply_domain_shift(ds, DomainShiftSpec())
        np.testing.assert_array_equal(out.features, ds.features)
        np.testing.assert_array_equal(out.labels, ds.labels)

    def test_pure_scale_doubles_norms(self):
        ds = generate_blobs(base_spec())
        out = apply_domain_shift(ds, DomainShiftSpec(scale=2.0))
        np.testing.assert_allclose(np.linalg.norm(out.features, axis=1),
                                   2.0 * np.linalg.norm(ds.features, axis=1))

    def test_moments_match_closed_form(self):
        ds = generate_blobs(base_spec(per_class=5000))
        shift = DomainShiftSpec(scale=1.5, rotation_angle=0.6,
                                noise_level=0.4, seed=3)
        out = apply_domain_shift(ds, shift)
        rot = data.rotation_matrix(ds.dim, shift.rotation_angle)
        want_mean = (shift.scale * ds.features.mean(axis=0)) @ rot.T
        np.testing.assert_allclose(out.features.mean(axis=0), want_mean,
                                   atol=0.02)
        want_var = (shift.scale ** 2 *
                    np.diag(rot @ np.cov(ds.features.T) @ rot.T)
                    + shift.noise_level ** 2)
        np.testing.assert_allclose(out.features.var(axis=0, ddof=1), want_var,
                                   rtol=0.05)

    def test_labels_preserved(self):
        ds = generate_blobs(base_spec(noise_fraction=0.2))
        out = apply_domain_shift(ds, DomainShiftSpec(scale=3.0,
                                                     rotation_angle=1.0,
                                                     noise_level=1.0))
        np.testing.assert_array_equal(out.labels, ds.labels)
        assert out.provenance == ds.provenance


PATCH_SPEC = base_spec(per_class=1)


def slide_spec(**over):
    kw = dict(height=8, width=10, n_slides=6, tumor_slide_fraction=0.5,
              region_count=2, radius_lo=1.0, radius_hi=2.5, seed=21)
    kw.update(over)
    return SlideSpec(**kw)


class TestGenerateSlides:
    def test_no_tumor_regions_means_negative(self):
        slides = generate_slides(slide_spec(tumor_slide_fraction=0.0), PATCH_SPEC)
        for s in slides:
            assert s.label == 0
            assert not s.patch_labels.any()

    def test_huge_radius_covers_grid(self):
        slides = generate_slides(slide_spec(
            tumor_slide_fraction=1.0, region_count=1,
            radius_lo=50.0, radius_hi=50.0), PATCH_SPEC)
        for s in slides:
            assert s.patch_labels.all()
            assert s.label == 1

    def test_label_is_or_over_patches(self):
        for s in generate_slides(slide_spec(), PATCH_SPEC):
            assert s.label == int(s.patch_labels.any())

    def test_tumor_area_matches_geometric_oracle(self):
        # rebuild the disk union from the same rng draws and compare areas
        spec = slide_spec(n_slides=4, tumor_slide_fraction=1.0)
        slides = generate_slides(spec, PATCH_SPEC)
        rng = np.random.default_rng((spec.seed, 0))
        is_tumor = np.ones(spec.n_slides, dtype=bool)
        rng.shuffle(is_tumor)
        for s in slides:
            want = np.zeros((spec.height, spec.width), dtype=bool)
            for _ in range(spec.region_count):
                cy = rng.uniform(0, spec.height - 1)
                cx = rng.uniform(0, spec.width - 1)
                radius = rng.uniform(spec.radius_lo, spec.radius_hi)
                for r in range(spec.height):
                    for c in range(spec.width):
                        if (r - cy) ** 2 + (c - cx) ** 2 <= radius ** 2:
                            want[r, c] = True
            rng.normal(size=(spec.height * spec.width, PATCH_SPEC.dim))
            if not want.any():
                want[int(round(cy)), int(round(cx))] = True
            assert s.patch_labels.sum() == want.sum()

    def test_purity(self):
        a = generate_slides(slide_spec(), PATCH_SPEC)
        b = generate_slides(slide_spec(), PATCH_SPEC)
        for s, t in zip(a, b):
            assert s.features.tobytes() == t.features.tobytes()
            assert s.label == t.label

