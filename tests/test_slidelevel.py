import hashlib

import numpy as np
import pytest
from scipy import ndimage

from hadcl.exceptions import ValidationError
from hadcl.slidelevel import (FEATURE_THRESHOLDS, N_FEATURES, SlideGrid,
                              connected_components, extract_features,
                              train_slide_classifier)


def flood_fill_regions(mask):
    # stack-based 4-connected flood fill oracle
    mask = mask.copy()
    regions = []
    h, w = mask.shape
    for r in range(h):
        for c in range(w):
            if not mask[r, c]:
                continue
            cells = []
            stack = [(r, c)]
            mask[r, c] = False
            while stack:
                i, j = stack.pop()
                cells.append((i, j))
                for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                    ni, nj = i + di, j + dj
                    if 0 <= ni < h and 0 <= nj < w and mask[ni, nj]:
                        mask[ni, nj] = False
                        stack.append((ni, nj))
            regions.append(frozenset(cells))
    return set(regions)


def labelled_regions(labels, n):
    # the cell sets of regions 1..n of a labelled array, in label order
    return [frozenset(map(tuple, np.argwhere(labels == i)))
            for i in range(1, n + 1)]


class TestConnectedComponents:
    def test_two_disjoint_blobs(self):
        probs = np.zeros((5, 5))
        probs[0, 0:2] = 0.9
        probs[4, 3:5] = 0.8
        labels, n = connected_components(SlideGrid(probs), 0.5)
        assert n == 2
        assert sorted(np.bincount(labels.ravel())[1:]) == [2, 2]

    def test_all_below_threshold(self):
        labels, n = connected_components(SlideGrid(np.full((4, 4), 0.3)), 0.5)
        assert n == 0 and not labels.any()

    def test_diagonal_not_connected(self):
        probs = np.zeros((3, 3))
        probs[0, 0] = probs[1, 1] = 1.0
        _, n = connected_components(SlideGrid(probs), 0.5)
        assert n == 2

    def test_matches_flood_fill_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            h, w = rng.integers(1, 20, 2)
            probs = rng.uniform(size=(h, w))
            tau = float(rng.uniform(0.2, 0.8))
            labels, n = connected_components(SlideGrid(probs), tau)
            got = set(labelled_regions(labels, n))
            assert len(got) == n
            assert got == flood_fill_regions(probs > tau)

    def test_bad_tau(self):
        with pytest.raises(ValidationError):
            connected_components(SlideGrid(np.zeros((2, 2))), 1.0)


class TestExtractFeatures:
    def test_zero_grid(self):
        feats = extract_features(SlideGrid(np.zeros((4, 4))))
        assert feats.shape == (N_FEATURES,)
        assert not feats.any()

    def test_all_one_grid(self):
        feats = extract_features(SlideGrid(np.ones((3, 5))))
        for base in (0, 5):  # one block per threshold
            count, largest, total, mean_p, extent = feats[base:base + 5]
            assert (count, largest, total) == (1.0, 15.0, 15.0)
            assert mean_p == 1.0 and extent == 1.0
        assert feats[-1] == 1.0

    def test_matches_scripted_recomputation(self):
        rng = np.random.default_rng(2)
        grids = [rng.uniform(size=(10, 12)) for _ in range(20)]
        # one decimal: regions of equal area, and cells exactly at tau = 0.5
        grids += [np.round(rng.uniform(size=(10, 12)), 1) for _ in range(20)]
        # a single cell above both, one or neither threshold; nothing above
        grids += [np.array([[p]]) for p in (0.97, 0.7, 0.5, 0.0)]
        grids += [np.full((6, 7), 0.5), rng.uniform(0.0, 0.5, size=(9, 4))]
        area_ties = 0
        for probs in grids:
            feats = extract_features(SlideGrid(probs))
            want = []
            for tau in FEATURE_THRESHOLDS:
                # ties on area break toward the region first met in
                # row-major scan order, matching the labeling order
                regs = sorted(flood_fill_regions(probs > tau), key=min)
                if regs:
                    largest = max(regs, key=lambda cells: len(cells))
                    area_ties += sum(len(r) == len(largest) for r in regs) > 1
                    rows = [c[0] for c in largest]
                    cols = [c[1] for c in largest]
                    bbox_area = ((max(rows) - min(rows) + 1)
                                 * (max(cols) - min(cols) + 1))
                    want.extend([
                        len(regs), len(largest),
                        sum(len(r) for r in regs),
                        np.mean([probs[c] for c in largest]),
                        len(largest) / bbox_area])
                else:
                    want.extend([0.0] * 5)
            want.append(probs.max())
            np.testing.assert_allclose(feats, want, atol=1e-12)
        assert area_ties  # the tie rule was exercised

    def test_bytes_pinned_on_3000_grids(self):
        # sha256 of the feature bytes of 3,000 seeded grids, 1x1 to 30x30:
        # uniform, Gaussian-smoothed and rescaled, and rounded to one decimal.
        # The constant was computed with the per-region implementation that
        # the labelled-array one replaced; NumPy 2.4.6, SciPy 1.17.1.
        rng = np.random.default_rng(2026)
        digest = hashlib.sha256()
        for i in range(3000):
            h, w = (int(v) for v in rng.integers(1, 31, 2))
            p = rng.uniform(size=(h, w))
            if i % 3 == 1:
                p = ndimage.gaussian_filter(p, sigma=float(rng.uniform(0.5, 2.0)))
                span = p.max() - p.min()
                p = (p - p.min()) / span if span > 0 else np.zeros_like(p)
            elif i % 3 == 2:
                p = np.round(p, 1)
            digest.update(extract_features(SlideGrid(np.clip(p, 0.0, 1.0))).tobytes())
        assert digest.hexdigest() == ("7185680da7fbb35322a2639712c50852"
                                      "e5ac9d96eb77723e47fa63035bae222d")

    def test_threshold_monotonicity(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            probs = rng.uniform(size=(8, 8))
            feats = extract_features(SlideGrid(probs))
            assert feats[7] <= feats[2]  # total area at 0.95 <= at 0.5

    def test_region_cover_and_separation(self):
        rng = np.random.default_rng(4)
        probs = rng.uniform(size=(12, 12))
        regions = labelled_regions(*connected_components(SlideGrid(probs), 0.5))
        covered = set()
        for cells in regions:
            assert not cells & covered
            covered |= cells
        assert covered == set(map(tuple, np.argwhere(probs > 0.5)))
        # no two regions adjacent
        for i, a in enumerate(regions):
            for b in regions[i + 1:]:
                for (r, c) in a:
                    for dr, dc in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                        assert (r + dr, c + dc) not in b


class TestSlideClassifier:
    def test_separable_by_one_coordinate(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(40, 4))
        y = (np.arange(40) < 20).astype(int)
        x[:, 2] = np.where(y == 1, 5.0, -5.0) + rng.normal(0, 0.1, 40)
        clf = train_slide_classifier(x, y)
        preds = (clf.predict(x) > 0.5).astype(int)
        assert np.mean(preds == y) == 1.0

    def test_deterministic(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(30, 5))
        y = rng.integers(0, 2, 30)
        y[:2] = [0, 1]
        a = train_slide_classifier(x, y)
        b = train_slide_classifier(x, y)
        assert a.weights.tobytes() == b.weights.tobytes()
        assert a.bias == b.bias

    def test_probabilities_in_unit_interval(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(25, 3)) * 10
        y = rng.integers(0, 2, 25)
        y[:2] = [0, 1]
        clf = train_slide_classifier(x, y)
        probs = clf.predict(rng.normal(size=(50, 3)) * 100)
        assert ((probs >= 0) & (probs <= 1)).all()
        assert clf.predict(x[0]).shape == (1,)

    def test_single_class_rejected(self):
        with pytest.raises(ValidationError):
            train_slide_classifier(np.zeros((5, 2)), np.ones(5))
