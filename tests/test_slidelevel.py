import numpy as np
import pytest

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


class TestConnectedComponents:
    def test_two_disjoint_blobs(self):
        probs = np.zeros((5, 5))
        probs[0, 0:2] = 0.9
        probs[4, 3:5] = 0.8
        regions = connected_components(SlideGrid(probs), 0.5)
        assert sorted(r.area for r in regions) == [2, 2]

    def test_all_below_threshold(self):
        regions = connected_components(SlideGrid(np.full((4, 4), 0.3)), 0.5)
        assert regions == []

    def test_diagonal_not_connected(self):
        probs = np.zeros((3, 3))
        probs[0, 0] = probs[1, 1] = 1.0
        regions = connected_components(SlideGrid(probs), 0.5)
        assert len(regions) == 2

    def test_matches_flood_fill_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            h, w = rng.integers(1, 20, 2)
            probs = rng.uniform(size=(h, w))
            tau = float(rng.uniform(0.2, 0.8))
            regions = connected_components(SlideGrid(probs), tau)
            got = {frozenset(map(tuple, r.cells)) for r in regions}
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
        for _ in range(20):
            probs = rng.uniform(size=(10, 12))
            feats = extract_features(SlideGrid(probs))
            want = []
            for tau in FEATURE_THRESHOLDS:
                # ties on area break toward the region first met in
                # row-major scan order, matching the labeling order
                regs = sorted(flood_fill_regions(probs > tau), key=min)
                if regs:
                    largest = max(regs, key=lambda cells: len(cells))
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

    def test_threshold_monotonicity(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            probs = rng.uniform(size=(8, 8))
            feats = extract_features(SlideGrid(probs))
            assert feats[7] <= feats[2]  # total area at 0.95 <= at 0.5

    def test_region_cover_and_separation(self):
        rng = np.random.default_rng(4)
        probs = rng.uniform(size=(12, 12))
        regions = connected_components(SlideGrid(probs), 0.5)
        covered = set()
        for reg in regions:
            cells = set(map(tuple, reg.cells))
            assert not cells & covered
            covered |= cells
        assert covered == set(map(tuple, np.argwhere(probs > 0.5)))
        # no two regions adjacent
        for i, a in enumerate(regions):
            for b in regions[i + 1:]:
                for (r, c) in map(tuple, a.cells):
                    for dr, dc in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                        assert (r + dr, c + dc) not in set(map(tuple, b.cells))


class TestSlideClassifier:
    def test_separable_by_one_coordinate(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(40, 4))
        y = (np.arange(40) < 20).astype(int)
        x[:, 2] = np.where(y == 1, 5.0, -5.0) + rng.normal(0, 0.1, 40)
        clf = train_slide_classifier(x, y)
        preds = (np.atleast_1d(clf.predict(x)) > 0.5).astype(int)
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
        probs = np.atleast_1d(clf.predict(rng.normal(size=(50, 3)) * 100))
        assert ((probs >= 0) & (probs <= 1)).all()
        assert isinstance(clf.predict(x[0]), float)

    def test_single_class_rejected(self):
        with pytest.raises(ValidationError):
            train_slide_classifier(np.zeros((5, 2)), np.ones(5))
