"""From patch probabilities to a slide-level verdict.

A synthetic slide is a grid of patches; tumor patches cluster in disk
regions. We build the probability heatmap, extract connected regions at two
thresholds, reduce them to geometric features, and train the slide-level
classifier on a small cohort.
"""

import numpy as np

from hadcl import data, slidelevel

patch_spec = data.BlobTaskSpec(dim=4, n_classes=2, per_class=1,
                               separation=5.0, spread=1.0,
                               hard_fraction=0.0, noise_fraction=0.0, seed=5)
spec = data.SlideSpec(height=10, width=14, n_slides=20,
                      tumor_slide_fraction=0.5, region_count=2,
                      radius_lo=1.0, radius_hi=2.5,
                      patch_spec=patch_spec, seed=9)
slides = data.generate_slides(spec)

# stand-in patch scorer: distance to the tumor class center, squashed.
# in the full pipeline this is the fine-tuned MLP's positive probability.
centers = data.class_centers(patch_spec)


def patch_probs(features):
    d_tumor = np.linalg.norm(features - centers[1], axis=1)
    d_normal = np.linalg.norm(features - centers[0], axis=1)
    return 1.0 / (1.0 + np.exp(d_tumor - d_normal))


example = next(s for s in slides if s.label == 1)
grid = slidelevel.SlideGrid(
    patch_probs(example.features).reshape(spec.height, spec.width))

print(f"slide {example.slide_id} (tumor), heatmap:")
for r in range(spec.height):
    print("  " + "".join(".:-=+*#@"[min(int(p * 8), 7)]
                         for p in grid.probs[r]))

for tau in slidelevel.FEATURE_THRESHOLDS:
    labels, n = slidelevel.connected_components(grid, tau)
    sizes = sorted(np.bincount(labels.ravel())[1:].tolist(), reverse=True)
    print(f"tau={tau}: {n} region(s), areas {sizes}")

feats = slidelevel.extract_features(grid)
print(f"\nfeature vector ({slidelevel.N_FEATURES} entries):")
print("  " + " ".join(f"{v:.3f}" for v in feats))

# cohort-level: features for every slide, then the logistic slide classifier
x = np.array([slidelevel.extract_features(slidelevel.SlideGrid(
    patch_probs(s.features).reshape(spec.height, spec.width)))
    for s in slides])
y = np.array([s.label for s in slides])
clf = slidelevel.train_slide_classifier(x, y)
preds = (clf.predict(x) > 0.5).astype(int)
print(f"\nslide classifier training accuracy: {np.mean(preds == y):.2f} "
      f"({int(y.sum())}/{len(y)} slides contain tumor)")
