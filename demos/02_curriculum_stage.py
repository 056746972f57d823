"""One curriculum stage, inspected iteration by iteration.

We fine-tune a small MLP on a blob task with a hard boundary stratum and
watch the stage-1 gate switch between full-batch updates (early in each
epoch, when the threshold is high) and top-K hard-sample updates (late,
when it has decayed).
"""

from collections import Counter

import numpy as np

from hadcl import curriculum, data, numcore

spec = data.BlobTaskSpec(dim=6, n_classes=2, per_class=500, separation=4.0,
                         spread=1.1, hard_fraction=0.3, noise_fraction=0.0,
                         seed=7)
ds = data.generate_blobs(spec)
model = numcore.init_model(spec.dim, hidden=16, n_classes=2, seed=0)

config = curriculum.CurriculumTrainConfig(
    epochs=3, lr=5e-4, milestones=(2,), gamma=0.1, batch_size=50,
    alpha=0.10, a=0.7, b=0.2)

theta1, report = curriculum.run_stage(model, ds.features, ds.labels, config,
                                      curriculum.decide_update_stage1, seed=1)

print(f"{len(report.records)} iterations over {config.epochs} epochs, "
      f"batch size {config.batch_size}, K = {config.top_k}\n")

print("epoch  t  thres  branch     mean_loss")
for rec in report.records:
    if rec.t % 4 == 1:  # sample a few iterations per epoch
        print(f"{rec.epoch:5d} {rec.t:2d}  {rec.thres:.3f}  "
              f"{rec.branch:9s}  {rec.mean_loss:.4f}")

print("\nBranch mix per epoch (the hard branch concentrates late):")
for epoch in range(config.epochs):
    counts = Counter(r.branch for r in report.records if r.epoch == epoch)
    print(f"  epoch {epoch}: {dict(counts)}")

# as the report counts it: class 1 where the logit margin l1 - l0 is > 0
logits = numcore.forward(theta1, ds.features)
acc = np.mean((logits[:, 1] - logits[:, 0] > 0) == ds.labels)
print(f"\ntrain accuracy after stage 1: {acc:.3f}")
