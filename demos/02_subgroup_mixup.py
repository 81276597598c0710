"""Anatomy of one subgroup-mixup pass.

Runs the augmenter on a tiny 2-D dataset so every moving part is visible:
the (source -> target) pair rotation, the k-nearest-neighbor step inside the
target subgroup, and the single Beta(alpha, alpha) weight shared by each
batch of k interpolants. New samples land on segments between a source point
and its target-subgroup neighbors; labels snap to the nearer parent.
"""
import numpy as np

from sgmix import Dataset, FsgmConfig, fsgm_augment, subgroup_counts

rng = np.random.default_rng(7)

# two clusters in group 0: class 0 near the origin, class 1 near (4, 4);
# group 1 exists but is left alone by the pairs below
x = np.vstack([
    rng.normal(0.0, 0.4, (12, 2)),
    rng.normal(4.0, 0.4, (4, 2)),
    rng.normal(2.0, 0.4, (6, 2)),
])
y = np.array([0] * 12 + [1] * 4 + [1] * 6)
z = np.array([0] * 12 + [0] * 4 + [1] * 6)
data = Dataset(x, y, z)
print(f"before:\n{subgroup_counts(data)}")

config = FsgmConfig(
    pairs=(((0, 0), (1, 0)), ((1, 0), (0, 0))),  # round-robin, both directions
    new_count=16,
    k=3,
    alpha=0.4,  # small alpha pushes weights toward 0 or 1
    seed=11,
)
report = fsgm_augment(data, config)

print(f"\nproduced {len(report.produced)} samples from {report.lambda_draws} batches")
for pair, count in report.per_pair_counts.items():
    print(f"  {pair.source} -> {pair.target}: {count} samples")
print(f"\nafter (new rows only):\n{subgroup_counts(report.produced)}")

# each batch of k consecutive rows shares one weight; show the first few
print("\nfirst three batches (x1, x2, y, z):")
for row in range(9):
    x, y, z = report.produced.x[row], report.produced.y[row], report.produced.z[row]
    marker = "|" if row % config.k == 0 else " "
    print(f" {marker} {x[0]:+6.3f} {x[1]:+6.3f}  y={y} z={z}")

print(
    "\nAll mass stays inside the two paired subgroups: the augmenter can"
    "\nonly rebalance (0,0) and (1,0), never invent group-1 rows here."
)
