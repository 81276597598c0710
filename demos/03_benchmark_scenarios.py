"""Benchmark harness in one call: methods x models x replicates.

Compares training on the original data (bootstrapped to the same budget)
against subgroup mixup, vanilla mixup, and naive group swapping. Every
method trains on exactly 2T rows so differences come from what the extra
rows contain, not how many there are. Mixup alphas come from a small grid
searched on an internal validation split.

The command line gives the same run as this script:

    sgmix --scenario unbalanced-groups --replicates 2 --models forest \
          --out results.csv
"""
import tempfile

from sgmix import ExperimentConfig, emit_results, run_experiment

config = ExperimentConfig(
    scenario="unbalanced-groups",
    methods=("original", "fsgm", "vanilla-mixup", "group-swap"),
    models=("forest",),
    # the acceptance benchmark uses 5 replicates and also sets angle pi/6
    # (shifts=ShiftSpec(angle=math.pi / 6)); 2 keeps this demo quick
    replicates=2,
    seed=0,
)
table = run_experiment(config)

with tempfile.TemporaryDirectory() as tmp:
    emit_results(table, f"{tmp}/results.csv")

print("\nper-replicate rows:")
print("method,model,replicate,alpha,accuracy,fairness")
for row in table.rows:
    alpha = "-" if row.alpha is None else f"{row.alpha:g}"
    print(
        f"{row.method},{row.model},{row.replicate},{alpha},"
        f"{row.accuracy:.3f},{row.fairness:.3f}"
    )
