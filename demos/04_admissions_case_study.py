"""CSV pipeline end to end on the bundled admissions-style table.

The package ships a 2800-row synthetic stand-in (see make_admissions_standin.py
for its construction) where group B is underrepresented and shifted toward
the failing side, so a group-blind forest trained on the raw rows predicts
"pass" for group A far more often. Subgroup mixup grows the training data
along segments between the sparse subgroups and their neighbors in the
better-covered ones, which closes most of that gap at a small accuracy cost.

Takes about half a minute: each replicate re-splits the CSV, searches the
mixing alpha on an internal validation split, and trains a 100-tree forest.
"""
from importlib import resources
import tempfile

from sgmix import CsvSchema, ExperimentConfig, emit_results, run_experiment

schema = CsvSchema(
    feature_columns=(
        "exam_score", "gpa", "first_year_score", "final_score",
        "family_income", "age", "rank_decile",
    ),
    label_column="outcome",
    label_positive="pass",
    label_negative="fail",
    group_column="group",
    group_positive="A",
    group_negative="B",
)

with resources.as_file(
    resources.files("sgmix").joinpath("data/admissions_standin.csv")
) as path:
    config = ExperimentConfig(
        csv_path=str(path),
        csv_schema=schema,
        methods=("original", "fsgm"),
        models=("forest",),
        replicates=3,
        seed=0,
    )
    table = run_experiment(config)

with tempfile.TemporaryDirectory() as tmp:
    emit_results(table, f"{tmp}/results.csv")

print("\nsigned dp gap per replicate (negative: group A favored):")
for row in table.rows:
    print(f"  {row.method:>8s} rep {row.replicate}: gap {row.dp_gap_signed:+.3f}")
