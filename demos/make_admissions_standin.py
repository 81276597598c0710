"""Regenerate the bundled admissions stand-in CSV.

The package ships a synthetic admissions-style dataset at
src/sgmix/data/admissions_standin.csv for demos and tests that need a real
CSV pipeline without downloading anything. It mimics the shape of a bar-exam
outcome table: 7 numeric columns, a pass/fail label, and a two-valued group
column, with the group underrepresented and shifted so that a group-blind
model trained on the raw data produces a sizable demographic-parity gap.

Construction: features start as a 7-dimensional conditional Gaussian, drawn
with sgmix's own `gen_conditional_gaussian`, whose class shift and group
shift are correlated (the group shift has a large component along the class
axis). Each column is then scaled and offset to a
plausible admissions-flavored range. Both shifts are fixed here, not fit to
anything; rerunning this script reproduces the committed file byte for byte.
"""
import argparse
import csv
import math
import pathlib

from sgmix import ScenarioConfig, ShiftSpec, gen_conditional_gaussian

# Subgroup sizes indexed [y, z]: group B (z=0) is underrepresented overall and
# has a much lower pass rate, echoing the kind of imbalance the augmenter is
# meant to address. z=1 is group A, the majority.
COUNTS = [[210, 560], [330, 1700]]

# The class shift lies along e1; the group shift sits at pi/6 from it, so it
# leaks into the class axis.
SHIFTS = ShiftSpec(class_shift_magnitude=1.15, group_shift_magnitude=1.0,
                   angle=math.pi / 6, dim=7)

# Per-column affine maps from the standard-normal scale to readable ranges.
COLUMNS = (
    ("exam_score", 7.0, 36.0),
    ("gpa", 0.45, 3.1),
    ("first_year_score", 1.0, 0.0),
    ("final_score", 1.0, 0.0),
    ("family_income", 1.2, 3.4),
    ("age", 4.0, 27.0),
    ("rank_decile", 2.1, 5.5),
)


def build_rows(seed: int) -> list[list[str]]:
    data = gen_conditional_gaussian(ScenarioConfig(COUNTS, SHIFTS, seed=seed))
    rows = []
    for x, y, z in zip(data.x, data.y, data.z):
        cells = [f"{scale * v + offset:.4f}" for v, (_, scale, offset) in zip(x, COLUMNS)]
        cells.append("pass" if y == 1 else "fail")
        cells.append("A" if z == 1 else "B")
        rows.append(cells)
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=20240915)
    parser.add_argument(
        "--out",
        default=str(pathlib.Path(__file__).resolve().parents[1]
                    / "src" / "sgmix" / "data" / "admissions_standin.csv"),
    )
    args = parser.parse_args()
    rows = build_rows(args.seed)
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([name for name, _, _ in COLUMNS] + ["outcome", "group"])
        writer.writerows(rows)
    print(f"wrote {len(rows)} rows to {args.out}")


if __name__ == "__main__":
    main()
