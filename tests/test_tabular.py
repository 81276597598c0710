import numpy as np
import pytest

from sgmix import CsvSchema, load_csv, subgroup_counts
from sgmix.tabular import dump_augmented_csv, load_config, parse_config_text

from conftest import STANDIN_FEATURES, random_dataset


def toy_schema():
    return CsvSchema(
        feature_columns=("height", "weight"),
        label_column="outcome",
        label_positive="yes",
        label_negative="no",
        group_column="site",
        group_positive="north",
        group_negative="south",
    )


def write(tmp_path, text, name="toy.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


# ---------------------------------------------------------------- load_csv


def test_load_csv_two_row_toy(tmp_path):
    path = write(
        tmp_path,
        "height,weight,outcome,site\n"
        "1.5,60,yes,north\n"
        "1.8,80.5,no,south\n",
    )
    ds = load_csv(path, toy_schema())
    np.testing.assert_array_equal(ds.x, [[1.5, 60.0], [1.8, 80.5]])
    np.testing.assert_array_equal(ds.y, [1, 0])
    np.testing.assert_array_equal(ds.z, [1, 0])


def test_load_csv_ignores_extra_columns_and_order(tmp_path):
    path = write(
        tmp_path,
        "id,site,weight,outcome,height\n"
        "a,south,70,yes,1.6\n",
    )
    ds = load_csv(path, toy_schema())
    np.testing.assert_array_equal(ds.x, [[1.6, 70.0]])
    assert (ds.y[0], ds.z[0]) == (1, 0)


def test_load_csv_missing_columns(tmp_path):
    path = write(tmp_path, "height,outcome,site\n1.0,yes,north\n")
    with pytest.raises(ValueError, match=r"missing columns \['weight'\]"):
        load_csv(path, toy_schema())


def test_load_csv_rejects_a_repeated_column_the_schema_reads(tmp_path):
    schema = CsvSchema(feature_columns=("x1",), label_column="y", label_positive="1",
                       group_column="z", group_positive="1")
    path = write(tmp_path, "x1,x1,y,z\n1,100,1,0\n2,200,0,1\n")
    with pytest.raises(ValueError, match=r"column 'x1' appears 2 times in the header"):
        load_csv(path, schema)
    # A repeated column the schema does not read is still allowed.
    path = write(tmp_path, "x1,note,y,note,z\n1,a,1,b,0\n", name="notes.csv")
    np.testing.assert_array_equal(load_csv(path, schema).x, [[1.0]])


def test_load_csv_header_only(tmp_path):
    path = write(tmp_path, "height,weight,outcome,site\n")
    ds = load_csv(path, toy_schema())
    assert len(ds) == 0 and ds.dim == 2


def test_load_csv_empty_file(tmp_path):
    path = write(tmp_path, "")
    with pytest.raises(ValueError, match="expected a header row"):
        load_csv(path, toy_schema())


def test_load_csv_reports_all_bad_rows_with_line_numbers(tmp_path):
    path = write(
        tmp_path,
        "height,weight,outcome,site\n"
        "1.0,60,yes,north\n"
        "oops,61,yes,north\n"
        "1.2,62,maybe,south\n"
        "1.3,63,no,east\n"
        "1.4,64,no\n"
        "nan,65,no,south\n"
        "1.6,-inf,no,south\n",
    )
    with pytest.raises(ValueError) as exc:
        load_csv(path, toy_schema())
    message = str(exc.value)
    assert "rejected 6 row(s)" in message
    assert "line 3: non-numeric feature 'height': 'oops'" in message
    assert "line 4: unknown value 'maybe' in column 'outcome'" in message
    assert "line 5: unknown value 'east' in column 'site'" in message
    assert "line 6: expected 4 cells, got 3" in message
    assert "line 7: non-finite feature 'height': 'nan'" in message
    assert "line 8: non-finite feature 'weight': '-inf'" in message


def test_load_csv_without_declared_negative_maps_other_values_to_zero(tmp_path):
    schema = CsvSchema(
        feature_columns=("height",),
        label_column="outcome",
        label_positive="yes",
        group_column="site",
        group_positive="north",
    )
    path = write(tmp_path, "height,outcome,site\n1.0,whatever,anywhere\n")
    ds = load_csv(path, schema)
    assert (ds.y[0], ds.z[0]) == (0, 0)


def test_load_csv_semicolon_delimiter(tmp_path):
    schema = CsvSchema(
        feature_columns=("a",),
        label_column="y",
        label_positive="1",
        group_column="z",
        group_positive="1",
        delimiter=";",
    )
    path = write(tmp_path, "a;y;z\n2.5;1;0\n")
    ds = load_csv(path, schema)
    assert ds.x[0, 0] == 2.5 and ds.y[0] == 1 and ds.z[0] == 0


def test_load_csv_skips_blank_lines(tmp_path):
    path = write(tmp_path, "height,weight,outcome,site\n\n1.0,60,yes,north\n\n")
    assert len(load_csv(path, toy_schema())) == 1


def test_schema_validation():
    with pytest.raises(ValueError, match="disjoint"):
        CsvSchema(
            feature_columns=("a", "b"),
            label_column="a",
            label_positive="1",
            group_column="z",
            group_positive="1",
        )
    with pytest.raises(ValueError, match="at least one feature"):
        CsvSchema(
            feature_columns=(),
            label_column="y",
            label_positive="1",
            group_column="z",
            group_positive="1",
        )
    with pytest.raises(ValueError, match="delimiter must be one character"):
        CsvSchema(
            feature_columns=("a",),
            label_column="y",
            label_positive="1",
            group_column="z",
            group_positive="1",
            delimiter=";;",
        )


def test_bundled_standin_loads(standin_path, standin_schema):
    ds = load_csv(standin_path, standin_schema)
    assert len(ds) == 2800
    assert ds.dim == len(STANDIN_FEATURES)
    counts = subgroup_counts(ds)
    assert counts.sum() == 2800
    assert (counts > 0).all()


# ---------------------------------------------------------------- config


def test_parse_config_text_basic():
    text = (
        "# run settings\n"
        "experiment.scenario = unbalanced-groups\n"
        "experiment.replicates = 5   # five repeats\n"
        "\n"
        "fsgm.pairs = 1,0->0,0;0,0->1,0\n"
    )
    cfg = parse_config_text(text)
    assert cfg == {
        "experiment.scenario": "unbalanced-groups",
        "experiment.replicates": "5",
        "fsgm.pairs": "1,0->0,0;0,0->1,0",
    }


def test_parse_config_value_may_contain_equals():
    assert parse_config_text("note = a=b")["note"] == "a=b"


def test_parse_config_errors_carry_line_numbers():
    with pytest.raises(ValueError, match="config line 2"):
        parse_config_text("a = 1\nbroken line\n")
    with pytest.raises(ValueError, match="config line 1: empty key"):
        parse_config_text(" = 3\n")


def test_parse_config_rejects_a_repeated_key():
    text = "experiment.seed = 1\n# again\nmlp.epochs = 2\n experiment.seed=3\n"
    with pytest.raises(ValueError,
                       match=r"config line 4: key 'experiment.seed' is already set on line 1"):
        parse_config_text(text)


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("experiment.seed = 9\nmlp.epochs = 4\n")
    assert load_config(path) == {"experiment.seed": "9", "mlp.epochs": "4"}


# ---------------------------------------------------------------- dumps


def test_dump_augmented_round_trip(tmp_path):
    ds = random_dataset(3, t=12, d=4)
    origins = ["original"] * 6 + ["fsgm"] * 6
    path = tmp_path / "aug.csv"
    dump_augmented_csv(path, ds, origins)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "x1,x2,x3,x4,y,z,origin"
    assert len(lines) == 13
    schema = CsvSchema(
        feature_columns=("x1", "x2", "x3", "x4"),
        label_column="y",
        label_positive="1",
        group_column="z",
        group_positive="1",
    )
    back = load_csv(path, schema)
    np.testing.assert_array_equal(back.x, ds.x)  # repr writes full precision
    np.testing.assert_array_equal(back.y, ds.y)
    np.testing.assert_array_equal(back.z, ds.z)


def test_dump_augmented_validates(tmp_path):
    ds = random_dataset(4, t=4, d=2)
    with pytest.raises(ValueError, match="3 origins for 4 samples"):
        dump_augmented_csv(tmp_path / "a.csv", ds, ["original"] * 3)
    with pytest.raises(ValueError, match="unknown origin tags"):
        dump_augmented_csv(tmp_path / "b.csv", ds, ["mystery"] * 4)
