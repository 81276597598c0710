"""The benchmark's tracer wraps sgmix functions by module attribute name.

A renamed function or parameter would silently empty its per-layer metrics,
so the wrap sites are checked here.
"""
import importlib.util
from pathlib import Path

from sgmix import augment, harness, metrics
from sgmix.data import SubgroupKey, subgroup_indices
from sgmix.models import ForestSpec, MlpSpec, train_forest

from conftest import random_dataset

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_every_site_and_binds_knn_arguments():
    ds = random_dataset(0, t=40, d=2)
    cfg = augment.FsgmConfig(pairs=(((0, 0), (1, 0)),), new_count=4, k=2, standardize=True)
    tracer = load_tracer_module().Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        report = augment.fsgm_augment(ds, cfg)
    finally:
        tracer.uninstall()
    assert len(report.produced) == 4
    # One neighbor search per pair covers all of that pair's draws, so the
    # tracer counts one call and one pass over the target members per pair.
    assert tracer.totals()["neighbors.knn_in_subgroup"]["calls"] == len(cfg.pairs) == 1
    members = subgroup_indices(ds, SubgroupKey(1, 0)).size
    assert tracer.counts["neighbors.knn_in_subgroup"]["dist_evals"] == members
    fsgm = tracer.counts["augment.fsgm_augment"]
    assert fsgm["samples"] == 4 and fsgm["lambda_draws"] == 2


def test_tracer_binds_model_fit_arguments():
    ds = random_dataset(1, t=50, d=3)
    tracer = load_tracer_module().Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        harness.train_forest(ds.x, ds.y, ForestSpec(n_trees=3), 7)
        harness.train_mlp(ds.x, ds.y, MlpSpec(epochs=2, batch_size=16), 7)
    finally:
        tracer.uninstall()
    forest, mlp = tracer.counts["models.train_forest"], tracer.counts["models.train_mlp"]
    assert forest["fits"] == 1 and forest["row_trees"] == 50 * 3
    assert mlp["fits"] == 1 and mlp["sgd_steps"] == 2 * 4  # ceil(50 / 16) batches per epoch


def test_tracer_counts_every_tree_of_a_forest_predict():
    """The tracer reads the forest's tree count from params["trees"]."""
    ds = random_dataset(2, t=60, d=3)
    model = train_forest(ds.x, ds.y, ForestSpec(n_trees=17), 3)
    tracer = load_tracer_module().Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        metrics.evaluate(model, ds)
    finally:
        tracer.uninstall()
    assert tracer.counts["models.predict"]["row_trees"] == 60 * 17
