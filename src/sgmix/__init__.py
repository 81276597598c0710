"""Subgroup mixup data augmentation for group-fair tabular classification.

Build biased datasets (synthetic or CSV), augment them by interpolating
underrepresented subgroups toward their neighbors in a chosen target
subgroup, train small from-scratch classifiers, and score accuracy alongside
a demographic-parity fairness measure. Everything else lives in the
submodules, for example `sgmix.harness.alpha_search`.
"""
from .augment import (
    FsgmConfig,
    fsgm_augment,
    group_swap_augment,
    mix_features,
    mix_group,
    mix_label,
)
from .data import Dataset, concat, subgroup_counts, subgroup_indices
from .harness import ExperimentConfig, emit_results, run_experiment, run_method
from .metrics import accuracy, dp_gap, evaluate, fairness_score
from .models import ForestSpec, MlpSpec, predict, train_forest, train_mlp
from .synth import (
    ScenarioConfig,
    ShiftSpec,
    balanced_test_config,
    gen_conditional_gaussian,
    preset_scenario,
    shift_vectors,
)
from .tabular import CsvSchema, load_csv

__version__ = "0.1.0"

__all__ = [
    "CsvSchema",
    "Dataset",
    "ExperimentConfig",
    "ForestSpec",
    "FsgmConfig",
    "MlpSpec",
    "ScenarioConfig",
    "ShiftSpec",
    "accuracy",
    "balanced_test_config",
    "concat",
    "dp_gap",
    "emit_results",
    "evaluate",
    "fairness_score",
    "fsgm_augment",
    "gen_conditional_gaussian",
    "group_swap_augment",
    "load_csv",
    "mix_features",
    "mix_group",
    "mix_label",
    "predict",
    "preset_scenario",
    "run_experiment",
    "run_method",
    "shift_vectors",
    "subgroup_counts",
    "subgroup_indices",
    "train_forest",
    "train_mlp",
]
