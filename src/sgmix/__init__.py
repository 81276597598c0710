"""Subgroup mixup data augmentation for group-fair tabular classification.

Build biased datasets (synthetic or CSV), augment them by interpolating
underrepresented subgroups toward their neighbors in a chosen target
subgroup, train small from-scratch classifiers, and score accuracy alongside
a demographic-parity fairness measure.
"""
from .augment import (
    AugmentationReport,
    FsgmConfig,
    MixPair,
    bootstrap,
    fsgm_augment,
    group_swap_augment,
    mix_features,
    mix_group,
    mix_label,
    vanilla_mixup,
)
from .data import (
    ALL_SUBGROUPS,
    Dataset,
    SubgroupKey,
    concat,
    subgroup_counts,
    subgroup_indices,
    validate,
)
from .harness import (
    DEFAULT_ALPHA_GRID,
    DEFAULT_PAIRS,
    METHODS,
    MODEL_KINDS,
    CellError,
    ExperimentConfig,
    MethodRun,
    ResultRow,
    ResultTable,
    alpha_search,
    emit_results,
    run_experiment,
    run_method,
    train_test_split,
)
from .metrics import EvalResult, accuracy, dp_gap, evaluate, fairness_score
from .models import (
    ForestSpec,
    MlpSpec,
    TrainedModel,
    model_from_json,
    model_to_json,
    predict,
    train_forest,
    train_mlp,
)
from .neighbors import NeighborResult, knn_in_subgroup
from .rng import RngStream, beta_sample, derive_seed, uniform_index
from .synth import (
    SCENARIO_NAMES,
    ScenarioConfig,
    ShiftSpec,
    balanced_test_config,
    gen_conditional_gaussian,
    preset_scenario,
    shift_vectors,
)
from .tabular import CsvSchema, dump_augmented_csv, load_config, load_csv, parse_config_text

__version__ = "0.1.0"

__all__ = [
    "ALL_SUBGROUPS",
    "AugmentationReport",
    "CellError",
    "CsvSchema",
    "DEFAULT_ALPHA_GRID",
    "DEFAULT_PAIRS",
    "Dataset",
    "EvalResult",
    "ExperimentConfig",
    "ForestSpec",
    "FsgmConfig",
    "METHODS",
    "MODEL_KINDS",
    "MethodRun",
    "MixPair",
    "MlpSpec",
    "NeighborResult",
    "ResultRow",
    "ResultTable",
    "RngStream",
    "SCENARIO_NAMES",
    "ScenarioConfig",
    "ShiftSpec",
    "SubgroupKey",
    "TrainedModel",
    "accuracy",
    "alpha_search",
    "balanced_test_config",
    "beta_sample",
    "bootstrap",
    "concat",
    "derive_seed",
    "dp_gap",
    "dump_augmented_csv",
    "emit_results",
    "evaluate",
    "fairness_score",
    "fsgm_augment",
    "gen_conditional_gaussian",
    "group_swap_augment",
    "knn_in_subgroup",
    "load_config",
    "load_csv",
    "mix_features",
    "mix_group",
    "mix_label",
    "model_from_json",
    "model_to_json",
    "parse_config_text",
    "predict",
    "preset_scenario",
    "run_experiment",
    "run_method",
    "shift_vectors",
    "subgroup_counts",
    "subgroup_indices",
    "train_forest",
    "train_mlp",
    "train_test_split",
    "uniform_index",
    "validate",
    "vanilla_mixup",
]
