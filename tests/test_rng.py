import math
import re
from pathlib import Path

import numpy as np
import pytest

from sgmix import (
    FsgmConfig,
    ForestSpec,
    MlpSpec,
    ScenarioConfig,
    fsgm_augment,
    gen_conditional_gaussian,
    group_swap_augment,
    train_forest,
    train_mlp,
)
from sgmix.augment import bootstrap, vanilla_mixup
from sgmix.rng import STREAM_OFFSETS, RngStream, beta_sample, derive_seed

from conftest import random_dataset, run_python

SRC = Path(__file__).resolve().parents[1] / "src" / "sgmix"


def test_equal_seeds_give_equal_sequences():
    a, b = RngStream(123), RngStream(123)
    draws_a = [beta_sample(a, 0.7) for _ in range(20)]
    draws_b = [beta_sample(b, 0.7) for _ in range(20)]
    assert draws_a == draws_b
    assert RngStream(123).integers(1 << 30) != RngStream(124).integers(1 << 30)


def test_substreams_are_stable_and_distinct():
    # a stage's stream is keyed by the master seed and the stage's offset path
    data_gen = (STREAM_OFFSETS["data-gen"],)
    x = RngStream(5, data_gen).standard_normal(4)
    y = RngStream(5, data_gen).standard_normal(4)
    np.testing.assert_array_equal(x, y)
    z = RngStream(5, (STREAM_OFFSETS["split"],)).standard_normal(4)
    assert not np.allclose(x, z)
    assert not np.allclose(x, RngStream(5).standard_normal(4))


def test_derive_seed_depends_on_full_path():
    assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
    assert derive_seed(1, 2, 3) != derive_seed(1, 3, 2)
    assert derive_seed(1) != derive_seed(2)
    # int(1.5) would quietly key the path (1,).
    with pytest.raises(ValueError, match="path entry must be an integer, got 1.5"):
        derive_seed(0, 1.5)


def test_substream_cross_correlation_negligible():
    n = 100_000
    a = RngStream(7, (1,)).standard_normal(n)
    b = RngStream(7, (2,)).standard_normal(n)
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.02


def beta_draws(stream, alpha, n):
    return np.array([beta_sample(stream, alpha) for _ in range(n)])


def test_beta_rejects_bad_alpha():
    stream = RngStream(0)
    for alpha in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="alpha"):
            beta_sample(stream, alpha)


def test_beta_always_in_unit_interval():
    stream = RngStream(3)
    for alpha in (0.01, 0.1, 1.0, 4.0):
        draws = beta_draws(stream, alpha, 5000)
        assert draws.min() >= 0.0 and draws.max() <= 1.0


def test_beta_at_a_tiny_alpha_ends_in_the_unit_interval():
    # Both Gamma draws underflow to 0 at these alphas; a redraw loop would
    # never end, so the child process's timeout fails a regression.
    code = (
        "import numpy as np\n"
        "from sgmix.rng import RngStream, beta_sample\n"
        "for alpha in (1e-30, 5e-324):\n"
        "    stream = RngStream(0)\n"
        "    draws = np.array([beta_sample(stream, alpha) for _ in range(2000)])\n"
        "    print(draws.min(), draws.max(), draws.mean())\n"
    )
    done = run_python(["-W", "error", "-c", code], timeout=30)
    lines = done.stdout.splitlines()
    assert done.stderr == "" and len(lines) == 2
    for line in lines:
        low, high, mean = map(float, line.split())
        assert 0.0 <= low and high <= 1.0 and abs(mean - 0.5) < 0.05


def test_beta_uniform_case_mean():
    draws = beta_draws(RngStream(11), 1.0, 100_000)
    assert abs(draws.mean() - 0.5) < 0.005


def test_beta_variance_matches_closed_form():
    # Var Beta(a, a) = a^2 / ((2a)^2 (2a+1)) = 1 / (4 (2a+1)); a=2 gives 0.05
    draws = beta_draws(RngStream(12), 2.0, 100_000)
    assert abs(draws.var() - 0.05) < 0.005


def test_beta_symmetric_about_half():
    # two-sample Kolmogorov-Smirnov between lambda and 1-lambda draws
    draws = beta_draws(RngStream(13), 0.4, 100_000)
    flipped = 1.0 - beta_draws(RngStream(14), 0.4, 100_000)
    grid = np.sort(np.concatenate([draws, flipped]))
    cdf_a = np.searchsorted(np.sort(draws), grid, side="right") / draws.size
    cdf_b = np.searchsorted(np.sort(flipped), grid, side="right") / flipped.size
    ks = np.abs(cdf_a - cdf_b).max()
    critical = 1.36 * np.sqrt(2.0 / draws.size)  # 5% level, equal sizes
    assert ks < critical


def test_stream_keying_is_pinned():
    # Literal first draws: a change to how streams are keyed fails here, not
    # only in the benchmark's results fingerprints.
    pinned = {
        (0, ()): [0.4000707853732506, 0.8972038510508373],
        (5, (STREAM_OFFSETS["data-gen"],)): [0.9255421343998284, 0.177408190485617],
        (7, (5, 3)): [0.18638517372506802, 0.8990756530306276],
    }
    for (seed, path), draws in pinned.items():
        stream = RngStream(seed, path)
        assert [beta_sample(stream, 1.0) for _ in draws] == draws, (seed, path)
    assert derive_seed(0, 1) == 4881901421217228719


DATA = random_dataset(0)
SEEDED = {
    "train_forest": lambda seed: train_forest(DATA.x, DATA.y, ForestSpec(n_trees=2), seed),
    "train_mlp": lambda seed: train_mlp(DATA.x, DATA.y, MlpSpec(epochs=1), seed),
    "fsgm_augment": lambda seed: fsgm_augment(DATA, FsgmConfig(
        pairs=(((0, 0), (1, 0)),), new_count=4, k=2, seed=seed)),
    "vanilla_mixup": lambda seed: vanilla_mixup(DATA, 4, 1.0, seed),
    "group_swap_augment": lambda seed: group_swap_augment(DATA, 4, seed),
    "bootstrap": lambda seed: bootstrap(DATA, 44, seed),
    "gen_conditional_gaussian": lambda seed: gen_conditional_gaussian(
        ScenarioConfig(np.array([[3, 3], [3, 3]]), seed=seed)),
    "derive_seed": lambda seed: derive_seed(seed, 1),
    "RngStream": lambda seed: RngStream(seed).random(),
}


@pytest.mark.parametrize("entry", sorted(SEEDED))
def test_every_seeded_entry_point_rejects_a_fractional_seed(entry):
    # int(2.5) would quietly build the seed-2 output; numpy's own errors for
    # None and -1 do not name the seed.
    for seed, message in ((2.5, "an integer, got 2.5"), (None, "an integer, got None"),
                          (True, "an integer, got True"), (-1, ">= 0, got -1")):
        with pytest.raises(ValueError, match=f"^seed must be {message}$"):
            SEEDED[entry](seed)
    for seed in (np.int64(2), np.uint32(2)):
        SEEDED[entry](seed)


def test_only_rng_module_touches_numpy_or_stdlib_random():
    # Every draw must come from a keyed stream, or seeds stop fixing results.
    pattern = re.compile(r"\bnp\.random\b|\bnumpy\.random\b"
                         r"|^\s*(from\s+\S+\s+)?import\s+random\b|^\s*from\s+random\s",
                         re.MULTILINE)
    modules = sorted(SRC.glob("*.py"))
    assert SRC / "rng.py" in modules
    offenders = [path.name for path in modules
                 if path.name != "rng.py" and pattern.search(path.read_text())]
    assert offenders == []
