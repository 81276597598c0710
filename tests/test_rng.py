import numpy as np
import pytest

from sgmix.rng import (
    STREAM_OFFSETS,
    RngStream,
    beta_sample,
    derive_seed,
    uniform_index,
)


def test_equal_seeds_give_equal_sequences():
    a, b = RngStream(123), RngStream(123)
    draws_a = [beta_sample(a, 0.7) for _ in range(20)]
    draws_b = [beta_sample(b, 0.7) for _ in range(20)]
    assert draws_a == draws_b
    assert RngStream(123).gen.integers(1 << 30) != RngStream(124).gen.integers(1 << 30)


def test_substreams_are_stable_and_distinct():
    # a stage's stream is keyed by the master seed and the stage's offset path
    data_gen = (STREAM_OFFSETS["data-gen"],)
    x = RngStream(5, data_gen).gen.standard_normal(4)
    y = RngStream(5, data_gen).gen.standard_normal(4)
    np.testing.assert_array_equal(x, y)
    z = RngStream(5, (STREAM_OFFSETS["split"],)).gen.standard_normal(4)
    assert not np.allclose(x, z)
    assert not np.allclose(x, RngStream(5).gen.standard_normal(4))


def test_derive_seed_depends_on_full_path():
    assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
    assert derive_seed(1, 2, 3) != derive_seed(1, 3, 2)
    assert derive_seed(1) != derive_seed(2)


def test_substream_cross_correlation_negligible():
    n = 100_000
    a = RngStream(7, (1,)).gen.standard_normal(n)
    b = RngStream(7, (2,)).gen.standard_normal(n)
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.02


def beta_draws(stream, alpha, n):
    return np.array([beta_sample(stream, alpha) for _ in range(n)])


def test_beta_rejects_bad_alpha():
    stream = RngStream(0)
    for alpha in (0.0, -1.0):
        with pytest.raises(ValueError, match="alpha"):
            beta_sample(stream, alpha)


def test_beta_always_in_unit_interval():
    stream = RngStream(3)
    for alpha in (0.01, 0.1, 1.0, 4.0):
        draws = beta_draws(stream, alpha, 5000)
        assert draws.min() >= 0.0 and draws.max() <= 1.0


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


def test_uniform_index_singleton_and_empty():
    stream = RngStream(1)
    assert uniform_index(stream, [7]) == 7
    with pytest.raises(ValueError, match="empty source subgroup"):
        uniform_index(stream, [])


def test_uniform_index_frequencies():
    stream = RngStream(2)
    draws = uniform_index(stream, [3, 9], size=100_000)
    freq = np.mean(draws == 3)
    assert abs(freq - 0.5) < 0.01
