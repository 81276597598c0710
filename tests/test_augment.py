import numpy as np
import pytest

from sgmix import (
    Dataset,
    FsgmConfig,
    concat,
    fsgm_augment,
    gen_conditional_gaussian,
    group_swap_augment,
    mix_features,
    mix_group,
    mix_label,
    preset_scenario,
    subgroup_counts,
)
from sgmix.augment import bootstrap, make_pair, vanilla_mixup
from sgmix.data import SubgroupKey, subgroup_indices
from sgmix.rng import RngStream, beta_sample, uniform_index

from conftest import random_dataset


# ---------------------------------------------------------------- mix ops


def test_mix_features_endpoints_exact():
    rng = np.random.default_rng(0)
    for _ in range(100):
        a, b = rng.standard_normal(5), rng.standard_normal(5)
        np.testing.assert_array_equal(mix_features(a, b, 0.0), a)
        np.testing.assert_array_equal(mix_features(a, b, 1.0), b)


def test_mix_features_hand_case():
    np.testing.assert_allclose(
        mix_features(np.array([0.0, 0.0]), np.array([4.0, 8.0]), 0.25), [1.0, 2.0]
    )


def test_mix_features_validates():
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        mix_features(np.zeros(2), np.ones(2), 1.5)
    with pytest.raises(ValueError, match="mismatch"):
        mix_features(np.zeros(2), np.ones(3), 0.5)


def test_mix_features_convex_hull():
    rng = np.random.default_rng(1)
    for _ in range(500):
        a, b = rng.standard_normal(4), rng.standard_normal(4)
        lam = rng.uniform()
        mixed = mix_features(a, b, lam)
        assert (mixed >= np.minimum(a, b) - 1e-12).all()
        assert (mixed <= np.maximum(a, b) + 1e-12).all()


def test_mix_label_hand_cases():
    for lam in (0.0, 0.3, 0.5, 0.9):
        assert mix_label(1, 1, lam) == 1
        assert mix_label(0, 0, lam) == 0
    assert mix_label(0, 1, 0.3) == 0
    assert mix_label(0, 1, 0.7) == 1
    assert mix_label(0, 1, 0.5) == 1  # inclusive threshold
    assert mix_label(1, 0, 0.5) == 1  # (1-0.5)*1 + 0.5*0 = 0.5, still >= 1/2


def test_mix_group_matches_label_rule():
    assert mix_group(0, 0, 0.7) == 0
    assert mix_group(1, 0, 0.5) == 1
    assert mix_group(0, 1, 0.49) == 0
    rng = np.random.default_rng(2)
    for _ in range(200):
        a, b = int(rng.integers(2)), int(rng.integers(2))
        lam = float(rng.uniform())
        assert mix_group(a, b, lam) == mix_label(a, b, lam)


def test_nearest_parent_label_rule():
    # for differing parent labels, the new label equals the source's exactly
    # when the mixed point is nearer the source, i.e. lam < 1/2
    rng = np.random.default_rng(3)
    for _ in range(2000):
        xs, xt = rng.standard_normal(3), rng.standard_normal(3)
        lam = float(rng.uniform())
        if lam == 0.5:
            continue
        ys, yt = 0, 1
        mixed = mix_features(xs, xt, lam)
        nearer_source = np.linalg.norm(mixed - xs) < np.linalg.norm(mixed - xt)
        assert (mix_label(ys, yt, lam) == ys) == nearer_source


def test_mix_ops_per_row_weights_match_scalar_calls():
    rng = np.random.default_rng(4)
    xs, xt = rng.standard_normal((50, 3)), rng.standard_normal((50, 3))
    ys, yt = rng.integers(0, 2, 50), rng.integers(0, 2, 50)
    lam = np.concatenate([[0.0, 0.5, 1.0], rng.uniform(size=47)])
    mixed = mix_features(xs, xt, lam)
    labels = mix_label(ys, yt, lam)
    groups = mix_group(yt, ys, lam)
    for r in range(50):
        np.testing.assert_array_equal(mixed[r], mix_features(xs[r], xt[r], lam[r]))
        assert labels[r] == mix_label(int(ys[r]), int(yt[r]), float(lam[r]))
        assert groups[r] == mix_group(int(yt[r]), int(ys[r]), float(lam[r]))


@pytest.mark.parametrize("bad", [-1e-12, 1.0 + 1e-12, np.nan])
def test_mix_ops_reject_any_weight_outside_unit_interval(bad):
    lam = np.array([0.2, 0.7, bad, 0.4])
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        mix_features(np.zeros((4, 2)), np.ones((4, 2)), lam)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        mix_label(np.zeros(4), np.ones(4), lam)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        mix_group(np.zeros(4), np.ones(4), lam)


def test_mix_features_weight_count_must_match_rows():
    with pytest.raises(ValueError, match="3 weights"):
        mix_features(np.zeros((4, 2)), np.ones((4, 2)), np.full(3, 0.5))


# ---------------------------------------------------------------- fsgm


def two_singleton_dataset():
    # one source sample and one target sample, both in group 0
    return Dataset([[0.0], [10.0]], [0, 1], [0, 0])


def test_fsgm_minimal_case():
    ds = two_singleton_dataset()
    cfg = FsgmConfig(pairs=(((0, 0), (1, 0)),), new_count=1, k=1, alpha=1.0, seed=4)
    report = fsgm_augment(ds, cfg)
    assert len(report.produced) == 1
    assert report.lambda_draws == 1
    x = float(report.produced.x[0, 0])
    lam = x / 10.0  # recover the mixing weight from the segment
    assert 0.0 <= lam <= 1.0
    assert report.produced.y[0] == int(lam >= 0.5)
    assert report.produced.z[0] == 0


def test_fsgm_batch_arithmetic_17_of_5():
    ds = gen_conditional_gaussian(preset_scenario("unbalanced-groups", seed=1))
    cfg = FsgmConfig(
        pairs=(((0, 0), (1, 0)), ((1, 0), (0, 0))), new_count=17, k=5, alpha=1.0, seed=2
    )
    report = fsgm_augment(ds, cfg)
    assert len(report.produced) == 17
    assert report.lambda_draws == 4  # 4 batches of 5, last one truncated
    counts = report.per_pair_counts
    assert counts[make_pair((0, 0), (1, 0))] == 10
    assert counts[make_pair((1, 0), (0, 0))] == 7


def test_fsgm_augments_to_double_size():
    ds = gen_conditional_gaussian(preset_scenario("unbalanced-groups", seed=6))
    cfg = FsgmConfig(
        pairs=(((0, 0), (1, 0)), ((1, 0), (0, 0))), new_count=len(ds), k=5, seed=0
    )
    report = fsgm_augment(ds, cfg)
    assert len(concat(ds, report.produced)) == 2 * len(ds)


def test_fsgm_lambda_shared_within_batch():
    # one source and exactly k targets: within each emitted batch the
    # recovered mixing weights agree; across batches they differ
    x = [[0.0]] + [[float(v)] for v in (6.0, 7.0, 8.0, 9.0, 10.0)]
    ds = Dataset(x, [0, 1, 1, 1, 1, 1], [0] * 6)
    cfg = FsgmConfig(pairs=(((0, 0), (1, 0)),), new_count=25, k=5, alpha=1.0, seed=9)
    report = fsgm_augment(ds, cfg)
    targets = np.array([6.0, 7.0, 8.0, 9.0, 10.0])
    lams = []
    for b in range(5):
        block = np.sort(report.produced.x[5 * b: 5 * (b + 1), 0])
        block_lams = block / targets  # x_new = lam * x_target when x_source = 0
        np.testing.assert_allclose(block_lams, block_lams[0], atol=1e-12)
        lams.append(block_lams[0])
    assert len(set(np.round(lams, 12))) > 1


def test_fsgm_label_rule_on_emitted_rows():
    # source fixed at 0; the k=4 nearest targets are always 6, 7, 8, 9 and the
    # neighbor step returns them in distance order, so each block row's weight
    # is x_new / x_target and the labels must follow the 1/2 threshold
    x = [[0.0]] + [[float(v)] for v in (6.0, 7.0, 8.0, 9.0, 10.0)]
    ds = Dataset(x, [0, 1, 1, 1, 1, 1], [0] * 6)
    cfg = FsgmConfig(pairs=(((0, 0), (1, 0)),), new_count=40, k=4, alpha=0.7, seed=3)
    report = fsgm_augment(ds, cfg)
    targets = np.array([6.0, 7.0, 8.0, 9.0])
    for b in range(10):
        block = report.produced.x[4 * b: 4 * (b + 1), 0]
        lams = block / targets
        np.testing.assert_allclose(lams, lams[0], atol=1e-12)
        expected = int(lams[0] >= 0.5)
        np.testing.assert_array_equal(report.produced.y[4 * b: 4 * (b + 1)], expected)
    np.testing.assert_array_equal(report.produced.z, np.zeros(40, dtype=int))


def test_fsgm_subgroup_targeting():
    # all emitted labels must be one parent's (y, z), picked by the weight
    ds = gen_conditional_gaussian(preset_scenario("unbalanced-groups", seed=12))
    cfg = FsgmConfig(pairs=(((0, 0), (1, 0)),), new_count=60, k=3, alpha=0.4, seed=7)
    report = fsgm_augment(ds, cfg)
    pairs = zip(report.produced.y.tolist(), report.produced.z.tolist())
    assert set(pairs) <= {(0, 0), (1, 0)}
    counts = subgroup_counts(report.produced)
    assert counts[0, 1] == 0 and counts[1, 1] == 0


def test_fsgm_deterministic():
    ds = random_dataset(5, t=60, d=2)
    cfg = FsgmConfig(pairs=(((0, 0), (1, 0)),), new_count=30, k=2, alpha=0.5, seed=8)
    a, b = fsgm_augment(ds, cfg), fsgm_augment(ds, cfg)
    np.testing.assert_array_equal(a.produced.x, b.produced.x)
    np.testing.assert_array_equal(a.produced.y, b.produced.y)
    np.testing.assert_array_equal(a.produced.z, b.produced.z)


def test_fsgm_errors():
    ds = Dataset([[0.0], [1.0]], [0, 1], [0, 0])
    with pytest.raises(ValueError, match=r"empty source subgroup \(y=1, z=1\)"):
        fsgm_augment(ds, FsgmConfig(pairs=(((1, 1), (0, 0)),), new_count=1, k=1))
    with pytest.raises(ValueError, match="insufficient target subgroup"):
        fsgm_augment(ds, FsgmConfig(pairs=(((0, 0), (1, 0)),), new_count=1, k=5))


def test_fsgm_config_validation():
    pair = ((0, 0), (1, 0))
    with pytest.raises(ValueError, match="at least one"):
        FsgmConfig(pairs=(), new_count=1)
    with pytest.raises(ValueError, match="distinct"):
        FsgmConfig(pairs=(pair, pair), new_count=1)
    with pytest.raises(ValueError, match="coincide"):
        FsgmConfig(pairs=(((0, 0), (0, 0)),), new_count=1)
    with pytest.raises(ValueError, match="0 or 1"):
        FsgmConfig(pairs=(((5, 5), (0, 0)),), new_count=1)
    with pytest.raises(ValueError, match="k must be"):
        FsgmConfig(pairs=(pair,), new_count=1, k=0)
    with pytest.raises(ValueError, match="alpha"):
        FsgmConfig(pairs=(pair,), new_count=1, alpha=0.0)
    with pytest.raises(ValueError, match="new_count"):
        FsgmConfig(pairs=(pair,), new_count=0)


def test_fsgm_standardization_can_flip_neighbor():
    # feature 2 spans [0, 1000] and dominates raw distances: from the one
    # source row (0, 400) the raw nearest target is (5, 0); after dataset-wide
    # z-scoring it is (0, 1000), so every mixed row keeps x1 = 0
    ds = Dataset([[0.0, 1000.0], [5.0, 0.0], [0.0, 400.0]], [1, 1, 0], [0, 0, 0])
    pairs = (((0, 0), (1, 0)),)
    raw = fsgm_augment(ds, FsgmConfig(pairs=pairs, new_count=6, k=1, seed=1)).produced
    scaled = fsgm_augment(
        ds, FsgmConfig(pairs=pairs, new_count=6, k=1, seed=1, standardize=True)
    ).produced
    assert (raw.x[:, 1] <= 400.0).all() and (raw.x[:, 0] > 0.0).all()
    np.testing.assert_array_equal(scaled.x[:, 0], 0.0)
    assert (scaled.x[:, 1] >= 400.0).all()


def _oracle_knn(dataset, query, target, k, exclude, standardize):
    """Per-call kNN: z-scores with dataset-wide statistics on every call."""
    members = subgroup_indices(dataset, target)
    members = members[members != exclude]
    feats = dataset.x[members]
    if standardize:
        mean = dataset.x.mean(axis=0)
        std = dataset.x.std(axis=0)
        std = np.where(std > 0, std, 1.0)
        feats = (feats - mean) / std
        query = (query - mean) / std
    dist = np.sqrt(((feats - query) ** 2).sum(axis=1))
    return members[np.lexsort((members, dist))[:k]]


def oracle_fsgm(dataset, config):
    """Subgroup mixup one row at a time: the same draws, per-row mix calls."""
    sources = {pair: subgroup_indices(dataset, pair.source) for pair in config.pairs}
    stream = RngStream(config.seed)
    xs, ys, zs, pair_of_row = [], [], [], []
    batches = 0
    while len(xs) < config.new_count:
        pair = config.pairs[batches % len(config.pairs)]
        i = uniform_index(stream, sources[pair])
        neighbors = _oracle_knn(
            dataset, dataset.x[i], pair.target, config.k, i, config.standardize
        )
        lam = beta_sample(stream, config.alpha)
        batches += 1
        for j in neighbors:
            xs.append(mix_features(dataset.x[i], dataset.x[j], lam))
            ys.append(mix_label(int(dataset.y[i]), int(dataset.y[j]), lam))
            zs.append(mix_group(int(dataset.z[i]), int(dataset.z[j]), lam))
            pair_of_row.append(pair)
    n = config.new_count
    counts = {pair: pair_of_row[:n].count(pair) for pair in config.pairs}
    return np.stack(xs[:n]), np.array(ys[:n]), np.array(zs[:n]), counts, batches


def oracle_vanilla(dataset, new_count, alpha, seed):
    """Cross-class mixup one row at a time: the same draws, per-row mix calls."""
    by_class = {c: np.nonzero(dataset.y == c)[0] for c in (0, 1)}
    stream = RngStream(seed)
    everyone = np.arange(len(dataset))
    xs, ys, zs = [], [], []
    for _ in range(new_count):
        i = uniform_index(stream, everyone)
        j = uniform_index(stream, by_class[1 - int(dataset.y[i])])
        lam = beta_sample(stream, alpha)
        xs.append(mix_features(dataset.x[i], dataset.x[j], lam))
        ys.append(mix_label(int(dataset.y[i]), int(dataset.y[j]), lam))
        zs.append(mix_group(int(dataset.z[i]), int(dataset.z[j]), lam))
    return np.stack(xs), np.array(ys), np.array(zs)


def scaled_dataset(seed):
    # columns on very different scales, so z-scoring changes the neighbors
    ds = random_dataset(seed, t=90, d=3)
    return Dataset(ds.x * [1.0, 300.0, 0.01], ds.y, ds.z)


@pytest.mark.parametrize("standardize", [False, True])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_fsgm_matches_per_row_oracle(seed, standardize):
    ds = scaled_dataset(seed)
    cfg = FsgmConfig(pairs=(((0, 0), (1, 1)), ((1, 0), (0, 1))), new_count=23, k=5,
                     alpha=0.6, seed=seed, standardize=standardize)
    report = fsgm_augment(ds, cfg)
    x, y, z, counts, batches = oracle_fsgm(ds, cfg)
    assert np.array_equal(report.produced.x, x)
    assert np.array_equal(report.produced.y, y)
    assert np.array_equal(report.produced.z, z)
    assert report.per_pair_counts == counts == dict(zip(cfg.pairs, (13, 10)))
    assert report.lambda_draws == batches == 5


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_vanilla_mixup_matches_per_row_oracle(seed):
    ds = scaled_dataset(seed)
    produced = vanilla_mixup(ds, new_count=37, alpha=0.6, seed=seed)
    x, y, z = oracle_vanilla(ds, 37, 0.6, seed)
    assert np.array_equal(produced.x, x)
    assert np.array_equal(produced.y, y)
    assert np.array_equal(produced.z, z)


# ---------------------------------------------------------------- baselines


def test_vanilla_mixup_pairs_cross_classes():
    # classes are singletons at -10 and +10, so every mixed point's label
    # must match its nearer endpoint's class
    ds = Dataset([[-10.0], [10.0]], [0, 1], [0, 0])
    produced = vanilla_mixup(ds, new_count=200, alpha=1.0, seed=1)
    assert len(produced) == 200
    assert (produced.x[:, 0] >= -10.0).all() and (produced.x[:, 0] <= 10.0).all()
    np.testing.assert_array_equal(produced.y, (produced.x[:, 0] >= 0).astype(int))
    np.testing.assert_array_equal(produced.z, np.zeros(200, dtype=int))


def test_vanilla_mixup_requires_both_classes():
    ds = Dataset([[0.0], [1.0]], [1, 1], [0, 1])
    with pytest.raises(ValueError, match="class 0 is empty"):
        vanilla_mixup(ds, new_count=3, alpha=1.0, seed=0)


def test_vanilla_mixup_deterministic_and_sized():
    ds = random_dataset(9, t=40)
    a = vanilla_mixup(ds, new_count=40, alpha=0.5, seed=3)
    b = vanilla_mixup(ds, new_count=40, alpha=0.5, seed=3)
    np.testing.assert_array_equal(a.x, b.x)
    assert len(concat(ds, a)) == 2 * len(ds)


def test_group_swap_forced_single_sample():
    ds = Dataset([[3.0, 4.0]], [1], [0])
    produced = group_swap_augment(ds, new_count=3, seed=0)
    assert len(produced) == 3
    np.testing.assert_array_equal(produced.x, np.tile([3.0, 4.0], (3, 1)))
    np.testing.assert_array_equal(produced.y, [1, 1, 1])
    np.testing.assert_array_equal(produced.z, [1, 1, 1])


def test_group_swap_copies_rows_and_flips_groups():
    ds = random_dataset(11, t=30, d=2)
    produced = group_swap_augment(ds, new_count=60, seed=2)
    originals = {tuple(row): (int(y), int(z)) for row, y, z in zip(ds.x, ds.y, ds.z)}
    for row, y, z in zip(produced.x, produced.y, produced.z):
        oy, oz = originals[tuple(row)]
        assert y == oy
        assert z == 1 - oz


def test_group_swap_balances_groups():
    # with T' = T uniform swapped copies, each group's expected count in the
    # combined data is exactly T; allow 3 sigma of binomial noise
    ds = random_dataset(13, t=400, d=2)
    t = len(ds)
    produced = group_swap_augment(ds, new_count=t, seed=5)
    combined = concat(ds, produced)
    g0 = int(np.sum(combined.z == 0))
    p = float(np.mean(ds.z == 1))  # swapped copies land in group 0 at this rate
    sigma = np.sqrt(t * p * (1 - p))
    assert abs(g0 - t) <= 3 * sigma


def test_bootstrap_identity_and_doubling():
    ds = random_dataset(15, t=25)
    same = bootstrap(ds, total_size=len(ds), seed=0)
    np.testing.assert_array_equal(same.x, ds.x)
    doubled = bootstrap(ds, total_size=2 * len(ds), seed=0)
    assert len(doubled) == 2 * len(ds)
    np.testing.assert_array_equal(doubled.x[:25], ds.x)
    originals = {tuple(row) for row in ds.x}
    for row in doubled.x[25:]:
        assert tuple(row) in originals


def test_bootstrap_copy_marginals():
    ds = random_dataset(16, t=300)
    extra = bootstrap(ds, total_size=600, seed=1)
    copies_y = extra.y[300:]
    p = float(np.mean(ds.y == 1))
    sigma = np.sqrt(300 * p * (1 - p))
    assert abs(np.sum(copies_y == 1) - 300 * p) <= 3 * sigma


def test_bootstrap_validates_size():
    ds = random_dataset(17, t=10)
    with pytest.raises(ValueError, match="smaller than the dataset"):
        bootstrap(ds, total_size=5, seed=0)


def test_augmenter_empty_dataset_errors():
    empty = Dataset.empty(2)
    with pytest.raises(ValueError):
        group_swap_augment(empty, new_count=1, seed=0)
    with pytest.raises(ValueError):
        bootstrap(empty, total_size=1, seed=0)
