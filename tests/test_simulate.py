"""Scenario validation and generated-data guarantees."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jpjica.errors import InvalidScenario
from jpjica.numerics import excess_kurtosis
from jpjica.seeding import rng_for
from jpjica.simulate import (
    ScenarioSpec,
    add_noise,
    generate_dataset,
    generate_spatial_source,
)
from jpjica.types import SourceKind


def test_spec_validation_errors():
    with pytest.raises(InvalidScenario):
        ScenarioSpec(n_subjects=0, n_joint=1)
    with pytest.raises(InvalidScenario):
        ScenarioSpec(n_subjects=2, n_joint=1, n_voxels=8)
    with pytest.raises(InvalidScenario):
        ScenarioSpec(n_subjects=2, n_joint=0)  # no sources at all
    with pytest.raises(InvalidScenario):
        ScenarioSpec(n_subjects=2, n_joint=5, n_time=6)  # too few time points
    with pytest.raises(InvalidScenario):
        ScenarioSpec(n_subjects=4, n_joint=1, n_pjoint=(1, 1, 0, 0))  # cluster of 2 shares
    ScenarioSpec(
        n_subjects=4, n_joint=1, n_pjoint=(1, 1, 0, 0), allow_small_clusters=True
    )
    with pytest.raises(InvalidScenario):
        ScenarioSpec(n_subjects=4, n_joint=1, n_pjoint=(1, 1, 1))  # wrong tuple length
    with pytest.raises(InvalidScenario):
        ScenarioSpec(n_subjects=2, n_joint=1, snr_db=float("nan"))
    with pytest.raises(InvalidScenario):
        # partially joint sources need a second cluster
        ScenarioSpec(n_subjects=6, n_joint=1, n_pjoint=1, n_clusters=1)
    for clusters in (0, -4):
        with pytest.raises(InvalidScenario, match="cluster"):
            ScenarioSpec(n_subjects=4, n_joint=1, n_clusters=clusters)


def test_partition_contiguous_near_equal():
    spec = ScenarioSpec(n_subjects=10, n_joint=1, n_clusters=2)
    assert spec.partition == ((0, 1, 2, 3, 4), (5, 6, 7, 8, 9))
    spec = ScenarioSpec(n_subjects=7, n_joint=1, n_clusters=3)
    assert spec.partition == ((0, 1, 2), (3, 4), (5, 6))


def test_spec_to_dict_round_trip_fields():
    spec = ScenarioSpec(n_subjects=5, n_joint=2, n_pjoint=0, n_individual=1, seed=9)
    d = spec.to_dict()
    assert d["n_subjects"] == 5
    assert d["n_joint"] == 2
    assert d["n_individual"] == [1] * 5
    assert d["seed"] == 9


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([256, 1024, 4096, 50, 500, 5000]))
def test_maps_standardized_and_super_gaussian(seed, n_voxels):
    m = generate_spatial_source(n_voxels, rng_for(seed, "maps", 7))
    assert abs(m.mean()) < 1e-10
    assert np.mean(m * m) == pytest.approx(1.0, abs=1e-10)
    assert excess_kurtosis(m) >= 1.0


def test_dataset_exact_mixing_when_noiseless():
    spec = ScenarioSpec(
        n_subjects=6, n_joint=2, n_pjoint=1, n_individual=1,
        n_clusters=2, n_voxels=1024, n_time=50, seed=0,
        allow_small_clusters=True,
    )
    datasets, truth = generate_dataset(spec)
    assert len(datasets) == 6
    for k, ds in enumerate(datasets):
        assert ds.observations.shape == (50, 1024)
        np.testing.assert_allclose(
            ds.observations, truth.mixing[k] @ truth.sources[k], atol=1e-12
        )
        assert np.linalg.cond(truth.mixing[k]) <= 1e3
        assert len(truth.labels[k]) == truth.sources[k].shape[0]


def test_dataset_sharing_structure():
    spec = ScenarioSpec(
        n_subjects=10, n_joint=2, n_pjoint=1, n_individual=1,
        n_clusters=2, n_voxels=1024, n_time=60, seed=1,
    )
    datasets, truth = generate_dataset(spec)
    # joint rows identical across subjects
    for c in range(2):
        for k in range(1, 10):
            np.testing.assert_array_equal(truth.sources[k][c], truth.sources[0][c])
    # partially joint rows shared within a cluster, distinct across clusters
    np.testing.assert_array_equal(truth.sources[0][2], truth.sources[4][2])
    np.testing.assert_array_equal(truth.sources[5][2], truth.sources[9][2])
    assert not np.array_equal(truth.sources[0][2], truth.sources[5][2])
    # labels carry the correct peer sets
    for k in range(10):
        lab = truth.labels[k][2]
        want = frozenset(range(5) if k < 5 else range(5, 10)) - {k}
        assert lab.kind is SourceKind.PARTIALLY_JOINT
        assert lab.peers == want
    # individual rows never repeat across subjects
    for k in range(10):
        for j in range(k + 1, 10):
            assert not np.array_equal(truth.sources[k][3], truth.sources[j][3])


def test_dataset_maps_nearly_uncorrelated():
    spec = ScenarioSpec(
        n_subjects=5, n_joint=2, n_individual=2, n_clusters=1,
        n_voxels=1024, n_time=60, seed=2,
    )
    _, truth = generate_dataset(spec)
    pool = [truth.sources[0][0], truth.sources[0][1]]
    for k in range(5):
        pool.extend(truth.sources[k][2:])
    v = pool[0].size
    for i in range(len(pool)):
        for j in range(i + 1, len(pool)):
            assert abs(float(pool[i] @ pool[j]) / v) <= 0.1 + 1e-12


def test_singleton_share_becomes_individual():
    counts = (1, 0, 0, 0, 0, 1, 1, 1, 1, 1)
    spec = ScenarioSpec(
        n_subjects=10, n_joint=1, n_pjoint=counts, n_individual=0,
        n_clusters=2, n_voxels=1024, n_time=60, seed=3,
    )
    _, truth = generate_dataset(spec)
    # subject 0 is the only sharer in its cluster: its map is individual
    assert truth.labels[0][1].kind is SourceKind.INDIVIDUAL
    assert truth.pjoint_counts[0] == 0 and truth.individual_counts[0] == 1
    # the other cluster shares normally
    assert truth.labels[5][1].kind is SourceKind.PARTIALLY_JOINT


def test_dataset_deterministic_and_seed_sensitive():
    spec = ScenarioSpec(
        n_subjects=4, n_joint=1, n_individual=1, n_clusters=1,
        n_voxels=512, n_time=40, seed=11,
    )
    a, _ = generate_dataset(spec)
    b, _ = generate_dataset(spec)
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x.observations, y.observations)
    spec2 = ScenarioSpec(
        n_subjects=4, n_joint=1, n_individual=1, n_clusters=1,
        n_voxels=512, n_time=40, seed=12,
    )
    c, _ = generate_dataset(spec2)
    assert not np.array_equal(a[0].observations, c[0].observations)


def test_add_noise_hits_requested_snr():
    rng = np.random.default_rng(4)
    obs = rng.standard_normal((100, 2000)) * 3.0
    noisy = add_noise(obs, 10.0, np.random.default_rng(5))
    p_signal = np.mean(obs * obs)
    p_noise = np.mean((noisy - obs) ** 2)
    measured = 10.0 * np.log10(p_signal / p_noise)
    assert measured == pytest.approx(10.0, abs=0.1)
    clean = add_noise(obs, float("inf"), np.random.default_rng(6))
    np.testing.assert_array_equal(clean, obs)


def test_add_noise_same_bits_as_out_of_place_sum():
    """Noise added in its own buffer equals obs + sigma * noise bit for bit."""
    obs = np.random.default_rng(8).standard_normal((30, 70)) * 2.5
    before = obs.copy()
    noisy = add_noise(obs, 7.0, np.random.default_rng(9))
    sigma = np.sqrt(np.mean(obs * obs) / 10.0 ** 0.7)
    want = obs + sigma * np.random.default_rng(9).standard_normal(obs.shape)
    assert noisy.tobytes() == want.tobytes()
    assert obs.tobytes() == before.tobytes()


def test_noisy_dataset_power_ratio():
    spec = ScenarioSpec(
        n_subjects=3, n_joint=1, n_individual=1, n_clusters=1,
        n_voxels=2048, n_time=80, snr_db=3.0, seed=7,
    )
    datasets, truth = generate_dataset(spec)
    for k in range(3):
        signal = truth.mixing[k] @ truth.sources[k]
        noise = datasets[k].observations - signal
        snr = 10.0 * np.log10(np.mean(signal**2) / np.mean(noise**2))
        assert snr == pytest.approx(3.0, abs=0.3)
