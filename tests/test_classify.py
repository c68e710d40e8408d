"""Feature construction, joint detection, thresholding and peer sets."""
import numpy as np
import pytest

from jpjica import io as jio
from jpjica.classify import (
    classify_by_feature,
    cluster_subjects,
    detect_joint_slots,
    label_decomposition,
    select_sigma_opt,
)
from jpjica.engine import WEIGHTS, build_cost_matrix, build_features, run_jpji_ica
from jpjica.errors import NoJointSources
from jpjica.metrics import evaluate_run
from jpjica.numerics import standardize
from jpjica.simulate import ScenarioSpec, generate_dataset
from jpjica.types import AlgoConfig, Decomposition, FeatureTable, SourceKind
from oracles import cross_cumulant

WEIGHTS = (0.5, 0.75, 1.0)


def _slot_major(sources):
    """One K x V array per slot, as the engine keeps them; unheld rows stay zero."""
    n_slots = max(s.shape[0] for s in sources)
    est = [np.zeros((len(sources), sources[0].shape[1])) for _ in range(n_slots)]
    for j, s in enumerate(sources):
        for c, row in enumerate(s):
            est[c][j] = row
    return est


def _stub_decomp(sources, config=None):
    """Minimal decomposition wrapper around ready-made source estimates.

    Its feature table is built the engine's way, from slot-major rows.
    """
    k = len(sources)
    n_slots = max(s.shape[0] for s in sources)
    costs = np.full((n_slots, k), np.nan)
    for j, s in enumerate(sources):
        costs[: s.shape[0], j] = 1.0
    config = config or AlgoConfig()
    return Decomposition(
        subject_ids=[f"s{j}" for j in range(k)],
        whiteners=[np.eye(s.shape[0]) for s in sources],
        row_means=[np.zeros(s.shape[0]) for s in sources],
        demixing=[np.eye(s.shape[0]) for s in sources],
        sources=[s.copy() for s in sources],
        extraction_costs=costs,
        self_mode=np.zeros((n_slots, k), dtype=bool),
        traces=[],
        config=config,
        features=build_features(
            _slot_major(sources), [s.shape[0] for s in sources], WEIGHTS
        ),
    )


def _sharp(rng, v):
    return standardize(rng.laplace(size=v) ** 3)


def test_slot_map_rejects_costs_that_disagree_with_sources(tmp_path):
    """Subject 2 holds one slot by its costs but has two source rows."""
    rng = np.random.default_rng(8)
    decomp = _stub_decomp([np.stack([_sharp(rng, 400) for _ in range(2)]) for _ in range(3)])
    decomp.extraction_costs[1, 2] = np.nan
    with pytest.raises(ValueError, match="held slots"):
        detect_joint_slots(decomp.features, decomp)
    with pytest.raises(ValueError, match="held slots"):
        jio.save_decomposition(tmp_path / "res", decomp)


def test_jpji_feature_matches_ring_oracle():
    """The feature's per-position terms are the ring cost's contributions."""
    rng = np.random.default_rng(1)
    v = 500
    y = rng.standard_normal(v)
    y -= y.mean()
    partners = rng.standard_normal((4, v))
    partners -= partners.mean(axis=1, keepdims=True)
    contr = build_cost_matrix(y[None, :], partners, WEIGHTS).contributions.sum(axis=1)
    n = partners.shape[0]
    want = np.zeros(n)
    for a in range(n):
        ring = [partners[(a + i) % n] for i in range(3)]
        want[a] = (
            WEIGHTS[0] * cross_cumulant(2, y, ring[0]) ** 2
            + WEIGHTS[1] * cross_cumulant(3, y, ring[0], ring[1]) ** 2
            + WEIGHTS[2] * cross_cumulant(4, y, ring[0], ring[1], ring[2]) ** 2
        )
    np.testing.assert_allclose(contr, want, rtol=1e-10, atol=1e-14)
    assert float(contr.sum()) == pytest.approx(float(want.sum()), rel=1e-10)


def test_jpji_feature_empty_partners_uses_self():
    """A slot with a single holder scores its source against itself."""
    rng = np.random.default_rng(2)
    y = _sharp(rng, 800)
    other = np.stack([_sharp(rng, 800), _sharp(rng, 800)])
    # subject 0 holds two slots, subject 1 only the first
    feats = build_features([other, np.stack([y, np.zeros(800)])], [2, 1], WEIGHTS)
    contr = feats.contributions[1, 0]
    want = build_cost_matrix(y[None, :], y[None, :], WEIGHTS).contributions.sum(axis=1)
    assert contr.shape == (1,)
    np.testing.assert_array_equal(contr, want)
    assert feats.jpjif[1, 0] == pytest.approx(float(want.sum()), rel=1e-12)
    assert np.isnan(feats.jpjif[1, 1]) and feats.contributions[1, 1] is None


def _three_kind_sources(seed=3, k_total=6, v=3000):
    """Slot 0 joint, slot 1 partially joint (first half), slot 2 individual."""
    rng = np.random.default_rng(seed)
    joint = _sharp(rng, v)
    pj_a = _sharp(rng, v)
    pj_b = _sharp(rng, v)
    sources = []
    for k in range(k_total):
        pj = pj_a if k < k_total // 2 else pj_b
        own = _sharp(rng, v)
        sources.append(np.stack([joint, pj, own]))
    return sources


def test_build_features_and_joint_detection():
    sources = _three_kind_sources()
    decomp = _stub_decomp(sources)
    feats = decomp.features
    assert feats.jpjif.shape == (3, 6)
    assert np.isfinite(feats.jpjif).all()
    # joint features dwarf partially joint, which dwarf individual
    assert feats.jpjif[0].min() > feats.jpjif[1].max() > feats.jpjif[2].max()
    assert detect_joint_slots(feats, decomp) == [0]
    # determinism: rebuilding from the same rows is identical
    feats2 = build_features(_slot_major(sources), [3] * 6, WEIGHTS)
    np.testing.assert_array_equal(feats.jpjif, feats2.jpjif)


def test_detect_joint_slots_needs_uniform_contributions():
    sources = _three_kind_sources(seed=4)
    decomp = _stub_decomp(sources)
    feats = decomp.features
    joint = detect_joint_slots(feats, decomp)
    assert 1 not in joint and 2 not in joint


def test_detect_joint_slots_floor_blocks_noise():
    rng = np.random.default_rng(5)
    v = 2000
    # every slot is pure independent noise: uniformity holds trivially in
    # distribution, but the magnitude floor must reject it
    sources = [np.stack([standardize(rng.standard_normal(v)) for _ in range(2)]) for _ in range(5)]
    decomp = _stub_decomp(sources)
    feats = decomp.features
    assert detect_joint_slots(feats, decomp) == []


def test_detect_joint_two_subjects_requires_shared_variance():
    rng = np.random.default_rng(6)
    v = 4000
    shared = _sharp(rng, v)
    own_a = _sharp(rng, v)
    # correlate the second pair at rho ~ 0.35: kurtotic coupling makes the
    # feature large, but most variance is unshared
    own_b = standardize(0.35 * own_a + np.sqrt(1 - 0.35**2) * _sharp(rng, v))
    s0 = np.stack([shared, own_a])
    s1 = np.stack([shared, own_b])
    decomp = _stub_decomp([s0, s1])
    feats = decomp.features
    assert detect_joint_slots(feats, decomp) == [0]


def test_select_sigma_separates_feature_classes():
    sources = _three_kind_sources(seed=7)
    decomp = _stub_decomp(sources)
    feats = decomp.features
    joint = detect_joint_slots(feats, decomp)
    sigma, ref = select_sigma_opt(feats, joint, decomp)
    assert feats.jpjif[2].max() < sigma < feats.jpjif[1].min()
    assert ref == pytest.approx(float(np.nanmean(feats.jpjif[joint, :])), rel=1e-12)
    # the reference comes from the joint slot alone
    assert joint == [0]
    assert ref == pytest.approx(float(np.mean(feats.jpjif[0])), rel=1e-12)


def test_select_sigma_without_joint_reference():
    rng = np.random.default_rng(8)
    v = 2500
    pj = _sharp(rng, v)
    sources = []
    for k in range(4):
        own = standardize(rng.standard_normal(v))
        sources.append(np.stack([pj, own]))
    decomp = _stub_decomp(sources)
    feats = decomp.features
    sigma, ref = select_sigma_opt(feats, [], decomp)
    assert np.isnan(ref)
    assert feats.jpjif[1].max() < sigma < feats.jpjif[0].min()


def test_select_sigma_degenerate_features_raise():
    jpjif = np.full((2, 3), 5.0)
    contributions = np.empty((2, 3), dtype=object)
    feats = FeatureTable(jpjif=jpjif, contributions=contributions, kurtosis=np.ones((2, 3)))
    decomp = _stub_decomp([np.stack([np.sin(np.arange(100.0) + j) for j in range(2)])] * 3)
    with pytest.raises(NoJointSources):
        select_sigma_opt(feats, [], decomp)


def _floor_stub(jpjif):
    """The table given, on five subjects at V=1024: the floor is 2 * 6 * 2.25 * 4 / 1024."""
    rng = np.random.default_rng(13)
    decomp = _stub_decomp([rng.standard_normal((3, 1024)) for _ in range(5)])
    contributions = np.empty(jpjif.shape, dtype=object)
    feats = FeatureTable(jpjif=jpjif, contributions=contributions, kurtosis=np.ones(jpjif.shape))
    return feats, decomp


def test_select_sigma_is_the_floor_when_nothing_lies_below_it():
    jpjif = np.array([
        [50.0, 52.0, 49.0, 51.0, 50.5],
        [3.0, 8.0, 2.0, 40.0, 5.0],
        [1.5, 6.0, 9.0, 0.2, 20.0],
    ])
    feats, decomp = _floor_stub(jpjif)
    sigma, ref = select_sigma_opt(feats, [0], decomp)
    assert sigma == 2 * 6.0 * 2.25 * 4 / 1024
    assert ref == pytest.approx(float(np.mean(jpjif[0])), rel=1e-12)
    kinds = classify_by_feature(feats, sigma, [0])
    assert all(kind is SourceKind.PARTIALLY_JOINT for kind in kinds[1:].ravel())


def test_select_sigma_splits_at_the_midpoint_below_the_floor():
    jpjif = np.array([
        [50.0, 52.0, 49.0, 51.0, 50.5],
        [3.0, 8.0, 2.0, 40.0, 5.0],
        [1.5, 6.0, 9.0, 0.001, 20.0],
    ])
    feats, decomp = _floor_stub(jpjif)
    for joint in ([0], []):
        sigma, _ = select_sigma_opt(feats, joint, decomp)
        assert sigma == (0.001 + 1.5) / 2
    kinds = classify_by_feature(feats, sigma, [0])
    assert kinds[2, 3] is SourceKind.INDIVIDUAL
    assert sum(kind is SourceKind.INDIVIDUAL for kind in kinds.ravel()) == 1


def test_label_decomposition_explicit_sigma_runs_no_kmeans(monkeypatch):
    import jpjica.classify as classify

    def no_kmeans(*args, **kwargs):
        raise AssertionError("k-means ran")

    monkeypatch.setattr(classify, "kmeans", no_kmeans)
    decomp = _stub_decomp(_three_kind_sources(), AlgoConfig(sigma0=1e9))
    labelled = label_decomposition(decomp)
    assert labelled.features.sigma_opt == 1e9
    assert labelled.features.joint_slots == [0]
    joint_mean = float(np.mean(decomp.features.jpjif[0]))
    assert labelled.features.jpjif_joint == pytest.approx(joint_mean, rel=1e-12)


def test_classify_by_feature_mapping():
    jpjif = np.array([[50.0, 60.0], [8.0, 0.001], [np.nan, 0.002]])
    contributions = np.empty((3, 2), dtype=object)
    feats = FeatureTable(jpjif=jpjif, contributions=contributions, kurtosis=np.ones((3, 2)))
    kinds = classify_by_feature(feats, sigma=1.0, joint_slots=[0])
    assert kinds[0, 0] is SourceKind.JOINT and kinds[0, 1] is SourceKind.JOINT
    assert kinds[1, 0] is SourceKind.PARTIALLY_JOINT
    assert kinds[1, 1] is SourceKind.INDIVIDUAL
    assert kinds[2, 0] is None
    assert kinds[2, 1] is SourceKind.INDIVIDUAL


def test_cluster_subjects_recovers_peer_sets():
    rng = np.random.default_rng(9)
    v = 2000
    map_a, map_b = _sharp(rng, v), _sharp(rng, v)
    sources = []
    for k in range(6):
        base = map_a if k < 3 else map_b
        row = standardize(base + 0.05 * rng.standard_normal(v))
        sources.append(row[None, :])
    decomp = _stub_decomp(sources)
    kinds = np.empty((1, 6), dtype=object)
    kinds[0, :] = SourceKind.PARTIALLY_JOINT
    labels = cluster_subjects(decomp, kinds)
    for k in range(6):
        want = frozenset({0, 1, 2} if k < 3 else {3, 4, 5}) - {k}
        assert labels[k][0].kind is SourceKind.PARTIALLY_JOINT
        assert labels[k][0].peers == want


@pytest.mark.parametrize("seed, snr_db", [(1, None), (2, 3.0)], ids=["clean", "3dB"])
def test_four_clusters_of_five_get_their_own_peer_sets(seed, snr_db):
    """K=20 in four sharing clusters: the silhouette may pick four groups, not merge them."""
    spec = ScenarioSpec(
        n_subjects=20, n_joint=3, n_pjoint=2, n_individual=1, n_clusters=4,
        n_voxels=4096, n_time=150, snr_db=snr_db, seed=seed,
    )
    datasets, truth = generate_dataset(spec)
    decomp = label_decomposition(run_jpji_ica(datasets, AlgoConfig(seed=seed)))
    report = evaluate_run(truth, decomp)
    assert all(report.acc_counts.values())
    assert report.acc_peer_sets == 100.0


@pytest.mark.parametrize(
    "n_subjects, n_joint, n_pjoint, n_individual, n_clusters, n_voxels, snr_db",
    [
        (25, 3, 2, 0, 5, 4096, None),
        (25, 3, 2, 0, 5, 4096, 3.0),
        (10, 3, 2, 0, 2, 4096, None),
        (10, 3, 2, 0, 2, 4096, 3.0),
        (10, 3, 0, 2, 1, 4096, None),
        (10, 0, 2, 1, 2, 4096, None),
        (15, 3, 2, 1, 3, 4096, None),
        (2, 2, 0, 1, 1, 4096, None),
        (20, 3, 2, 1, 2, 4000, None),
    ],
    ids=[
        "k25-no-individual-clean", "k25-no-individual-3dB",
        "k10-no-individual-clean", "k10-no-individual-3dB",
        "k10-no-pjoint", "k10-no-joint", "k15-all-kinds", "k2-joint-individual",
        "k20-v4000",
    ],
)
def test_scenario_grid_gets_every_count_and_peer_set(
    n_subjects, n_joint, n_pjoint, n_individual, n_clusters, n_voxels, snr_db
):
    """Each kind present or absent, 1-5 sharing clusters, K from 2 to 25.

    Without individual maps every non-joint feature clears the null
    floor, so the threshold is the floor and no individual class is made up.
    A voxel count that is not a perfect square (4000) draws its maps on a
    cut grid.
    """
    spec = ScenarioSpec(
        n_subjects=n_subjects, n_joint=n_joint, n_pjoint=n_pjoint,
        n_individual=n_individual, n_clusters=n_clusters,
        n_voxels=n_voxels, n_time=150, snr_db=snr_db, seed=1,
    )
    datasets, truth = generate_dataset(spec)
    decomp = label_decomposition(run_jpji_ica(datasets, AlgoConfig(seed=1)))
    report = evaluate_run(truth, decomp)
    assert all(report.acc_counts.values())
    assert report.acc_peer_sets == 100.0


def test_cluster_subjects_relabels_lone_nominee():
    rng = np.random.default_rng(10)
    v = 1500
    sources = [standardize(rng.standard_normal(v))[None, :] for _ in range(4)]
    decomp = _stub_decomp(sources)
    kinds = np.empty((1, 4), dtype=object)
    kinds[0, :] = SourceKind.INDIVIDUAL
    kinds[0, 2] = SourceKind.PARTIALLY_JOINT
    labels = cluster_subjects(decomp, kinds)
    assert labels[2][0].kind is SourceKind.INDIVIDUAL
    assert labels[2][0].peers == frozenset()


def test_cluster_subjects_joint_slot_of_some_holders_is_partially_joint():
    """A joint vote means shared by the slot's holders; a subset of subjects is a partial share."""
    rng = np.random.default_rng(11)
    v = 1500
    common, extra = _sharp(rng, v), _sharp(rng, v)
    sources = [common[None, :]] + [np.stack([common, extra]) for _ in range(3)]
    decomp = _stub_decomp(sources)
    kinds = np.full((2, 4), SourceKind.JOINT, dtype=object)
    kinds[1, 0] = None
    labels = cluster_subjects(decomp, kinds)
    for k in range(4):
        assert labels[k][0].kind is SourceKind.JOINT
    for k in range(1, 4):
        assert labels[k][1].kind is SourceKind.PARTIALLY_JOINT
        assert labels[k][1].peers == frozenset({1, 2, 3}) - {k}


def test_label_decomposition_end_to_end_counts():
    spec = ScenarioSpec(
        n_subjects=5, n_joint=1, n_individual=1, n_clusters=1,
        n_voxels=1024, n_time=60, seed=11,
    )
    datasets, truth = generate_dataset(spec)
    decomp = label_decomposition(run_jpji_ica(datasets, AlgoConfig(seed=11)))
    assert decomp.features is not None and decomp.labels is not None
    assert decomp.features.sigma_opt is not None
    assert len(decomp.features.joint_slots) == 1
    for k in range(5):
        kinds = [l.kind for l in decomp.labels[k]]
        assert kinds.count(SourceKind.JOINT) == 1
        assert kinds.count(SourceKind.INDIVIDUAL) == 1


def test_label_decomposition_explicit_sigma_bypasses_selection():
    spec = ScenarioSpec(
        n_subjects=5, n_joint=1, n_individual=1, n_clusters=1,
        n_voxels=1024, n_time=60, seed=12,
    )
    datasets, _ = generate_dataset(spec)
    decomp = run_jpji_ica(datasets, AlgoConfig(seed=12, sigma0=3.5))
    decomp = label_decomposition(decomp)
    assert decomp.features.sigma_opt == 3.5
