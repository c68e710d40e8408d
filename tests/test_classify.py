"""Feature construction, joint detection, thresholding and peer sets."""
import numpy as np
import pytest

from jpjica import io as jio
from jpjica.classify import (
    classify_by_feature,
    classify_by_spatial,
    cluster_subjects,
    detect_joint_slots,
    label_decomposition,
    select_sigma_opt,
)
from jpjica.engine import build_features, jpji_feature, run_jpji_ica
from jpjica.errors import GroupTooSmall, NoJointSources
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
        z=[s.copy() for s in sources],
        demixing=[np.eye(s.shape[0]) for s in sources],
        sources=[s.copy() for s in sources],
        extraction_costs=costs,
        self_mode=np.zeros((n_slots, k), dtype=bool),
        traces=[],
        config=config,
        features=build_features(
            _slot_major(sources), [s.shape[0] for s in sources], config.weights
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
    rng = np.random.default_rng(1)
    v = 500
    y = rng.standard_normal(v)
    partners = rng.standard_normal((4, v))
    got, contr = jpji_feature(y, partners, WEIGHTS)
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
    assert got == pytest.approx(float(want.sum()), rel=1e-10)


def test_jpji_feature_empty_partners_uses_self():
    rng = np.random.default_rng(2)
    y = _sharp(rng, 800)
    got, contr = jpji_feature(y, np.empty((0, 800)), WEIGHTS)
    want, _ = jpji_feature(y, y[None, :], WEIGHTS)
    assert got == pytest.approx(want, rel=1e-12)
    assert contr.shape == (1,)


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


def _spatial_maps(kind, rng, k_total=8, v=1200):
    half = k_total // 2
    out = []
    if kind == "pjoint":
        a, b = _sharp(rng, v), _sharp(rng, v)
        for k in range(k_total):
            base = a if k < half else b
            out.append(standardize(base + 0.1 * rng.standard_normal(v))[None, :])
    elif kind == "joint":
        a = _sharp(rng, v)
        for _ in range(k_total):
            out.append(standardize(a + 0.1 * rng.standard_normal(v))[None, :])
    else:
        # fully idiosyncratic maps: no group difference, no common mean
        for _ in range(k_total):
            out.append(_sharp(rng, v)[None, :])
    return out


def test_classify_by_spatial_three_kinds():
    rng = np.random.default_rng(13)
    groups = ([0, 1, 2, 3], [4, 5, 6, 7])
    pj = classify_by_spatial(_spatial_maps("pjoint", rng), groups)
    assert pj[0].kind is SourceKind.PARTIALLY_JOINT
    assert pj[0].n_survivors > 0
    jo = classify_by_spatial(_spatial_maps("joint", rng), groups)
    assert jo[0].kind is SourceKind.JOINT
    assert jo[0].n_survivors == 0
    iv = classify_by_spatial(_spatial_maps("individual", rng), groups)
    assert iv[0].kind is SourceKind.INDIVIDUAL


def test_classify_by_spatial_inhomogeneous_group_is_individual():
    rng = np.random.default_rng(15)
    v = 1200
    c, d, b = _sharp(rng, v), _sharp(rng, v), _sharp(rng, v)
    maps = []
    # first group hides two subpopulations; second group is uniform
    for k in range(12):
        if k < 3:
            base = c
        elif k < 6:
            base = d
        else:
            base = b
        maps.append(standardize(base + 0.1 * rng.standard_normal(v))[None, :])
    verdicts = classify_by_spatial(maps, (list(range(6)), list(range(6, 12))))
    assert verdicts[0].kind is SourceKind.INDIVIDUAL
    assert verdicts[0].n_survivors > 0


def test_classify_by_spatial_group_validation():
    rng = np.random.default_rng(14)
    maps = _spatial_maps("joint", rng)
    with pytest.raises(GroupTooSmall):
        classify_by_spatial(maps, ([0], [1, 2]))
    with pytest.raises(ValueError):
        classify_by_spatial(maps, ([0, 1, 2], [2, 3, 4]))
