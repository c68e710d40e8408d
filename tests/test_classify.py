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
from jpjica.errors import DegenerateCorrelation
from jpjica.engine import WEIGHTS, build_cost_matrix, build_features, run_jpji_ica
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


def _stub_decomp(sources):
    """Minimal decomposition wrapper around ready-made source estimates.

    Its feature table is built the engine's way, from subject-major rows.
    """
    k = len(sources)
    n_slots = max(s.shape[0] for s in sources)
    costs = np.full((n_slots, k), np.nan)
    for j, s in enumerate(sources):
        costs[: s.shape[0], j] = 1.0
    return Decomposition(
        subject_ids=[f"s{j}" for j in range(k)],
        whiteners=[np.eye(s.shape[0]) for s in sources],
        row_means=[np.zeros(s.shape[0]) for s in sources],
        demixing=[np.eye(s.shape[0]) for s in sources],
        sources=[s.copy() for s in sources],
        extraction_costs=costs,
        self_mode=np.zeros((n_slots, k), dtype=bool),
        traces=[],
        config=AlgoConfig(),
        features=build_features(sources, WEIGHTS),
    )


def _sharp(rng, v):
    return standardize(rng.laplace(size=v) ** 3)


def _rows_with_corr(corr, v=1500, seed=9):
    """One standardized source row per subject; their pairwise correlations are ``corr``."""
    noise = np.random.default_rng(seed).standard_normal((len(corr), v))
    q, _ = np.linalg.qr((noise - noise.mean(axis=1, keepdims=True)).T)
    rows = np.linalg.cholesky(np.asarray(corr, dtype=float)) @ q.T * np.sqrt(v)
    return [row[None, :] for row in rows]


def test_slot_map_rejects_costs_that_disagree_with_sources(tmp_path):
    """Subject 2 holds one slot by its costs but has two source rows."""
    rng = np.random.default_rng(8)
    decomp = _stub_decomp([np.stack([_sharp(rng, 400) for _ in range(2)]) for _ in range(3)])
    decomp.extraction_costs[1, 2] = np.nan
    with pytest.raises(ValueError, match="held slots"):
        detect_joint_slots(decomp)
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
    feats = build_features([np.stack([other[0], y]), other[1:]], WEIGHTS)
    contr = feats.contributions[1, 0]
    want = build_cost_matrix(y[None, :], y[None, :], WEIGHTS).contributions.sum(axis=1)
    assert contr.shape == (1,)
    np.testing.assert_array_equal(contr, want)
    assert feats.jpjif[1, 0] == pytest.approx(float(want.sum()), rel=1e-12)
    assert np.isnan(feats.jpjif[1, 1]) and feats.contributions[1, 1] is None


def test_build_features_matches_cost_matrix_oracle_with_ragged_orders():
    """Every feature is ``build_cost_matrix(s[i:i+1], s[peers])`` within 1e-12.

    Orders 4, 3, 3, 2, 1 over five subjects: slot 3 has a sole holder
    (its own partner) and the other slots rings of 1 to 4 peers, ordered
    by decreasing |association| with the source as the engine does.
    """
    rng = np.random.default_rng(21)
    orders = [4, 3, 3, 2, 1]
    v = 600
    shared = [_sharp(rng, v) for _ in range(4)]
    sources = [
        np.stack([standardize(shared[c] + 0.6 * _sharp(rng, v)) for c in range(o)])
        for o in orders
    ]
    est = _slot_major(sources)
    feats = build_features(sources, WEIGHTS)
    for c in range(len(est)):
        holders = [k for k, o in enumerate(orders) if o > c]
        s = est[c][holders]
        ranked = np.argsort(-np.abs(s @ s.T), axis=1, kind="stable")
        for i, k in enumerate(holders):
            peers = ranked[i][ranked[i] != i]
            pool = s[peers] if peers.size else s[i : i + 1]
            want = build_cost_matrix(s[i : i + 1], pool, WEIGHTS).contributions.sum(axis=1)
            np.testing.assert_allclose(feats.contributions[c, k], want, rtol=1e-12, atol=0)
            assert feats.jpjif[c, k] == pytest.approx(float(want.sum()), rel=1e-12)
        for k in set(range(len(orders))) - set(holders):
            assert np.isnan(feats.jpjif[c, k]) and feats.contributions[c, k] is None
    assert feats.contributions[3, 0].shape == (1,)


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
    assert detect_joint_slots(decomp) == [0]
    # determinism: rebuilding from the same rows is identical
    feats2 = build_features(sources, WEIGHTS)
    np.testing.assert_array_equal(feats.jpjif, feats2.jpjif)


def test_detect_joint_slots_needs_every_holder_linked():
    sources = _three_kind_sources(seed=4)
    decomp = _stub_decomp(sources)
    joint = detect_joint_slots(decomp)
    assert 1 not in joint and 2 not in joint


def test_detect_joint_slots_finds_none_in_uncorrelated_noise():
    rng = np.random.default_rng(5)
    v = 2000
    # every slot is pure independent noise: no pair of holders links
    sources = [np.stack([standardize(rng.standard_normal(v)) for _ in range(2)]) for _ in range(5)]
    decomp = _stub_decomp(sources)
    assert detect_joint_slots(decomp) == []


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
    assert detect_joint_slots(decomp) == [0]
    # one pair is joint at |corr| >= 0.5, the gap bar of a single link
    for rho, want in ((0.6, [0]), (0.4, [])):
        pair = _stub_decomp(_rows_with_corr([[1, rho], [rho, 1]]))
        assert detect_joint_slots(pair) == want


def test_select_sigma_separates_feature_classes():
    sources = _three_kind_sources(seed=7)
    decomp = _stub_decomp(sources)
    feats = decomp.features
    joint = detect_joint_slots(decomp)
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


def _floor_stub(jpjif, v=1024):
    """The table given, on one subject per column: the floor is 2 * 6 * 2.25 * (K - 1) / V."""
    rng = np.random.default_rng(13)
    decomp = _stub_decomp([rng.standard_normal((3, v)) for _ in range(jpjif.shape[1])])
    contributions = np.empty(jpjif.shape, dtype=object)
    feats = FeatureTable(jpjif=jpjif, contributions=contributions, kurtosis=np.ones(jpjif.shape))
    return feats, decomp


def test_select_sigma_splits_the_floors_gap_when_nothing_lies_below_it():
    jpjif = np.array([
        [50.0, 52.0, 49.0, 51.0, 50.5],
        [3.0, 8.0, 2.0, 40.0, 5.0],
        [2.5, 6.0, 9.0, 2.2, 20.0],
    ])
    feats, decomp = _floor_stub(jpjif)
    floor = 2 * 6.0 * 2.25 * 4 / 1024
    sigma, ref = select_sigma_opt(feats, [0], decomp)
    # The widest gap of the sorted log-features runs from the floor to 2.0.
    assert sigma == pytest.approx(np.sqrt(floor * 2.0), rel=1e-12)
    assert ref == pytest.approx(float(np.mean(jpjif[0])), rel=1e-12)
    kinds = classify_by_feature(feats, sigma, [0])
    assert all(kind is SourceKind.PARTIALLY_JOINT for kind in kinds[1:].ravel())


def test_select_sigma_is_the_floor_when_the_widest_gap_lies_below_it():
    jpjif = np.array([
        [50.0, 52.0, 49.0, 51.0, 50.5],
        [3.0, 8.0, 2.0, 40.0, 5.0],
        [1.5, 6.0, 9.0, 1e-6, 20.0],
    ])
    feats, decomp = _floor_stub(jpjif)
    for joint in ([0], []):
        sigma, _ = select_sigma_opt(feats, joint, decomp)
        assert sigma == 2 * 6.0 * 2.25 * 4 / 1024
    kinds = classify_by_feature(feats, sigma, [0])
    assert kinds[2, 3] is SourceKind.INDIVIDUAL
    assert sum(kind is SourceKind.INDIVIDUAL for kind in kinds.ravel()) == 1


def test_select_sigma_separates_individual_features_above_the_floor():
    """K=10 at V=65536: maps correlated up to 0.1 lift every individual feature over the floor."""
    rng = np.random.default_rng(13)
    jpjif = np.vstack([
        rng.uniform(2.9e4, 3.1e4, (3, 10)),
        rng.uniform(5e3, 2e4, (2, 10)),
        rng.uniform(0.005, 0.009, (1, 10)),
    ])
    feats, decomp = _floor_stub(jpjif, v=65536)
    floor = 2 * 6.0 * 2.25 * 9 / 65536
    assert floor < jpjif[5].min()
    sigma, _ = select_sigma_opt(feats, [0, 1, 2], decomp)
    assert jpjif[5].max() < sigma < jpjif[3:5].min()
    kinds = classify_by_feature(feats, sigma, [0, 1, 2])
    assert all(kind is SourceKind.PARTIALLY_JOINT for kind in kinds[3:5].ravel())
    assert all(kind is SourceKind.INDIVIDUAL for kind in kinds[5])


def test_label_decomposition_attaches_the_automatic_threshold():
    """The labelled copy carries the joint slots, the automatic sigma and the joint level.

    The joint level is the mean feature of the joint slot's sources, and
    the engine's table is left as it was.
    """
    decomp = _stub_decomp(_three_kind_sources())
    labelled = label_decomposition(decomp)
    sigma, _ = select_sigma_opt(decomp.features, [0], decomp)
    assert labelled.features.joint_slots == [0]
    assert labelled.features.sigma_opt == sigma
    joint_mean = float(np.mean(decomp.features.jpjif[0]))
    assert labelled.features.jpjif_joint == pytest.approx(joint_mean, rel=1e-12)
    assert decomp.features.sigma_opt is None and decomp.features.joint_slots == []
    for k, labs in enumerate(labelled.labels):
        half = set(range(3)) if k < 3 else set(range(3, 6))
        assert [l.peers for l in labs] == [set(range(6)) - {k}, half - {k}, set()]


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


@pytest.mark.parametrize(
    "corr, nominees, peer_sets",
    [
        ([[1, 0.6, 0], [0.6, 1, 0], [0, 0, 1]], [0, 1], [{0, 1}, {0, 1}, {2}]),
        ([[1, 0.4, 0], [0.4, 1, 0], [0, 0, 1]], [0, 1], [{0}, {1}, {2}]),
        (
            [[1, 0.7, 0.1, 0], [0.7, 1, 0.7, 0], [0.1, 0.7, 1, 0], [0, 0, 0, 1]],
            [0, 1, 2],
            [{0, 1, 2}] * 3 + [{3}],
        ),
        (np.eye(3), [0, 1, 2], [{0}, {1}, {2}]),
    ],
    ids=["pair-at-0.6-links", "pair-at-0.4-does-not", "chain-links-through", "uncorrelated"],
)
def test_cluster_subjects_links_nominees_above_the_gap_bar(corr, nominees, peer_sets):
    """Nominees link above the midpoint of the widest |corr| gap (0 and 1 anchor it).

    One pair's bar works out to |corr| >= 0.5.  A peer set is a connected
    component, so a chain a-b, b-c joins a and c below the bar; nominees
    linked to nobody are individual.
    """
    k_total = len(corr)
    decomp = _stub_decomp(_rows_with_corr(corr))
    kinds = np.full((1, k_total), SourceKind.INDIVIDUAL, dtype=object)
    kinds[0, nominees] = SourceKind.PARTIALLY_JOINT
    labels = cluster_subjects(decomp, kinds)
    assert [labels[k][0].peers | {k} for k in range(k_total)] == peer_sets
    for k in range(k_total):
        want = SourceKind.PARTIALLY_JOINT if len(peer_sets[k]) > 1 else SourceKind.INDIVIDUAL
        assert labels[k][0].kind is want


def test_cluster_subjects_rejects_a_non_finite_row():
    decomp = _stub_decomp(_rows_with_corr(np.eye(3)))
    decomp.sources[1][0, 7] = np.nan
    kinds = np.full((1, 3), SourceKind.PARTIALLY_JOINT, dtype=object)
    with pytest.raises(DegenerateCorrelation):
        cluster_subjects(decomp, kinds)


@pytest.mark.parametrize("seed, snr_db", [(1, None), (2, 3.0)], ids=["clean", "3dB"])
def test_four_clusters_of_five_get_their_own_peer_sets(seed, snr_db):
    """K=20 in four sharing clusters: each cluster's nominees link into a peer set of its own."""
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
    "n_subjects, n_joint, n_pjoint, n_individual, n_clusters, n_voxels, snr_db, seed, engine_seed",
    [
        (25, 3, 2, 0, 5, 4096, None, 1, 1),
        (25, 3, 2, 0, 5, 4096, 3.0, 1, 1),
        (10, 3, 2, 0, 2, 4096, None, 1, 1),
        (10, 3, 2, 0, 2, 4096, 3.0, 1, 1),
        (10, 3, 0, 2, 1, 4096, None, 1, 1),
        (10, 0, 2, 1, 2, 4096, None, 1, 1),
        (15, 3, 2, 1, 3, 4096, None, 1, 1),
        (2, 2, 0, 1, 1, 4096, None, 1, 1),
        (20, 3, 2, 1, 2, 4000, None, 1, 1),
        (20, 3, 2, 1, 4, 4096, 3.0, 3, 3),
        (15, 3, 2, 1, 3, 4096, 3.0, 2, 3),
        (20, 3, 2, 1, 4, 4096, -3.0, 1, 1),
        (15, 3, 2, 1, 3, 4096, -6.0, 1, 1),
        (10, 3, 0, 2, 1, 16384, None, 1, 1),
        (4, 2, 1, 1, 2, 4096, None, 1, 1),
    ],
    ids=[
        "k25-no-individual-clean", "k25-no-individual-3dB",
        "k10-no-individual-clean", "k10-no-individual-3dB",
        "k10-no-pjoint", "k10-no-joint", "k15-all-kinds", "k2-joint-individual",
        "k20-v4000", "k20-four-clusters-3dB", "k15-three-clusters-3dB",
        "k20-four-clusters-minus3dB", "k15-three-clusters-minus6dB", "k10-no-pjoint-v16384",
        "k4-two-clusters-of-two",
    ],
)
def test_scenario_grid_gets_every_count_and_peer_set(
    n_subjects, n_joint, n_pjoint, n_individual, n_clusters, n_voxels, snr_db, seed, engine_seed
):
    """Each kind present or absent, 1-5 sharing clusters, K from 2 to 25.

    Without individual maps every non-joint feature clears the null
    floor and the features sit together, so the threshold falls in the
    floor's gap and no individual class is made up.  A voxel count that
    is not a perfect square (4000) draws its maps on a cut grid.  Two
    cases pin runs that a random ring (engine seed 3) mislabelled.  Three
    pin runs that an earlier k-means labeller got wrong: at -3 and
    -6 dB, and at V=16384, where individual features lie above sigma and
    are told apart only because they link to nobody.  The last, clusters
    of two, pins a partially joint slot that an earlier vote on ring
    uniformity called joint.
    """
    spec = ScenarioSpec(
        n_subjects=n_subjects, n_joint=n_joint, n_pjoint=n_pjoint,
        n_individual=n_individual, n_clusters=n_clusters,
        n_voxels=n_voxels, n_time=150, snr_db=snr_db, seed=seed,
        allow_small_clusters=n_subjects < 5 * n_clusters,
    )
    datasets, truth = generate_dataset(spec)
    decomp = label_decomposition(run_jpji_ica(datasets, AlgoConfig(seed=engine_seed)))
    report = evaluate_run(truth, decomp)
    assert all(report.acc_counts.values())
    assert report.acc_peer_sets == 100.0


def test_jpji_ignores_the_seed_and_jithica_draws_from_it():
    """The jpji rings and labelling draw nothing; only jithica's tuples follow the seed."""
    spec = ScenarioSpec(
        n_subjects=10, n_joint=3, n_pjoint=2, n_individual=1, n_clusters=2,
        n_voxels=1024, n_time=100, seed=2,
    )
    datasets, _ = generate_dataset(spec)
    a, b = (label_decomposition(run_jpji_ica(datasets, AlgoConfig(seed=s))) for s in (1, 3))
    for got, want in zip(a.sources, b.sources, strict=True):
        assert np.array_equal(got, want)
    assert a.labels == b.labels
    a, b = (run_jpji_ica(datasets, AlgoConfig(seed=s), algorithm="jithica") for s in (1, 3))
    assert not all(np.array_equal(x, y) for x, y in zip(a.sources, b.sources, strict=True))


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
    """A joint slot is shared by its holders; a subset of subjects is a partial share."""
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

