"""Matching, jSIR and accuracy metrics against brute-force oracles."""
import itertools

import numpy as np
import pytest

from jpjica.errors import CountMismatchWarning
from jpjica.metrics import (
    acc_c,
    acc_counts_run,
    acc_k,
    acc_peer_sets_run,
    evaluate_run,
    jsir,
    jsir_db,
    match_sources,
)
from jpjica.numerics import standardize
from jpjica.types import SourceKind, SourceLabel


def _std_rows(x):
    return np.stack([standardize(r) for r in x])


def _brute_force_total(corr):
    """Best total |corr| over all complete assignments."""
    n = corr.shape[0]
    best = -np.inf
    for perm in itertools.permutations(range(n)):
        best = max(best, sum(abs(corr[i, perm[i]]) for i in range(n)))
    return best


def test_match_sources_equals_brute_force():
    rng = np.random.default_rng(1)
    for _ in range(10):
        n, v = int(rng.integers(2, 7)), 200
        t = _std_rows(rng.standard_normal((n, v)))
        e = _std_rows(rng.standard_normal((n, v)))
        match = match_sources([t], [e])[0]
        corr = t @ e.T / v
        got_total = sum(
            abs(corr[i, match.est_of_true[i]]) for i in range(n)
        )
        assert got_total == pytest.approx(_brute_force_total(corr), rel=1e-12)
        # est_of_true is a permutation
        assert sorted(match.est_of_true.tolist()) == list(range(n))


def test_match_sources_recovers_identity_with_sign_flips():
    rng = np.random.default_rng(2)
    t = _std_rows(rng.laplace(size=(4, 300)))
    e = np.stack([-t[2], t[0], -t[3], t[1]])
    match = match_sources([t], [e])[0]
    assert match.est_of_true.tolist() == [1, 3, 0, 2]
    np.testing.assert_allclose(match.correlation, np.ones(4), atol=1e-12)
    np.testing.assert_allclose(match.sign, [1.0, 1.0, -1.0, -1.0])


def test_match_sources_count_mismatch_warns():
    rng = np.random.default_rng(3)
    t = _std_rows(rng.standard_normal((3, 100)))
    e = _std_rows(rng.standard_normal((2, 100)))
    with pytest.warns(CountMismatchWarning):
        match = match_sources([t], [e])[0]
    assert (match.est_of_true == -1).sum() == 1


def test_jsir_db_reference_points():
    # rho = 0.5: 10 log10(0.5 / (2 * 0.5)) = 10 log10(1/2)
    assert jsir_db(0.5) == pytest.approx(-3.0102999566398120, abs=1e-12)
    # rho = 2/3: ratio = (2/3) / (2/3) = 1 -> 0 dB exactly
    assert jsir_db(2.0 / 3.0) == pytest.approx(0.0, abs=1e-12)
    assert jsir_db(1.0) == 120.0
    assert jsir_db(0.0) == -120.0
    assert jsir_db(1.0 - 1e-15) == 120.0
    assert jsir_db(-0.3) == -120.0
    assert jsir_db(2.0) == 120.0


def test_jsir_aggregates_per_subject():
    rng = np.random.default_rng(4)
    t = _std_rows(rng.standard_normal((2, 500)))
    noise = _std_rows(rng.standard_normal((2, 500)))
    e = _std_rows(0.9 * t + 0.1 * noise)
    matches = match_sources([t, t], [e, t])
    overall, per_subject = jsir(matches)
    assert len(per_subject) == 2
    assert per_subject[1] == 120.0
    assert overall == pytest.approx(np.mean(per_subject))


def _label(kind, peers, k, subject):
    lab = SourceLabel(peers=peers, n_subjects=k, subject=subject)
    assert lab.kind is kind
    return lab


def _labels_for(k_total, spec_per_subject):
    """spec_per_subject: list of (kind, peers) lists, one per subject."""
    return [
        [_label(kind, peers, k_total, s) for kind, peers in spec]
        for s, spec in enumerate(spec_per_subject)
    ]


def test_acc_counts_and_acc_c():
    j, p, i = SourceKind.JOINT, SourceKind.PARTIALLY_JOINT, SourceKind.INDIVIDUAL
    truth = _labels_for(
        2, [[(j, {1}), (i, set())], [(j, {0}), (i, set())]]
    )
    est_good = _labels_for(
        2, [[(j, {1}), (i, set())], [(j, {0}), (i, set())]]
    )
    est_bad = _labels_for(
        2, [[(j, {1}), (j, {1})], [(j, {0}), (i, set())]]
    )
    good = acc_counts_run(truth, est_good)
    assert good == {"joint": True, "pjoint": True, "individual": True}
    bad = acc_counts_run(truth, est_bad)
    assert bad["joint"] is False and bad["individual"] is False
    assert bad["pjoint"] is True
    summary = acc_c([good, bad])
    assert summary["joint"] == 50.0
    assert summary["pjoint"] == 100.0


def test_acc_peer_sets_counts_exact_matches_only():
    j, p, i = SourceKind.JOINT, SourceKind.PARTIALLY_JOINT, SourceKind.INDIVIDUAL
    k = 4
    truth = _labels_for(
        k,
        [
            [(j, {1, 2, 3}), (p, {1})],
            [(j, {0, 2, 3}), (p, {0})],
            [(j, {0, 1, 3}), (i, set())],
            [(j, {0, 1, 2}), (i, set())],
        ],
    )
    est = _labels_for(
        k,
        [
            [(j, {1, 2, 3}), (p, {1})],
            [(j, {0, 2, 3}), (p, {2})],  # wrong peer
            [(j, {0, 1, 3}), (i, set())],
            [(j, {0, 1, 2}), (i, set())],
        ],
    )

    class _IdentityMatch:
        est_of_true = np.arange(2)

    matches = [_IdentityMatch() for _ in range(k)]
    got = acc_peer_sets_run(truth, est, matches)
    # subject 1 misses one of its two sources: (100+50+100+100)/4
    assert got == pytest.approx(87.5)
    assert acc_k([100.0, 50.0]) == 75.0


def test_evaluate_run_perfect_recovery():
    from jpjica.simulate import ScenarioSpec, generate_dataset
    from jpjica.types import AlgoConfig, Decomposition, FeatureTable

    spec = ScenarioSpec(
        n_subjects=4, n_joint=1, n_individual=1, n_clusters=1,
        n_voxels=512, n_time=40, seed=5,
    )
    _, truth = generate_dataset(spec)
    # fake a run that returns the true sources, swapped and sign-flipped
    sources = [np.stack([-t[1], t[0]]) for t in truth.sources]
    labels = [[labs[1], labs[0]] for labs in truth.labels]
    k = 4
    decomp = Decomposition(
        subject_ids=[f"s{i}" for i in range(k)],
        whiteners=[np.eye(2)] * k,
        row_means=[np.zeros(2)] * k,
        demixing=[np.eye(2)] * k,
        sources=sources,
        extraction_costs=np.ones((2, k)),
        self_mode=np.zeros((2, k), dtype=bool),
        traces=[],
        config=AlgoConfig(),
        features=FeatureTable(np.ones((2, k)), np.empty((2, k), dtype=object), np.ones((2, k))),
        labels=labels,
    )
    report = evaluate_run(truth, decomp)
    assert report.jsir_db == 120.0
    assert all(report.acc_counts.values())
    assert report.acc_peer_sets == 100.0
    d = report.to_dict()
    assert d["jsir_db"] == 120.0
    assert len(d["matching"]) == k


def test_evaluate_run_requires_labels():
    from jpjica.simulate import ScenarioSpec, generate_dataset
    from jpjica.engine import run_jpji_ica
    from jpjica.types import AlgoConfig

    spec = ScenarioSpec(
        n_subjects=5, n_joint=1, n_clusters=1, n_voxels=256, n_time=30, seed=6
    )
    datasets, truth = generate_dataset(spec)
    decomp = run_jpji_ica(datasets, AlgoConfig(seed=6))
    with pytest.raises(ValueError):
        evaluate_run(truth, decomp)
