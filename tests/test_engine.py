"""Cost construction, extraction, deflation and the full engine loop."""
import gc
import warnings
import weakref

import numpy as np
import pytest

from jpjica.baseline import run_ji_thica
from jpjica.classify import label_decomposition
from jpjica.engine import (
    build_cost_matrix,
    build_features,
    cost,
    deflate,
    inner_extract,
    mode_switch_threshold,
    run_jpji_ica,
    _align_rows,
    _decollide,
)
from jpjica.errors import (
    ConvergenceWarning,
    PartnerLengthMismatch,
    SingleSubjectWarning,
    ZeroSource,
)
from jpjica.numerics import dominant_eigenvector, standardize
from jpjica.preprocess import pca_reduce, whiten
from jpjica.simulate import ScenarioSpec, generate_dataset
from jpjica.types import AlgoConfig, SubjectDataset
from oracles import cumulant_rows


def _centered(rng, shape):
    x = rng.standard_normal(shape)
    return x - x.mean(axis=-1, keepdims=True)


def test_cost_matrix_matches_outer_product_oracle():
    rng = np.random.default_rng(2)
    z = _centered(rng, (4, 200))
    partners = _centered(rng, (5, 200))
    weights = (0.5, 0.75, 1.0)
    cm = build_cost_matrix(z, partners, weights)
    n = partners.shape[0]
    want = np.zeros((4, 4))
    want_contr = np.zeros((n, 3))
    for a in range(n):
        ring = [partners[(a + i) % n] for i in range(3)]
        for j, order in enumerate((2, 3, 4)):
            cvec = cumulant_rows(z, ring[: order - 1])
            want += weights[j] * np.outer(cvec, cvec)
            want_contr[a, j] = weights[j] * float(cvec @ cvec)
    np.testing.assert_allclose(cm.m, want, rtol=1e-10, atol=1e-14)
    np.testing.assert_allclose(cm.contributions, want_contr, rtol=1e-10, atol=1e-14)
    # PSD and symmetric by construction
    np.testing.assert_allclose(cm.m, cm.m.T, atol=0)
    assert np.linalg.eigvalsh(cm.m).min() > -1e-12
    # trace identity: total contribution equals trace of m
    assert np.trace(cm.m) == pytest.approx(float(cm.contributions.sum()), rel=1e-10)


def test_cost_matrix_first_alpha_only():
    rng = np.random.default_rng(3)
    z = _centered(rng, (3, 150))
    partners = _centered(rng, (4, 150))
    weights = (0.5, 0.75, 1.0)
    cm = build_cost_matrix(z, partners, weights, alphas="first")
    assert cm.n_alpha == 1
    ring = [partners[0], partners[1], partners[2]]
    want = np.zeros((3, 3))
    for j, order in enumerate((2, 3, 4)):
        cvec = cumulant_rows(z, ring[: order - 1])
        want += weights[j] * np.outer(cvec, cvec)
    np.testing.assert_allclose(cm.m, want, rtol=1e-10, atol=1e-14)
    with pytest.raises(ValueError):
        build_cost_matrix(z, partners, weights, alphas="second")
    with pytest.raises(PartnerLengthMismatch):
        build_cost_matrix(z, partners[:, :-1], weights)


def test_eigenvector_maximizes_cost():
    rng = np.random.default_rng(5)
    z = _centered(rng, (4, 300))
    partners = _centered(rng, (3, 300))
    cm = build_cost_matrix(z, partners, (0.5, 0.75, 1.0))
    lam, u = dominant_eigenvector(cm.m)
    assert cost(u, cm) == pytest.approx(lam, rel=1e-10)
    for _ in range(50):
        r = rng.standard_normal(4)
        r /= np.linalg.norm(r)
        assert cost(r, cm) <= lam + 1e-10


def test_inner_extract_self_mode_finds_kurtotic_source():
    rng = np.random.default_rng(7)
    v = 4000
    s_sharp = standardize(rng.laplace(size=v) ** 3)
    s_flat = standardize(rng.standard_normal(v))
    mix = np.array([[0.8, 0.6], [-0.3, 0.95]])
    x = mix @ np.stack([s_sharp, s_flat])
    from jpjica.preprocess import whiten

    z, _ = whiten(x)
    u0 = np.array([1.0, 1.0]) / np.sqrt(2)
    lam, u, trace, converged = inner_extract(z, (0.5, 0.75, 1.0), u0)
    assert converged
    y = standardize(u @ z)
    assert abs(float(y @ s_sharp) / v) > 0.95
    # final cost is the largest value on the trace (fixed-point ascent)
    assert trace[-1] == pytest.approx(max(trace), rel=1e-6)


def test_inner_extract_self_mode_cap_warns():
    rng = np.random.default_rng(8)
    z = _centered(rng, (3, 500))
    u0 = np.array([1.0, 0.0, 0.0])
    with pytest.warns(ConvergenceWarning):
        inner_extract(z, (0.5, 0.75, 1.0), u0, eps0=1e-16, max_inner=2)


def test_deflate_removes_component():
    rng = np.random.default_rng(9)
    z = rng.standard_normal((4, 200))
    y = rng.standard_normal(200)
    z2, coef = deflate(z, y)
    np.testing.assert_allclose(z2 @ y, np.zeros(4), atol=1e-9)
    np.testing.assert_allclose(coef, z @ y / float(y @ y), atol=1e-12)
    z3, coef2 = deflate(z2, y)
    np.testing.assert_allclose(coef2, np.zeros(4), atol=1e-12)
    np.testing.assert_allclose(z3, z2, atol=1e-12)
    with pytest.raises(ZeroSource):
        deflate(z, np.zeros(200))


def test_decollide_projects_off_prior_rows():
    rng = np.random.default_rng(10)
    prior = rng.standard_normal((2, 5))
    u = rng.standard_normal(5)
    v = _decollide(u, prior)
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
    for p in prior:
        assert abs(float(v @ p)) < 1e-10
    # collinear candidate falls back to a basis direction, still orthogonal
    v2 = _decollide(prior[0].copy(), prior)
    assert np.linalg.norm(v2) == pytest.approx(1.0, abs=1e-12)
    for p in prior:
        assert abs(float(v2 @ p)) < 1e-8


def test_align_rows_undoes_a_swap_with_ragged_orders():
    """A subject holding its slots 0 and 2 swapped is put back, in place.

    Subject 2 holds two slots only, so est[2][2] is a zero row that must
    add nothing.  With two peers at squared correlation ~0.5, subject 0's
    own rows would outweigh them, so its own row must not count.
    """
    rng = np.random.default_rng(12)
    orders = [3, 3, 2]
    shared = np.stack([standardize(x) for x in rng.laplace(size=(3, 500))])
    est = [np.zeros((3, 500)) for _ in range(3)]
    for k, o in enumerate(orders):
        for c in range(o):
            est[c][k] = standardize(shared[c] + rng.standard_normal(500))
    want = [e.copy() for e in est]
    swap = [2, 1, 0]
    for c, i in enumerate(swap):
        est[c][0] = want[i][0]
    u_eff = [np.eye(o) for o in orders]
    u_eff[0] = u_eff[0][swap]
    final_costs = np.arange(9.0).reshape(3, 3)
    final_costs[2, 2] = np.nan
    self_mode = np.zeros((3, 3), dtype=bool)
    self_mode[0, 0] = True
    _align_rows(est, u_eff, final_costs, self_mode, orders)
    np.testing.assert_array_equal(np.stack(est), np.stack(want))
    np.testing.assert_array_equal(u_eff[0], np.eye(3))
    np.testing.assert_array_equal(final_costs[:, 0], [6.0, 3.0, 0.0])
    np.testing.assert_array_equal(self_mode[:, 0], [False, False, True])
    assert np.isnan(final_costs[2, 2])


def test_mode_switch_threshold_scaling():
    w = (0.5, 0.75, 1.0)
    base = mode_switch_threshold(w, 9, 5, 4096)
    assert base == pytest.approx(6.0 * 2.25 * 9 * 5 / 4096, rel=1e-12)
    assert mode_switch_threshold(w, 9, 5, 4096, n_partners=9) == base
    # repeated ring rows inflate the floor
    one = mode_switch_threshold(w, 1, 5, 4096, n_partners=1)
    two = mode_switch_threshold(w, 2, 5, 4096, n_partners=2)
    assert one == pytest.approx(6.0 * (0.5 + 3 * 0.75 + 6.0) * 1 * 5 / 4096, rel=1e-12)
    assert two == pytest.approx(6.0 * (0.5 + 0.75 + 3.0) * 2 * 5 / 4096, rel=1e-12)


def test_mode_switch_dominates_partner_null():
    rng = np.random.default_rng(11)
    weights = (0.5, 0.75, 1.0)
    for v, c_rows, n_peers in [(2048, 4, 9), (1024, 3, 4), (600, 2, 2), (600, 2, 1)]:
        thr = mode_switch_threshold(weights, n_peers, c_rows, v, n_partners=n_peers)
        worst = 0.0
        for _ in range(40):
            z = _centered(rng, (c_rows, v))
            p = np.stack([standardize(rng.standard_normal(v)) for _ in range(n_peers)])
            cm = build_cost_matrix(z, p, weights)
            lam, _ = dominant_eigenvector(cm.m)
            worst = max(worst, lam)
        assert worst < thr, f"null cost {worst:.4f} razed threshold {thr:.4f}"
    # and a genuinely shared source clears it by orders of magnitude
    v = 1024
    s = standardize(rng.laplace(size=v))
    z = np.stack([s, standardize(rng.standard_normal(v))])
    z = z - z.mean(axis=1, keepdims=True)
    p = np.stack([s.copy()])
    cm = build_cost_matrix(z, p, weights)
    lam, _ = dominant_eigenvector(cm.m)
    assert lam > 20 * mode_switch_threshold(weights, 1, 2, v, n_partners=1)


def _small_run(seed=0, algorithm="jpji", **cfg_kw):
    spec = ScenarioSpec(
        n_subjects=5,
        n_joint=1,
        n_individual=1,
        n_clusters=1,
        n_voxels=1024,
        n_time=60,
        seed=seed,
    )
    datasets, truth = generate_dataset(spec)
    cfg = AlgoConfig(seed=seed, **cfg_kw)
    return run_jpji_ica(datasets, cfg, algorithm=algorithm), truth, datasets


def test_run_structure_and_source_normalization():
    decomp, truth, datasets = _small_run()
    assert decomp.n_subjects == 5
    assert decomp.algorithm == "jpji"
    assert decomp.extraction_costs.shape == (decomp.n_slots, 5)
    assert decomp.self_mode.shape == decomp.extraction_costs.shape
    for k in range(5):
        d = decomp.demixing[k]
        np.testing.assert_allclose(
            np.linalg.norm(d, axis=1), np.ones(d.shape[0]), atol=1e-10
        )
        for i in range(d.shape[0]):
            y = decomp.sources[k][i]
            assert abs(y.mean()) < 1e-10
            assert np.mean(y * y) == pytest.approx(1.0, abs=1e-8)
            np.testing.assert_allclose(
                y, standardize(d[i] @ decomp.z[k]), atol=1e-8
            )
    # whitener maps raw observations onto the stored z
    for k, ds in enumerate(datasets):
        obs = ds.observations
        zk = decomp.whiteners[k] @ (obs - decomp.row_means[k][:, None])
        np.testing.assert_allclose(zk, decomp.z[k], atol=1e-8)


def test_run_recovers_shared_source():
    decomp, truth, _ = _small_run(seed=1)
    # slot ordering puts the joint source first; compare to the true map
    s_true = truth.sources[0][0]
    cors = [abs(float(decomp.sources[k][0] @ s_true)) / s_true.size for k in range(5)]
    assert min(cors) > 0.95


def test_run_is_deterministic():
    a, _, _ = _small_run(seed=3)
    b, _, _ = _small_run(seed=3)
    for k in range(a.n_subjects):
        np.testing.assert_array_equal(a.demixing[k], b.demixing[k])
        np.testing.assert_array_equal(a.sources[k], b.sources[k])
    np.testing.assert_array_equal(a.extraction_costs, b.extraction_costs)


def test_run_trace_bookkeeping():
    decomp, _, _ = _small_run(seed=4, max_outer=3)
    sweeps = {t.sweep for t in decomp.traces}
    assert sweeps == {1, 2, 3}
    assert {t.slot for t in decomp.traces} == set(range(decomp.n_slots))
    assert {t.subject for t in decomp.traces} == set(range(5))
    per_pair = {}
    for t in decomp.traces:
        per_pair[(t.sweep, t.slot, t.subject)] = per_pair.get((t.sweep, t.slot, t.subject), 0) + 1
    assert all(v == 1 for v in per_pair.values())
    assert all(t.mode in ("joint", "self") for t in decomp.traces)
    # a joint extraction is one eigen step: [cost(u0), lambda]
    assert all(len(t.costs) == 2 for t in decomp.traces if t.mode == "joint")


def test_run_deflation_decorrelates_rows():
    decomp, _, _ = _small_run(seed=5)
    for k in range(decomp.n_subjects):
        s = decomp.sources[k]
        v = s.shape[1]
        corr = np.abs(s @ s.T) / v
        off = corr - np.diag(np.diag(corr))
        assert off.max() < 0.25


def test_run_single_subject_warns_and_self_extracts():
    rng = np.random.default_rng(12)
    sharp = standardize(rng.laplace(size=800) ** 3)
    flat = standardize(rng.standard_normal(800))
    obs = np.array([[1.0, 0.4], [0.2, 1.0], [0.5, -0.5]]) @ np.stack([sharp, flat])
    ds = [SubjectDataset(subject_id="solo", observations=obs)]
    with pytest.warns(SingleSubjectWarning):
        decomp = run_jpji_ica(ds, AlgoConfig(seed=0, n_components=2))
    assert decomp.self_mode.all()
    assert decomp.n_subjects == 1


def test_run_jithica_uses_single_tuple(monkeypatch):
    """Every ring extraction follows the algorithm's policy.

    Five subjects at ``global-min`` give each extraction four peers:
    jithica draws a tuple of min(3, 4) of them and scores ring position 0
    only, jpji uses all K-1 peers over every position.  Calls made by
    self-mode extraction and the feature pass are recorded apart.
    """
    import jpjica.engine as engine

    real_build = engine.build_cost_matrix
    ring_calls, other_calls, nested = [], [], []

    def build(z, partners, weights, alphas="all"):
        (other_calls if nested else ring_calls).append((partners.shape[0], alphas))
        return real_build(z, partners, weights, alphas=alphas)

    def inside(fn):
        def wrapped(*args, **kwargs):
            nested.append(fn)
            try:
                return fn(*args, **kwargs)
            finally:
                nested.pop()

        return wrapped

    monkeypatch.setattr(engine, "build_cost_matrix", build)
    monkeypatch.setattr(engine, "inner_extract", inside(engine.inner_extract))
    monkeypatch.setattr(engine, "build_features", inside(engine.build_features))
    for algorithm, policy in [("jithica", (3, "first")), ("jpji", (4, "all"))]:
        ring_calls.clear()
        other_calls.clear()
        decomp, _, _ = _small_run(seed=6, algorithm=algorithm)
        assert decomp.algorithm == algorithm
        assert decomp.extraction_costs.shape[1] == 5
        assert len(ring_calls) == len(decomp.traces)
        assert set(ring_calls) == {policy}
        assert {alphas for _, alphas in other_calls} == {"all"}
    with pytest.raises(ValueError):
        _small_run(seed=6, algorithm="other")


@pytest.mark.parametrize("algorithm", ["jpji", "jithica"])
def test_slots_ordered_by_mean_feature(algorithm):
    """Mean ``jpjif`` over a slot's holders never rises from slot to slot.

    The table is the one of the returned sources: rebuilt from them it is
    bitwise the same.
    """
    for seed in range(3):
        decomp, _, _ = _small_run(seed=seed, algorithm=algorithm)
        feats = decomp.features
        assert np.all(np.diff(np.nanmean(feats.jpjif, axis=1)) <= 0)
        est = [np.stack([s[c] for s in decomp.sources]) for c in range(decomp.n_slots)]
        again = build_features(est, [decomp.n_slots] * 5, decomp.config.weights)
        assert np.array_equal(again.jpjif, feats.jpjif)
        assert np.array_equal(again.kurtosis, feats.kurtosis)
    ragged = run_jpji_ica(_ragged_datasets(), AlgoConfig(seed=0, n_components="auto-bic"))
    jpjif = ragged.features.jpjif
    assert np.array_equal(np.isnan(jpjif), ragged.slot_rows < 0)
    assert np.all(np.diff(np.nanmean(jpjif, axis=1)) <= 0)


def test_one_feature_pass_per_run(monkeypatch):
    """The engine builds the feature table once; labelling only reads it."""
    import jpjica.engine as engine

    calls = []
    real = engine.build_features

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(engine, "build_features", counted)
    decomp, _, datasets = _small_run(seed=4)
    assert len(calls) == 1
    labelled = label_decomposition(decomp)
    assert len(calls) == 1
    assert labelled.features.jpjif is decomp.features.jpjif
    assert labelled.features.sigma_opt is not None
    # the engine's table is not changed in place
    assert decomp.features.sigma_opt is None and decomp.features.joint_slots == []
    run_ji_thica(datasets, AlgoConfig(seed=4))
    assert len(calls) == 2


def test_run_rejects_nonuniform_weights_config_error():
    spec = ScenarioSpec(
        n_subjects=5, n_joint=1, n_clusters=1, n_voxels=256, n_time=30, seed=0
    )
    datasets, _ = generate_dataset(spec)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run_jpji_ica(datasets, AlgoConfig(seed=0, n_components=1))


def test_engine_cost_inputs_are_centered(monkeypatch):
    """Whitened z0, deflated z_work and partner rows are already zero-mean.

    build_cost_matrix and the ring kernel rely on this and do not
    re-center; record every input the engine hands them.
    """
    import jpjica.engine as engine

    seen = {"z": [], "partners": [], "ring": []}
    real_build, real_ring = engine.build_cost_matrix, engine.cumulant_vectors_ring

    def build(z, partners, *args, **kwargs):
        seen["z"].append(np.array(z))
        seen["partners"].append(np.array(partners))
        return real_build(z, partners, *args, **kwargs)

    def ring(zc, partners):
        seen["ring"].append(np.vstack([zc, partners]))
        return real_ring(zc, partners)

    monkeypatch.setattr(engine, "build_cost_matrix", build)
    monkeypatch.setattr(engine, "cumulant_vectors_ring", ring)
    decomp, _, _ = _small_run(seed=2)
    for zk in decomp.z:
        assert np.abs(zk.mean(axis=1)).max() < 1e-12
    deflated = [z for z in seen["z"] if not any(np.array_equal(z, zk) for zk in decomp.z)]
    assert deflated, "the final sweep should hand deflated data to the cost build"
    for rows in seen["z"] + seen["partners"] + seen["ring"]:
        assert np.abs(rows.mean(axis=1)).max() < 1e-12


def test_mode_switch_float_overrides_automatic_floor(monkeypatch):
    import jpjica.engine as engine

    calls = []
    real = engine.mode_switch_threshold

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(engine, "mode_switch_threshold", counted)
    default, _, _ = _small_run(seed=3)
    n_default = len(calls)
    auto, _, _ = _small_run(seed=3, mode_switch="auto")
    assert n_default > 0 and len(calls) == 2 * n_default
    for k in range(default.n_subjects):
        np.testing.assert_array_equal(auto.demixing[k], default.demixing[k])
        np.testing.assert_array_equal(auto.sources[k], default.sources[k])
    np.testing.assert_array_equal(auto.extraction_costs, default.extraction_costs)
    np.testing.assert_array_equal(auto.self_mode, default.self_mode)
    assert not default.self_mode[0].any(), "the joint slot is extracted jointly"

    calls.clear()
    forced, _, _ = _small_run(seed=3, mode_switch=1e300)
    assert not calls
    assert forced.self_mode.all()
    assert all(t.mode == "self" for t in forced.traces)
    always, _, _ = _small_run(seed=3, mode_switch=0.0)
    assert not always.self_mode.any()
    assert all(t.mode == "joint" for t in always.traces)


# ------------------------------------------------------------ streamed subjects


def _ragged_datasets():
    """Four noiseless subjects of ranks 2, 3, 2, 4."""
    spec = ScenarioSpec(
        n_subjects=4, n_joint=1, n_individual=(1, 2, 1, 3), n_clusters=1,
        n_voxels=1024, n_time=60, seed=21,
    )
    return generate_dataset(spec)[0]


def test_engine_holds_one_observation_matrix_at_a_time():
    datasets = _ragged_datasets()
    refs, alive = [], []

    def stream():
        for ds in datasets:
            if refs:
                gc.collect()
                alive.append(refs[-1]() is not None)
            sub = SubjectDataset(ds.subject_id, ds.observations.copy())
            refs.append(weakref.ref(sub.observations))
            yield sub
            del sub

    run_jpji_ica(stream(), AlgoConfig(seed=0, max_outer=1))
    assert len(refs) == len(datasets)
    assert alive == [False] * (len(datasets) - 1)


@pytest.mark.parametrize(
    "policy, orders",
    [("auto-bic", [2, 3, 2, 4]), ("global-min", [2, 2, 2, 2]), (2, [2, 2, 2, 2])],
)
def test_streamed_and_listed_subjects_give_identical_runs(policy, orders):
    datasets = _ragged_datasets()
    cfg = AlgoConfig(seed=0, n_components=policy, max_outer=2)
    listed = run_jpji_ica(datasets, cfg)
    streamed = run_jpji_ica(iter(datasets), cfg)
    assert [s.shape[0] for s in streamed.sources] == orders
    assert [s.shape[0] for s in listed.sources] == orders
    for k, ds in enumerate(datasets):
        for field in ("z", "whiteners", "row_means", "demixing", "sources"):
            np.testing.assert_array_equal(getattr(streamed, field)[k], getattr(listed, field)[k])
        # a reduction truncated after the pass equals a direct reduction to the final order
        z, _ = whiten(pca_reduce(ds.observations, orders[k]).scores)
        np.testing.assert_allclose(streamed.z[k], z, atol=1e-10)
        x = ds.observations - streamed.row_means[k][:, None]
        np.testing.assert_allclose(streamed.whiteners[k] @ x, streamed.z[k], atol=1e-8)


def test_rescaling_and_shifting_a_subject_changes_no_source_or_label():
    spec = ScenarioSpec(
        n_subjects=5, n_joint=1, n_individual=1, n_clusters=1,
        n_voxels=1024, n_time=60, seed=11,
    )
    datasets, _ = generate_dataset(spec)
    x = datasets[2].observations
    offsets = np.random.default_rng(5).uniform(-50.0, 50.0, (x.shape[0], 1))
    moved = list(datasets)
    moved[2] = SubjectDataset(datasets[2].subject_id, 7.5 * x + offsets)
    cfg = AlgoConfig(seed=11)
    base = label_decomposition(run_jpji_ica(datasets, cfg))
    got = label_decomposition(run_jpji_ica(moved, cfg))
    for k in range(spec.n_subjects):
        np.testing.assert_allclose(got.sources[k], base.sources[k], rtol=0, atol=1e-8)
    assert got.labels == base.labels
    assert got.features.joint_slots == base.features.joint_slots


def _metamorphic_scene(seed):
    spec = ScenarioSpec(
        n_subjects=6, n_joint=1, n_pjoint=1, n_individual=1, n_clusters=2,
        n_voxels=1024, n_time=60, snr_db=20.0, seed=seed, allow_small_clusters=True,
    )
    datasets, _ = generate_dataset(spec)
    cfg = AlgoConfig(seed=seed)
    return datasets, cfg, label_decomposition(run_jpji_ica(datasets, cfg))


@pytest.mark.parametrize("seed", range(4))
def test_permuting_voxels_permutes_sources_and_keeps_labels(seed):
    datasets, cfg, base = _metamorphic_scene(seed)
    perm = np.random.default_rng(seed).permutation(datasets[0].n_voxels)
    moved = [SubjectDataset(ds.subject_id, ds.observations[:, perm]) for ds in datasets]
    got = label_decomposition(run_jpji_ica(moved, cfg))
    for g, b in zip(got.sources, base.sources):
        np.testing.assert_allclose(g, b[:, perm], rtol=0, atol=1e-8)
    assert got.labels == base.labels
    assert got.features.joint_slots == base.features.joint_slots


@pytest.mark.parametrize("seed", range(4))
def test_renaming_subjects_changes_nothing_but_ids(seed):
    datasets, cfg, base = _metamorphic_scene(seed)
    renamed = [
        SubjectDataset(f"renamed-{ds.subject_id[::-1]}", ds.observations) for ds in datasets
    ]
    got = label_decomposition(run_jpji_ica(renamed, cfg))
    assert got.subject_ids == [ds.subject_id for ds in renamed]
    for g, b in zip(got.sources, base.sources):
        assert np.array_equal(g, b)
    assert np.array_equal(got.features.jpjif, base.features.jpjif, equal_nan=True)
    assert got.labels == base.labels
