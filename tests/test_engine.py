"""Cost construction, extraction, deflation and the full engine loop."""
import warnings

import numpy as np
import pytest

from jpjica.engine import (
    build_cost_matrix,
    cost,
    deflate,
    inner_extract,
    mode_switch_threshold,
    run_jpji_ica,
    _decollide,
)
from jpjica.errors import (
    ConvergenceWarning,
    PartnerLengthMismatch,
    SingleSubjectWarning,
    ZeroSource,
)
from jpjica.numerics import dominant_eigenvector, standardize
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
    prior = [rng.standard_normal(5) for _ in range(2)]
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


def test_run_jithica_uses_single_tuple():
    decomp, _, _ = _small_run(seed=6, algorithm="jithica")
    assert decomp.algorithm == "jithica"
    assert decomp.extraction_costs.shape[1] == 5
    with pytest.raises(ValueError):
        _small_run(seed=6, algorithm="other")


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
