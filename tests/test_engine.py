"""Cost construction, extraction, deflation and the full engine loop."""
import gc
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from jpjica import io as jio
from jpjica.baseline import run_ji_thica
from jpjica.classify import label_decomposition
from jpjica.engine import (
    WEIGHTS,
    build_cost_matrix,
    build_features,
    cost,
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
from jpjica.metrics import evaluate_run
from jpjica.numerics import dominant_eigenvector, standardize
from jpjica.preprocess import _CENTRE_BLOCK_COLS, pca_reduce, whiten
from jpjica.simulate import ScenarioSpec, generate_dataset
from jpjica.types import AlgoConfig, SubjectDataset, TraceRecord
from oracles import cumulant_rows, deflate


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
    assert cm.g.shape == (4, 3 * n)
    np.testing.assert_allclose(cm.g @ cm.g.T, want, rtol=1e-10, atol=1e-14)
    np.testing.assert_allclose(cm.contributions, want_contr, rtol=1e-10, atol=1e-14)
    # trace identity: total contribution equals the squared norm of the factor
    assert np.sum(cm.g**2) == pytest.approx(float(cm.contributions.sum()), rel=1e-10)


def test_cost_matrix_first_alpha_only():
    rng = np.random.default_rng(3)
    z = _centered(rng, (3, 150))
    partners = _centered(rng, (4, 150))
    weights = (0.5, 0.75, 1.0)
    cm = build_cost_matrix(z, partners, weights, alphas="first")
    assert cm.n_alpha == 1
    ring = [partners[0], partners[1], partners[2]]
    want = np.zeros((3, 3))
    want_contr = np.zeros((1, 3))
    for j, order in enumerate((2, 3, 4)):
        cvec = cumulant_rows(z, ring[: order - 1])
        want += weights[j] * np.outer(cvec, cvec)
        want_contr[0, j] = weights[j] * float(cvec @ cvec)
    np.testing.assert_allclose(cm.g @ cm.g.T, want, rtol=1e-10, atol=1e-14)
    np.testing.assert_allclose(cm.contributions, want_contr, rtol=1e-10, atol=1e-14)
    with pytest.raises(ValueError):
        build_cost_matrix(z, partners, weights, alphas="second")
    with pytest.raises(PartnerLengthMismatch):
        build_cost_matrix(z, partners[:, :-1], weights)


def test_eigenvector_maximizes_cost():
    rng = np.random.default_rng(5)
    z = _centered(rng, (4, 300))
    partners = _centered(rng, (3, 300))
    cm = build_cost_matrix(z, partners, (0.5, 0.75, 1.0))
    lam, u = dominant_eigenvector(cm.g)
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
    own rows would outweigh them, so its own row must not count.  The
    estimates are coefficients on whitened rows Z, ``est = coef @ Z``,
    with ``xcov = coef @ Z @ Z.T / V`` as the engine keeps them; the
    similarity read from the coefficients is the voxel one.
    """
    rng = np.random.default_rng(12)
    orders = [3, 3, 2]
    v = 500
    shared = np.stack([standardize(x) for x in rng.laplace(size=(3, v))])
    x = [shared[:o] + rng.standard_normal((o, v)) for o in orders]
    z = [whiten(xk)[0] for xk in x]
    bounds = np.cumsum([0] + orders)
    stacked = np.vstack(z)
    cross = stacked @ stacked.T / v
    est = [np.zeros((3, v)) for _ in range(3)]
    coef = [np.zeros((3, bounds[-1])) for _ in range(3)]
    for k, o in enumerate(orders):
        for c in range(o):
            # The standardized row lies in the span of z[k], whose rows are orthonormal over V.
            coef[c][k, bounds[k] : bounds[k + 1]] = z[k] @ standardize(x[k][c]) / v
    for c in range(3):
        est[c] = coef[c] @ stacked
    xcov = [b @ cross for b in coef]
    for k, o in enumerate(orders):
        rows = np.stack([est[c][k] for c in range(o)])
        b = np.stack([coef[c][k] for c in range(o)])
        for c in range(o):
            np.testing.assert_allclose(xcov[c] @ b.T, est[c] @ rows.T / v, rtol=0, atol=1e-12)
    want = [e.copy() for e in est]
    want_coef = [b.copy() for b in coef]
    want_xcov = [r.copy() for r in xcov]
    swap = [2, 1, 0]
    for held, good in ((est, want), (coef, want_coef), (xcov, want_xcov)):
        for c, i in enumerate(swap):
            held[c][0] = good[i][0]
    u_eff = [np.eye(o) for o in orders]
    u_eff[0] = u_eff[0][swap]
    # The last sweep's records, in slot order: cost 3c + k, slot 0 of subject 0 in self mode.
    records = [
        [
            TraceRecord(sweep=5, slot=c, subject=k, costs=[0.0, 3.0 * c + k],
                        mode="self" if (c, k) == (0, 0) else "joint", converged=True)
            for c in range(o)
        ]
        for k, o in enumerate(orders)
    ]
    _align_rows(est, u_eff, records, orders, coef, xcov)
    np.testing.assert_array_equal(np.stack(est), np.stack(want))
    np.testing.assert_array_equal(np.stack(coef), np.stack(want_coef))
    np.testing.assert_array_equal(np.stack(xcov), np.stack(want_xcov))
    np.testing.assert_array_equal(u_eff[0], np.eye(3))
    # Subject 0's records moved with its rows and took their slots.
    assert [t.costs[-1] for t in records[0]] == [6.0, 3.0, 0.0]
    assert [t.mode for t in records[0]] == ["joint", "joint", "self"]
    for k in range(3):
        assert [t.slot for t in records[k]] == list(range(orders[k]))
    assert [t.costs[-1] for t in records[2]] == [2.0, 5.0]


def test_cost_trace_follows_rows_after_a_forced_swap(monkeypatch, tmp_path):
    """Every final-sweep row of ``cost_trace.csv`` agrees with ``results.json``.

    The assignment is forced to reverse subject 0's rows in both passes
    of ``_align_rows``, so they end reversed against the order they were
    extracted in; the records of the last sweep must move with them.
    """
    import json

    import jpjica.engine as engine

    real = engine.linear_sum_assignment
    calls = []

    def reversed_for_subject_0(cost):
        slots, picked = real(cost)
        if len(calls) % 5 == 0:
            picked = picked[::-1].copy()
        calls.append(cost.shape)
        return slots, picked

    monkeypatch.setattr(engine, "linear_sum_assignment", reversed_for_subject_0)
    decomp, _, _ = _small_run(seed=2)
    last = decomp.config.max_outer
    assert len(calls) == 10  # the first pass changed a subject, so a second ran
    jio.save_decomposition(tmp_path / "run", decomp)
    results = json.loads((tmp_path / "run" / "results.json").read_text())
    ids = results["subject_ids"]
    last_rows = {}
    with open(tmp_path / "run" / "cost_trace.csv") as fh:
        next(fh)
        for line in fh:
            sweep, slot, subject, _, cost_, mode, _ = line.strip().split(",")
            if int(sweep) == last:
                last_rows[(int(slot), ids.index(subject))] = (float(cost_), mode)
    assert len(last_rows) == decomp.n_slots * 5
    for (c, k), (cost_, mode) in last_rows.items():
        assert cost_ == results["extraction_costs"][c][k]
        assert (mode == "self") == bool(results["self_mode"][c][k])
    # Read in the order they were extracted, subject 0's records name its slots reversed.
    final = [t for t in decomp.traces if t.sweep == last]
    extracted = [[t.slot for t in final if t.subject == k] for k in range(5)]
    assert extracted[0] == extracted[1][::-1] and extracted[1] == extracted[4]


def test_mode_switch_threshold_scaling():
    w = (0.5, 0.75, 1.0)
    base = mode_switch_threshold(w, 9, 5, 4096, n_partners=9)
    assert base == pytest.approx(6.0 * 2.25 * 9 * 5 / 4096, rel=1e-12)
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
            lam, _ = dominant_eigenvector(cm.g)
            worst = max(worst, lam)
        assert worst < thr, f"null cost {worst:.4f} razed threshold {thr:.4f}"
    # and a genuinely shared source clears it by orders of magnitude
    v = 1024
    s = standardize(rng.laplace(size=v))
    z = np.stack([s, standardize(rng.standard_normal(v))])
    z = z - z.mean(axis=1, keepdims=True)
    p = np.stack([s.copy()])
    cm = build_cost_matrix(z, p, weights)
    lam, _ = dominant_eigenvector(cm.g)
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
    for k, ds in enumerate(datasets):
        d = decomp.demixing[k]
        np.testing.assert_allclose(
            np.linalg.norm(d, axis=1), np.ones(d.shape[0]), atol=1e-10
        )
        # whitener and row means map raw observations onto the whitened rows
        zk = decomp.whiteners[k] @ (ds.observations - decomp.row_means[k][:, None])
        np.testing.assert_allclose(zk @ zk.T / zk.shape[1], np.eye(d.shape[0]), atol=1e-8)
        for i in range(d.shape[0]):
            y = decomp.sources[k][i]
            assert abs(y.mean()) < 1e-10
            assert np.mean(y * y) == pytest.approx(1.0, abs=1e-8)
            np.testing.assert_allclose(y, standardize(d[i] @ zk), atol=1e-8)


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


@pytest.mark.parametrize(
    "n_subjects, n_clusters, snr_db, seed",
    [(10, 2, None, 1), (15, 3, 3.0, 1), (20, 4, -3.0, 2)],
    ids=["k10-clean", "k15-3dB", "k20-minus3dB"],
)
def test_default_budget_matches_five_sweeps(n_subjects, n_clusters, snr_db, seed):
    """Two non-final sweeps settle the rows: three sweeps label as five do, within 0.25 dB."""
    spec = ScenarioSpec(
        n_subjects=n_subjects, n_joint=3, n_pjoint=2, n_individual=1, n_clusters=n_clusters,
        n_voxels=4096, n_time=150, snr_db=snr_db, seed=seed,
    )
    datasets, truth = generate_dataset(spec)
    default, five = (
        label_decomposition(run_jpji_ica(datasets, cfg))
        for cfg in (AlgoConfig(seed=seed), AlgoConfig(seed=seed, max_outer=5))
    )
    assert default.config.max_outer == 3
    assert default.labels == five.labels
    gap = evaluate_run(truth, default).jsir_db - evaluate_run(truth, five).jsir_db
    assert abs(gap) <= 0.25


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
    only, jpji uses all K-1 peers over every position.  Each trace makes
    one joint cost build; the generic build serves only self-mode
    extraction and the feature pass, over every position.
    """
    import jpjica.engine as engine

    real_ring, real_build = engine.build_ring_cost, engine.build_cost_matrix
    ring_calls, other_calls, nested = [], [], []

    def ring_cost(z, est, ring, order2, weights, alphas="all", frame=None):
        assert not nested
        ring_calls.append((len(ring), alphas))
        return real_ring(z, est, ring, order2, weights, alphas, frame)

    def build(z, partners, weights, alphas="all"):
        assert nested, "the generic cost build runs only in self mode and the feature pass"
        other_calls.append(alphas)
        return real_build(z, partners, weights, alphas=alphas)

    def inside(fn):
        def wrapped(*args, **kwargs):
            nested.append(fn)
            try:
                return fn(*args, **kwargs)
            finally:
                nested.pop()

        return wrapped

    monkeypatch.setattr(engine, "build_ring_cost", ring_cost)
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
        assert set(other_calls) == {"all"}
    with pytest.raises(ValueError):
        _small_run(seed=6, algorithm="other")


def _record_ring_costs(monkeypatch):
    """Record every joint cost build: inputs copied at call time, and the factor."""
    import jpjica.engine as engine

    real = engine.build_ring_cost
    calls = []

    def ring_cost(z, est, ring, order2, weights, alphas="all", frame=None):
        cm = real(z, est, ring, order2, weights, alphas, frame)
        calls.append(
            dict(
                z=z.copy(),
                partners=est[ring].copy(),
                order2=tuple(o.copy() for o in order2),
                frame=None if frame is None else frame.copy(),
                weights=weights,
                alphas=alphas,
                g=cm.g,
            )
        )
        return cm

    monkeypatch.setattr(engine, "build_ring_cost", ring_cost)
    return calls


def _whitened(decomp, datasets):
    return [
        w @ (ds.observations - mean[:, None])
        for w, mean, ds in zip(decomp.whiteners, decomp.row_means, datasets)
    ]


@pytest.mark.parametrize("ragged", [False, True])
def test_order2_terms_from_cross_covariance_match_voxel_products(monkeypatch, ragged):
    """Order-2 vectors and q01/q02 from the cross-covariance equal direct products.

    Checked within 1e-12 relative at every joint extraction, mid-sweep and
    in the final sweep's projected frame; the whole factor equals the
    generic build on the explicit rows ``frame @ z``.
    """
    calls = _record_ring_costs(monkeypatch)
    if ragged:
        datasets = _ragged_datasets()
        decomp = run_jpji_ica(datasets, AlgoConfig(seed=0, n_components="auto-bic"))
    else:
        decomp, _, datasets = _small_run(seed=3)
    v = datasets[0].n_voxels
    whitened = _whitened(decomp, datasets)
    framed = [c for c in calls if c["frame"] is not None]
    assert framed and len(framed) < len(calls)
    assert any(not np.allclose(c["frame"], np.eye(len(c["frame"]))) for c in framed)

    def close(got, want):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    for call in calls:
        z, p = call["z"], call["partners"]
        assert any(zk.shape == z.shape and np.allclose(zk, z, atol=1e-8) for zk in whitened)
        frame = np.eye(z.shape[0]) if call["frame"] is None else call["frame"]
        cv2, q01, q02 = call["order2"]
        n = p.shape[0]
        close(frame @ cv2, (frame @ z) @ p.T / v)
        close(q01, np.array([p[a] @ p[(a + 1) % n] for a in range(n)]) / v)
        close(q02, np.array([p[a] @ p[(a + 2) % n] for a in range(n)]) / v)
        want = build_cost_matrix(frame @ z, p, call["weights"], alphas=call["alphas"]).g
        close(call["g"], want)


def test_final_frames_equal_sequential_deflation(monkeypatch):
    """The last sweep's ``frame @ z0[k]`` is voxel-space deflation within 1e-12.

    Each last-sweep extraction projects its subject's data off the rows
    extracted before it in that sweep; replaying the regressions of those
    sources on the whitened data with the oracle, in trace order, gives
    the same rows before every extraction.  The returned demixing rows
    of each subject are orthonormal.
    """
    import jpjica.engine as engine

    calls = _record_ring_costs(monkeypatch)
    real_align = engine._align_rows
    extracted = []

    def align(est, u_work, *args):
        # The last sweep's rows, in slot order, before any re-matching.
        extracted.extend(u.copy() for u in u_work)
        return real_align(est, u_work, *args)

    monkeypatch.setattr(engine, "_align_rows", align)
    decomp, _, datasets = _small_run(seed=5)
    final = [t.subject for t in decomp.traces if t.sweep == decomp.config.max_outer]
    frames = [c["frame"] for c in calls if c["frame"] is not None]
    assert len(final) == len(frames) == decomp.n_slots * decomp.n_subjects
    z0 = _whitened(decomp, datasets)
    z_work = [z.copy() for z in z0]
    done = [0] * decomp.n_subjects
    for k, frame in zip(final, frames):
        tol = 1e-12 * np.abs(z0[k]).max()
        assert np.abs(frame @ z0[k] - z_work[k]).max() <= tol
        z_work[k], _ = deflate(z_work[k], extracted[k][done[k]] @ z0[k])
        done[k] += 1
    for d in decomp.demixing:
        assert np.abs(d @ d.T - np.eye(len(d))).max() <= 1e-12


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
        again = build_features(est, [decomp.n_slots] * 5, WEIGHTS)
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
    """Every voxel-space input of a cost build is already zero-mean.

    The joint step walks the whitened z0 against estimate rows, and the
    last sweep's self mode hands ``P @ z0[k]``, with P the projector off
    the subject's earlier rows, to the generic build; neither re-centers,
    so record every input they are given.
    """
    import jpjica.engine as engine

    ring_calls = _record_ring_costs(monkeypatch)
    seen = []
    real_build = engine.build_cost_matrix

    def build(z, partners, *args, **kwargs):
        seen.extend([np.array(z), np.array(partners)])
        return real_build(z, partners, *args, **kwargs)

    monkeypatch.setattr(engine, "build_cost_matrix", build)
    decomp, _, datasets = _small_run(seed=2)
    assert ring_calls and seen
    assert any(c["frame"] is not None for c in ring_calls)
    for call in ring_calls:
        seen.extend([call["z"], call["partners"]])
        if call["frame"] is not None:
            seen.append(call["frame"] @ call["z"])
    for rows in seen:
        assert np.abs(rows.mean(axis=1)).max() < 1e-12


# ------------------------------------------------------------ streamed subjects


def _ragged_datasets():
    """Four noiseless subjects of ranks 2, 3, 2, 4."""
    spec = ScenarioSpec(
        n_subjects=4, n_joint=1, n_individual=(1, 2, 1, 3), n_clusters=1,
        n_voxels=1024, n_time=60, seed=21,
    )
    return generate_dataset(spec)[0]


def _traced_peak(fn) -> int:
    """Peak bytes that fn allocates, as tracemalloc sees them (numpy's buffers included)."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_engine_holds_one_observation_matrix_at_a_time(tmp_path):
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

    # A subject read from disk holds no T x V array at all: the run, its
    # reductions included, allocates less than one observation matrix.
    spec = ScenarioSpec(
        n_subjects=4, n_joint=1, n_individual=1, n_clusters=1,
        n_voxels=3 * _CENTRE_BLOCK_COLS, n_time=60, seed=21,
    )
    jio.save_dataset(tmp_path, generate_dataset(spec)[0], binary=True)
    read = []

    def from_disk():
        for sub in jio.read_subjects(tmp_path)[0]:
            assert isinstance(sub, jio.BinarySubject)
            assert not any(isinstance(val, np.ndarray) for val in vars(sub).values())
            read.append(sub.subject_id)
            yield sub

    peak = _traced_peak(lambda: run_jpji_ica(from_disk(), AlgoConfig(seed=0, max_outer=1)))
    assert len(read) == spec.n_subjects
    assert peak < spec.n_time * spec.n_voxels * 8


def test_engine_frees_whitened_data_before_stacking_sources(tmp_path):
    """A binary run peaks below 2.5 K*C*V doubles plus the reduction's block buffer.

    Holding the whitened data while the sources are stacked would take
    3 K*C*V.
    """
    spec = ScenarioSpec(
        n_subjects=10, n_joint=2, n_pjoint=1, n_individual=1, n_clusters=2,
        n_voxels=4 * _CENTRE_BLOCK_COLS, n_time=60, seed=4,
    )
    jio.save_dataset(tmp_path, generate_dataset(spec)[0], binary=True)
    subjects = list(jio.read_subjects(tmp_path)[0])
    decomp = None

    def run():
        nonlocal decomp
        decomp = run_jpji_ica(subjects, AlgoConfig(seed=0, max_outer=1))

    peak = _traced_peak(run)
    k, v = spec.n_subjects, spec.n_voxels
    assert [s.shape[0] for s in decomp.sources] == [4] * k
    assert peak < 2.5 * k * 4 * v * 8 + spec.n_time * _CENTRE_BLOCK_COLS * 8


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
        for field in ("whiteners", "row_means", "demixing", "sources"):
            np.testing.assert_array_equal(getattr(streamed, field)[k], getattr(listed, field)[k])
        # a reduction truncated after the pass equals a direct reduction to the final order
        z, _ = whiten(pca_reduce(ds.observations, orders[k]).scores)
        x = ds.observations - streamed.row_means[k][:, None]
        np.testing.assert_allclose(streamed.whiteners[k] @ x, z, atol=1e-8)


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
