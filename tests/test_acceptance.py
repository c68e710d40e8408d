"""Acceptance suite: one test per shipped guarantee.

Every test pins one tolerance the toolkit is released with and shows up
as a single pass/fail line under ``pytest -v``.  All seeds are frozen so
a failure reproduces exactly.  The heavy scenario suites are session
fixtures shared across tests:

* 20 noiseless two-cluster runs (seeds 1000-1019) feed recovery,
  count accuracy, peer-set accuracy, feature ordering and the ring
  uniformity check, and double as the five-sweep arm of the
  convergence-horizon comparison;
* 20 matched runs at 3 dB (seeds 2000-2019) feed the noisy count check;
* 20 three-cluster runs with 15 subjects (seeds 3000-3019) feed the
  second peer-set check;
* a ten-sweep arm re-decomposes the noiseless datasets;
* 50 two-joint contrast runs (seeds 4000-4049) are decomposed by both
  algorithms for the head-to-head comparison.

Wall-clock budgets are asserted alongside the accuracy thresholds; the
whole file runs in a few minutes on one core.
"""
import time
from collections import namedtuple
from pathlib import Path

import numpy as np
import pytest

from jpjica import cli
from jpjica.baseline import run_ji_thica
from jpjica.classify import label_decomposition
from jpjica.engine import inner_extract, run_jpji_ica
from jpjica.metrics import acc_c, acc_k, evaluate_run
from jpjica.numerics import bh_fdr, covariance, cumulant_vectors_ring, welch_t_columns
from jpjica.preprocess import whiten
from jpjica.simulate import ScenarioSpec, generate_dataset
from jpjica.types import AlgoConfig, SourceKind
from oracles import cumulant_partition

Suite = namedtuple("Suite", "truths decomps reports elapsed")
Arm = namedtuple("Arm", "reports elapsed")
Pair = namedtuple("Pair", "ours baseline elapsed")


def _two_cluster(seed: int, snr_db: float | None = None) -> ScenarioSpec:
    return ScenarioSpec(
        n_subjects=10, n_joint=3, n_pjoint=2, n_individual=1,
        n_clusters=2, n_voxels=4096, n_time=150, snr_db=snr_db, seed=seed,
    )


def _three_cluster(seed: int) -> ScenarioSpec:
    return ScenarioSpec(
        n_subjects=15, n_joint=3, n_pjoint=2, n_individual=1,
        n_clusters=3, n_voxels=4096, n_time=150, seed=seed,
    )


def _contrast(seed: int) -> ScenarioSpec:
    return ScenarioSpec(
        n_subjects=10, n_joint=2, n_pjoint=2, n_individual=1,
        n_clusters=2, n_voxels=4096, n_time=150, seed=seed,
    )


def _decompose(datasets, seed: int, max_outer: int = 5):
    cfg = AlgoConfig(seed=seed, max_outer=max_outer)
    return label_decomposition(run_jpji_ica(datasets, cfg))


@pytest.fixture(scope="session")
def suite_noiseless() -> Suite:
    t0 = time.perf_counter()
    truths, decomps, reports = [], [], []
    for seed in range(1000, 1020):
        datasets, truth = generate_dataset(_two_cluster(seed))
        dec = _decompose(datasets, seed)
        truths.append(truth)
        decomps.append(dec)
        reports.append(evaluate_run(truth, dec))
    return Suite(truths, decomps, reports, time.perf_counter() - t0)


@pytest.fixture(scope="session")
def suite_noisy() -> Arm:
    t0 = time.perf_counter()
    reports = []
    for seed in range(2000, 2020):
        datasets, truth = generate_dataset(_two_cluster(seed, snr_db=3.0))
        reports.append(evaluate_run(truth, _decompose(datasets, seed)))
    return Arm(reports, time.perf_counter() - t0)


@pytest.fixture(scope="session")
def suite_three_cluster() -> Arm:
    t0 = time.perf_counter()
    reports = []
    for seed in range(3000, 3020):
        datasets, truth = generate_dataset(_three_cluster(seed))
        reports.append(evaluate_run(truth, _decompose(datasets, seed)))
    return Arm(reports, time.perf_counter() - t0)


@pytest.fixture(scope="session")
def suite_ten_sweeps() -> Arm:
    t0 = time.perf_counter()
    reports = []
    for seed in range(1000, 1020):
        datasets, truth = generate_dataset(_two_cluster(seed))
        reports.append(evaluate_run(truth, _decompose(datasets, seed, max_outer=10)))
    return Arm(reports, time.perf_counter() - t0)


@pytest.fixture(scope="session")
def baseline_pair() -> Pair:
    t0 = time.perf_counter()
    ours, base = [], []
    for seed in range(4000, 4050):
        datasets, truth = generate_dataset(_contrast(seed))
        dec = _decompose(datasets, seed)
        ours.append(evaluate_run(truth, dec).acc_counts["pjoint"])
        ref = run_ji_thica(datasets, AlgoConfig(seed=seed))
        base.append(evaluate_run(truth, ref).acc_counts["pjoint"])
    return Pair(ours, base, time.perf_counter() - t0)


def test_criterion_01_cumulant_vector_matches_partition_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(911)
    worst = 0.0
    for _ in range(1000):
        order = int(rng.integers(2, 5))
        n_rows = int(rng.integers(1, 7))
        v = int(rng.integers(8, 51))
        z = rng.standard_normal((n_rows, v)) * rng.uniform(0.5, 2.0) + rng.uniform(-1, 1)
        partners = [
            rng.standard_normal(v) * rng.uniform(0.5, 2.0) + rng.uniform(-1, 1)
            for _ in range(order - 1)
        ]
        # The kernel's contract: rows arrive centered.  Its column 0 is the
        # tuple (partners[0], ..., partners[order - 2]), which the ring of
        # order - 1 partners reproduces exactly.
        zc = z - z.mean(axis=1, keepdims=True)
        ring = np.stack([p - p.mean() for p in partners])
        got = cumulant_vectors_ring(zc, ring)[order - 2][:, 0]
        want = np.array([cumulant_partition(z[i], *partners) for i in range(n_rows)])
        rel = float(np.max(np.abs(got - want))) / float(np.max(np.abs(want)))
        worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-12, f"worst relative deviation {worst:.3e} above 1e-12"
    assert elapsed < 10.0, f"{elapsed:.1f}s over the 10s budget"


def test_criterion_02_whitening_gives_identity_covariance():
    t0 = time.perf_counter()
    rng = np.random.default_rng(912)
    worst = 0.0
    for _ in range(100):
        rows = int(rng.integers(2, 21))
        cols = int(rng.integers(max(40, 4 * rows), 1500))
        mix = rng.standard_normal((rows, rows)) @ np.diag(rng.uniform(0.1, 10.0, rows))
        x = mix @ rng.standard_normal((rows, cols)) + rng.uniform(-5.0, 5.0, (rows, 1))
        z, _ = whiten(x)
        gap = float(np.linalg.norm(covariance(z) - np.eye(rows)))
        worst = max(worst, gap)
    elapsed = time.perf_counter() - t0
    assert worst < 1e-6, f"worst Frobenius gap to identity {worst:.3e}"
    assert elapsed < 5.0, f"{elapsed:.1f}s over the 5s budget"


def test_criterion_03_extraction_cost_ascends_monotonically():
    t0 = time.perf_counter()
    floor = -1e-9
    worst = 0.0
    n_steps = 0
    for seed in range(50):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(31,)))
        spec = ScenarioSpec(
            n_subjects=int(rng.integers(2, 6)),
            n_joint=int(rng.integers(1, 3)),
            n_individual=int(rng.integers(0, 3)),
            n_clusters=1, n_voxels=512, n_time=64, seed=seed,
        )
        datasets, _ = generate_dataset(spec)
        dec = run_jpji_ica(datasets, AlgoConfig(seed=seed))
        for tr in dec.traces:
            if len(tr.costs) > 1:
                worst = min(worst, float(np.min(np.diff(tr.costs))))
                n_steps += len(tr.costs) - 1
        # Standalone self-mode run on heavy-tailed rows (cubing makes the
        # kurtosis landscape steep, the worst case for a fixed point).
        x = rng.standard_normal((4, 4)) @ (rng.standard_normal((4, 300)) ** 3)
        z, _ = whiten(x)
        u0 = rng.standard_normal(4)
        _, _, trace, _ = inner_extract(z, (0.5, 0.75, 1.0), u0 / np.linalg.norm(u0))
        worst = min(worst, float(np.min(np.diff(trace))))
        n_steps += len(trace) - 1
    elapsed = time.perf_counter() - t0
    assert n_steps > 500
    assert worst >= floor, f"cost dropped by {worst:.3e} in one step (floor {floor})"
    assert elapsed < 120.0, f"{elapsed:.1f}s over the 2min budget"


def test_criterion_04_noiseless_recovery_jsir(suite_noiseless):
    mean_jsir = float(np.mean([r.jsir_db for r in suite_noiseless.reports]))
    assert mean_jsir >= 15.0, f"mean jSIR {mean_jsir:.2f} dB below 15 dB"
    assert suite_noiseless.elapsed < 900.0, f"{suite_noiseless.elapsed:.0f}s over 15min"


def test_criterion_05_source_count_accuracy(suite_noiseless, suite_noisy):
    clean = acc_c([r.acc_counts for r in suite_noiseless.reports])
    assert all(clean[kind] == 100.0 for kind in ("joint", "pjoint", "individual")), (
        f"noiseless count accuracy {clean} (need 100% for every kind)"
    )
    noisy = acc_c([r.acc_counts for r in suite_noisy.reports])
    assert noisy["pjoint"] >= 90.0, f"3dB partially-joint count accuracy {noisy['pjoint']}%"
    assert noisy["individual"] >= 90.0, f"3dB individual count accuracy {noisy['individual']}%"
    total = suite_noiseless.elapsed + suite_noisy.elapsed
    assert total < 1800.0, f"{total:.0f}s over the 30min budget"


def test_criterion_06_peer_set_accuracy(suite_noiseless, suite_three_cluster):
    two = acc_k([r.acc_peer_sets for r in suite_noiseless.reports])
    three = acc_k([r.acc_peer_sets for r in suite_three_cluster.reports])
    assert two >= 94.0, f"two-cluster peer-set accuracy {two:.2f}% below 94%"
    assert three >= 94.0, f"three-cluster peer-set accuracy {three:.2f}% below 94%"
    total = suite_noiseless.elapsed + suite_three_cluster.elapsed
    assert total < 1800.0, f"{total:.0f}s over the 30min budget"


def test_criterion_07_five_sweeps_match_ten(suite_noiseless, suite_ten_sweeps):
    five, ten = suite_noiseless.reports, suite_ten_sweeps.reports
    acc5 = acc_c([r.acc_counts for r in five])
    acc10 = acc_c([r.acc_counts for r in ten])
    pairs = [
        ("jsir", np.mean([r.jsir_db for r in five]), np.mean([r.jsir_db for r in ten])),
        ("acc_k", acc_k([r.acc_peer_sets for r in five]),
         acc_k([r.acc_peer_sets for r in ten])),
    ]
    pairs += [(f"acc_c[{kind}]", acc5[kind], acc10[kind]) for kind in acc10]
    for name, at5, at10 in pairs:
        assert abs(at5 - at10) <= 0.02 * abs(at10), (
            f"{name}: five sweeps give {at5:.3f}, ten give {at10:.3f} (over 2%)"
        )
    total = suite_noiseless.elapsed + suite_ten_sweeps.elapsed
    assert total < 1800.0, f"{total:.0f}s over the 30min budget"


def test_criterion_08_ring_beats_single_tuple_on_pjoint(baseline_pair):
    ours = 100.0 * float(np.mean(baseline_pair.ours))
    base = 100.0 * float(np.mean(baseline_pair.baseline))
    assert ours - base >= 30.0, (
        f"partially-joint count accuracy {ours:.1f}% vs {base:.1f}%"
        " (need a 30-point lead)"
    )
    assert baseline_pair.elapsed < 2700.0, f"{baseline_pair.elapsed:.0f}s over 45min"


def test_criterion_09_feature_separates_sharing_kinds(suite_noiseless):
    kinds = (SourceKind.JOINT, SourceKind.PARTIALLY_JOINT, SourceKind.INDIVIDUAL)
    for run, (truth, dec, rep) in enumerate(
        zip(suite_noiseless.truths, suite_noiseless.decomps, suite_noiseless.reports)
    ):
        by_kind = {kind: [] for kind in kinds}
        for k, match in enumerate(rep.matches):
            for t_row, label in enumerate(truth.labels[k]):
                c = int(match.est_of_true[t_row])
                if c >= 0 and np.isfinite(dec.features.jpjif[c, k]):
                    by_kind[label.kind].append(float(dec.features.jpjif[c, k]))
        mj, mp, mi = (float(np.mean(by_kind[kind])) for kind in kinds)
        assert mj > mp > mi, (
            f"run {run}: mean features J={mj:.1f} PJ={mp:.1f} I={mi:.1f}"
            " are not strictly ordered"
        )


def test_criterion_10_joint_cost_uniform_over_ring(suite_noiseless):
    checked = 0
    for dec in suite_noiseless.decomps:
        feats = dec.features
        for c in feats.joint_slots:
            for k in range(dec.n_subjects):
                contr = feats.contributions[c, k]
                if contr is None:
                    continue
                total = float(feats.jpjif[c, k])
                # Joint means every ring position carries the same share:
                # each per-position contribution equals total / n_alpha.
                dev = float(np.max(np.abs(len(contr) * np.asarray(contr) - total)))
                assert dev <= 0.15 * total, (
                    f"slot {c} subject {k}: ring deviation {dev:.3g}"
                    f" above 15% of total {total:.3g}"
                )
                checked += 1
    assert checked >= 100


def test_criterion_11_planted_group_difference_recovered():
    t0 = time.perf_counter()
    n_planted, n_voxels = 100, 500
    true_pos, fdp = [], []
    for i in range(20):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=5000 + i, spawn_key=(11,)))
        a = rng.standard_normal((12, n_voxels))
        b = rng.standard_normal((12, n_voxels))
        b[:, :n_planted] += 5.0
        _, p = welch_t_columns(a, b)
        selected = bh_fdr(p, 0.05)
        tp = int(selected[:n_planted].sum())
        fp = int(selected[n_planted:].sum())
        true_pos.append(tp)
        fdp.append(fp / max(tp + fp, 1))
    elapsed = time.perf_counter() - t0
    assert min(true_pos) >= 95, f"worst run recovered {min(true_pos)}/100 planted voxels"
    mean_fdp = float(np.mean(fdp))
    assert mean_fdp <= 0.05, f"empirical false discovery proportion {mean_fdp:.4f}"
    assert elapsed < 300.0, f"{elapsed:.1f}s over the 5min budget"


def _run_pipeline(root: Path) -> None:
    sim = root / "data"
    res = root / "run"
    assert cli.main([
        "simulate", "--subjects", "3", "--joint", "1", "--individual", "1",
        "--voxels", "1024", "--time", "100", "--seed", "3", "--out", str(sim),
    ]) == cli.EXIT_OK
    assert cli.main(["decompose", str(sim), "--out", str(res), "--seed", "1"]) == cli.EXIT_OK
    assert cli.main(["evaluate", str(res), str(sim)]) == cli.EXIT_OK


def test_criterion_12_cli_outputs_thread_invariant(tmp_path):
    """Two identical CLI pipelines write byte-identical output directories."""
    t0 = time.perf_counter()
    first = tmp_path / "first"
    second = tmp_path / "second"
    _run_pipeline(first)
    _run_pipeline(second)
    files_first = {p.relative_to(first): p for p in sorted(first.rglob("*")) if p.is_file()}
    files_second = {p.relative_to(second): p for p in sorted(second.rglob("*")) if p.is_file()}
    elapsed = time.perf_counter() - t0
    assert files_first.keys() == files_second.keys()
    for rel, path in files_first.items():
        assert path.read_bytes() == files_second[rel].read_bytes(), f"{rel} differs"
    assert elapsed < 300.0, f"{elapsed:.1f}s over the 5min budget"
