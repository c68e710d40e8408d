"""Single-tuple baseline: costs, two-way labels, threshold behavior."""
import numpy as np
import pytest

from jpjica.baseline import run_ji_thica
from jpjica.engine import build_cost_matrix
from jpjica.numerics import standardize
from jpjica.simulate import ScenarioSpec, generate_dataset
from jpjica.types import AlgoConfig, SourceKind

WEIGHTS = (0.5, 0.75, 1.0)


def test_build_m_individual_self_partner():
    rng = np.random.default_rng(2)
    z = rng.standard_normal((2, 400))
    y = standardize(z[0])
    cm = build_cost_matrix(z, y[None, :], WEIGHTS)
    assert cm.m.shape == (2, 2)
    # the aligned row dominates its own cumulant cost
    assert cm.m[0, 0] > cm.m[1, 1]


def _run(seed, n_joint=1, n_pjoint=0, n_individual=1, k=5, clusters=1, **cfg):
    spec = ScenarioSpec(
        n_subjects=k,
        n_joint=n_joint,
        n_pjoint=n_pjoint,
        n_individual=n_individual,
        n_clusters=clusters,
        n_voxels=1024,
        n_time=60,
        seed=seed,
    )
    datasets, truth = generate_dataset(spec)
    return run_ji_thica(datasets, AlgoConfig(seed=seed, **cfg)), truth


def test_two_way_labels_on_joint_plus_individual():
    decomp, truth = _run(seed=3)
    assert decomp.algorithm == "jithica"
    assert decomp.labels is not None and decomp.features is not None
    for k in range(5):
        kinds = [l.kind for l in decomp.labels[k]]
        assert kinds.count(SourceKind.JOINT) == 1
        assert kinds.count(SourceKind.INDIVIDUAL) == 1
        joint = [l for l in decomp.labels[k] if l.kind is SourceKind.JOINT][0]
        assert joint.peers == frozenset(range(5)) - {k}


def test_partially_joint_invisible_to_baseline():
    decomp, truth = _run(seed=4, n_pjoint=1, k=10, clusters=2)
    for k in range(10):
        for lab in decomp.labels[k]:
            assert lab.kind in (SourceKind.JOINT, SourceKind.INDIVIDUAL)


def test_explicit_sigma_extremes():
    # a huge threshold forces self-mode everywhere: everything individual
    decomp, _ = _run(seed=5, sigma0=1e9)
    for labs in decomp.labels:
        assert all(l.kind is SourceKind.INDIVIDUAL for l in labs)
    assert decomp.self_mode.all()
    # a tiny threshold accepts every tuple: everything joint
    decomp, _ = _run(seed=5, sigma0=1e-12)
    for labs in decomp.labels:
        assert all(l.kind is SourceKind.JOINT for l in labs)


def test_baseline_deterministic():
    a, _ = _run(seed=6)
    b, _ = _run(seed=6)
    for k in range(a.n_subjects):
        np.testing.assert_array_equal(a.sources[k], b.sources[k])
    assert [[l.kind for l in labs] for labs in a.labels] == [
        [l.kind for l in labs] for labs in b.labels
    ]
