"""Domain type invariants and input validation."""
import numpy as np
import pytest

from jpjica.errors import (
    EmptyInput,
    MismatchedVoxelCount,
    NonFiniteData,
    SingleSubjectWarning,
)
from jpjica.types import (
    AlgoConfig,
    SourceKind,
    SourceLabel,
    SubjectDataset,
    slot_rows,
    validate_analysis_input,
)


def test_source_label_consistency_enforced():
    everyone_else = frozenset({1, 2, 3})
    lab = SourceLabel(kind=SourceKind.JOINT, peers=everyone_else, n_subjects=4, subject=0)
    assert lab.peers == everyone_else
    SourceLabel(kind=SourceKind.INDIVIDUAL, peers=frozenset(), n_subjects=4, subject=2)
    SourceLabel(
        kind=SourceKind.PARTIALLY_JOINT, peers=frozenset({1}), n_subjects=4, subject=0
    )
    with pytest.raises(ValueError):
        SourceLabel(kind=SourceKind.JOINT, peers=frozenset({1}), n_subjects=4, subject=0)
    with pytest.raises(ValueError):
        SourceLabel(
            kind=SourceKind.INDIVIDUAL, peers=frozenset({1}), n_subjects=4, subject=0
        )
    with pytest.raises(ValueError):
        # all K-1 peers is joint, not partially joint
        SourceLabel(
            kind=SourceKind.PARTIALLY_JOINT,
            peers=frozenset({1, 2, 3}),
            n_subjects=4,
            subject=0,
        )
    with pytest.raises(ValueError):
        SourceLabel(
            kind=SourceKind.PARTIALLY_JOINT, peers=frozenset(), n_subjects=4, subject=0
        )
    with pytest.raises(ValueError):
        # subject may not be its own peer
        SourceLabel(
            kind=SourceKind.PARTIALLY_JOINT, peers=frozenset({0}), n_subjects=4, subject=0
        )
    with pytest.raises(ValueError):
        SourceLabel(
            kind=SourceKind.PARTIALLY_JOINT, peers=frozenset({9}), n_subjects=4, subject=0
        )


def test_subject_dataset_validation():
    ds = SubjectDataset(subject_id="s1", observations=[[1.0, 2.0], [3.0, 4.0]])
    assert ds.n_time == 2 and ds.n_voxels == 2
    assert ds.observations.dtype == float
    with pytest.raises(EmptyInput):
        SubjectDataset(subject_id="s1", observations=np.zeros((0, 4)))
    with pytest.raises(EmptyInput):
        SubjectDataset(subject_id="s1", observations=np.zeros(4))
    with pytest.raises(NonFiniteData):
        SubjectDataset(subject_id="s1", observations=np.array([[1.0, np.inf]]))


def test_algo_config_defaults_and_validation():
    cfg = AlgoConfig()
    assert cfg.weights == (0.5, 0.75, 1.0)
    assert cfg.max_outer == 5
    assert cfg.eps0 == 1e-6
    assert cfg.n_components == "global-min"
    assert cfg.sigma0 == "auto" and cfg.mode_switch == "auto"
    with pytest.raises(ValueError):
        AlgoConfig(weights=(1.0, 1.0))
    with pytest.raises(ValueError):
        AlgoConfig(weights=(0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        AlgoConfig(weights=(-1.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        AlgoConfig(max_outer=0)
    with pytest.raises(ValueError):
        AlgoConfig(eps0=0.0)
    with pytest.raises(ValueError):
        AlgoConfig(n_components="bogus")
    with pytest.raises(ValueError):
        AlgoConfig(n_components=0)
    with pytest.raises(ValueError):
        AlgoConfig(sigma0="none")
    with pytest.raises(ValueError):
        AlgoConfig(tau_joint=1.0)
    with pytest.raises(ValueError):
        AlgoConfig(n_clusters=1)


def test_slot_rows_maps_held_slots_in_order():
    held = np.array([[1, 1, 0], [0, 1, 1], [1, 1, 1]], dtype=bool)
    np.testing.assert_array_equal(
        slot_rows(held, [2, 3, 2]), [[0, 0, -1], [-1, 1, 0], [1, 2, 1]]
    )
    with pytest.raises(ValueError, match="held slots"):
        slot_rows(held, [2, 3, 3])


def _ds(name, n_voxels=8, n_time=4, fill=None):
    rng = np.random.default_rng(abs(hash(name)) % 2**32)
    obs = rng.standard_normal((n_time, n_voxels))
    if fill is not None:
        obs[0, 0] = fill
    return SubjectDataset(subject_id=name, observations=obs)


def test_validate_analysis_input():
    validate_analysis_input([_ds("a"), _ds("b")])
    with pytest.raises(EmptyInput):
        validate_analysis_input([])
    with pytest.raises(MismatchedVoxelCount):
        validate_analysis_input([_ds("a", n_voxels=8), _ds("b", n_voxels=9)])
    with pytest.raises(ValueError):
        validate_analysis_input([_ds("a"), _ds("a")])
    with pytest.warns(SingleSubjectWarning):
        validate_analysis_input([_ds("solo")])
