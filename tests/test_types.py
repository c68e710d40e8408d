"""Domain type invariants and input validation."""
from dataclasses import fields

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
    kind_counts,
    slot_rows,
    validate_analysis_input,
)


def test_source_label_consistency_enforced():
    everyone_else = frozenset({1, 2, 3})
    lab = SourceLabel(peers=everyone_else, n_subjects=4, subject=0)
    assert lab.peers == everyone_else
    # any iterable of peers is kept as a frozenset
    assert SourceLabel(peers={1, 2, 3}, n_subjects=4, subject=0) == lab
    assert isinstance(SourceLabel(peers=[1], n_subjects=4, subject=0).peers, frozenset)
    with pytest.raises(ValueError):
        # subject may not be its own peer
        SourceLabel(peers=frozenset({0}), n_subjects=4, subject=0)
    with pytest.raises(ValueError):
        SourceLabel(peers=frozenset({9}), n_subjects=4, subject=0)
    with pytest.raises(ValueError):
        SourceLabel(peers=frozenset(), n_subjects=4, subject=4)


@pytest.mark.parametrize(
    "subject, peers, n_subjects, kind",
    [
        (0, (), 1, SourceKind.INDIVIDUAL),
        (1, (0,), 2, SourceKind.JOINT),
        (2, (), 5, SourceKind.INDIVIDUAL),
        (2, (0, 4), 5, SourceKind.PARTIALLY_JOINT),
        (2, (0, 1, 3, 4), 5, SourceKind.JOINT),
    ],
    ids=["K1-alone", "K2-one-peer", "K5-no-peers", "K5-two-peers", "K5-four-peers"],
)
def test_shared_with_picks_the_kind_of_the_peer_set(subject, peers, n_subjects, kind):
    """The peer set decides the kind."""
    lab = SourceLabel(peers=peers, n_subjects=n_subjects, subject=subject)
    assert lab.kind is kind
    assert kind_counts([lab]) == {k: int(k is kind) for k in SourceKind}


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


@pytest.mark.parametrize("where", [(0, 0), (3, 7), (5, 9)], ids=["first", "middle", "last"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_subject_dataset_rejects_non_finite_in_any_row(where, bad):
    obs = np.ones((6, 10))
    obs[where] = bad
    with pytest.raises(NonFiniteData):
        SubjectDataset(subject_id="s1", observations=obs)


def test_algo_config_defaults_and_validation():
    cfg = AlgoConfig()
    assert cfg.max_outer == 3
    assert cfg.n_components == "global-min"
    assert [f.name for f in fields(AlgoConfig)] == ["max_outer", "n_components", "seed"]
    with pytest.raises(ValueError):
        AlgoConfig(max_outer=0)
    with pytest.raises(ValueError):
        AlgoConfig(n_components="bogus")
    with pytest.raises(ValueError):
        AlgoConfig(n_components=0)
    # Every threshold comes from the data: there is none to set.
    with pytest.raises(TypeError):
        AlgoConfig(sigma0=1.0)


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
