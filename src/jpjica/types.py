"""Core domain types shared by the decomposition pipeline.

Subjects are indexed positionally (0..K-1) everywhere in memory; stable
string identifiers are attached for file round-trips.  Observation
matrices are time-by-voxel: rows are time points, columns are samples.
"""
from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Protocol, Sequence

import numpy as np

from .errors import (
    EmptyInput,
    MismatchedVoxelCount,
    NonFiniteData,
    SingleSubjectWarning,
)


class SourceKind(enum.Enum):
    """Three-way source taxonomy."""

    JOINT = "joint"
    PARTIALLY_JOINT = "pjoint"
    INDIVIDUAL = "individual"


@dataclass(frozen=True)
class SourceLabel:
    """Peer set of one source of one subject, and the kind it implies.

    ``peers`` holds the indices of the other subjects sharing the source
    (any iterable, kept as a frozenset).  The peer set decides the kind:
    no peers make it individual (so every source of a single subject
    is), all other subjects joint, and a proper subset of them partially
    joint.
    """

    peers: frozenset[int]
    n_subjects: int
    subject: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "peers", frozenset(self.peers))
        if not 0 <= self.subject < self.n_subjects:
            raise ValueError("subject index out of range")
        if self.subject in self.peers:
            raise ValueError("peer set must not contain the subject itself")
        if not all(0 <= p < self.n_subjects for p in self.peers):
            raise ValueError("peer index out of range")

    @property
    def kind(self) -> SourceKind:
        if not self.peers:
            return SourceKind.INDIVIDUAL
        if len(self.peers) == self.n_subjects - 1:
            return SourceKind.JOINT
        return SourceKind.PARTIALLY_JOINT


def kind_counts(labels: Iterable[SourceLabel]) -> dict[SourceKind, int]:
    """How many of ``labels`` are of each kind; every kind is a key."""
    counts = dict.fromkeys(SourceKind, 0)
    for lab in labels:
        counts[lab.kind] += 1
    return counts


class Observations(Protocol):
    """What the reduction reads of one subject's T x V observation matrix.

    One view: ``column_blocks(out)`` yields ``(start, block)`` for every
    block of ``out.shape[1]`` columns (the last may be narrower), where
    ``block`` may be ``out[:, :b]`` itself, so a block is valid only
    until the next one is requested.  ``SubjectDataset`` serves the
    blocks from memory and ``io.BinarySubject`` reads them from disk.
    """

    subject_id: str

    @property
    def n_time(self) -> int: ...

    @property
    def n_voxels(self) -> int: ...

    def column_blocks(self, out: np.ndarray) -> Iterator[tuple[int, np.ndarray]]: ...


def check_nonempty(subject_id: str, shape: tuple[int, ...]) -> None:
    """Raise EmptyInput unless ``shape`` is that of a nonempty 2-D matrix."""
    if len(shape) != 2 or 0 in shape:
        raise EmptyInput(f"{subject_id}: observations must be a nonempty 2-D array")


def check_finite(subject_id: str, part: np.ndarray) -> None:
    """Raise NonFiniteData naming the subject if ``part`` holds a NaN or Inf.

    Callers pass a row or a column block of the observations: the
    boolean mask of a whole T x V matrix would be one more large array.
    """
    if not np.isfinite(part).all():
        raise NonFiniteData(f"{subject_id}: observations contain NaN/Inf")


@dataclass(frozen=True)
class SubjectDataset:
    """One subject's observation matrix (n_time x n_voxels), held in memory.

    A CSV subject and an array given to the library are held this way;
    a binary subject is read from disk by ``io.BinarySubject`` instead.
    Both serve the ``Observations`` view the reduction reads.
    """

    subject_id: str
    observations: np.ndarray

    def __post_init__(self) -> None:
        obs = np.asarray(self.observations, dtype=float)
        object.__setattr__(self, "observations", obs)
        check_nonempty(self.subject_id, obs.shape)
        for row in obs:
            check_finite(self.subject_id, row)

    @property
    def n_time(self) -> int:
        return self.observations.shape[0]

    @property
    def n_voxels(self) -> int:
        return self.observations.shape[1]

    def column_blocks(self, out: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
        """Views of the column blocks; ``out`` only sets their width."""
        width = out.shape[1]
        for start in range(0, self.n_voxels, width):
            yield start, self.observations[:, start : start + width]


@dataclass(frozen=True)
class GroundTruth:
    """Reference sources, mixing and labels for a simulated dataset.

    The labels' peer sets are the one record of which subjects share a
    map; kinds and per-kind counts follow from them (``kind_counts``).
    ``sources`` is a list, or a sequence that leaves the matrices on disk
    (``io.MatrixFiles``, as ``io.load_truth`` gives), which checks each
    one's row count as it reads it; only a list's are checked here.
    """

    sources: Sequence[np.ndarray]
    mixing: list[np.ndarray]
    labels: list[list[SourceLabel]]

    def __post_init__(self) -> None:
        k = len(self.sources)
        if not (len(self.mixing) == len(self.labels) == k):
            raise ValueError("sources, mixing and labels must align per subject")
        held = self.sources if isinstance(self.sources, list) else [None] * k
        for s, a, labs in zip(held, self.mixing, self.labels):
            if a.shape[1] != len(labs) or (s is not None and s.shape[0] != len(labs)):
                raise ValueError("per-subject source count mismatch")

    @property
    def n_subjects(self) -> int:
        return len(self.sources)


@dataclass(frozen=True)
class AlgoConfig:
    """Run parameters for the decomposition engine and classifier.

    The cumulant-order weights and the inner stopping rule are fixed:
    ``engine.WEIGHTS`` and ``engine.EPS0``.  The thresholds come from the
    data: the engine's joint/self cost floor is
    ``engine.mode_switch_threshold``, the feature threshold sigma between
    partially joint and individual sources is
    ``classify.select_sigma_opt``'s, and the joint slots and peer sets
    come from each slot's |corr| graph (``classify.detect_joint_slots``).

    max_outer
        Outer sweeps over all (slot, subject) pairs; deflation happens in
        the last sweep only.  The default 3 is two non-final sweeps, in
        which every row settles, plus the deflating one.
    n_components
        "global-min": per-subject BIC order estimate, minimum over
        subjects (every subject reduced to the same order).
        "auto-bic": per-subject BIC order (orders may differ).
        int: fixed order for every subject.
    seed
        Seeds the single-tuple baseline's peer tuples only: the "jpji"
        engine and the labelling draw nothing.
    """

    max_outer: int = 3
    n_components: int | str = "global-min"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_outer < 1:
            raise ValueError("max_outer must be >= 1")
        if isinstance(self.n_components, str):
            if self.n_components not in ("global-min", "auto-bic"):
                raise ValueError("n_components must be an int, 'global-min' or 'auto-bic'")
        elif self.n_components < 1:
            raise ValueError("n_components must be >= 1")


@dataclass
class TraceRecord:
    """Cost values of one inner extraction (one slot of one subject)."""

    sweep: int
    slot: int
    subject: int
    costs: list[float]
    mode: str
    converged: bool


@dataclass
class FeatureTable:
    """Per-source separability features.

    jpjif[c, k] is the cost of slot c's source of subject k against an
    association-ordered ring of the slot's other holders, computed by the
    engine; contributions[c, k] holds its breakdown over ring positions
    (alpha), one per peer.  Labelling reads jpjif only; the breakdown is
    kept as the feature's record.
    """

    jpjif: np.ndarray
    contributions: np.ndarray
    kurtosis: np.ndarray
    joint_slots: list[int] = field(default_factory=list)
    sigma_opt: float | None = None
    jpjif_joint: float | None = None


@dataclass
class Decomposition:
    """Engine output for all subjects.

    Per subject: ``whiteners[k]`` maps raw observations to whitened rows
    (Z = W (O - mean)), ``demixing[k]`` holds unit demixing rows w.r.t.
    Z, and ``sources[k]`` the standardized source estimates.  Slots are
    aligned across subjects and ordered by decreasing mean JpJI-feature
    ``features.jpjif`` over their holders (see ``run_jpji_ica``).
    """

    subject_ids: list[str]
    whiteners: list[np.ndarray]
    row_means: list[np.ndarray]
    demixing: list[np.ndarray]
    sources: list[np.ndarray]
    extraction_costs: np.ndarray
    self_mode: np.ndarray
    traces: list[TraceRecord]
    config: AlgoConfig
    features: FeatureTable
    algorithm: str = "jpji"
    labels: list[list[SourceLabel]] | None = None

    @property
    def n_subjects(self) -> int:
        return len(self.subject_ids)

    @property
    def n_slots(self) -> int:
        return self.extraction_costs.shape[0]

    @property
    def slot_rows(self) -> np.ndarray:
        """Source row of each (slot, subject); -1 where the subject holds no source.

        A subject holds the slots with a finite extraction cost.
        """
        return slot_rows(
            ~np.isnan(self.extraction_costs), [s.shape[0] for s in self.sources]
        )


def slot_rows(held: np.ndarray, orders: Sequence[int]) -> np.ndarray:
    """Map (slot, subject) to the subject's row index, -1 where not held.

    ``held`` is a (slots x subjects) boolean mask.  Each subject's rows
    are its held slots in increasing slot order, so subject k must hold
    exactly ``orders[k]`` slots; any other count raises ValueError.
    """
    held = np.asarray(held, dtype=bool)
    counts = held.sum(axis=0).tolist()
    if counts != list(orders):
        raise ValueError(
            f"held slots per subject {counts} do not match row counts {list(orders)}"
        )
    return np.where(held, np.cumsum(held, axis=0) - 1, -1)


def check_voxel_count(subject, n_voxels: int) -> None:
    """Raise MismatchedVoxelCount unless ``subject`` has ``n_voxels`` voxels."""
    if subject.n_voxels != n_voxels:
        raise MismatchedVoxelCount(
            f"{subject.subject_id}: {subject.n_voxels} voxels, expected {n_voxels}"
        )


def validate_analysis_input(datasets: Sequence) -> None:
    """Reject inputs the engine cannot process.

    Takes subjects or their reductions (anything with ``subject_id`` and
    ``n_voxels``).  Raises EmptyInput / MismatchedVoxelCount; a single
    subject is accepted with a warning (the decomposition then reduces to
    plain single-set ICA with individual labels).
    """
    if len(datasets) == 0:
        raise EmptyInput("at least one subject is required")
    v = datasets[0].n_voxels
    for ds in datasets:
        check_voxel_count(ds, v)
    ids = [ds.subject_id for ds in datasets]
    if len(set(ids)) != len(ids):
        raise ValueError("subject ids must be unique")
    if len(datasets) == 1:
        warnings.warn(
            "single subject: joint structure cannot be estimated",
            SingleSubjectWarning,
        )
