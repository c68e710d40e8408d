"""Core domain types shared by the decomposition pipeline.

Subjects are indexed positionally (0..K-1) everywhere in memory; stable
string identifiers are attached for file round-trips.  Observation
matrices are time-by-voxel: rows are time points, columns are samples.
"""
from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass, field
from typing import Sequence

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
    """Kind plus peer set for one source of one subject.

    ``peers`` holds the indices of the other subjects sharing the source.
    Consistency with ``kind`` is enforced at construction: a joint source
    is shared with all K-1 others, an individual source with none, and a
    partially joint source with a proper nonempty subset.
    """

    kind: SourceKind
    peers: frozenset[int]
    n_subjects: int
    subject: int

    def __post_init__(self) -> None:
        if not 0 <= self.subject < self.n_subjects:
            raise ValueError("subject index out of range")
        if self.subject in self.peers:
            raise ValueError("peer set must not contain the subject itself")
        if not all(0 <= p < self.n_subjects for p in self.peers):
            raise ValueError("peer index out of range")
        n = len(self.peers)
        if self.kind is SourceKind.JOINT and n != self.n_subjects - 1:
            raise ValueError("joint source must be shared with all other subjects")
        if self.kind is SourceKind.INDIVIDUAL and n != 0:
            raise ValueError("individual source must have an empty peer set")
        if self.kind is SourceKind.PARTIALLY_JOINT and not 0 < n < self.n_subjects - 1:
            raise ValueError(
                "partially joint source needs a proper nonempty peer subset"
            )


@dataclass(frozen=True)
class SubjectDataset:
    """One subject's observation matrix (n_time x n_voxels)."""

    subject_id: str
    observations: np.ndarray

    def __post_init__(self) -> None:
        obs = np.asarray(self.observations, dtype=float)
        object.__setattr__(self, "observations", obs)
        if obs.ndim != 2 or obs.size == 0:
            raise EmptyInput(f"{self.subject_id}: observations must be a nonempty 2-D array")
        if not np.isfinite(obs).all():
            raise NonFiniteData(f"{self.subject_id}: observations contain NaN/Inf")

    @property
    def n_time(self) -> int:
        return self.observations.shape[0]

    @property
    def n_voxels(self) -> int:
        return self.observations.shape[1]


@dataclass(frozen=True)
class GroundTruth:
    """Reference sources, mixing and labels for a simulated dataset.

    ``cluster_map`` records, for every partially joint map id, the set of
    subject indices sharing it.
    """

    sources: list[np.ndarray]
    mixing: list[np.ndarray]
    labels: list[list[SourceLabel]]
    joint_count: int
    pjoint_counts: list[int]
    individual_counts: list[int]
    cluster_map: dict[str, frozenset[int]]

    def __post_init__(self) -> None:
        k = len(self.sources)
        if not (len(self.mixing) == len(self.labels) == k):
            raise ValueError("sources, mixing and labels must align per subject")
        for s, a, labs in zip(self.sources, self.mixing, self.labels):
            if s.shape[0] != a.shape[1] or len(labs) != s.shape[0]:
                raise ValueError("per-subject source count mismatch")
        for idx, labs in enumerate(self.labels):
            n_j = sum(l.kind is SourceKind.JOINT for l in labs)
            n_p = sum(l.kind is SourceKind.PARTIALLY_JOINT for l in labs)
            n_i = sum(l.kind is SourceKind.INDIVIDUAL for l in labs)
            if n_j != self.joint_count:
                raise ValueError("joint count mismatch")
            if n_p != self.pjoint_counts[idx] or n_i != self.individual_counts[idx]:
                raise ValueError("per-subject count mismatch")

    @property
    def n_subjects(self) -> int:
        return len(self.sources)


@dataclass(frozen=True)
class AlgoConfig:
    """Run parameters for the decomposition engine and classifier.

    weights
        Cumulant-order weights (w2, w3, w4) for orders 2, 3, 4.
    max_outer
        Outer sweeps over all (slot, subject) pairs; deflation happens in
        the last sweep only.
    eps0
        Inner stopping rule: stop once 1 - (u . u_prev)^2 < eps0.
    n_components
        "global-min": per-subject BIC order estimate, minimum over
        subjects (every subject reduced to the same order).
        "auto-bic": per-subject BIC order (orders may differ).
        int: fixed order for every subject.
    sigma0
        Joint/individual decision threshold for the single-tuple baseline
        or an explicit feature threshold for classification; "auto"
        derives it from the data.
    mode_switch
        Cost floor below which a slot falls back to single-set extraction
        (partners carry no information about this subject); "auto" scales
        a calibrated constant by weights, peer count and data size, and a
        float replaces that automatic floor (an explicit sigma0 of the
        single-tuple baseline still takes precedence).
    tau_joint
        Relative tolerance of the per-peer contribution uniformity test
        used to detect joint sources.
    """

    weights: tuple[float, float, float] = (0.5, 0.75, 1.0)
    max_outer: int = 5
    eps0: float = 1e-6
    max_inner: int = 200
    n_components: int | str = "global-min"
    sigma0: float | str = "auto"
    mode_switch: float | str = "auto"
    tau_joint: float = 0.15
    n_clusters: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if len(self.weights) != 3 or any(w < 0 for w in self.weights) or sum(self.weights) <= 0:
            raise ValueError("weights must be three nonnegative values, not all zero")
        if self.max_outer < 1:
            raise ValueError("max_outer must be >= 1")
        if not 0 < self.eps0 < 1:
            raise ValueError("eps0 must lie in (0, 1)")
        if self.max_inner < 1:
            raise ValueError("max_inner must be >= 1")
        if isinstance(self.n_components, str):
            if self.n_components not in ("global-min", "auto-bic"):
                raise ValueError("n_components must be an int, 'global-min' or 'auto-bic'")
        elif self.n_components < 1:
            raise ValueError("n_components must be >= 1")
        if isinstance(self.sigma0, str) and self.sigma0 != "auto":
            raise ValueError("sigma0 must be a float or 'auto'")
        if isinstance(self.mode_switch, str) and self.mode_switch != "auto":
            raise ValueError("mode_switch must be a float or 'auto'")
        if not 0 < self.tau_joint < 1:
            raise ValueError("tau_joint must lie in (0, 1)")
        if self.n_clusters is not None and self.n_clusters < 2:
            raise ValueError("n_clusters must be >= 2 when given")


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
    engine; contributions[c, k] holds the per-peer-position (alpha)
    breakdown whose uniformity identifies joint sources.
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
    z: list[np.ndarray]
    demixing: list[np.ndarray]
    sources: list[np.ndarray]
    extraction_costs: np.ndarray
    self_mode: np.ndarray
    traces: list[TraceRecord]
    config: AlgoConfig
    algorithm: str = "jpji"
    features: FeatureTable | None = None
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
        if ds.n_voxels != v:
            raise MismatchedVoxelCount(
                f"{ds.subject_id}: {ds.n_voxels} voxels, expected {v}"
            )
    ids = [ds.subject_id for ds in datasets]
    if len(set(ids)) != len(ids):
        raise ValueError("subject ids must be unique")
    if len(datasets) == 1:
        warnings.warn(
            "single subject: joint structure cannot be estimated",
            SingleSubjectWarning,
        )
