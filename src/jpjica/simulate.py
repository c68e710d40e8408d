"""Synthetic multi-subject datasets with known joint structure.

Spatial sources are sparse two-blob Gaussian maps on the smallest square
grid that holds the voxels, cut to the voxel count in raster order, which
makes them strongly super-Gaussian; time courses are smoothed white
noise.  Every map is standardized to zero mean and unit variance over
voxels, and maps are redrawn until all pairwise correlations stay small
so simulated sources are effectively independent.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import InvalidScenario, RankDeficientMixing
from .numerics import excess_kurtosis, standardize
from .seeding import rng_for
from .types import GroundTruth, SourceKind, SourceLabel, SubjectDataset

_MAX_MIXING_COND = 1e3
_MAX_MAP_CORR = 0.1
# Excess-kurtosis floor of a map, and draws allowed to reach it.
_MIN_MAP_KURTOSIS = 1.0
_MAP_TRIES = 100
# Draws allowed for a map uncorrelated with the pool.
_POOL_TRIES = 2000


@dataclass(frozen=True)
class ScenarioSpec:
    """Structure of one simulated experiment.

    ``n_pjoint``, ``n_individual`` and ``n_time`` take either a single
    value for all subjects or one value per subject.  Subjects are
    partitioned into ``n_clusters`` contiguous near-equal groups, and
    partially joint maps are shared within a cluster.  Sharing a
    fourth-order cumulant ring needs more than three in-cluster peers,
    so clusters carrying partially joint sources must have at least
    five members unless ``allow_small_clusters`` is set.
    """

    n_subjects: int
    n_joint: int
    n_pjoint: int | tuple[int, ...] = 0
    n_individual: int | tuple[int, ...] = 0
    n_clusters: int = 2
    n_voxels: int = 4096
    n_time: int | tuple[int, ...] = 150
    snr_db: float | None = None
    seed: int = 0
    allow_small_clusters: bool = False

    def __post_init__(self) -> None:
        k = self.n_subjects
        if k < 1:
            raise InvalidScenario("need at least one subject")
        if self.n_voxels < 16:
            raise InvalidScenario("need at least 16 voxels")
        if self.n_clusters < 1:
            raise InvalidScenario("need at least one cluster")
        if self.n_joint < 0:
            raise InvalidScenario("joint source count must be >= 0")
        pj = self.pjoint_counts
        iv = self.individual_counts
        nt = self.time_counts
        if any(x < 0 for x in pj) or any(x < 0 for x in iv):
            raise InvalidScenario("per-subject source counts must be >= 0")
        for idx in range(k):
            total = self.n_joint + pj[idx] + iv[idx]
            if total < 1:
                raise InvalidScenario(f"subject {idx} has no sources")
            if nt[idx] < total + 2:
                raise InvalidScenario(
                    f"subject {idx}: {nt[idx]} time points cannot mix {total} sources"
                )
            if total > self.n_voxels:
                raise InvalidScenario("more sources than voxels")
        part = self.partition
        if any(pj):
            if len(part) < 2:
                raise InvalidScenario(
                    "partially joint sources need at least two clusters"
                )
            for grp in part:
                shares = [j for j in grp if pj[j] > 0]
                if not shares:
                    continue
                if len(grp) < 2:
                    raise InvalidScenario("a sharing cluster needs at least 2 members")
                if len(grp) < 5 and not self.allow_small_clusters:
                    raise InvalidScenario(
                        "sharing clusters need >= 5 members for fourth-order rings"
                        " (set allow_small_clusters to override)"
                    )
        if self.snr_db is not None and not math.isfinite(self.snr_db):
            raise InvalidScenario("snr_db must be finite or None")

    @property
    def pjoint_counts(self) -> tuple[int, ...]:
        return _per_subject(self.n_pjoint, self.n_subjects)

    @property
    def individual_counts(self) -> tuple[int, ...]:
        return _per_subject(self.n_individual, self.n_subjects)

    @property
    def time_counts(self) -> tuple[int, ...]:
        return _per_subject(self.n_time, self.n_subjects)

    @property
    def partition(self) -> tuple[tuple[int, ...], ...]:
        k, q = self.n_subjects, self.n_clusters
        sizes = [k // q + (1 if i < k % q else 0) for i in range(q)]
        out, start = [], 0
        for s in sizes:
            if s > 0:
                out.append(tuple(range(start, start + s)))
            start += s
        return tuple(out)

    def to_dict(self) -> dict:
        return {
            "n_subjects": self.n_subjects,
            "n_joint": self.n_joint,
            "n_pjoint": list(self.pjoint_counts),
            "n_individual": list(self.individual_counts),
            "n_clusters": self.n_clusters,
            "clusters": [list(g) for g in self.partition],
            "n_voxels": self.n_voxels,
            "n_time": list(self.time_counts),
            "snr_db": self.snr_db,
            "seed": self.seed,
            "allow_small_clusters": self.allow_small_clusters,
        }


def _per_subject(value: int | tuple[int, ...], k: int) -> tuple[int, ...]:
    if isinstance(value, int):
        return (value,) * k
    value = tuple(int(x) for x in value)
    if len(value) != k:
        raise InvalidScenario(f"expected {k} per-subject values, got {len(value)}")
    return value


def generate_spatial_source(n_voxels: int, rng: np.random.Generator) -> np.ndarray:
    """One standardized blob map with excess kurtosis above the floor.

    The blobs are drawn on the smallest square grid that holds every
    voxel, and the map is the grid's first ``n_voxels`` cells in raster
    order; when the voxel count is a perfect square that is the whole
    grid.
    """
    side = math.isqrt(n_voxels - 1) + 1
    yy, xx = np.mgrid[0:side, 0:side]
    for _ in range(_MAP_TRIES):
        m = np.zeros((side, side))
        # Exactly two blobs: every extra blob raises the chance of
        # overlapping some other map, and scenarios with many subjects
        # need pools of 20+ mutually decorrelated maps.
        for _ in range(2):
            w = rng.uniform(side / 32.0, side / 24.0)
            # Keep blobs inside the grid: clipping would skew kurtosis.
            cx, cy = rng.uniform(2 * w, side - 2 * w, 2)
            # Mixed signs keep the raw mean near zero; same-sign blob
            # maps all share a background after standardization and a
            # large pool can then never stay mutually decorrelated.
            amp = rng.uniform(0.8, 1.2) * (1.0 if rng.integers(2) else -1.0)
            m += amp * np.exp(-((xx - cx) ** 2 + (yy - cy) ** 2) / (2 * w * w))
        flat = m.ravel()[:n_voxels]
        if flat.std() < 1e-12:
            continue
        out = standardize(flat)
        if excess_kurtosis(out) >= _MIN_MAP_KURTOSIS:
            return out
    raise InvalidScenario(f"no map with kurtosis >= {_MIN_MAP_KURTOSIS} in {_MAP_TRIES} tries")


def _draw_independent_map(
    n_voxels: int,
    rng: np.random.Generator,
    existing: list[np.ndarray],
) -> np.ndarray:
    """A new map nearly uncorrelated with all previously drawn maps."""
    for _ in range(_POOL_TRIES):
        cand = generate_spatial_source(n_voxels, rng)
        if all(
            abs(float(cand @ prev)) / n_voxels <= _MAX_MAP_CORR for prev in existing
        ):
            return cand
    raise InvalidScenario("could not draw enough mutually uncorrelated maps")


def _smooth_mixing(rng: np.random.Generator, n_time: int, n_cols: int) -> np.ndarray:
    """Smooth full-column-rank time courses, standardized per column."""
    span = max(3, n_time // 10)
    kernel = np.hanning(span + 2)[1:-1]
    kernel = kernel / kernel.sum()
    for attempt in range(2):
        white = rng.standard_normal((n_time + span, n_cols))
        cols = []
        for j in range(n_cols):
            smooth = np.convolve(white[:, j], kernel, mode="same")[:n_time]
            cols.append(standardize(smooth))
        a = np.stack(cols, axis=1)
        if n_cols == 1 or np.linalg.cond(a) <= _MAX_MIXING_COND:
            return a
    raise RankDeficientMixing(
        f"mixing condition number above {_MAX_MIXING_COND:g} twice in a row"
    )


def add_noise(
    observations: np.ndarray, snr_db: float, rng: np.random.Generator
) -> np.ndarray:
    """Additive white Gaussian noise at the requested signal-to-noise ratio."""
    obs = np.asarray(observations, dtype=float)
    if math.isinf(snr_db):
        return obs.copy()
    p_signal = float(np.mean(obs * obs))
    sigma = math.sqrt(p_signal / (10.0 ** (snr_db / 10.0)))
    # In the noise buffer: the same bits as obs + sigma * noise, without
    # two more T x V temporaries.
    noisy = rng.standard_normal(obs.shape)
    noisy *= sigma
    noisy += obs
    return noisy


def generate_dataset(spec: ScenarioSpec) -> tuple[list[SubjectDataset], GroundTruth]:
    """Observations plus ground truth for one scenario.

    The list form of :func:`stream_dataset`: every subject's T x V
    matrix is held at once.
    """
    subjects, truth = stream_dataset(spec)
    return list(subjects), truth


def stream_dataset(spec: ScenarioSpec) -> tuple[Iterator[SubjectDataset], GroundTruth]:
    """Lazy observations plus ground truth for one scenario.

    Joint maps are shared by everyone, each cluster gets its own stack of
    partially joint maps (subject k uses the first n_pjoint[k] of its
    cluster's stack), and individual maps are unique per subject.  A
    partially joint map that ends up with a single user (asymmetric
    per-subject counts) is labeled individual in the truth, as is every
    map of a single subject.

    The maps and every subject's mixing matrix are drawn before this
    returns, so a scenario that cannot be built raises here.  Each
    subject's observations are mixed (and made noisy) only when the
    iterator reaches it.
    """
    truth = _draw_truth(spec)
    width = max(2, len(str(spec.n_subjects)))
    subjects = (
        SubjectDataset(
            subject_id=f"sub{k + 1:0{width}d}",
            observations=_observe(spec, truth, k),
        )
        for k in range(spec.n_subjects)
    )
    return subjects, truth


def _observe(spec: ScenarioSpec, truth: GroundTruth, k: int) -> np.ndarray:
    """Subject k's observations: its mixing times its maps, plus noise."""
    obs = truth.mixing[k] @ truth.sources[k]
    if spec.snr_db is not None:
        obs = add_noise(obs, spec.snr_db, rng_for(spec.seed, "noise", k))
    return obs


def _draw_truth(spec: ScenarioSpec) -> GroundTruth:
    """Maps, labels and every subject's mixing matrix of one scenario."""
    k_total = spec.n_subjects
    pj_counts = spec.pjoint_counts
    iv_counts = spec.individual_counts
    nt = spec.time_counts
    partition = spec.partition
    rng_maps = rng_for(spec.seed, "maps")

    pool: list[np.ndarray] = []

    def draw() -> np.ndarray:
        m = _draw_independent_map(spec.n_voxels, rng_maps, pool)
        pool.append(m)
        return m

    joint_maps = [draw() for _ in range(spec.n_joint)]
    cluster_of = {j: qi for qi, grp in enumerate(partition) for j in grp}
    pj_maps: dict[int, list[np.ndarray]] = {}
    pj_sharers: dict[int, list[frozenset[int]]] = {}
    for qi, grp in enumerate(partition):
        depth = max((pj_counts[j] for j in grp), default=0)
        pj_maps[qi] = [draw() for _ in range(depth)]
        pj_sharers[qi] = [frozenset(j for j in grp if pj_counts[j] > i) for i in range(depth)]
    iv_maps = {k: [draw() for _ in range(iv_counts[k])] for k in range(k_total)}
    cluster_map = {
        f"pj{qi}_{i}": group
        for qi, groups in pj_sharers.items()
        for i, group in enumerate(groups)
        if len(group) >= 2
    }

    sources: list[np.ndarray] = []
    mixing: list[np.ndarray] = []
    labels: list[list[SourceLabel]] = []
    everyone = frozenset(range(k_total))
    for k in range(k_total):
        qi = cluster_of[k]
        rows = list(joint_maps) + pj_maps[qi][: pj_counts[k]] + iv_maps[k]
        s = np.stack(rows)
        sharers = (
            [everyone] * spec.n_joint
            + pj_sharers[qi][: pj_counts[k]]
            + [frozenset({k})] * iv_counts[k]
        )
        labels.append(
            [SourceLabel.shared_with(k, group - {k}, k_total) for group in sharers]
        )
        sources.append(s)
        mixing.append(_smooth_mixing(rng_for(spec.seed, "mixing", k), nt[k], s.shape[0]))

    def count(kind: SourceKind) -> list[int]:
        return [sum(lab.kind is kind for lab in labs) for labs in labels]

    return GroundTruth(
        sources=sources,
        mixing=mixing,
        labels=labels,
        joint_count=count(SourceKind.JOINT)[0],
        pjoint_counts=count(SourceKind.PARTIALLY_JOINT),
        individual_counts=count(SourceKind.INDIVIDUAL),
        cluster_map=cluster_map,
    )
