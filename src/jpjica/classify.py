"""Source-type determination: joint vs partially joint vs individual.

Works on a finished decomposition and reads the JpJI-feature table the
engine attached to it (``Decomposition.features``, computed once by
``engine.build_features``).  The feature of a source is its cost against
a ring of the slot's other holders, ordered by association; its
breakdown over ring positions (one per peer) carries the signature that
separates the three types: a joint source draws near-equal contributions
from every peer, a partially joint source only from its cluster, an
individual source from nobody.
"""
from __future__ import annotations

from dataclasses import replace

import numpy as np

from .engine import WEIGHTS, mode_switch_threshold
from .errors import DegenerateCorrelation, NoJointSources, TooFewPoints
from .numerics import kmeans, silhouette
from .seeding import rng_for
from .types import Decomposition, FeatureTable, SourceKind, SourceLabel

# Relative tolerance of the per-peer contribution uniformity test that
# detects joint sources.
TAU_JOINT = 0.15


def detect_joint_slots(
    features: FeatureTable, decomp: Decomposition
) -> list[int]:
    """Slots whose sources are shared by all subjects.

    A (slot, subject) pair votes joint when the per-position
    contributions are uniform, i.e. the feature stays within tolerance
    ``TAU_JOINT`` of n_alpha times the weakest contribution, and the
    feature clears the null floor.  The weakest position is the
    discriminator: one partner outside the sharing set leaves its ring
    position near zero no matter how the remaining positions are
    arranged.  A slot is joint on a strict majority of votes.
    """
    v = decomp.sources[0].shape[1]
    rows = decomp.slot_rows
    out: list[int] = []
    for c in range(features.jpjif.shape[0]):
        votes, holders = 0, 0
        for k in range(features.jpjif.shape[1]):
            contr = features.contributions[c, k]
            if contr is None:
                continue
            holders += 1
            n_alpha = contr.shape[0]
            total = features.jpjif[c, k]
            floor = mode_switch_threshold(WEIGHTS, n_alpha, 1, v, n_partners=n_alpha)
            if n_alpha < 2:
                # Two subjects: no uniformity to test.  Kurtosis couples to
                # the residual correlation allowed between distinct maps, so
                # magnitude alone is unreliable; require the pair to share
                # the majority of its variance as well.
                peer_rows = [
                    decomp.sources[j][rows[c, j]]
                    for j in range(features.jpjif.shape[1])
                    if j != k and rows[c, j] >= 0
                ]
                if total >= floor and peer_rows:
                    y = decomp.sources[k][rows[c, k]]
                    rho = float(peer_rows[0] @ y) / v
                    if rho * rho >= 0.5:
                        votes += 1
                continue
            expected = n_alpha * float(np.min(contr))
            scale = max(total, expected, 1e-300)
            if total >= floor and abs(total - expected) <= TAU_JOINT * scale:
                votes += 1
        if holders and votes * 2 > holders:
            out.append(c)
    return out


def select_sigma_opt(
    features: FeatureTable, joint_slots: list[int], decomp: Decomposition
) -> tuple[float, float]:
    """Threshold separating partially joint from individual features.

    The floor is twice the engine's null cost of a full ring,
    ``2 * mode_switch_threshold`` with K - 1 partners.  When no non-joint
    feature lies below it there is no individual class, and the floor is
    the threshold, so every non-joint source is partially joint.
    Otherwise the log10 of the non-joint features is split into two
    groups by k-means (features span decades within each class), and
    the threshold is the midpoint between the largest feature of the
    low (individual) group and the smallest of the high (partially
    joint) group, never below the floor.

    Features that are all equal, or none at all, leave nothing to split:
    the floor decides, unless there is no joint slot either
    (``NoJointSources``).

    Returns (sigma, joint reference level): the level is the mean
    feature of the joint slots' sources, NaN without joint slots.
    """
    v = decomp.sources[0].shape[1]
    n_alpha_typ = max(decomp.n_subjects - 1, 1)
    floor = 2.0 * mode_switch_threshold(WEIGHTS, n_alpha_typ, 1, v, n_partners=n_alpha_typ)
    ref = _joint_level(features, joint_slots)
    non_joint = np.delete(features.jpjif, joint_slots, axis=0)
    finite = non_joint[np.isfinite(non_joint)]
    distinct = np.unique(finite).size
    if distinct < 2 and not joint_slots:
        raise NoJointSources("no joint reference and features are degenerate")
    if distinct < 2 or finite.min() > floor:
        return floor, ref
    seed = int(rng_for(decomp.config.seed, "clusters", 0).integers(2**31))
    points = np.log10(np.clip(finite, 1e-300, None))
    labels, centers, _ = kmeans(points[:, None], 2, seed=seed)
    # A 1-D nearest-centre split is an interval cut: both groups are
    # non-empty and the low group lies wholly below the high one.
    pj = labels == int(np.argmax(centers[:, 0]))
    return max((float(finite[~pj].max()) + float(finite[pj].min())) / 2.0, floor), ref


def _joint_level(features: FeatureTable, joint_slots: list[int]) -> float:
    """Mean feature of the joint slots' sources; NaN without joint slots."""
    return float(np.nanmean(features.jpjif[joint_slots, :])) if joint_slots else float("nan")


def classify_by_feature(
    features: FeatureTable, sigma: float, joint_slots: list[int]
) -> np.ndarray:
    """Kind matrix (slot, subject) from features and a threshold."""
    n_slots, k_total = features.jpjif.shape
    kinds = np.empty((n_slots, k_total), dtype=object)
    for c in range(n_slots):
        for k in range(k_total):
            if not np.isfinite(features.jpjif[c, k]):
                kinds[c, k] = None
            elif c in joint_slots:
                kinds[c, k] = SourceKind.JOINT
            elif features.jpjif[c, k] <= sigma:
                kinds[c, k] = SourceKind.INDIVIDUAL
            else:
                kinds[c, k] = SourceKind.PARTIALLY_JOINT
    return kinds


def cluster_subjects(
    decomp: Decomposition, kinds: np.ndarray
) -> list[list[SourceLabel]]:
    """Peer sets per source via clustering of cross-subject correlations.

    A source of a joint slot is shared by the slot's holders.  For each
    slot with partially joint nominees the holders are clustered on the
    rows of the pairwise |correlation| matrix of their estimates (the
    silhouette picks the cluster count, see ``_cluster_rows``), and a
    nominee shares its source with its cluster mates that are nominees
    too.  Every other source is its subject's alone.  The kind of each
    label follows from who shares the source (``SourceLabel.shared_with``):
    a joint slot held by some subjects only is partially joint among
    them, and a nominee without mates is individual.
    """
    cfg = decomp.config
    k_total = decomp.n_subjects
    slot_rows = decomp.slot_rows
    v = decomp.sources[0].shape[1]
    sharers: dict[tuple[int, int], frozenset[int]] = {}
    for c in range(kinds.shape[0]):
        holders = [k for k in range(k_total) if kinds[c, k] is not None]
        pj = [k for k in holders if kinds[c, k] is SourceKind.PARTIALLY_JOINT]
        for k in holders:
            joint = kinds[c, k] is SourceKind.JOINT
            sharers[(c, k)] = frozenset(holders) if joint else frozenset({k})
        # With two subjects a proper peer subset cannot exist; lone
        # partially joint nominees have nobody to pair with either way.
        if k_total == 2 or len(pj) < 2:
            continue
        rows = np.stack([decomp.sources[k][slot_rows[c, k]] for k in holders])
        corr = np.abs(rows @ rows.T) / v
        if not np.isfinite(corr).all():
            raise DegenerateCorrelation(f"slot {c}: correlation undefined")
        seed = int(rng_for(cfg.seed, "clusters", c + 1).integers(2**31))
        assign = _cluster_rows(corr, seed)
        groups = {holders[i]: int(assign[i]) for i in range(len(holders))}
        for k in pj:
            sharers[(c, k)] = frozenset(j for j in pj if groups[j] == groups[k])
    labels: list[list[SourceLabel]] = [[] for _ in range(k_total)]
    for (c, k), group in sorted(sharers.items()):
        labels[k].append(SourceLabel.shared_with(k, group - {k}, k_total))
    return labels


def _cluster_rows(corr: np.ndarray, seed: int) -> np.ndarray:
    """Cluster correlation-profile rows; silhouette picks the group count.

    A sharing cluster has at least five members, so n holders form at
    most n // 5 clusters; the counts 2 .. max(3, n // 5) are tried.
    """
    n = corr.shape[0]
    best_assign, best_score = None, -np.inf
    for k in range(2, min(n, max(3, n // 5) + 1)):
        try:
            assign, _, _ = kmeans(corr, k, seed=seed)
        except TooFewPoints:
            continue
        score = silhouette(corr, assign)
        if score > best_score:
            best_assign, best_score = assign, score
    if best_assign is None:
        return np.zeros(n, dtype=int)
    return best_assign


def label_decomposition(decomp: Decomposition) -> Decomposition:
    """Attach three-way labels, and the threshold behind them, to a decomposition.

    Reads the engine's feature table and returns a new decomposition
    whose table is a copy carrying the joint slots, the threshold and the
    joint reference level; the input is not changed.  Single-subject
    input gets individual labels directly (no peer information exists)
    and keeps the engine's table as it is.
    An explicit ``config.sigma0`` bypasses the automatic threshold
    selection.
    """
    features = decomp.features
    if features is None:
        raise ValueError("decomposition carries no feature table")
    if decomp.n_subjects == 1:
        kinds = np.empty_like(features.jpjif, dtype=object)
        kinds[:, :] = SourceKind.INDIVIDUAL
        return replace(decomp, labels=cluster_subjects(decomp, kinds))
    joint_slots = detect_joint_slots(features, decomp)
    cfg = decomp.config
    if isinstance(cfg.sigma0, str):
        sigma, ref = select_sigma_opt(features, joint_slots, decomp)
    else:
        sigma, ref = float(cfg.sigma0), _joint_level(features, joint_slots)
    kinds = classify_by_feature(features, sigma, joint_slots)
    labels = cluster_subjects(decomp, kinds)
    features = replace(
        features, joint_slots=sorted(joint_slots), sigma_opt=sigma, jpjif_joint=ref
    )
    return replace(decomp, features=features, labels=labels)
