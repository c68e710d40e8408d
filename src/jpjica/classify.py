"""Source-type determination: joint vs partially joint vs individual.

Works on a finished decomposition and reads the JpJI-feature table the
engine attached to it (``Decomposition.features``, computed once by
``engine.build_features``).  The feature of a source is its cost against
a ring of the slot's other holders, ordered by association; its
breakdown over ring positions (one per peer) carries the signature that
separates the three types: a joint source draws near-equal contributions
from every peer, a partially joint source only from its cluster, an
individual source from nobody.  Who shares a partially joint source is
read off the correlations of the slot's estimates (``cluster_subjects``).
Nothing here draws from ``config.seed``.
"""
from __future__ import annotations

from dataclasses import replace

import numpy as np

from .engine import WEIGHTS, mode_switch_threshold
from .errors import DegenerateCorrelation
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
    ``2 * mode_switch_threshold`` with K - 1 partners.  The threshold is
    the geometric midpoint of the widest gap between neighbours among
    the sorted non-joint features (which span decades within each class)
    and the floor, never below the floor.  Non-joint features sitting
    together above the floor leave the widest gap at the floor, so all
    are partially joint.  Zero features (below any threshold) are left
    out; with no other, the floor is the threshold.

    Returns (sigma, joint reference level): the level is the mean
    feature of the joint slots' sources, NaN without joint slots.
    """
    v = decomp.sources[0].shape[1]
    n_alpha_typ = max(decomp.n_subjects - 1, 1)
    floor = 2.0 * mode_switch_threshold(WEIGHTS, n_alpha_typ, 1, v, n_partners=n_alpha_typ)
    ref = float(np.nanmean(features.jpjif[joint_slots, :])) if joint_slots else float("nan")
    non_joint = np.delete(features.jpjif, joint_slots, axis=0)
    # NaN marks an unheld entry and fails the comparison.
    points = np.sort(np.log10(np.append(non_joint[non_joint > 0], floor)))
    if points.size < 2:
        return floor, ref
    gap = int(np.argmax(np.diff(points)))
    return max(float(10.0 ** ((points[gap] + points[gap + 1]) / 2.0)), floor), ref


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
    """Peer sets per source from a correlation graph of each slot's nominees.

    A source of a joint slot is shared by the slot's holders.  For each
    slot with partially joint nominees, a nominee shares its source with
    the nominees in its connected component of the slot's peer graph
    (see ``_peer_components``).  Every other source is its subject's
    alone.  The labels hold these peer sets only, and
    ``SourceLabel.kind`` reads the kind off them: a joint slot held by
    some subjects only is partially joint among them, and a nominee
    linked to nobody is individual.
    """
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
        rows = np.stack([decomp.sources[k][slot_rows[c, k]] for k in pj])
        corr = np.abs(rows @ rows.T) / v
        if not np.isfinite(corr).all():
            raise DegenerateCorrelation(f"slot {c}: correlation undefined")
        component = _peer_components(corr)
        for i, k in enumerate(pj):
            sharers[(c, k)] = frozenset(pj[j] for j in np.flatnonzero(component == component[i]))
    labels: list[list[SourceLabel]] = [[] for _ in range(k_total)]
    for (c, k), group in sorted(sharers.items()):
        labels[k].append(SourceLabel(peers=group - {k}, n_subjects=k_total, subject=k))
    return labels


def _peer_components(corr: np.ndarray) -> np.ndarray:
    """Connected components of the links between rows of a |corr| matrix.

    Two rows link when their |corr| lies above a bar: the midpoint of
    the widest gap between neighbours among the sorted pairwise values,
    with 0 and 1 added as anchors (``select_sigma_opt``'s rule, applied
    to correlations).  With one pair the bar links it at |corr| >= 0.5.
    Returns each row's component, named by its first row.
    """
    n = corr.shape[0]
    points = np.sort(np.concatenate([corr[np.triu_indices(n, 1)], [0.0, 1.0]]))
    gap = int(np.argmax(np.diff(points)))
    linked = corr > (points[gap] + points[gap + 1]) / 2.0
    component = np.full(n, -1)
    for start in range(n):
        if component[start] < 0:
            component[start], stack = start, [start]
            while stack:
                for j in np.flatnonzero(linked[stack.pop()] & (component < 0)):
                    component[j] = start
                    stack.append(j)
    return component


def label_decomposition(decomp: Decomposition) -> Decomposition:
    """Attach three-way labels, and the threshold behind them, to a decomposition.

    Reads the engine's feature table and returns a new decomposition
    whose table is a copy carrying the joint slots, the threshold and the
    joint reference level; the input is not changed.  Single-subject
    input gets individual labels directly (no peer information exists)
    and keeps the engine's table as it is.  The joint slots come from
    ``detect_joint_slots`` and the threshold from ``select_sigma_opt``;
    nothing is set by hand.
    """
    features = decomp.features
    if decomp.n_subjects == 1:
        kinds = np.empty_like(features.jpjif, dtype=object)
        kinds[:, :] = SourceKind.INDIVIDUAL
        return replace(decomp, labels=cluster_subjects(decomp, kinds))
    joint_slots = detect_joint_slots(features, decomp)
    sigma, ref = select_sigma_opt(features, joint_slots, decomp)
    kinds = classify_by_feature(features, sigma, joint_slots)
    labels = cluster_subjects(decomp, kinds)
    features = replace(
        features, joint_slots=sorted(joint_slots), sigma_opt=sigma, jpjif_joint=ref
    )
    return replace(decomp, features=features, labels=labels)
