"""Source-type determination: joint vs partially joint vs individual.

Works on a finished decomposition and reads the JpJI-feature table the
engine attached to it (``Decomposition.features``, computed once by
``engine.build_features``).  The feature of a source is its cost against
a ring of the slot's other holders, ordered by association.  Who shares
a source is read off one graph per slot, built from the |corr| of the
slot's estimates (``_peer_components``): a slot is joint when the graph
over all its holders is connected (``detect_joint_slots``), and the
other slots' partially joint nominees share a source with their
connected component (``cluster_subjects``).  The feature sets the
threshold between partially joint and individual nominees
(``select_sigma_opt``).  Nothing here draws from ``config.seed``.
"""
from __future__ import annotations

from dataclasses import replace

import numpy as np

from .engine import WEIGHTS, mode_switch_threshold
from .errors import DegenerateCorrelation
from .types import Decomposition, FeatureTable, SourceKind, SourceLabel


def detect_joint_slots(
    decomp: Decomposition, corr: list[np.ndarray] | None = None
) -> list[int]:
    """Slots whose sources are shared by all their holders.

    A slot with at least two holders is joint when its peer graph over
    all of them (``_peer_components``) is connected.  With two holders
    that is one link, so the pair is joint at |corr| >= 0.5.  ``corr``
    is ``_slot_correlations(decomp)``, formed here when not given.
    """
    corr = _slot_correlations(decomp) if corr is None else corr
    out: list[int] = []
    for c, held in enumerate(decomp.slot_rows >= 0):
        holders = np.flatnonzero(held)
        if holders.size >= 2 and not _peer_components(corr[c][np.ix_(holders, holders)]).any():
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
    decomp: Decomposition, kinds: np.ndarray, corr: list[np.ndarray] | None = None
) -> list[list[SourceLabel]]:
    """Peer sets per source from a correlation graph of each slot's nominees.

    A source of a joint slot is shared by the slot's holders.  For each
    slot with partially joint nominees, a nominee shares its source with
    the nominees in its connected component of the slot's peer graph
    (see ``_peer_components``), read off the slot's |corr| matrix
    ``corr[c]`` (``_slot_correlations(decomp)``, formed here when not
    given).  Every other source is its subject's alone.  The labels hold
    these peer sets only, and ``SourceLabel.kind`` reads the kind off
    them: a joint slot held by some subjects only is partially joint
    among them, and a nominee linked to nobody is individual.
    """
    k_total = decomp.n_subjects
    corr = _slot_correlations(decomp) if corr is None else corr
    sharers: dict[tuple[int, int], frozenset[int]] = {}
    for c in range(kinds.shape[0]):
        holders = [k for k in range(k_total) if kinds[c, k] is not None]
        pj = [k for k in holders if kinds[c, k] is SourceKind.PARTIALLY_JOINT]
        for k in holders:
            joint = kinds[c, k] is SourceKind.JOINT
            sharers[(c, k)] = frozenset(holders) if joint else frozenset({k})
        if len(pj) < 2:
            continue
        component = _peer_components(corr[c][np.ix_(pj, pj)])
        for i, k in enumerate(pj):
            sharers[(c, k)] = frozenset(pj[j] for j in np.flatnonzero(component == component[i]))
    labels: list[list[SourceLabel]] = [[] for _ in range(k_total)]
    for (c, k), group in sorted(sharers.items()):
        labels[k].append(SourceLabel(peers=group - {k}, n_subjects=k_total, subject=k))
    return labels


def _slot_correlations(decomp: Decomposition) -> list[np.ndarray]:
    """K x K |corr| of each slot's sources; NaN where a subject does not hold the slot.

    One slot's rows are stacked at a time, and the joint test and the
    peer sets slice the same matrix.  Raises DegenerateCorrelation when
    a correlation is not finite.
    """
    v = decomp.sources[0].shape[1]
    out = []
    for c, row_of in enumerate(decomp.slot_rows):
        holders = np.flatnonzero(row_of >= 0)
        rows = np.stack([decomp.sources[k][row_of[k]] for k in holders])
        held = np.abs(rows @ rows.T) / v
        if not np.isfinite(held).all():
            raise DegenerateCorrelation(f"slot {c}: correlation undefined")
        corr = np.full((decomp.n_subjects, decomp.n_subjects), np.nan)
        corr[np.ix_(holders, holders)] = held
        out.append(corr)
    return out


def _peer_components(corr: np.ndarray) -> np.ndarray:
    """Connected components of a peer graph, given the |corr| of its members.

    Two members link when their |corr| lies above a bar: the midpoint of
    the widest gap between neighbours among the sorted pairwise values,
    with 0 and 1 added as anchors (``select_sigma_opt``'s rule, applied
    to correlations).  With one pair the bar links it at |corr| >= 0.5.
    Returns each member's component, named by its first member.
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
    the peer graph (``detect_joint_slots``), the threshold from the
    other slots' features (``select_sigma_opt``) and the peer sets from
    the graph over each slot's nominees (``cluster_subjects``); both
    graphs slice one |corr| matrix per slot.  Nothing is set by hand.
    """
    features = decomp.features
    if decomp.n_subjects == 1:
        kinds = np.empty_like(features.jpjif, dtype=object)
        kinds[:, :] = SourceKind.INDIVIDUAL
        return replace(decomp, labels=cluster_subjects(decomp, kinds))
    corr = _slot_correlations(decomp)
    joint_slots = detect_joint_slots(decomp, corr)
    sigma, ref = select_sigma_opt(features, joint_slots, decomp)
    kinds = classify_by_feature(features, sigma, joint_slots)
    labels = cluster_subjects(decomp, kinds, corr)
    features = replace(
        features, joint_slots=sorted(joint_slots), sigma_opt=sigma, jpjif_joint=ref
    )
    return replace(decomp, features=features, labels=labels)
