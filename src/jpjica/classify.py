"""Source-type determination: joint vs partially joint vs individual.

Works on a finished decomposition.  The per-source feature is the final
extraction cost under a fresh full peer permutation; its breakdown over
ring positions (one per peer) carries the signature that separates the
three types: a joint source draws near-equal contributions from every
peer, a partially joint source only from its cluster, an individual
source from nobody.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .engine import build_cost_matrix, mode_switch_threshold
from .errors import (
    DegenerateCorrelation,
    GroupTooSmall,
    NoJointSources,
    TooFewPoints,
    UnseparableFeatures,
)
from .numerics import (
    bh_fdr,
    excess_kurtosis,
    kmeans,
    one_sample_t_columns,
    silhouette,
    welch_t_columns,
)
from .seeding import rng_for
from .types import Decomposition, FeatureTable, SourceKind, SourceLabel


def jpji_feature(
    y: np.ndarray, partners: np.ndarray, weights: tuple[float, float, float]
) -> tuple[float, np.ndarray]:
    """Feature value and per-ring-position contributions of one source.

    Position alpha contributes the weighted squared cross-cumulants of
    ``y`` with partners alpha..alpha+2 (wrapping); the feature is the sum
    over positions.  With an empty partner set the source itself is the
    partner (single-set cost).  Both inputs are re-centered first.
    """
    y = np.asarray(y, dtype=float).ravel()
    yc = (y - y.mean())[None, :]
    pool = np.atleast_2d(np.asarray(partners, dtype=float))
    if pool.size == 0:
        pool = yc
    cm = build_cost_matrix(yc, pool - pool.mean(axis=1, keepdims=True), weights)
    contr = cm.contributions.sum(axis=1)
    return float(contr.sum()), contr


def build_features(decomp: Decomposition) -> FeatureTable:
    """Feature table for every (slot, subject) of a decomposition.

    Ring partners are ordered by second-order association with the
    source, strongest first.  Cluster mates therefore sit on consecutive
    positions and a shared source always collects its fourth-order terms
    from the full in-cluster triples; a random order would leave that to
    permutation luck and make the feature scale unstable.
    """
    cfg = decomp.config
    k_total = decomp.n_subjects
    n_slots = decomp.n_slots
    rows = decomp.slot_rows
    jpjif = np.full((n_slots, k_total), np.nan)
    kurt = np.full((n_slots, k_total), np.nan)
    contributions = np.empty((n_slots, k_total), dtype=object)
    for c in range(n_slots):
        holders = np.flatnonzero(rows[c] >= 0).tolist()
        for k in holders:
            y = decomp.sources[k][rows[c, k]]
            # Source rows are standardized, so a plain inner product ranks
            # the peers by association.
            peers = sorted(
                (j for j in holders if j != k),
                key=lambda j: -abs(float(decomp.sources[j][rows[c, j]] @ y)),
            )
            pool = (
                np.stack([decomp.sources[j][rows[c, j]] for j in peers])
                if peers
                else np.empty((0, y.size))
            )
            val, contr = jpji_feature(y, pool, cfg.weights)
            jpjif[c, k] = val
            contributions[c, k] = contr
            kurt[c, k] = excess_kurtosis(y)
    return FeatureTable(jpjif=jpjif, contributions=contributions, kurtosis=kurt)


def detect_joint_slots(
    features: FeatureTable, decomp: Decomposition
) -> list[int]:
    """Slots whose sources are shared by all subjects.

    A (slot, subject) pair votes joint when the per-position
    contributions are uniform, i.e. the feature stays within tau of
    n_alpha times the weakest contribution, and the feature clears the
    null floor.  The weakest position is the discriminator: one partner
    outside the sharing set leaves its ring position near zero no matter
    how the remaining positions are arranged.  A slot is joint on a
    strict majority of votes.
    """
    cfg = decomp.config
    tau = cfg.tau_joint
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
            floor = mode_switch_threshold(cfg.weights, n_alpha, 1, v, n_partners=n_alpha)
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
            if total >= floor and abs(total - expected) <= tau * scale:
                votes += 1
        if holders and votes * 2 > holders:
            out.append(c)
    return out


def select_sigma_opt(
    features: FeatureTable, joint_slots: list[int], decomp: Decomposition
) -> tuple[float, float]:
    """Threshold separating partially joint from individual features.

    Joint slots set a reference level; the ratio of that level to each
    non-joint feature is clustered into two groups (moderate ratios are
    partially joint, huge ratios individual), and the threshold is the
    midpoint between the largest individual feature and the smallest
    partially joint feature.  Without joint slots the features
    themselves are clustered as a fallback.

    Returns (sigma, joint reference level).
    """
    cfg = decomp.config
    jpjif = features.jpjif
    v = decomp.sources[0].shape[1]
    n_alpha_typ = max(decomp.n_subjects - 1, 1)
    floor = 2.0 * mode_switch_threshold(
        cfg.weights, n_alpha_typ, 1, v, n_partners=n_alpha_typ
    )
    non_joint = [c for c in range(jpjif.shape[0]) if c not in joint_slots]
    vals = jpjif[non_joint, :]
    finite = vals[np.isfinite(vals)]
    if finite.size == 0:
        return floor, float("nan")
    seed = int(rng_for(cfg.seed, "clusters", 0).integers(2**31))
    if joint_slots:
        ref = float(np.nanmean(jpjif[joint_slots, :]))
        points = np.where(finite > 0, ref / np.clip(finite, 1e-300, None), np.inf)
        points = np.where(np.isfinite(points), points, 1e15)
        # Ratios span decades within each class; cluster on log scale.
        points = np.log10(np.clip(points, 1e-300, None))
        if np.unique(points).size < 2:
            return max(float(finite.max()) * 0.5, floor), ref
        labels, centers, _ = kmeans(points[:, None], 2, seed=seed)
        pj_cluster = int(np.argmin(centers[:, 0]))
    else:
        ref = float("nan")
        points = np.log10(np.clip(finite, 1e-300, None))
        if np.unique(points).size < 2:
            raise NoJointSources("no joint reference and features are degenerate")
        labels, centers, _ = kmeans(points[:, None], 2, seed=seed)
        pj_cluster = int(np.argmax(centers[:, 0]))
    pj_vals = finite[labels == pj_cluster]
    iv_vals = finite[labels != pj_cluster]
    if pj_vals.size == 0 or iv_vals.size == 0:
        return max(float(finite.max()) * 0.5, floor), ref
    lower = float(iv_vals.max())
    upper = float(pj_vals.min())
    if lower >= upper:
        raise UnseparableFeatures(
            f"individual features reach {lower:.3g}, partially joint start at {upper:.3g}"
        )
    return max((lower + upper) / 2.0, floor), ref


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

    For each slot with partially joint members the subjects are clustered
    on the rows of the pairwise |correlation| matrix of their estimates
    (cluster count 2 or 3 by silhouette unless configured); the peer set
    of a partially joint source is its cluster mates that are also
    partially joint in that slot.  A partially joint source left without
    peers is relabeled individual.
    """
    cfg = decomp.config
    k_total = decomp.n_subjects
    slot_rows = decomp.slot_rows
    n_slots = kinds.shape[0]
    v = decomp.sources[0].shape[1]
    peer_sets: dict[tuple[int, int], frozenset[int]] = {}
    for c in range(n_slots):
        holders = [k for k in range(k_total) if kinds[c, k] is not None]
        pj = [k for k in holders if kinds[c, k] is SourceKind.PARTIALLY_JOINT]
        for k in holders:
            if kinds[c, k] is SourceKind.JOINT:
                peer_sets[(c, k)] = frozenset(j for j in holders if j != k)
            elif kinds[c, k] is SourceKind.INDIVIDUAL:
                peer_sets[(c, k)] = frozenset()
        # With two subjects a proper peer subset cannot exist; lone
        # partially joint nominees have nobody to pair with either way.
        if k_total == 2 or len(pj) < 2:
            for k in pj:
                kinds[c, k] = SourceKind.INDIVIDUAL
                peer_sets[(c, k)] = frozenset()
            continue
        rows = np.stack([decomp.sources[k][slot_rows[c, k]] for k in holders])
        corr = np.abs(rows @ rows.T) / v
        if not np.isfinite(corr).all():
            raise DegenerateCorrelation(f"slot {c}: correlation undefined")
        seed = int(rng_for(cfg.seed, "clusters", c + 1).integers(2**31))
        assign = _cluster_rows(corr, cfg.n_clusters, seed)
        groups = {holders[i]: int(assign[i]) for i in range(len(holders))}
        for k in pj:
            mates = frozenset(
                j for j in pj if j != k and groups[j] == groups[k]
            )
            if mates:
                peer_sets[(c, k)] = mates
            else:
                kinds[c, k] = SourceKind.INDIVIDUAL
                peer_sets[(c, k)] = frozenset()
    labels: list[list[SourceLabel]] = []
    for k in range(k_total):
        subject_labels: list[SourceLabel] = []
        for c in range(n_slots):
            if kinds[c, k] is None:
                continue
            subject_labels.append(
                SourceLabel(
                    kind=kinds[c, k],
                    peers=peer_sets[(c, k)],
                    n_subjects=k_total,
                    subject=k,
                )
            )
        labels.append(subject_labels)
    return labels


def _cluster_rows(corr: np.ndarray, forced_k: int | None, seed: int) -> np.ndarray:
    """Cluster correlation-profile rows; silhouette picks 2 vs 3 groups."""
    n = corr.shape[0]
    candidates = [forced_k] if forced_k else [k for k in (2, 3) if k < n]
    best_assign, best_score = None, -np.inf
    for k in candidates:
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
    """Attach features and three-way labels to a decomposition.

    Single-subject input gets individual labels directly (no peer
    information exists).  An explicit ``config.sigma0`` bypasses the
    automatic threshold selection.
    """
    features = build_features(decomp)
    if decomp.n_subjects == 1:
        kinds = np.empty_like(features.jpjif, dtype=object)
        kinds[:, :] = SourceKind.INDIVIDUAL
        labels = cluster_subjects(decomp, kinds)
        features.joint_slots = []
        features.sigma_opt = None
        return replace(decomp, features=features, labels=labels)
    joint_slots = detect_joint_slots(features, decomp)
    cfg = decomp.config
    if isinstance(cfg.sigma0, str):
        sigma, ref = select_sigma_opt(features, joint_slots, decomp)
    else:
        sigma = float(cfg.sigma0)
        ref = float(np.nanmean(features.jpjif[joint_slots, :])) if joint_slots else float("nan")
    kinds = classify_by_feature(features, sigma, joint_slots)
    labels = cluster_subjects(decomp, kinds)
    features.joint_slots = sorted(joint_slots)
    features.sigma_opt = sigma
    features.jpjif_joint = ref
    return replace(decomp, features=features, labels=labels)


@dataclass(frozen=True)
class SpatialVerdict:
    """Spatial-route classification of one slot."""

    slot: int
    kind: SourceKind
    mask: np.ndarray
    n_survivors: int


def classify_by_spatial(
    sources: Decomposition | Sequence[np.ndarray],
    groups: tuple[Sequence[int], Sequence[int]],
    q: float = 0.05,
) -> list[SpatialVerdict]:
    """Label slots by voxel-wise group statistics instead of features.

    Per slot, a Welch test per voxel between the two subject groups with
    Benjamini-Hochberg selection at level ``q`` finds group-different
    voxels.  Survivors mean the slot separates the groups: it is
    partially joint if each group is internally homogeneous (half-split
    subtests find nothing) and individual otherwise.  No survivors means
    the groups agree; the slot is joint when the common map is nonzero
    (one-sample test across all subjects) and individual otherwise.
    """
    mats = sources.sources if isinstance(sources, Decomposition) else list(sources)
    g1, g2 = [list(g) for g in groups]
    if len(g1) < 2 or len(g2) < 2:
        raise GroupTooSmall("each group needs at least 2 subjects")
    if set(g1) & set(g2):
        raise ValueError("groups must be disjoint")
    n_slots = min(m.shape[0] for m in mats)
    out: list[SpatialVerdict] = []
    for c in range(n_slots):
        rows = np.stack([mats[k][c] for k in g1 + g2])
        a = rows[: len(g1)]
        b = rows[len(g1):]
        _, p = welch_t_columns(a, b)
        mask = bh_fdr(p, q)
        if mask.any():
            homogeneous = True
            for grp in (a, b):
                half = grp.shape[0] // 2
                if half < 2 or grp.shape[0] - half < 2:
                    continue
                _, p_sub = welch_t_columns(grp[:half], grp[half:])
                if bh_fdr(p_sub, q).any():
                    homogeneous = False
                    break
            kind = SourceKind.PARTIALLY_JOINT if homogeneous else SourceKind.INDIVIDUAL
        else:
            _, p_one = one_sample_t_columns(rows)
            common = bh_fdr(p_one, q)
            kind = SourceKind.JOINT if common.any() else SourceKind.INDIVIDUAL
        out.append(
            SpatialVerdict(slot=c, kind=kind, mask=mask, n_survivors=int(mask.sum()))
        )
    return out


@dataclass(frozen=True)
class KurtosisFit:
    """Quadratic fit of feature values against source kurtosis."""

    kurtosis: np.ndarray
    jpjif: np.ndarray
    coefficients: np.ndarray
    r_squared: float


def kurtosis_feature_fit(features: FeatureTable, joint_slots: list[int] | None = None) -> KurtosisFit:
    """Fit jpjif ~ a*kurt^2 + b*kurt + c over (joint) sources."""
    slots = joint_slots if joint_slots is not None else list(range(features.jpjif.shape[0]))
    xs, ys = [], []
    for c in slots:
        for k in range(features.jpjif.shape[1]):
            if np.isfinite(features.jpjif[c, k]) and np.isfinite(features.kurtosis[c, k]):
                xs.append(features.kurtosis[c, k])
                ys.append(features.jpjif[c, k])
    x = np.asarray(xs)
    y = np.asarray(ys)
    if x.size < 3:
        warnings.warn("too few points for a quadratic fit", UserWarning)
        return KurtosisFit(x, y, np.full(3, np.nan), float("nan"))
    design = np.stack([x**2, x, np.ones_like(x)], axis=1)
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ coef
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 - float((resid**2).sum()) / ss_tot if ss_tot > 0 else 1.0
    return KurtosisFit(x, y, coef, r2)
