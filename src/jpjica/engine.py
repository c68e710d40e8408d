"""Deflationary multi-subject extraction engine.

One "slot" c holds the c-th source estimate of every subject.  The
engine sweeps slot by slot and subject by subject: for each pair it
builds a quadratic cost from cross-cumulants between the subject's
whitened rows and the current partner estimates of the other subjects,
and takes the dominant eigenvector as the new demixing row.  Partner
updates are consumed immediately (most recent estimates win), and rows
are deflated out of the data only in the last sweep so that earlier
sweeps can still realign slots across subjects.  On whitened data,
regressing a source out is projecting the later demixing rows off the
earlier ones, so that deflation is Gram-Schmidt on C-long rows.

Every estimate is a linear combination of its subject's whitened rows,
so the order-2 terms of a joint cost come from the whitened
cross-covariance, computed once; only the order-3/4 products walk the
voxels.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import ConvergenceWarning, PartnerLengthMismatch, ZeroSource
from .numerics import (
    _fix_sign,
    cumulant_vectors_ring,
    dominant_eigenvector,
    excess_kurtosis,
    linear_sum_assignment,
    ring_cumulants,
    ring_products,
    standardize,
)
from .preprocess import preprocess_subject, resolve_orders
from .seeding import rng_for
from .types import (
    AlgoConfig,
    Decomposition,
    FeatureTable,
    Observations,
    TraceRecord,
    check_voxel_count,
    validate_analysis_input,
)

# Cumulant-order weights (w2, w3, w4) of the cost at orders 2, 3, 4.
WEIGHTS = (0.5, 0.75, 1.0)
# Inner stopping rule of self mode: stop once 1 - (u . u_prev)^2 < EPS0.
EPS0 = 1e-6
# Calibrated against the independent-partner null: the largest cost of a
# slot carrying no shared information concentrates below
# c0 * sum(weights) * n_alpha * n_rows / n_samples (see the null test).
MODE_SWITCH_C0 = 6.0


@dataclass(frozen=True)
class CostMatrix:
    """Quadratic cost for one extraction, held as its factor.

    ``g = [sqrt(w2) cv2 | sqrt(w3) cv3 | sqrt(w4) cv4]`` is the C x 3n
    block of weighted cumulant vectors, one column per (order, ring
    position); the cost of a unit row u is ``|g.T u|^2``, i.e. the
    quadratic form of ``g g.T``, which is never formed.
    ``contributions[alpha, j]`` is the squared norm of the column at ring
    position alpha and order (2, 3, 4)[j].
    """

    g: np.ndarray

    @property
    def n_alpha(self) -> int:
        return self.g.shape[1] // 3

    @property
    def contributions(self) -> np.ndarray:
        return np.square(self.g).sum(axis=0).reshape(3, -1).T


def build_cost_matrix(
    z: np.ndarray,
    partners: np.ndarray,
    weights: tuple[float, float, float],
    alphas: str = "all",
) -> CostMatrix:
    """Cumulant cost factor of ``z`` rows against a ring of partner rows.

    Ring position alpha contributes the order-2/3/4 cumulant vectors of z
    against partners alpha, (alpha, alpha+1), and (alpha, alpha+1,
    alpha+2), indices wrapping modulo the partner count, each scaled by
    the square root of its order weight.  ``alphas="first"`` keeps the
    single position alpha=0 (the one-tuple variant).  This is the only
    place where the order weights meet the cumulant vectors: the
    extraction eigen step, the cost trace and the JpJI-feature all read
    the returned factor.

    The rows of ``z`` and of ``partners`` must be centered; the engine
    only ever passes whitened or deflated data and standardized
    estimates, so nothing is re-centered here.
    """
    z = np.asarray(z, dtype=float)
    partners = np.atleast_2d(np.asarray(partners, dtype=float))
    if partners.shape[1] != z.shape[1]:
        raise PartnerLengthMismatch(
            f"partner rows have {partners.shape[1]} samples, z has {z.shape[1]}"
        )
    if alphas not in ("all", "first"):
        raise ValueError("alphas must be 'all' or 'first'")
    return CostMatrix(_cost_factor(cumulant_vectors_ring(z, partners), weights, alphas))


def _cost_factor(
    cvs: tuple[np.ndarray, np.ndarray, np.ndarray],
    weights: tuple[float, float, float],
    alphas: str,
) -> np.ndarray:
    """Weighted C x 3n factor of the cumulant vectors; ring position 0 only for "first"."""
    n = 1 if alphas == "first" else cvs[0].shape[1]
    return np.hstack([np.sqrt(w) * cv[:, :n] for w, cv in zip(weights, cvs)])


def build_ring_cost(
    z: np.ndarray,
    est: np.ndarray,
    ring: np.ndarray,
    order2: tuple[np.ndarray, np.ndarray, np.ndarray],
    weights: tuple[float, float, float],
    alphas: str = "all",
    frame: np.ndarray | None = None,
) -> CostMatrix:
    """Cost factor of the rows ``frame @ z`` against the partners ``est[ring]``.

    The joint-step form of :func:`build_cost_matrix`, equal to
    ``build_cost_matrix(frame @ z, est[ring], weights, alphas)``.
    ``order2 = (cv2, q01, q02)`` are the order-2 vectors of z's rows
    against the partners and the partners' pair moments, taken from the
    whitened cross-covariance (:func:`ring_order2`), so only the
    order-3/4 products walk the voxels, gathering the partner rows from
    ``est`` block by block.  Every cumulant vector is linear in the rows
    of z, so the factor of ``frame @ z`` is ``frame`` times that of z.
    """
    m3, m4 = ring_products(z, est, ring)
    g = _cost_factor(ring_cumulants(*order2, m3, m4), weights, alphas)
    return CostMatrix(g if frame is None else frame @ g)


def ring_order2(
    xcov: np.ndarray, coef: np.ndarray, ring: np.ndarray, rows: slice
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Order-2 ring terms from cross-covariances; no voxel is read.

    Let Z stack the whitened rows of all subjects.  Row j of ``coef``
    holds the coefficients of estimate j on Z (zero outside its
    subject's block), and row j of ``xcov`` is ``coef[j] @ Z @ Z.T / V``,
    the covariance of estimate j with every row of Z.  For the partners
    p = estimates ``ring`` this returns ``cv2 = Z[rows] @ p.T / V`` and
    the pair moments ``q01[alpha] = p[alpha] . p[alpha+1] / V`` and
    ``q02[alpha] = p[alpha] . p[alpha+2] / V``, wrapping modulo the ring
    length, at O(number of rows of Z) per ring position.
    """
    x = xcov[ring]
    return (
        x[:, rows].T,
        np.einsum("ij,ij->i", x, coef[np.roll(ring, -1)]),
        np.einsum("ij,ij->i", x, coef[np.roll(ring, -2)]),
    )


def build_features(
    est: list[np.ndarray], orders: Sequence[int], weights: tuple[float, float, float]
) -> FeatureTable:
    """JpJI-feature table for every (slot, subject) of slot-major sources.

    ``est[c]`` is slot c's K x V matrix of standardized sources, laid out
    as in ``run_jpji_ica``; only the rows of subjects holding the slot
    (``orders[k] > c``) are read, and unheld entries of the table are NaN.

    The feature of a source is its ring cost: ``contributions[c, k]``
    holds, per ring position alpha, the summed contributions of
    ``build_cost_matrix(source, peers)``, and ``jpjif[c, k]`` their sum.
    A sole holder is its own partner (single-set cost).  The rows are
    standardized, hence centered, so nothing is re-centered.

    Ring partners are ordered by second-order association with the
    source, strongest first.  Cluster mates therefore sit on consecutive
    positions and a shared source always collects its fourth-order terms
    from the full in-cluster triples; a random order would leave that to
    permutation luck and make the feature scale unstable.
    """
    n_slots, n_sub = len(est), len(orders)
    jpjif = np.full((n_slots, n_sub), np.nan)
    kurt = np.full((n_slots, n_sub), np.nan)
    contributions = np.empty((n_slots, n_sub), dtype=object)
    for c in range(n_slots):
        holders = np.flatnonzero(np.asarray(orders) > c)
        s = est[c][holders]
        # Source rows are standardized, so the Gram matrix ranks the
        # peers by association; a stable sort keeps ties in subject order.
        ranked = np.argsort(-np.abs(s @ s.T), axis=1, kind="stable")
        for i, k in enumerate(holders.tolist()):
            peers = ranked[i][ranked[i] != i]
            pool = s[peers] if peers.size else s[i : i + 1]
            contr = build_cost_matrix(s[i : i + 1], pool, weights).contributions.sum(axis=1)
            jpjif[c, k] = contr.sum()
            contributions[c, k] = contr
            kurt[c, k] = excess_kurtosis(s[i])
    return FeatureTable(jpjif=jpjif, contributions=contributions, kurtosis=kurt)


def cost(u: np.ndarray, cm: CostMatrix) -> float:
    """Quadratic cost of a candidate demixing row: ``|g.T u|^2``."""
    gu = np.asarray(u, dtype=float) @ cm.g
    return float(gu @ gu)


def inner_extract(
    z: np.ndarray,
    weights: tuple[float, float, float],
    u_init: np.ndarray,
    eps0: float = EPS0,
    max_inner: int = 200,
) -> tuple[float, np.ndarray, list[float], bool]:
    """Self-mode extraction of one demixing row; returns (cost, u, trace, converged).

    The row's own estimate is the partner: the cost is rebuilt from the
    current estimate each iteration until
    1 - (u . u_prev)^2 < eps0.  (Joint extraction against a fixed peer
    ring needs a single eigen step and is done inline by ``run_jpji_ica``.)
    """
    u = np.asarray(u_init, dtype=float)
    u = u / np.linalg.norm(u)
    y = u @ z
    if float(y @ y) < 1e-20:
        raise ZeroSource("self-mode extraction started from a null direction")
    cm = build_cost_matrix(z, standardize(y)[None, :], weights)
    trace = [cost(u, cm)]
    lam = trace[0]
    converged = False
    for _ in range(max_inner):
        lam_new, u_new = dominant_eigenvector(cm.g)
        # Ascent guard: at the fixed point the eigenvalue of the rebuilt
        # cost can wobble below its predecessor by O(eps0 * cost); a
        # non-improving step means there is nothing left to gain, so keep
        # the previous iterate.  The first eigen step is always taken (it
        # maximizes the very cost the starting value was measured on).
        if lam_new < lam and len(trace) > 1:
            converged = True
            break
        lam = lam_new
        trace.append(lam)
        delta = 1.0 - float(u_new @ u) ** 2
        u = u_new
        if delta < eps0:
            converged = True
            break
        cm = build_cost_matrix(z, standardize(u @ z)[None, :], weights)
    if not converged:
        warnings.warn(
            f"self-mode extraction hit the {max_inner}-iteration cap",
            ConvergenceWarning,
        )
    return lam, u, trace, converged


def _cross_covariance(z: list[np.ndarray]) -> tuple[np.ndarray, list[slice]]:
    """``Z @ Z.T / V`` for the stacked rows Z of ``z``, and each matrix's rows in it.

    Z is never formed: the blocks come from K(K+1)/2 products of the
    matrices themselves.
    """
    bounds = np.cumsum([0] + [zk.shape[0] for zk in z])
    rows = [slice(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:])]
    r = np.empty((bounds[-1], bounds[-1]))
    v = z[0].shape[1]
    for k, zk in enumerate(z):
        for j in range(k, len(z)):
            blk = zk @ z[j].T / v
            r[rows[k], rows[j]] = blk
            r[rows[j], rows[k]] = blk.T
    return r, rows


def mode_switch_threshold(
    weights: tuple[float, float, float],
    n_alpha: int,
    n_rows: int,
    n_samples: int,
    n_partners: int,
) -> float:
    """Cost floor separating informative partners from the null.

    With fewer than three partners the ring repeats rows, so the
    order-3/4 entries of an uninformative cost matrix have inflated null
    variance (a partner multiplied by itself); the per-order factors
    below upper-bound that inflation.
    """
    w2, w3, w4 = (float(w) for w in weights)
    if n_partners >= 3:
        scale = w2 + w3 + w4
    elif n_partners == 2:
        scale = w2 + w3 + 3.0 * w4
    else:
        scale = w2 + 3.0 * w3 + 6.0 * w4
    return MODE_SWITCH_C0 * scale * n_alpha * n_rows / n_samples


def _decollide(u: np.ndarray, prior: np.ndarray) -> np.ndarray:
    """Project ``u`` off the span of the rows of ``prior`` and renormalize."""
    if not len(prior):
        nrm = float(np.linalg.norm(u))
        return u / nrm
    q, _ = np.linalg.qr(prior.T)
    dim = u.shape[0]

    def residual(vec: np.ndarray) -> np.ndarray:
        return vec - q @ (q.T @ vec)

    v = residual(u)
    nrm = float(np.linalg.norm(v))
    if nrm < 1e-8:
        best, best_nrm = None, 0.0
        for i in range(dim):
            cand = residual(np.eye(dim)[i])
            cand_nrm = float(np.linalg.norm(cand))
            if cand_nrm > best_nrm:
                best, best_nrm = cand, cand_nrm
        if best is None or best_nrm < 1e-8:
            raise ZeroSource("no direction left after removing prior slots")
        v, nrm = best, best_nrm
    return v / nrm


def _same_voxel_count(datasets: Iterable[Observations]) -> Iterator[Observations]:
    """Yield each subject once its voxel count matches the first subject's.

    The count of a subject on disk comes from its header, so a mismatch
    is refused before any of its payload is read.
    """
    v = None
    for ds in datasets:
        if v is None:
            v = ds.n_voxels
        check_voxel_count(ds, v)
        yield ds
        # Hold no subject while the next one is read.
        del ds


def run_jpji_ica(
    datasets: Iterable[Observations],
    config: AlgoConfig | None = None,
    algorithm: str = "jpji",
) -> Decomposition:
    """Full multi-subject decomposition.

    Sweeps slots and subjects ``config.max_outer`` times.  At the start
    of each slot every subject's current row is re-orthogonalized against
    its earlier slots, which keeps slots from collapsing onto the same
    source while no deflation has happened yet.  In the last sweep each
    extraction also deflates: subject k's data for slot c is
    ``P @ z0[k]`` with the projector ``P = I - U.T @ U`` off the rows
    ``U = u_work[k][:c]`` it has already extracted in this sweep.  The
    whitened rows are uncorrelated with unit variance, so this regresses
    those sources out of the data without copying it.  The new row is
    ``u @ P``, normalized, so each subject's rows come out orthonormal.
    After the last sweep each estimate is overwritten
    by its final source, ``build_features`` computes the JpJI-feature
    table once from these rows, and the slots are ordered by decreasing
    mean ``jpjif`` over their holders, then by decreasing kurtosis of
    the first holder's source.  The table is returned as
    ``Decomposition.features``.

    The current estimates are stored slot-major: ``est[c]`` is slot c's
    K x V matrix of standardized estimates, and the row of a subject
    holding fewer than c + 1 sources stays zero.  Beside each estimate
    the engine keeps its coefficients on the whitened rows and its
    covariance with all of them (``coef[c]``, ``xcov[c]``).  Each
    extraction draws a random ring from the other holders of the slot;
    its order-2 terms come from those (``ring_order2``), and the
    order-3/4 walk gathers the partner rows from ``est[c]`` block by
    block (``build_ring_cost``), against ``z0[k]`` and left-multiplied
    by ``P`` in the last sweep.  The new estimate is written back
    at once, so later extractions in the slot see it.

    ``algorithm`` fixes one policy before the sweeps:

    ``"jpji"``
        the ring holds every other holder and the cost sums over all ring
        positions; the floor is the automatic ``mode_switch_threshold``.
        After the last sweep each subject's rows are re-matched to the
        consensus slots (see ``_align_rows``).
    ``"jithica"``
        the single-tuple variant: the ring is up to three random peers and
        only ring position 0 enters the cost; an explicit ``config.sigma0``
        is the floor, else the automatic one.  Rows are not re-matched.

    A ring cost at or above the floor keeps the joint eigen step; below
    it, or without peers, the row is extracted in self mode.

    ``datasets`` is iterated once, and each subject is checked against
    the first one's voxel count, reduced and whitened before the next is
    requested: a lazy iterable (``io.read_subjects``) keeps at most one
    observation matrix alive at a time, and a subject with another voxel
    count is refused before any later one is read.  A binary subject
    from ``io.read_subjects`` is reduced from disk, one T x B column
    block at a time, so none of its T x V matrix is held.
    Under "global-min" the whitened reductions are only truncated.  Once
    every estimate is final, the whitened data and the cross-covariance
    terms kept beside the estimates are freed.  Peak memory is thus the
    larger of K*C*V for the whitened reductions plus the subject being
    reduced (one T x B block for a binary subject, its T x V matrix
    otherwise), and 2*K*C*V: the whitened data and the estimates
    during the sweeps, then the estimates and the stacked sources.
    """
    if config is None:
        config = AlgoConfig()
    if algorithm not in ("jpji", "jithica"):
        raise ValueError(f"unknown algorithm: {algorithm!r}")
    single = algorithm == "jithica"
    ring_len = 3 if single else None
    alphas = "first" if single else "all"
    align = not single
    fixed_floor: float | None = None
    if single and not isinstance(config.sigma0, str):
        fixed_floor = float(config.sigma0)

    # Unlike a loop variable, map holds no subject once it is reduced.
    pre = list(
        map(preprocess_subject, _same_voxel_count(datasets), repeat(config.n_components))
    )
    validate_analysis_input(pre)
    pre = resolve_orders(pre, config.n_components)
    orders = [p.n_components for p in pre]
    n_sub = len(pre)
    n_slots = max(orders)
    v = pre[0].z.shape[1]
    rng = rng_for(config.seed, "engine")

    z0 = [p.z for p in pre]
    cross, rows = _cross_covariance(z0)
    u_work = [np.eye(o) for o in orders]
    # One K x V array per slot, not one (n_slots, K, V) block: once glibc
    # has unmapped a freed block of up to 32 MiB it serves later blocks of
    # that size from its heap and keeps them after free.  A 30 MiB block
    # (K=10, V=65536, 6 slots) raised the peak RSS of repeated decompose
    # runs in one process from 269 to 305 MB on x86-64 Linux.
    est = [np.zeros((n_sub, v)) for _ in range(n_slots)]
    # est[c][j] = coef[c][j] @ Z for the stacked whitened rows Z, and
    # xcov[c] = coef[c] @ cross (see ring_order2).
    coef = [np.zeros((n_sub, cross.shape[0])) for _ in range(n_slots)]
    xcov = [np.zeros((n_sub, cross.shape[0])) for _ in range(n_slots)]
    traces: list[TraceRecord] = []
    # The last sweep's record of each subject's rows, in slot order.
    final_traces: list[list[TraceRecord]] = [[] for _ in range(n_sub)]

    def put(c: int, j: int, a: np.ndarray) -> None:
        """Set est[c][j] to standardize(a @ z0[j]), with its coefficients."""
        est[c][j] = standardize(a @ z0[j])
        r_jj = cross[rows[j], rows[j]]
        b = a / np.sqrt(a @ r_jj @ a)
        coef[c][j, rows[j]] = b
        xcov[c][j] = b @ cross[rows[j]]

    for sweep in range(1, config.max_outer + 1):
        final = sweep == config.max_outer
        for c in range(n_slots):
            holders = np.flatnonzero(np.asarray(orders) > c)
            for j in holders.tolist():
                u_work[j][c] = _decollide(u_work[j][c], u_work[j][:c])
                put(c, j, u_work[j][c])
            for k in holders.tolist():
                peers = holders[holders != k]
                # In the last sweep subject k's data is projected off its earlier rows.
                frame = None
                if final:
                    frame = np.eye(orders[k]) - u_work[k][:c].T @ u_work[k][:c]
                u0 = u_work[k][c]
                mode = "self"
                if peers.size:
                    ring = peers[rng.permutation(peers.size)[:ring_len]]
                    order2 = ring_order2(xcov[c], coef[c], ring, rows[k])
                    cm = build_ring_cost(z0[k], est[c], ring, order2, WEIGHTS, alphas, frame)
                    lam, u_new = dominant_eigenvector(cm.g)
                    floor = fixed_floor
                    if floor is None:
                        floor = mode_switch_threshold(
                            WEIGHTS, cm.n_alpha, orders[k], v, n_partners=ring.size
                        )
                    if lam >= floor:
                        mode = "joint"
                        trace_vals = [cost(u0, cm), lam]
                        u_fin, converged = u_new, True
                if mode == "self":
                    _, u_fin, trace_vals, converged = inner_extract(
                        z0[k] if frame is None else frame @ z0[k], WEIGHTS, u0
                    )
                if frame is not None:
                    u_fin = u_fin @ frame
                    nrm = float(np.linalg.norm(u_fin))
                    if nrm < 1e-150:
                        raise ZeroSource("no direction left off the subject's earlier rows")
                    u_fin = u_fin / nrm
                u_work[k][c] = u_fin
                put(c, k, u_fin)
                traces.append(
                    TraceRecord(
                        sweep=sweep,
                        slot=c,
                        subject=k,
                        costs=[float(t) for t in trace_vals],
                        mode=mode,
                        converged=converged,
                    )
                )
                if final:
                    final_traces[k].append(traces[-1])

    if align:
        _align_rows(est, u_work, final_traces, orders)
    # A row's final cost is the last of its record's trace values.
    self_mode = np.zeros((n_slots, n_sub), dtype=bool)
    final_costs = np.full((n_slots, n_sub), np.nan)
    for records in final_traces:
        for t in records:
            self_mode[t.slot, t.subject] = t.mode == "self"
            final_costs[t.slot, t.subject] = t.costs[-1]
    # est[c][k] is standardize(u_work[k][c] @ z0[k]) already (put, then
    # _align_rows permuting both alike), and negation is exact.
    for k in range(n_sub):
        for c in range(orders[k]):
            u = u_work[k][c]
            if _fix_sign(u) is not u:
                u *= -1.0
                est[c][k] *= -1.0
    subject_ids = [p.subject_id for p in pre]
    whiteners = [p.w_total for p in pre]
    row_means = [p.mean for p in pre]
    # Every estimate is final: free the whitened data and what was kept
    # beside it (put's closure too) before the sources are stacked.
    del pre, z0, cross, coef, xcov
    feats = build_features(est, orders, WEIGHTS)
    # Unheld entries are NaN: the mean runs over the holders, and the
    # first finite kurtosis is the first holder's.
    mean_f = np.nanmean(feats.jpjif, axis=1)
    kurt_first = [row[np.isfinite(row)][0] for row in feats.kurtosis]
    slot_order = sorted(range(n_slots), key=lambda c: (-mean_f[c], -kurt_first[c], c))
    inverse = {c: i for i, c in enumerate(slot_order)}
    demixing, sources = [], []
    for k in range(n_sub):
        own = [c for c in slot_order if c < orders[k]]
        demixing.append(u_work[k][own])
        sources.append(np.stack([est[c][k] for c in own]))
    for t in traces:
        t.slot = inverse[t.slot]
    return Decomposition(
        subject_ids=subject_ids,
        whiteners=whiteners,
        row_means=row_means,
        demixing=demixing,
        sources=sources,
        extraction_costs=final_costs[slot_order, :],
        self_mode=self_mode[slot_order, :],
        traces=traces,
        config=config,
        algorithm=algorithm,
        features=FeatureTable(
            feats.jpjif[slot_order], feats.contributions[slot_order], feats.kurtosis[slot_order]
        ),
    )


def _align_rows(
    est: list[np.ndarray],
    u_work: list[np.ndarray],
    final_traces: list[list[TraceRecord]],
    orders: list[int],
) -> None:
    """Re-match each subject's rows to the consensus slots, in place.

    The sweep cost is symmetric under exchanging two shared sources, so
    a single subject can converge with a pair of its rows transposed
    relative to everyone else.  The content is still correct, only the
    slot it sits in is wrong, which corrupts any per-slot statistic.
    Shared variance with the other subjects' rows identifies where each
    row belongs: solve, per subject, the assignment that maximizes total
    squared correlation between its rows and the slot consensus.

    ``est`` holds the slot-major estimates of ``run_jpji_ica``.  One
    product per slot correlates the subject's o rows with every subject's
    row in that slot; the rows of slots a subject does not hold are zero
    and add nothing, and the subject's own row is zeroed.
    ``final_traces[k]`` holds the last sweep's records of subject k's
    rows in slot order; each record moves, and takes the slot, with its
    row.
    """
    n_sub, v = est[0].shape
    if n_sub < 2:
        return
    for _ in range(2):
        changed = False
        for k in range(n_sub):
            o = orders[k]
            if o < 2:
                continue
            rows = np.stack([est[c][k] for c in range(o)])
            sim = np.empty((o, o))
            for c in range(o):
                corr = (est[c] @ rows.T) / v
                corr[k] = 0.0
                sim[c] = (corr**2).sum(axis=0)
            slots, picked = linear_sum_assignment(-sim)
            perm = np.empty(o, dtype=int)
            perm[slots] = picked
            if np.any(perm != np.arange(o)):
                changed = True
                for c in range(o):
                    est[c][k] = rows[perm[c]]
                u_work[k] = u_work[k][perm]
                final_traces[k] = [final_traces[k][p] for p in perm]
                for c, t in enumerate(final_traces[k]):
                    t.slot = c
        if not changed:
            break

