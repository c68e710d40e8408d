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
so every second-order term comes from the whitened cross-covariance,
computed once, and the coefficients and covariances kept beside each
estimate: its unit-variance scale, the order-2 terms of a joint cost and
the correlations that re-match rows to slots.  The feature pass takes
its order-2 terms from the K x K Gram matrix of each slot's sources.
Only the order-3/4 products walk the voxels (and self mode, which
rebuilds its single-set cost from its own estimate).
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
) -> CostMatrix:
    """Cumulant cost factor of ``z`` rows against a ring of partner rows.

    Ring position alpha contributes the order-2/3/4 cumulant vectors of z
    against partners alpha, (alpha, alpha+1), and (alpha, alpha+1,
    alpha+2), indices wrapping modulo the partner count, each scaled by
    the square root of its order weight (``_cost_factor``).  Self mode
    builds its single-set cost here, from every moment over the voxels;
    the joint steps and the feature pass take the ring form,
    :func:`build_ring_cost`.

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
    return CostMatrix(_cost_factor(cumulant_vectors_ring(z, partners), weights))


def _cost_factor(
    cvs: tuple[np.ndarray, np.ndarray, np.ndarray],
    weights: tuple[float, float, float],
) -> np.ndarray:
    """Weighted C x 3n factor of the cumulant vectors.

    The only place where the order weights meet the cumulant vectors:
    both cost builders, and through them the extraction eigen steps, the
    cost trace and the JpJI-feature, read this factor.
    """
    return np.hstack([np.sqrt(w) * cv for w, cv in zip(weights, cvs)])


def build_ring_cost(
    z: np.ndarray,
    est: np.ndarray,
    ring: np.ndarray,
    order2: tuple[np.ndarray, np.ndarray, np.ndarray],
    weights: tuple[float, float, float],
    frame: np.ndarray | None = None,
) -> CostMatrix:
    """Cost factor of the rows ``frame @ z`` against the partners ``est[ring]``.

    The joint-step form of :func:`build_cost_matrix`, equal to
    ``build_cost_matrix(frame @ z, est[ring], weights)``.
    ``order2 = (cv2, q01, q02)`` are the order-2 vectors of z's rows
    against the partners and the partners' pair moments, taken from the
    whitened cross-covariance (:func:`ring_order2`) or a Gram matrix, so
    only the order-3/4 products walk the voxels, gathering the partner
    rows from ``est`` block by block.  Every cumulant vector is linear in
    the rows of z, so the factor of ``frame @ z`` is ``frame`` times that
    of z.
    """
    m3, m4 = ring_products(z, est, ring)
    g = _cost_factor(ring_cumulants(*order2, m3, m4), weights)
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
    sources: Sequence[np.ndarray], weights: tuple[float, float, float]
) -> FeatureTable:
    """JpJI-feature table for every (slot, subject) of subject-major sources.

    ``sources[k]`` holds subject k's centered unit-variance sources of
    slots 0 .. ``sources[k].shape[0] - 1``, one row each, as
    ``run_jpji_ica`` extracts them; slot c is held by the subjects with
    more than c rows, and unheld entries of the table are NaN.  One
    slot's rows are stacked at a time.

    The feature of a source is its ring cost: ``contributions[c, k]``
    holds, per ring position alpha, the summed contributions of
    ``build_cost_matrix(source, peers)``, and ``jpjif[c, k]`` their sum.
    A sole holder is its own partner (single-set cost).  The rows are
    centered, so nothing is re-centered.

    Ring partners are ordered by second-order association with the
    source, strongest first.  Cluster mates therefore sit on consecutive
    positions and a shared source always collects its fourth-order terms
    from the full in-cluster triples; a random order would leave that to
    permutation luck and make the feature scale unstable.

    The holders' Gram matrix, formed once per slot to rank the peers,
    also gives every order-2 term of the costs (the source's covariance
    with each peer and the peers' pair moments), so only the order-3/4
    products walk the voxels (``ring_products``).
    """
    orders = np.array([s.shape[0] for s in sources])
    n_slots, n_sub = int(orders.max()), len(sources)
    jpjif = np.full((n_slots, n_sub), np.nan)
    kurt = np.full((n_slots, n_sub), np.nan)
    contributions = np.empty((n_slots, n_sub), dtype=object)
    for c in range(n_slots):
        holders = np.flatnonzero(orders > c)
        s = np.stack([sources[k][c] for k in holders])
        gram = s @ s.T
        # The rows have unit variance, so the Gram matrix ranks the peers
        # by association; a stable sort keeps ties in subject order.
        ranked = np.argsort(-np.abs(gram), axis=1, kind="stable")
        gram /= s.shape[1]
        for i, k in enumerate(holders.tolist()):
            peers = ranked[i][ranked[i] != i]
            ring = peers if peers.size else np.array([i])
            order2 = (
                gram[i : i + 1, ring],
                gram[ring, np.roll(ring, -1)],
                gram[ring, np.roll(ring, -2)],
            )
            cm = build_ring_cost(s[i : i + 1], s, ring, order2, weights)
            contr = cm.contributions.sum(axis=1)
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
    After the last sweep each subject's sources are formed from its
    final rows, ``build_features`` computes the JpJI-feature table once
    from them (its order-2 terms from each slot's Gram matrix), and the
    slots are ordered by decreasing mean ``jpjif`` over their holders,
    then by decreasing kurtosis of the first holder's source.  The table
    is returned as ``Decomposition.features``.

    One K x V buffer ``est`` holds the standardized estimates of the
    slot being swept, one row per subject.  Beside every estimate of
    every slot the engine keeps its coefficients on the whitened rows
    and its covariance with all of them (``coef[c]``, ``xcov[c]``).
    ``put`` writes an estimate as its coefficients times the subject's
    whitened rows, scaled to unit variance through the cross-covariance,
    so no estimate is standardized over the voxels.  At the start of
    slot c every holder's row of ``est`` is rewritten, so rows left from
    earlier slots are never read.  Each extraction takes a ring from the
    other holders of the slot; its order-2 terms come from ``coef`` and
    ``xcov`` (``ring_order2``), and the order-3/4 walk gathers the
    partner rows from ``est`` block by block (``build_ring_cost``),
    against ``z0[k]`` and left-multiplied by ``P`` in the last sweep.
    The new estimate is written back at once, so later extractions in
    the slot see it.

    ``algorithm`` fixes one policy before the sweeps:

    ``"jpji"``
        the ring holds every other holder by decreasing |covariance|
        with the subject's current estimate, read from ``xcov`` and
        ``coef`` (as ``build_features`` orders its rings), so nothing is
        drawn, and the cost sums over all ring positions.
        After the last sweep each subject's rows are re-matched to the
        consensus slots, by correlations read from ``coef`` and ``xcov``
        (see ``_align_rows``).
    ``"jithica"``
        the single-tuple variant: the ring is up to three peers drawn
        from ``config.seed``, and the engine keeps only ring position 0
        of the ring cost's factor (one tuple).  Rows are not re-matched.

    A ring cost at or above the floor ``mode_switch_threshold`` (of the
    cost's ring positions and partners) keeps the joint eigen step;
    below it, or without peers, the row is extracted in self mode.

    ``datasets`` is iterated once, and each subject is checked against
    the first one's voxel count, reduced and whitened before the next is
    requested: a lazy iterable (``io.read_subjects``) keeps at most one
    observation matrix alive at a time, and a subject with another voxel
    count is refused before any later one is read.  A binary subject
    from ``io.read_subjects`` is reduced from disk, one T x B column
    block at a time, so none of its T x V matrix is held.
    Under "global-min" the whitened reductions are only truncated.  Once
    the rows are final, the cross-covariance terms kept beside the
    estimates are freed, and each subject's sources replace its whitened
    data.  Peak memory is thus the larger of K*C*V for the whitened
    reductions plus the subject being reduced (one T x B block for a
    binary subject, its T x V matrix otherwise), and K*C*V + K*V: the
    whitened data and ``est`` during the sweeps, then the sources and
    the feature pass's stack of one slot's rows.
    """
    if config is None:
        config = AlgoConfig()
    if algorithm not in ("jpji", "jithica"):
        raise ValueError(f"unknown algorithm: {algorithm!r}")
    single = algorithm == "jithica"

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
    # The estimates of the slot being swept, one row per subject: est[j] =
    # coef[c][j] @ Z for the stacked whitened rows Z, and xcov[c] =
    # coef[c] @ cross (see ring_order2).  A slot's sweep rewrites every
    # holder's row before reading any, and no other row is read.
    est = np.zeros((n_sub, v))
    coef = [np.zeros((n_sub, cross.shape[0])) for _ in range(n_slots)]
    xcov = [np.zeros((n_sub, cross.shape[0])) for _ in range(n_slots)]
    traces: list[TraceRecord] = []
    # The last sweep's record of each subject's rows, in slot order.
    final_traces: list[list[TraceRecord]] = [[] for _ in range(n_sub)]

    def unit(j: int, a: np.ndarray) -> np.ndarray:
        """``a / sqrt(a R_jj a)``: the coefficients of ``a @ z0[j]`` at unit variance.

        The norm comes from the diagonal block ``R_jj`` of the whitened
        cross-covariance rather than from the voxels.  The rows of z0[j]
        are centered and uncorrelated with unit variance, and ``a`` is a
        unit row, so the scale is 1 to rounding and the estimate is
        standardized without a pass over it.
        """
        r_jj = cross[rows[j], rows[j]]
        return a / np.sqrt(a @ r_jj @ a)

    def put(c: int, j: int, a: np.ndarray) -> None:
        """Set est[j] to ``b @ z0[j]`` for ``b = unit(j, a)``, and coef[c][j] and xcov[c][j]."""
        b = unit(j, a)
        np.matmul(b, z0[j], out=est[j])
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
                    if single:
                        ring = peers[rng.permutation(peers.size)[:3]]
                    else:
                        # Strongest covariance with subject k's estimate first.
                        assoc = np.abs(xcov[c][peers] @ coef[c][k])
                        ring = peers[np.argsort(-assoc, kind="stable")]
                    order2 = ring_order2(xcov[c], coef[c], ring, rows[k])
                    cm = build_ring_cost(z0[k], est, ring, order2, WEIGHTS, frame)
                    if single:
                        # Ring position 0 of each order.  Copied: the eigen
                        # step and cost trace round differently on a strided view.
                        cm = CostMatrix(np.ascontiguousarray(cm.g[:, :: ring.size]))
                    lam, u_new = dominant_eigenvector(cm.g)
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

    if not single:
        _align_rows(u_work, final_traces, orders, coef, xcov)
    # A row's final cost is the last of its record's trace values.
    self_mode = np.zeros((n_slots, n_sub), dtype=bool)
    final_costs = np.full((n_slots, n_sub), np.nan)
    for records in final_traces:
        for t in records:
            self_mode[t.slot, t.subject] = t.mode == "self"
            final_costs[t.slot, t.subject] = t.costs[-1]
    for k in range(n_sub):
        for c in range(orders[k]):
            u = u_work[k][c]
            if _fix_sign(u) is not u:
                u *= -1.0
    subject_ids = [p.subject_id for p in pre]
    whiteners = [p.w_total for p in pre]
    row_means = [p.mean for p in pre]
    del pre, est, coef, xcov
    # Each subject's final sources, by put's arithmetic on its final rows,
    # so each is the estimate the last sweep wrote, negated where the sign
    # fix negated the row (negation is exact).  z0[k] is freed once its
    # rows exist, and the sources, of its size, take its place.
    sources = []
    for k in range(n_sub):
        src = np.empty((orders[k], v))
        for c in range(orders[k]):
            np.matmul(unit(k, u_work[k][c]), z0[k], out=src[c])
        sources.append(src)
        z0[k] = None
    del z0, cross
    feats = build_features(sources, WEIGHTS)
    # Unheld entries are NaN: the mean runs over the holders, and the
    # first finite kurtosis is the first holder's.
    mean_f = np.nanmean(feats.jpjif, axis=1)
    kurt_first = [row[np.isfinite(row)][0] for row in feats.kurtosis]
    slot_order = sorted(range(n_slots), key=lambda c: (-mean_f[c], -kurt_first[c], c))
    inverse = {c: i for i, c in enumerate(slot_order)}
    demixing = []
    for k in range(n_sub):
        own = [c for c in slot_order if c < orders[k]]
        demixing.append(u_work[k][own])
        if own != sorted(own):
            sources[k] = sources[k][own]
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
    u_work: list[np.ndarray],
    final_traces: list[list[TraceRecord]],
    orders: list[int],
    coef: list[np.ndarray],
    xcov: list[np.ndarray],
) -> None:
    """Re-match each subject's rows to the consensus slots, in place.

    The sweep cost is symmetric under exchanging two shared sources, so
    a single subject can converge with a pair of its rows transposed
    relative to everyone else.  The content is still correct, only the
    slot it sits in is wrong, which corrupts any per-slot statistic.
    Shared variance with the other subjects' rows identifies where each
    row belongs: solve, per subject, the assignment that maximizes total
    squared correlation between its rows and the slot consensus.

    ``coef[c]`` and ``xcov[c]`` hold the coefficients of slot c's
    estimates on the stacked whitened rows Z and their covariances with
    Z, as kept by ``run_jpji_ica``.  The correlation of subject d's
    slot-c estimate with subject k's slot-i estimate is
    ``xcov[c][d] @ coef[i][k]``, so one K x o product per slot
    correlates the subject's o rows with every subject's row in that
    slot and no voxel is read; the rows of slots a subject does not hold
    are zero and add nothing, and the subject's own row is zeroed.  The
    rows of ``coef``, ``xcov`` and ``u_work[k]`` move together, so the
    second pass sees the first pass's swaps.  ``final_traces[k]`` holds the last sweep's records of
    subject k's rows in slot order; each record moves, and takes the
    slot, with its row.
    """
    n_sub = len(orders)
    if n_sub < 2:
        return
    for _ in range(2):
        changed = False
        for k in range(n_sub):
            o = orders[k]
            if o < 2:
                continue
            b = np.stack([coef[c][k] for c in range(o)])
            sim = np.empty((o, o))
            for c in range(o):
                corr = xcov[c] @ b.T
                corr[k] = 0.0
                sim[c] = (corr**2).sum(axis=0)
            slots, picked = linear_sum_assignment(-sim)
            perm = np.empty(o, dtype=int)
            perm[slots] = picked
            if np.any(perm != np.arange(o)):
                changed = True
                for held in (coef, xcov):
                    moved = [held[p][k].copy() for p in perm]
                    for c in range(o):
                        held[c][k] = moved[c]
                u_work[k] = u_work[k][perm]
                final_traces[k] = [final_traces[k][p] for p in perm]
                for c, t in enumerate(final_traces[k]):
                    t.slot = c
        if not changed:
            break
