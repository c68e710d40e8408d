"""Deflationary multi-subject extraction engine.

One "slot" c holds the c-th source estimate of every subject.  The
engine sweeps slot by slot and subject by subject: for each pair it
builds a quadratic cost from cross-cumulants between the subject's
whitened rows and the current partner estimates of the other subjects,
and takes the dominant eigenvector as the new demixing row.  Partner
updates are consumed immediately (most recent estimates win), and rows
are deflated out of the data only in the last sweep so that earlier
sweeps can still realign slots across subjects.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import repeat
from typing import Iterable

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import ConvergenceWarning, PartnerLengthMismatch, ZeroSource
from .numerics import (
    _fix_sign,
    cumulant_vectors_ring,
    dominant_eigenvector,
    excess_kurtosis,
    standardize,
)
from .preprocess import preprocess_subject, resolve_orders
from .seeding import rng_for
from .types import (
    AlgoConfig,
    Decomposition,
    PeerOrder,
    SubjectDataset,
    TraceRecord,
    validate_analysis_input,
)

# Calibrated against the independent-partner null: the largest cost of a
# slot carrying no shared information concentrates below
# c0 * sum(weights) * n_alpha * n_rows / n_samples (see the null test).
MODE_SWITCH_C0 = 6.0


@dataclass(frozen=True)
class CostMatrix:
    """Quadratic cost for one extraction.

    ``m`` is symmetric positive semi-definite; ``contributions[alpha, j]``
    is the weighted squared norm of the cumulant vector at ring position
    alpha and order (2, 3, 4)[j], i.e. the trace of that term of m.
    """

    m: np.ndarray
    contributions: np.ndarray

    @property
    def n_alpha(self) -> int:
        return self.contributions.shape[0]


def build_cost_matrix(
    z: np.ndarray,
    partners: np.ndarray,
    weights: tuple[float, float, float],
    alphas: str = "all",
) -> CostMatrix:
    """Cumulant cost matrix of ``z`` rows against a ring of partner rows.

    Ring position alpha contributes the outer products of the order-2/3/4
    cumulant vectors of z against partners alpha, (alpha, alpha+1), and
    (alpha, alpha+1, alpha+2), indices wrapping modulo the partner count.
    ``alphas="first"`` restricts to the single position alpha=0 (the
    one-tuple variant).  This is the only place where the order weights
    meet the cumulant vectors: slot ordering and the JpJI-feature both
    read their cost from ``contributions``.

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
    cv2, cv3, cv4 = cumulant_vectors_ring(z, partners)
    if alphas == "first":
        cv2, cv3, cv4 = cv2[:, :1], cv3[:, :1], cv4[:, :1]
    w2, w3, w4 = weights
    m = w2 * cv2 @ cv2.T + w3 * cv3 @ cv3.T + w4 * cv4 @ cv4.T
    m = (m + m.T) / 2.0
    contributions = np.stack(
        [
            w2 * np.einsum("ij,ij->j", cv2, cv2),
            w3 * np.einsum("ij,ij->j", cv3, cv3),
            w4 * np.einsum("ij,ij->j", cv4, cv4),
        ],
        axis=1,
    )
    return CostMatrix(m=m, contributions=contributions)


def cost(u: np.ndarray, cm: CostMatrix) -> float:
    """Quadratic cost of a candidate demixing row."""
    u = np.asarray(u, dtype=float)
    return float(u @ cm.m @ u)


def inner_extract(
    z: np.ndarray,
    weights: tuple[float, float, float],
    u_init: np.ndarray,
    eps0: float = 1e-6,
    max_inner: int = 200,
) -> tuple[float, np.ndarray, list[float], bool]:
    """Self-mode extraction of one demixing row; returns (cost, u, trace, converged).

    The row's own estimate is the partner: the cost matrix is rebuilt
    from the current estimate each iteration until
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
        lam_new, u_new = dominant_eigenvector(cm.m)
        # Ascent guard: at the fixed point the eigenvalue of the rebuilt
        # matrix can wobble below its predecessor by O(eps0 * cost); a
        # non-improving step means there is nothing left to gain, so keep
        # the previous iterate.  The first eigen step is always taken (it
        # maximizes the very matrix the starting cost was measured on).
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


def deflate(z: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Regress ``y`` out of every row of ``z``; returns (z', coefficients)."""
    y = np.asarray(y, dtype=float).ravel()
    nrm2 = float(y @ y)
    if nrm2 < 1e-300:
        raise ZeroSource("cannot deflate by a null source")
    coef = z @ y / nrm2
    return z - np.outer(coef, y), coef


def mode_switch_threshold(
    weights: tuple[float, float, float],
    n_alpha: int,
    n_rows: int,
    n_samples: int,
    n_partners: int | None = None,
) -> float:
    """Cost floor separating informative partners from the null.

    With fewer than three partners the ring repeats rows, so the
    order-3/4 entries of an uninformative cost matrix have inflated null
    variance (a partner multiplied by itself); the per-order factors
    below upper-bound that inflation.
    """
    w2, w3, w4 = (float(w) for w in weights)
    if n_partners is None or n_partners >= 3:
        scale = w2 + w3 + w4
    elif n_partners == 2:
        scale = w2 + w3 + 3.0 * w4
    else:
        scale = w2 + 3.0 * w3 + 6.0 * w4
    return MODE_SWITCH_C0 * scale * n_alpha * n_rows / n_samples


def _decollide(u: np.ndarray, prior: list[np.ndarray]) -> np.ndarray:
    """Project ``u`` off the span of prior rows and renormalize."""
    if not prior:
        nrm = float(np.linalg.norm(u))
        return u / nrm
    q, _ = np.linalg.qr(np.stack(prior, axis=1))
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


def run_jpji_ica(
    datasets: Iterable[SubjectDataset],
    config: AlgoConfig | None = None,
    algorithm: str = "jpji",
) -> Decomposition:
    """Full multi-subject decomposition.

    Sweeps slots and subjects ``config.max_outer`` times.  At the start
    of each slot every subject's current row is re-orthogonalized against
    its earlier slots, which keeps slots from collapsing onto the same
    source while no deflation has happened yet.  In the last sweep each
    extracted source is regressed out of its subject's data immediately,
    and the demixing rows are accumulated back into the original whitened
    frame.  After the last sweep each subject's rows are re-matched to
    the consensus slots (see ``_align_rows``) and slots of the result are
    ordered by decreasing mean final cost across subjects.

    ``algorithm="jithica"`` switches to the single-tuple variant: each
    extraction uses one random partner tuple (up to three peers) instead
    of the full peer ring, and a threshold on the resulting cost decides
    between joint extraction and self-mode extraction.

    ``datasets`` is iterated once, and each subject is reduced before the
    next is requested: a lazy iterable (``io.read_subjects``) keeps one
    observation matrix alive at a time.
    """
    if config is None:
        config = AlgoConfig()
    if algorithm not in ("jpji", "jithica"):
        raise ValueError(f"unknown algorithm: {algorithm!r}")
    # Unlike a loop variable, map holds no subject once it is reduced.
    reduced = list(map(preprocess_subject, datasets, repeat(config.n_components)))
    validate_analysis_input(reduced)
    pre = resolve_orders(reduced, config.n_components)
    orders = [p.n_components for p in pre]
    n_sub = len(pre)
    n_slots = max(orders)
    v = pre[0].z.shape[1]
    weights = tuple(float(w) for w in config.weights)
    rng = rng_for(config.seed, "engine")

    z0 = [p.z for p in pre]
    u_work = [np.eye(o) for o in orders]
    u_eff = [np.zeros((o, o)) for o in orders]
    y_cur = [np.zeros((o, v)) for o in orders]
    traces: list[TraceRecord] = []
    self_mode = np.zeros((n_slots, n_sub), dtype=bool)
    final_costs = np.full((n_slots, n_sub), np.nan)

    for sweep in range(1, config.max_outer + 1):
        final = sweep == config.max_outer
        if final:
            z_work = [z.copy() for z in z0]
            g_acc = [np.eye(o) for o in orders]
        for c in range(n_slots):
            holders = [k for k in range(n_sub) if c < orders[k]]
            for j in holders:
                prior_rows = (
                    [u_eff[j][i] for i in range(c)] if final else [u_work[j][i] for i in range(c)]
                )
                u_dec = _decollide(u_work[j][c], prior_rows)
                u_work[j][c] = u_dec
                y_cur[j][c] = standardize(u_dec @ z0[j])
            for k in holders:
                peers = [j for j in holders if j != k]
                order: PeerOrder | None = None
                if peers:
                    perm = rng.permutation(len(peers))
                    if algorithm == "jithica":
                        perm = perm[:3]
                    order = PeerOrder(tuple(int(peers[i]) for i in perm))
                zk = z_work[k] if final else z0[k]
                u0 = u_work[k][c]
                mode = "self"
                if order is not None and order.n > 0:
                    pool = np.stack([y_cur[j][c] for j in order.order])
                    alphas = "first" if algorithm == "jithica" else "all"
                    cm = build_cost_matrix(zk, pool, weights, alphas=alphas)
                    lam, u_new = dominant_eigenvector(cm.m)
                    n_alpha = cm.n_alpha
                    if algorithm == "jithica" and not isinstance(config.sigma0, str):
                        floor = float(config.sigma0)
                    elif not isinstance(config.mode_switch, str):
                        floor = float(config.mode_switch)
                    else:
                        floor = mode_switch_threshold(
                            weights, n_alpha, zk.shape[0], v, n_partners=order.n
                        )
                    if lam >= floor:
                        mode = "joint"
                        trace_vals = [cost(u0, cm), lam]
                        u_fin, lam_fin, converged = u_new, lam, True
                if mode == "self":
                    lam_fin, u_fin, trace_vals, converged = inner_extract(
                        zk, weights, u0, eps0=config.eps0, max_inner=config.max_inner
                    )
                u_work[k][c] = u_fin
                y_raw = u_fin @ zk
                y_cur[k][c] = standardize(y_raw)
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
                    self_mode[c, k] = mode == "self"
                    final_costs[c, k] = lam_fin
                    eff = u_fin @ g_acc[k]
                    u_eff[k][c] = eff / np.linalg.norm(eff)
                    z_work[k], coef = deflate(z_work[k], y_raw)
                    g_acc[k] = (np.eye(orders[k]) - np.outer(coef, u_fin)) @ g_acc[k]

    if algorithm == "jpji":
        _align_rows(y_cur, u_eff, final_costs, self_mode, orders)
    slot_order = _order_slots(y_cur, orders, weights)
    inverse = {c: i for i, c in enumerate(slot_order)}
    demixing, sources = [], []
    for k in range(n_sub):
        own = [c for c in slot_order if c < orders[k]]
        rows, outs = [], []
        for c in own:
            u_row = _fix_sign(u_eff[k][c])
            rows.append(u_row)
            outs.append(standardize(u_row @ z0[k]))
        demixing.append(np.stack(rows))
        sources.append(np.stack(outs))
    for t in traces:
        t.slot = inverse[t.slot]
    return Decomposition(
        subject_ids=[p.subject_id for p in pre],
        whiteners=[p.w_total for p in pre],
        row_means=[p.mean for p in pre],
        z=z0,
        demixing=demixing,
        sources=sources,
        extraction_costs=final_costs[slot_order, :],
        self_mode=self_mode[slot_order, :],
        traces=traces,
        config=config,
        algorithm=algorithm,
    )


def _align_rows(
    y_cur: list[np.ndarray],
    u_eff: list[np.ndarray],
    final_costs: np.ndarray,
    self_mode: np.ndarray,
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
    """
    n_sub = len(y_cur)
    if n_sub < 2:
        return
    v = y_cur[0].shape[1]
    for _ in range(2):
        changed = False
        for k in range(n_sub):
            o = orders[k]
            if o < 2:
                continue
            rows = y_cur[k]
            sim = np.zeros((o, o))
            for j in range(n_sub):
                if j == k:
                    continue
                oj = min(o, orders[j])
                corr = (y_cur[j][:oj] @ rows.T) / v
                sim[:oj] += corr**2
            slots, picked = linear_sum_assignment(-sim)
            perm = np.empty(o, dtype=int)
            perm[slots] = picked
            if np.any(perm != np.arange(o)):
                changed = True
                y_cur[k] = y_cur[k][perm]
                u_eff[k] = u_eff[k][perm]
                final_costs[:o, k] = final_costs[perm, k]
                self_mode[:o, k] = self_mode[perm, k]
        if not changed:
            break


def _order_slots(
    y_cur: list[np.ndarray], orders: list[int], weights: tuple[float, float, float]
) -> list[int]:
    """Slots sorted by decreasing mean peer-ring cost.

    Self-mode extraction costs are not comparable with peer costs (a
    source's own cumulants enter), so the ordering key is recomputed for
    every slot from the final estimates over the canonical peer ring;
    kurtosis of the first holder's estimate breaks ties.
    """
    n_slots = max(orders) if orders else 0
    means = np.zeros(n_slots)
    kurt = np.zeros(n_slots)
    for c in range(n_slots):
        holders = [k for k in range(len(orders)) if c < orders[k]]
        if not holders:
            continue
        kurt[c] = excess_kurtosis(y_cur[holders[0]][c])
        vals = []
        for k in holders:
            peers = [j for j in holders if j != k]
            yc = y_cur[k][c][None, :]
            pool = np.stack([y_cur[j][c] for j in peers]) if peers else yc
            vals.append(float(build_cost_matrix(yc, pool, weights).contributions.sum()))
        means[c] = float(np.mean(vals))
    return sorted(range(n_slots), key=lambda c: (-means[c], -kurt[c], c))
