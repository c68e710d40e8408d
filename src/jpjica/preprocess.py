"""Per-subject order selection, PCA reduction and whitening.

The observation matrix is time-by-voxel; covariance is taken across
voxels (columns as samples), so order selection and reduction act on the
time dimension.  :func:`preprocess_subject` is the only step that reads a
subject's observations; :func:`resolve_orders` works on the reductions.
Observations are centred block by block (``numerics.centred_blocks``),
so no step here holds a second T x V array.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import OrderExceedsRank
from .numerics import centred_blocks, covariance, covariance_eig, inverse_sqrt_psd
from .types import SubjectDataset

_RANK_RTOL = 1e-12
# Largest model order the BIC search considers.
C_MAX = 60


@dataclass(frozen=True)
class PcaResult:
    """Top-order principal component scores of one observation matrix."""

    scores: np.ndarray
    loadings: np.ndarray
    mean: np.ndarray
    retained_variance: float


@dataclass(frozen=True)
class ReducedSubject:
    """PCA reduction of one subject, kept after its observations are dropped."""

    subject_id: str
    pca: PcaResult

    @property
    def n_voxels(self) -> int:
        return self.pca.scores.shape[1]


@dataclass(frozen=True)
class PreprocessedSubject:
    """Whitened reduction of one subject.

    z satisfies ``z = w_total @ (observations - mean[:, None])`` and has
    identity sample covariance.
    """

    subject_id: str
    z: np.ndarray
    w_total: np.ndarray
    mean: np.ndarray

    @property
    def n_components(self) -> int:
        return self.z.shape[0]


def _bic_order(lam: np.ndarray, v: int) -> int:
    n = lam.shape[0]
    hard_cap = min(n, v) - 1
    if hard_cap < 1:
        raise ValueError("BIC order selection needs at least 2 time points and 2 voxels")
    rank = int(np.sum(lam > _RANK_RTOL * max(lam[0], 0.0)))
    cap = max(1, min(C_MAX, hard_cap, rank))
    lam = np.clip(lam, 1e-300, None)
    best_c, best_bic = 1, np.inf
    for c in range(1, cap + 1):
        sigma2 = float(np.mean(lam[c:]))
        ll = float(np.sum(np.log(lam[:c]))) + (n - c) * np.log(max(sigma2, 1e-300))
        n_params = n * c - c * (c - 1) / 2 + 1
        bic = v * ll + n_params * np.log(v)
        if bic < best_bic:
            best_bic, best_c = bic, c
    return best_c


def estimate_order_bic(x: np.ndarray) -> int:
    """Model order via the probabilistic-PCA BIC score.

    The score of order c combines the log-likelihood of keeping the top c
    covariance eigenvalues (remaining variance pooled isotropically) with
    a parameter-count penalty; the minimizing c is returned.  The search
    is capped at ``C_MAX`` and at the numerical rank, so noiseless
    low-rank data yields its exact rank up to ``C_MAX``.
    """
    x = np.asarray(x, dtype=float)
    lam, _ = covariance_eig(x, x.mean(axis=1))
    return _bic_order(lam, x.shape[1])


def pca_reduce(x: np.ndarray, order: int | None = None) -> PcaResult:
    """Top-``order`` principal component scores (order x n_voxels).

    ``order=None`` takes the BIC order of :func:`estimate_order_bic`.  The
    order choice and the projection share one covariance
    eigendecomposition.  x is centred block by block twice, once for the
    covariance and once to project each block into the scores, so beyond
    x itself only the scores and one T x B block buffer are allocated.
    Loadings columns are sign-fixed so their largest-magnitude entry is
    positive, which pins the rotation ambiguity of eigendecompositions.
    """
    x = np.asarray(x, dtype=float)
    mean = x.mean(axis=1)
    lam, vecs = covariance_eig(x, mean)
    if order is None:
        order = _bic_order(lam, x.shape[1])
    if order < 1 or order > x.shape[0]:
        raise OrderExceedsRank(f"order {order} outside [1, {x.shape[0]}]")
    if lam[order - 1] <= _RANK_RTOL * max(lam[0], 0.0):
        raise OrderExceedsRank(f"order {order} exceeds numerical rank")
    loadings = vecs[:, :order].copy()
    for j in range(order):
        i = int(np.argmax(np.abs(loadings[:, j])))
        if loadings[i, j] < 0:
            loadings[:, j] = -loadings[:, j]
    total = float(np.sum(np.clip(lam, 0.0, None)))
    retained = float(np.sum(lam[:order]) / total) if total > 0 else 1.0
    lt = np.ascontiguousarray(loadings.T)
    scores = np.empty((order, x.shape[1]))
    for start, blk in centred_blocks(x, mean):
        scores[:, start : start + blk.shape[1]] = lt @ blk
    return PcaResult(scores=scores, loadings=loadings, mean=mean, retained_variance=retained)


def whiten(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Whitening transform of row signals: returns (z, w) with cov(z) = I."""
    x = np.asarray(x, dtype=float)
    w = inverse_sqrt_psd(covariance(x))
    z = w @ (x - x.mean(axis=1, keepdims=True))
    return z, w


def preprocess_subject(data: SubjectDataset, policy: int | str) -> ReducedSubject:
    """PCA reduction of one subject.

    A fixed order ``policy`` is used as given; under "auto-bic" and
    "global-min" the subject is reduced to its own BIC order, which
    :func:`resolve_orders` may lower afterwards.
    """
    order = policy if isinstance(policy, int) else None
    return ReducedSubject(data.subject_id, pca_reduce(data.observations, order))


def resolve_orders(
    subjects: Sequence[ReducedSubject], policy: int | str
) -> list[PreprocessedSubject]:
    """Apply the order policy to the reductions of all subjects, then whiten each.

    "global-min" truncates every reduction to the smallest order among
    them, which is exact because PCA score rows do not depend on how many
    are kept; a fixed order and "auto-bic" keep each subject's own order.
    """
    orders = [s.pca.scores.shape[0] for s in subjects]
    if policy == "global-min":
        orders = [min(orders)] * len(orders)
    elif not isinstance(policy, int) and policy != "auto-bic":
        raise ValueError(f"unknown order policy: {policy!r}")
    out = []
    for s, o in zip(subjects, orders):
        z, w = whiten(s.pca.scores[:o])
        out.append(PreprocessedSubject(s.subject_id, z, w @ s.pca.loadings[:, :o].T, s.pca.mean))
    return out
