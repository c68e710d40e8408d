"""Per-subject order selection, PCA reduction and whitening.

The observation matrix is time-by-voxel; covariance is taken across
voxels (columns as samples), so order selection and reduction act on the
time dimension.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import OrderExceedsRank
from .numerics import covariance, covariance_eig, inverse_sqrt_psd
from .types import SubjectDataset

_RANK_RTOL = 1e-12


@dataclass(frozen=True)
class PcaResult:
    """Top-order principal component scores of one observation matrix."""

    scores: np.ndarray
    loadings: np.ndarray
    mean: np.ndarray
    retained_variance: float


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
    order: int
    retained_variance: float

    @property
    def n_components(self) -> int:
        return self.z.shape[0]


def _observations_and_eig(
    data: SubjectDataset | np.ndarray,
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Observation matrix and its descending covariance eigenpairs.

    A SubjectDataset keeps its eigenpairs, so BIC order selection and PCA
    of the same subject decompose its covariance once; a raw array is
    decomposed on every call.
    """
    if isinstance(data, SubjectDataset):
        return data.observations, data.covariance_eig
    x = np.asarray(data, dtype=float)
    return x, covariance_eig(x)


def estimate_order_bic(data: SubjectDataset | np.ndarray, c_max: int | None = None) -> int:
    """Model order via the probabilistic-PCA BIC score.

    The score of order c combines the log-likelihood of keeping the top c
    covariance eigenvalues (remaining variance pooled isotropically) with
    a parameter-count penalty; the minimizing c is returned.  The search
    is capped at the numerical rank, so noiseless low-rank data yields
    its exact rank.
    """
    x, (lam, _) = _observations_and_eig(data)
    n, v = x.shape
    hard_cap = min(n, v) - 1
    if c_max is None:
        c_max = min(hard_cap, 60)
    if not 1 <= c_max <= hard_cap:
        raise ValueError(f"c_max must lie in [1, {hard_cap}]")
    rank = int(np.sum(lam > _RANK_RTOL * max(lam[0], 0.0)))
    cap = max(1, min(c_max, rank))
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


def pca_reduce(data: SubjectDataset | np.ndarray, order: int) -> PcaResult:
    """Top-``order`` principal component scores (order x n_voxels).

    Loadings columns are sign-fixed so their largest-magnitude entry is
    positive, which pins the rotation ambiguity of eigendecompositions.
    """
    x, (lam, vecs) = _observations_and_eig(data)
    if order < 1 or order > x.shape[0]:
        raise OrderExceedsRank(f"order {order} outside [1, {x.shape[0]}]")
    if lam[order - 1] <= _RANK_RTOL * max(lam[0], 0.0):
        raise OrderExceedsRank(f"order {order} exceeds numerical rank")
    loadings = vecs[:, :order].copy()
    for j in range(order):
        i = int(np.argmax(np.abs(loadings[:, j])))
        if loadings[i, j] < 0:
            loadings[:, j] = -loadings[:, j]
    mean = x.mean(axis=1)
    scores = loadings.T @ (x - mean[:, None])
    total = float(np.sum(np.clip(lam, 0.0, None)))
    retained = float(np.sum(lam[:order]) / total) if total > 0 else 1.0
    return PcaResult(scores=scores, loadings=loadings, mean=mean, retained_variance=retained)


def whiten(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Whitening transform of row signals: returns (z, w) with cov(z) = I."""
    x = np.asarray(x, dtype=float)
    w = inverse_sqrt_psd(covariance(x))
    z = w @ (x - x.mean(axis=1, keepdims=True))
    return z, w


def preprocess_subject(data: SubjectDataset, order: int) -> PreprocessedSubject:
    """PCA reduction to ``order`` followed by whitening."""
    pca = pca_reduce(data, order)
    z, w = whiten(pca.scores)
    return PreprocessedSubject(
        subject_id=data.subject_id,
        z=z,
        w_total=w @ pca.loadings.T,
        mean=pca.mean,
        order=order,
        retained_variance=pca.retained_variance,
    )


def resolve_orders(
    datasets: Sequence[SubjectDataset], policy: int | str, c_max: int | None = None
) -> list[int]:
    """Per-subject model orders under the configured selection policy."""
    if isinstance(policy, int):
        return [policy] * len(datasets)
    orders = [estimate_order_bic(ds, c_max) for ds in datasets]
    if policy == "global-min":
        return [min(orders)] * len(datasets)
    if policy == "auto-bic":
        return orders
    raise ValueError(f"unknown order policy: {policy!r}")
