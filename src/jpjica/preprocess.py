"""Per-subject order selection, PCA reduction and whitening.

The observation matrix is time-by-voxel; covariance is taken across
voxels (columns as samples), so order selection and reduction act on the
time dimension.  :func:`preprocess_subject` is the only step that reads a
subject's observations: one covariance eigendecomposition gives the BIC
order and the PCA scores, and scaling each score row to unit variance
whitens them (PCA scores are already uncorrelated).  The rows stay white
when later ones are dropped, so :func:`resolve_orders` only truncates.

Every reduction here is one routine over a subject's column blocks of
``_CENTRE_BLOCK_COLS``, in two passes through one reused T x B buffer:
the finite check, the row means and the covariance, then the
projection.  A subject held in memory serves views of its array; a
binary subject on disk (``io.BinarySubject``) reads the blocks from its
file, so its T x V matrix is never held.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import OrderExceedsRank
from .numerics import _fix_sign
from .types import Observations, SubjectDataset, check_finite

_RANK_RTOL = 1e-12
# Voxel columns per block of the covariance and projection passes; the
# fastest width measured for both at T=150, V up to 65536.
_CENTRE_BLOCK_COLS = 4096
# Largest model order the BIC search considers.
C_MAX = 60


@dataclass(frozen=True)
class PcaResult:
    """Top-order principal component scores of one observation matrix."""

    scores: np.ndarray
    loadings: np.ndarray
    mean: np.ndarray


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

    @property
    def n_voxels(self) -> int:
        return self.z.shape[1]


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
    low-rank data yields its exact rank up to ``C_MAX``; data of rank 0
    raises OrderExceedsRank.
    """
    return pca_reduce(x).scores.shape[0]


def pca_reduce(x: np.ndarray, order: int | None = None) -> PcaResult:
    """Top-``order`` principal component scores (order x n_voxels).

    ``order=None`` takes the BIC order of :func:`estimate_order_bic`.  A
    NaN or Inf in x raises NonFiniteData.  See :func:`_reduce`.
    """
    return _reduce(SubjectDataset(subject_id="array", observations=x), order)


def _reduce(obs: Observations, order: int | None) -> PcaResult:
    """Top-``order`` PCA of one subject's observations, in two passes.

    1. Each column block is checked for NaN/Inf and shifted by the first
       block's row means; the shifted products S and row sums s give the
       row means ``shift + d`` and the covariance ``S/V - d d^T``, with
       ``d = s/V`` (Chan, Golub & LeVeque 1983).  Its
       eigendecomposition also gives the BIC order when ``order`` is
       None.
    2. Each block, centred by the row means, is projected into the
       scores.

    The first block's means are within sqrt(V/B) standard deviations of
    the row means, so the shift cancels at most a factor 1 + V/B of the
    covariance's precision.  Beyond the blocks ``obs`` serves, only the
    scores and one T x B block buffer are allocated.  Loadings columns
    are sign-fixed so their largest-magnitude entry is positive, which
    pins the rotation ambiguity of eigendecompositions.
    """
    n_time, n_voxels = obs.n_time, obs.n_voxels
    buf = np.empty((n_time, min(n_voxels, _CENTRE_BLOCK_COLS)))
    shift = None
    sums = np.zeros(n_time)
    r = np.zeros((n_time, n_time))
    for _, raw in obs.column_blocks(buf):
        check_finite(obs.subject_id, raw)
        if shift is None:
            shift = raw.mean(axis=1)
        blk = buf[:, : raw.shape[1]]
        np.subtract(raw, shift[:, None], out=blk)
        sums += blk.sum(axis=1)
        r += blk @ blk.T
    d = sums / n_voxels
    mean = shift + d
    r = r / n_voxels - np.outer(d, d)
    lam, vecs = np.linalg.eigh((r + r.T) / 2.0)
    lam, vecs = lam[::-1], vecs[:, ::-1]
    if order is None:
        order = _bic_order(lam, n_voxels)
    if order < 1 or order > n_time:
        raise OrderExceedsRank(f"order {order} outside [1, {n_time}]")
    if lam[order - 1] <= _RANK_RTOL * max(lam[0], 0.0):
        raise OrderExceedsRank(f"order {order} exceeds numerical rank")
    loadings = np.stack([_fix_sign(vecs[:, j]) for j in range(order)], axis=1)
    lt = np.ascontiguousarray(loadings.T)
    scores = np.empty((order, n_voxels))
    for start, raw in obs.column_blocks(buf):
        blk = buf[:, : raw.shape[1]]
        np.subtract(raw, mean[:, None], out=blk)
        scores[:, start : start + blk.shape[1]] = lt @ blk
    return PcaResult(scores=scores, loadings=loadings, mean=mean)


def _unit_variance(pca: PcaResult) -> tuple[np.ndarray, np.ndarray]:
    """Whitened rows and whitener of a reduction: each score row over its RMS.

    The measured RMS, not the square root of the eigenvalue, keeps
    cov(z) = I to rounding when the kept eigenvalues span many decades.
    """
    s = pca.scores
    rms = np.sqrt(np.einsum("ij,ij->i", s, s) / s.shape[1])[:, None]
    return s / rms, pca.loadings.T / rms


def whiten(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Whitening transform of row signals: returns (z, w) with cov(z) = I.

    z = w @ (x - mean) is the full-order PCA of x scaled to unit variance;
    a rank-deficient x raises OrderExceedsRank.
    """
    x = np.asarray(x, dtype=float)
    return _unit_variance(pca_reduce(x, x.shape[0]))


def preprocess_subject(data: Observations, policy: int | str) -> PreprocessedSubject:
    """Whitened PCA reduction of one subject, in memory or on disk.

    A fixed order ``policy`` is used as given; under "auto-bic" and
    "global-min" the subject is reduced to its own BIC order, which
    :func:`resolve_orders` may lower afterwards.
    """
    order = policy if isinstance(policy, int) else None
    pca = _reduce(data, order)
    z, w = _unit_variance(pca)
    return PreprocessedSubject(data.subject_id, z, w, pca.mean)


def resolve_orders(
    subjects: Sequence[PreprocessedSubject], policy: int | str
) -> list[PreprocessedSubject]:
    """Apply the order policy to the whitened reductions of all subjects.

    "global-min" keeps the first rows of every reduction, as many as the
    smallest order among them; PCA score rows do not depend on how many
    are kept, and each is whitened on its own, so this is exact.  The
    kept rows are copied, so the larger reductions can be freed.  A fixed
    order and "auto-bic" keep each subject's own order.
    """
    if policy == "global-min":
        o = min(s.n_components for s in subjects)
        return [
            s if s.n_components == o
            else PreprocessedSubject(s.subject_id, s.z[:o].copy(), s.w_total[:o].copy(), s.mean)
            for s in subjects
        ]
    if not isinstance(policy, int) and policy != "auto-bic":
        raise ValueError(f"unknown order policy: {policy!r}")
    return list(subjects)
