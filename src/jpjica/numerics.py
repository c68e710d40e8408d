"""Low-level statistical kernels: cumulants, eigen, clustering, tests.

All estimators treat the columns of a matrix (or the entries of a
vector) as equally weighted samples; moments are population-normalized
(divide by V, not V-1) so that whitened data has exactly unit sample
covariance.  The ring kernel ``cumulant_vectors_ring`` is the only
cumulant estimator; it sits on the engine's hot path and does not
re-center, so its inputs must already be row-centered.
"""
from __future__ import annotations

import numpy as np
from scipy.special import stdtr

from .errors import (
    DegenerateSampleCount,
    InsufficientSamples,
    InvalidQ,
    NonFinite,
    NotSymmetric,
    PartnerLengthMismatch,
    SingularCovariance,
    TooFewPoints,
    ZeroSource,
)

# Working-set budget of the ring kernel's per-block buffer (see _ring_block_width).
_RING_BLOCK_BYTES = 2**19


def standardize(x: np.ndarray) -> np.ndarray:
    """Return x shifted to zero mean and scaled to unit population variance."""
    x = np.asarray(x, dtype=float)
    c = x - x.mean()
    s = np.sqrt(np.mean(c * c))
    if s < 1e-300 or not np.isfinite(s):
        raise ZeroSource("cannot standardize a (near-)constant vector")
    return c / s


def _ring_block_width(n_partners: int) -> int:
    """Voxel columns per block of :func:`cumulant_vectors_ring`.

    The per-block product buffer holds 3 * n_partners rows of doubles;
    the width keeps it near ``_RING_BLOCK_BYTES`` (inside a per-core L2
    cache) and never below 256 columns, so small rings still get long
    enough rows for the BLAS product.
    """
    return max(256, _RING_BLOCK_BYTES // (24 * n_partners))


def _times_ring_shift(a: np.ndarray, rows: np.ndarray, shift: int, out: np.ndarray) -> None:
    """out[i] = a[i] * rows[(i + shift) % n], without copying ``rows``."""
    n = rows.shape[0]
    s = shift % n
    np.multiply(a[: n - s], rows[s:], out=out[: n - s])
    np.multiply(a[n - s :], rows[:s], out=out[n - s :])


def cumulant_vectors_ring(
    zc: np.ndarray, partners: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All order-2/3/4 cumulant vectors over a ring of partner rows.

    For n partner rows, position alpha uses partners alpha, alpha+1, ...
    wrapping modulo n, so entry (i, alpha) of the order-eta output is the
    sample cross-cumulant of zc[i] with partners alpha, ..., alpha+eta-2.
    The outputs are (C, n) matrices, one column per ring position.

    Both ``zc`` and ``partners`` must already be row-centered (whitened
    data, deflated data and standardized estimates all are); nothing is
    re-centered here.  The voxel axis is walked once, in blocks of
    ``min(V, _ring_block_width(n))`` columns.  Each block fills one reused
    (3n x B) buffer with the partners p, the pair products p[a] p[a+1] and
    the triple products p[a] p[a+1] p[a+2], and a single product with the
    block of ``zc`` accumulates all three orders.  The partner pair
    moments q01 and q02 come from the same buffer, and the order-4
    corrections are applied once, at the end, on the small (C x n)
    results, with ring index arrays in place of shifted copies.
    """
    zc = np.asarray(zc, dtype=float)
    p = np.asarray(partners, dtype=float)
    if p.ndim != 2 or p.shape[0] == 0 or p.shape[1] != zc.shape[1]:
        raise PartnerLengthMismatch("need partner rows matching the sample count of z")
    n, v = p.shape
    width = max(1, min(v, _ring_block_width(n)))
    buf = np.empty((3 * n, width))
    ones = np.ones(width)
    moments = np.zeros((zc.shape[0], 3 * n))
    q01 = np.zeros(n)
    q02 = np.zeros(n)
    s = 2 % n
    for start in range(0, v, width):
        b = min(width, v - start)
        blk, pair, triple = buf[:n, :b], buf[n : 2 * n, :b], buf[2 * n :, :b]
        blk[...] = p[:, start : start + b]
        _times_ring_shift(blk, blk, 1, pair)
        _times_ring_shift(pair, blk, 2, triple)
        q01 += pair @ ones[:b]
        q02[: n - s] += np.einsum("ij,ij->i", blk[: n - s], blk[s:])
        q02[n - s :] += np.einsum("ij,ij->i", blk[n - s :], blk[:s])
        moments += zc[:, start : start + b] @ buf[:, :b].T
    moments /= v
    q01 /= v
    q02 /= v
    i1 = (np.arange(n) + 1) % n
    i2 = (np.arange(n) + 2) % n
    cv2 = moments[:, :n]
    cv3 = moments[:, n : 2 * n]
    cv4 = (
        moments[:, 2 * n :]
        - cv2 * q01[i1][None, :]
        - cv2[:, i1] * q02[None, :]
        - cv2[:, i2] * q01[None, :]
    )
    return cv2, cv3, cv4


def excess_kurtosis(x: np.ndarray) -> float:
    """Fourth standardized cumulant (0 for Gaussian data)."""
    c = np.asarray(x, dtype=float).ravel()
    c = c - c.mean()
    m2 = np.mean(c * c)
    if m2 < 1e-300:
        raise ZeroSource("kurtosis undefined for a constant vector")
    return float(np.mean(c**4) / m2**2 - 3.0)


def _fix_sign(u: np.ndarray) -> np.ndarray:
    """Flip so the largest-magnitude entry is positive."""
    i = int(np.argmax(np.abs(u)))
    return -u if u[i] < 0 else u


def dominant_eigenvector(m: np.ndarray) -> tuple[float, np.ndarray]:
    """Largest eigenvalue and unit eigenvector of a symmetric matrix.

    Degenerate top eigenvalues are resolved deterministically: within the
    tied eigenspace the (normalized) projection of the lowest-index basis
    vector with a nonvanishing projection is returned.  The sign makes
    the largest-magnitude entry positive.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NotSymmetric("matrix must be square")
    if not np.isfinite(m).all():
        raise NonFinite("matrix contains NaN/Inf")
    scale = max(1.0, float(np.abs(m).max()))
    if np.abs(m - m.T).max() > 1e-10 * scale:
        raise NotSymmetric("matrix is not symmetric within tolerance")
    w, e = np.linalg.eigh((m + m.T) / 2.0)
    lam = float(w[-1])
    tie = w >= lam - 1e-12 * max(1.0, abs(lam))
    basis = e[:, tie]
    if basis.shape[1] == 1:
        return lam, _fix_sign(basis[:, 0])
    for i in range(m.shape[0]):
        proj = basis @ basis[i, :]
        nrm = float(np.linalg.norm(proj))
        if nrm > 1e-8:
            return lam, _fix_sign(proj / nrm)
    return lam, _fix_sign(basis[:, 0])


def covariance(x: np.ndarray) -> np.ndarray:
    """Population covariance of the rows of x (columns are samples)."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise DegenerateSampleCount("x must be 2-D")
    if x.shape[1] < 2:
        raise DegenerateSampleCount("need at least 2 samples")
    xc = x - x.mean(axis=1, keepdims=True)
    r = xc @ xc.T / x.shape[1]
    return (r + r.T) / 2.0


def covariance_eig(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of :func:`covariance` of the rows of x, largest first.

    The returned arrays are read-only, so one result can be shared.
    """
    w, e = np.linalg.eigh(covariance(x))
    w, e = w[::-1].copy(), e[:, ::-1].copy()
    w.flags.writeable = False
    e.flags.writeable = False
    return w, e


def inverse_sqrt_psd(r: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Inverse symmetric square root of a positive definite matrix."""
    r = np.asarray(r, dtype=float)
    scale = max(1.0, float(np.abs(r).max()))
    if np.abs(r - r.T).max() > 1e-10 * scale:
        raise NotSymmetric("matrix is not symmetric within tolerance")
    w, e = np.linalg.eigh((r + r.T) / 2.0)
    floor = tol * max(float(w[-1]), 0.0)
    if w[0] <= floor or w[-1] <= 0.0:
        raise SingularCovariance(
            f"eigenvalue {w[0]:.3e} below tolerance {floor:.3e}"
        )
    return (e * (1.0 / np.sqrt(w))) @ e.T


def kmeans(
    points: np.ndarray,
    k: int,
    seed: int = 0,
    n_restarts: int = 20,
    max_iter: int = 100,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Seeded k-means with multiple restarts; best inertia wins.

    Initialization is distance-weighted (k-means++ style) per restart;
    iteration stops when assignments are stable.  Labels are renumbered
    by first occurrence, so the output is deterministic for a fixed seed.

    Returns (labels, centers, inertia).
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    n = pts.shape[0]
    if np.unique(pts, axis=0).shape[0] < k:
        raise TooFewPoints(f"need at least {k} distinct points")
    rng = np.random.default_rng(seed)
    best: tuple[float, np.ndarray, np.ndarray] | None = None
    for _ in range(n_restarts):
        centers = _kpp_init(pts, k, rng)
        labels = np.zeros(n, dtype=int)
        for _ in range(max_iter):
            d2 = ((pts[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
            new_labels = d2.argmin(axis=1)
            for j in range(k):
                sel = new_labels == j
                if sel.any():
                    centers[j] = pts[sel].mean(axis=0)
                else:
                    centers[j] = pts[d2.min(axis=1).argmax()]
            if (new_labels == labels).all():
                labels = new_labels
                break
            labels = new_labels
        d2 = ((pts[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        labels = d2.argmin(axis=1)
        inertia = float(d2[np.arange(n), labels].sum())
        if best is None or inertia < best[0] - 1e-12:
            best = (inertia, labels.copy(), centers.copy())
    inertia, labels, centers = best
    remap: dict[int, int] = {}
    for lab in labels:
        if int(lab) not in remap:
            remap[int(lab)] = len(remap)
    for j in range(k):
        if j not in remap:
            remap[j] = len(remap)
    new_labels = np.array([remap[int(l)] for l in labels], dtype=int)
    new_centers = np.empty_like(centers)
    for old, new in remap.items():
        new_centers[new] = centers[old]
    return new_labels, new_centers, inertia


def _kpp_init(pts: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = pts.shape[0]
    centers = np.empty((k, pts.shape[1]), dtype=float)
    centers[0] = pts[rng.integers(n)]
    d2 = ((pts - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=d2 / total))
        centers[j] = pts[idx]
        d2 = np.minimum(d2, ((pts - centers[j]) ** 2).sum(axis=1))
    return centers


def silhouette(points: np.ndarray, labels: np.ndarray) -> float:
    """Mean silhouette width; singleton clusters score zero."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    labels = np.asarray(labels, dtype=int)
    uniq = np.unique(labels)
    if uniq.size < 2:
        return 0.0
    d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
    scores = np.zeros(pts.shape[0])
    for i in range(pts.shape[0]):
        same = labels == labels[i]
        if same.sum() <= 1:
            continue
        a = d[i, same].sum() / (same.sum() - 1)
        b = np.inf
        for lab in uniq:
            if lab == labels[i]:
                continue
            sel = labels == lab
            b = min(b, d[i, sel].mean())
        denom = max(a, b)
        scores[i] = 0.0 if denom == 0 else (b - a) / denom
    return float(scores.mean())


def welch_t_columns(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column-wise Welch test (unequal variances) of two groups of rows.

    Returns (t, two-sided p) arrays, one entry per column.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    na, nb = a.shape[0], b.shape[0]
    if na < 2 or nb < 2:
        raise InsufficientSamples("each group needs at least 2 rows")
    sa = a.var(axis=0, ddof=1) / na
    sb = b.var(axis=0, ddof=1) / nb
    se2 = sa + sb
    diff = a.mean(axis=0) - b.mean(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(se2 > 0, diff / np.sqrt(np.where(se2 > 0, se2, 1.0)), 0.0)
        t = np.where((se2 <= 0) & (diff != 0), np.inf * np.sign(diff), t)
        df = np.where(
            se2 > 0,
            se2**2
            / (
                np.where(sa > 0, sa**2 / (na - 1), 0.0)
                + np.where(sb > 0, sb**2 / (nb - 1), 0.0)
                + 1e-300
            ),
            1.0,
        )
    df = np.clip(df, 1.0, None)
    p = np.where(np.isinf(t), 0.0, 2.0 * stdtr(df, -np.abs(np.where(np.isinf(t), 0.0, t))))
    p = np.where((se2 <= 0) & (diff == 0), 1.0, p)
    return t, np.clip(p, 0.0, 1.0)


def one_sample_t_columns(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column-wise one-sample t-test against zero mean; returns (t, p)."""
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    if n < 2:
        raise InsufficientSamples("need at least 2 rows")
    mean = a.mean(axis=0)
    var = a.var(axis=0, ddof=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(var > 0, mean / np.sqrt(np.where(var > 0, var, 1.0) / n), 0.0)
        t = np.where((var <= 0) & (mean != 0), np.inf * np.sign(mean), t)
    p = np.where(np.isinf(t), 0.0, 2.0 * stdtr(n - 1, -np.abs(np.where(np.isinf(t), 0.0, t))))
    p = np.where((var <= 0) & (mean == 0), 1.0, p)
    return t, np.clip(p, 0.0, 1.0)


def bh_fdr(p_values: np.ndarray, q: float) -> np.ndarray:
    """Benjamini-Hochberg step-up selection at level q; boolean mask."""
    if not 0.0 < q < 1.0:
        raise InvalidQ(f"q must lie in (0, 1), got {q}")
    p = np.asarray(p_values, dtype=float).ravel()
    if p.size == 0:
        return np.zeros(0, dtype=bool)
    if not np.isfinite(p).all() or p.min() < 0 or p.max() > 1:
        raise NonFinite("p-values must be finite and in [0, 1]")
    m = p.size
    order = np.argsort(p, kind="stable")
    ranked = p[order]
    crit = q * (np.arange(1, m + 1) / m)
    passing = np.nonzero(ranked <= crit)[0]
    mask = np.zeros(m, dtype=bool)
    if passing.size:
        mask[order[: passing[-1] + 1]] = True
    return mask
