"""Low-level statistical kernels: cumulants, eigen, assignment, tests.

All estimators treat the columns of a matrix (or the entries of a
vector) as equally weighted samples; moments are population-normalized
(divide by V, not V-1) so that whitened data has exactly unit sample
covariance.  ``ring_products`` is the only routine that walks the
voxels for the ring cost: it forms the order-3/4 products of data rows
against a ring of partner rows.  ``cumulant_vectors_ring`` adds the
order-2 terms as direct products and is the generic cumulant estimator;
the engine's joint step takes its order-2 terms from a whitened
cross-covariance instead.  Neither re-centers, so inputs must already be
row-centered.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import (
    DegenerateSampleCount,
    InsufficientSamples,
    InvalidQ,
    NonFiniteData,
    PartnerLengthMismatch,
    ZeroSource,
)

# Working-set budget of the ring kernel's per-block buffer (see _ring_block_width).
_RING_BLOCK_BYTES = 2**19
# Lentz's continued fraction for the incomplete beta: the relative step
# that ends it (above one ulp of 1, so rounding cannot keep it going),
# its guard against division by zero, and an iteration cap above the
# O(sqrt(a)) steps its worst case takes at df = 1e6.
_BETACF_EPS = 3e-16
_BETACF_TINY = 1e-300
_BETACF_MAX_ITER = 5000


def standardize(x: np.ndarray) -> np.ndarray:
    """Return x shifted to zero mean and scaled to unit population variance."""
    x = np.asarray(x, dtype=float)
    c = x - x.mean()
    s = np.sqrt(np.mean(c * c))
    if s < 1e-300 or not np.isfinite(s):
        raise ZeroSource("cannot standardize a (near-)constant vector")
    return c / s


def _ring_block_width(n_partners: int) -> int:
    """Voxel columns per block of :func:`ring_products`.

    The per-block buffer holds 3 * n_partners + 2 rows of doubles; the
    width keeps it near ``_RING_BLOCK_BYTES`` (inside a per-core L2
    cache) and never below 256 columns, so small rings still get long
    enough rows for the BLAS product.
    """
    return max(256, _RING_BLOCK_BYTES // (24 * n_partners))


def ring_products(
    zc: np.ndarray, src: np.ndarray, ring: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Order-3/4 product moments of ``zc`` rows against a ring of ``src`` rows.

    With p = src[ring] (n rows, indices wrapping modulo n), entry
    (i, alpha) of the two (C, n) outputs is mean(zc[i] p[alpha]
    p[alpha+1]) and mean(zc[i] p[alpha] p[alpha+1] p[alpha+2]).  This is
    the only routine that walks the voxels for the ring cost; the
    order-2 terms are products of two rows and are formed by the caller.

    The voxel axis is walked once, in blocks of
    ``min(V, _ring_block_width(n))`` columns.  Each block gathers the
    ring rows straight from ``src``, with the first two repeated after
    the last so that no product wraps, into one reused buffer; two
    multiplies form the pair and triple products, and a single product
    with the block of ``zc`` accumulates both orders.  Nothing is
    re-centered, so the rows of ``zc`` and ``src`` must already be.
    """
    zc = np.asarray(zc, dtype=float)
    ring = np.asarray(ring, dtype=np.intp)
    n, v = ring.size, zc.shape[1]
    if n == 0 or src.ndim != 2 or src.shape[1] != v:
        raise PartnerLengthMismatch("need partner rows matching the sample count of z")
    width = max(1, min(v, _ring_block_width(n)))
    wrapped = ring[np.arange(n + 2) % n]
    buf = np.empty((3 * n + 2, width))
    moments = np.zeros((zc.shape[0], 2 * n))
    for start in range(0, v, width):
        b = min(width, v - start)
        p, prod = buf[: n + 2, :b], buf[n + 2 :, :b]
        np.take(src[:, start : start + b], wrapped, axis=0, out=p, mode="clip")
        np.multiply(p[:n], p[1 : n + 1], out=prod[:n])
        np.multiply(prod[:n], p[2:], out=prod[n:])
        moments += zc[:, start : start + b] @ prod.T
    moments /= v
    return moments[:, :n], moments[:, n:]


def ring_cumulants(
    cv2: np.ndarray, q01: np.ndarray, q02: np.ndarray, m3: np.ndarray, m4: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Order-2/3/4 ring cumulant vectors from the ring's product moments.

    ``cv2`` holds the (C, n) order-2 vectors, ``q01[alpha]`` and
    ``q02[alpha]`` the partner pair moments mean(p[alpha] p[alpha+1])
    and mean(p[alpha] p[alpha+2]), and ``m3``, ``m4`` the output of
    :func:`ring_products`.  The order-4 corrections are applied on the
    small (C, n) results, with ring index arrays in place of shifted
    copies.
    """
    n = cv2.shape[1]
    i1 = (np.arange(n) + 1) % n
    i2 = (np.arange(n) + 2) % n
    cv4 = m4 - cv2 * q01[i1][None, :] - cv2[:, i1] * q02[None, :] - cv2[:, i2] * q01[None, :]
    return cv2, m3, cv4


def _ring_dots(p: np.ndarray, shift: int) -> np.ndarray:
    """out[alpha] = p[alpha] . p[(alpha + shift) % n], without copying ``p``."""
    n = p.shape[0]
    s = shift % n
    return np.concatenate(
        (np.einsum("ij,ij->i", p[: n - s], p[s:]), np.einsum("ij,ij->i", p[n - s :], p[:s]))
    )


def cumulant_vectors_ring(
    zc: np.ndarray, partners: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All order-2/3/4 cumulant vectors over a ring of partner rows.

    For n partner rows, position alpha uses partners alpha, alpha+1, ...
    wrapping modulo n, so entry (i, alpha) of the order-eta output is the
    sample cross-cumulant of zc[i] with partners alpha, ..., alpha+eta-2.
    The outputs are (C, n) matrices, one column per ring position.

    Both ``zc`` and ``partners`` must already be row-centered (whitened
    data and standardized estimates are); nothing is re-centered here.
    The order-2 vectors and partner pair moments are direct products;
    the order-3/4 terms come from :func:`ring_products` with the ring
    0, ..., n-1 over ``partners``.
    """
    zc = np.asarray(zc, dtype=float)
    p = np.asarray(partners, dtype=float)
    if p.ndim != 2 or p.shape[0] == 0 or p.shape[1] != zc.shape[1]:
        raise PartnerLengthMismatch("need partner rows matching the sample count of z")
    n, v = p.shape
    m3, m4 = ring_products(zc, p, np.arange(n))
    return ring_cumulants(zc @ p.T / v, _ring_dots(p, 1) / v, _ring_dots(p, 2) / v, m3, m4)


def excess_kurtosis(x: np.ndarray) -> float:
    """Fourth standardized cumulant (0 for Gaussian data)."""
    c = np.asarray(x, dtype=float).ravel()
    c = c - c.mean()
    # c2 * c2 rather than c**4, which goes through libm pow, ten times slower.
    c2 = c * c
    m2 = np.mean(c2)
    if m2 < 1e-300:
        raise ZeroSource("kurtosis undefined for a constant vector")
    return float(np.mean(c2 * c2) / m2**2 - 3.0)


def _fix_sign(u: np.ndarray) -> np.ndarray:
    """Flip so the largest-magnitude entry is positive."""
    i = int(np.argmax(np.abs(u)))
    return -u if u[i] < 0 else u


def dominant_eigenvector(g: np.ndarray) -> tuple[float, np.ndarray]:
    """Largest eigenvalue and unit eigenvector of ``g @ g.T``, from the factor.

    One thin SVD of ``g`` gives both: the eigenvalue is the squared top
    singular value and the eigenvector the top left singular vector, so
    ``g @ g.T`` is never formed.  Degenerate top eigenvalues are resolved
    deterministically: within the tied eigenspace the (normalized)
    projection of the lowest-index basis vector with a nonvanishing
    projection is returned.  The sign makes the largest-magnitude entry
    positive.
    """
    g = np.asarray(g, dtype=float)
    if not np.isfinite(g).all():
        raise NonFiniteData("factor contains NaN/Inf")
    e, s, _ = np.linalg.svd(g, full_matrices=False)
    w = s * s
    lam = float(w[0])
    tie = w >= lam - 1e-12 * max(1.0, lam)
    basis = e[:, tie]
    if basis.shape[1] == 1:
        return lam, _fix_sign(basis[:, 0])
    for i in range(g.shape[0]):
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


def linear_sum_assignment(cost: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Minimum-cost assignment of the rows of ``cost`` to its columns.

    The shortest-augmenting-path Hungarian method with row and column
    potentials (Jonker & Volgenant, 1987), in Crouse's rectangular form
    (2016) and with his tie-breaking: columns are scanned from the last,
    and of equally short paths one that ends at a free column wins.  It
    keeps the contract of ``scipy.optimize.linear_sum_assignment`` for
    finite costs: ``min(n, m)`` pairs ``(rows, cols)``, rows ascending.
    Each row costs one augmenting path, each step of which is vectorised
    over the columns not yet reached, so an n x m problem (n <= m; a
    taller one is solved transposed) takes O(n^2 m).  NaN or Inf in
    ``cost`` raises ``ValueError``.
    """
    c = np.asarray(cost, dtype=float)
    if not np.isfinite(c).all():
        raise ValueError("cost contains NaN or Inf")
    tall = c.shape[0] > c.shape[1]
    if tall:
        c = c.T
    nr, nc = c.shape
    u, v = np.zeros(nr), np.zeros(nc)
    col4row = np.full(nr, -1, dtype=np.intp)
    row4col = np.full(nc, -1, dtype=np.intp)
    path = np.full(nc, -1, dtype=np.intp)
    for cur in range(nr):
        dist = np.full(nc, np.inf)
        seen_rows = np.zeros(nr, dtype=bool)
        seen_cols = np.zeros(nc, dtype=bool)
        remaining = np.arange(nc - 1, -1, -1)
        n_left, i, min_val, sink = nc, cur, 0.0, -1
        while sink < 0:
            seen_rows[i] = True
            left = remaining[:n_left]
            reach = min_val + c[i, left] - u[i] - v[left]
            d = dist[left]
            closer = reach < d
            path[left[closer]] = i
            d = np.where(closer, reach, d)
            dist[left] = d
            min_val = d.min()
            ties = np.flatnonzero(d == min_val)
            free = ties[row4col[left[ties]] < 0]
            at = int(free[-1] if free.size else ties[0])
            j = int(left[at])
            if row4col[j] < 0:
                sink = j
            else:
                i = int(row4col[j])
            seen_cols[j] = True
            n_left -= 1
            remaining[at] = remaining[n_left]
        u[cur] += min_val
        seen_rows[cur] = False
        u[seen_rows] += min_val - dist[col4row[seen_rows]]
        v[seen_cols] -= min_val - dist[seen_cols]
        j = sink
        while True:
            i = int(path[j])
            row4col[j] = i
            col4row[i], j = j, int(col4row[i])
            if i == cur:
                break
    if tall:
        order = np.argsort(col4row)
        return col4row[order], order
    return np.arange(nr), col4row


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
    p = np.where((se2 <= 0) & (diff == 0), 1.0, t_two_sided_p(t, df))
    return t, np.clip(p, 0.0, 1.0)


def t_two_sided_p(t: np.ndarray, df: np.ndarray) -> np.ndarray:
    """P(|T| >= |t|) for Student's T with ``df`` degrees of freedom, elementwise.

    The regularised incomplete beta I_x(df/2, 1/2) at x = df / (df + t^2)
    (Press et al., *Numerical Recipes*, 3rd ed., section 6.4): its
    log-gamma front times the continued fraction, which is evaluated
    for every entry at once, on the side of the symmetry
    I_x(a, b) = 1 - I_{1-x}(b, a) where it converges fast.  x and 1 - x
    are each formed without cancellation, so |t| = 0 gives 1 and
    |t| = inf gives 0.
    """
    t2 = np.square(np.asarray(t, dtype=float))
    df = np.asarray(df, dtype=float)
    t2, df = np.broadcast_arrays(t2, df)
    a = df / 2.0
    with np.errstate(divide="ignore"):
        log_x = -np.log1p(t2 / df)  # log of x = df / (df + t^2)
        log_y = -np.log1p(df / t2)  # log of 1 - x
    lgamma = np.vectorize(math.lgamma, otypes=[float])
    with np.errstate(under="ignore"):
        front = np.exp(lgamma(a + 0.5) - lgamma(a) - lgamma(0.5) + a * log_x + 0.5 * log_y)
    x, y = np.exp(log_x), np.exp(log_y)
    direct = x < (a + 1.0) / (a + 2.5)
    cf = _betacf(np.where(direct, a, 0.5), np.where(direct, 0.5, a), np.where(direct, x, y))
    with np.errstate(invalid="ignore"):
        return np.where(direct, front * cf / a, 1.0 - front * cf / 0.5)


def _betacf(a: np.ndarray, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The continued fraction of I_x(a, b) by the modified Lentz method, elementwise.

    Every entry takes the same steps until the slowest has converged;
    further steps only refine the others.
    """
    def guard(v):
        return np.where(np.abs(v) < _BETACF_TINY, _BETACF_TINY, v)

    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = np.ones_like(x)
    d = 1.0 / guard(1.0 - qab * x / qap)
    h = d.copy()
    for m in range(1, _BETACF_MAX_ITER + 1):
        m2 = 2 * m
        for aa in (
            m * (b - m) * x / ((qam + m2) * (a + m2)),
            -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2)),
        ):
            d = 1.0 / guard(1.0 + aa * d)
            c = guard(1.0 + aa / c)
            step = d * c
            h *= step
        # NaN entries compare False and do not hold the others back.
        if not np.any(np.abs(step - 1.0) >= _BETACF_EPS):
            break
    return h


def bh_fdr(p_values: np.ndarray, q: float) -> np.ndarray:
    """Benjamini-Hochberg step-up selection at level q; boolean mask."""
    if not 0.0 < q < 1.0:
        raise InvalidQ(f"q must lie in (0, 1), got {q}")
    p = np.asarray(p_values, dtype=float).ravel()
    if p.size == 0:
        return np.zeros(0, dtype=bool)
    if not np.isfinite(p).all() or p.min() < 0 or p.max() > 1:
        raise NonFiniteData("p-values must be finite and in [0, 1]")
    m = p.size
    order = np.argsort(p, kind="stable")
    ranked = p[order]
    crit = q * (np.arange(1, m + 1) / m)
    passing = np.nonzero(ranked <= crit)[0]
    mask = np.zeros(m, dtype=bool)
    if passing.size:
        mask[order[: passing[-1] + 1]] = True
    return mask
