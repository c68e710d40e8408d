"""Independent reference implementations used to cross-check the package.

Everything here is written the slow, obvious way (set partitions, power
iteration, continued fractions, exhaustive search) precisely so it shares
no code with the library under test; only the error types are imported.
"""
from __future__ import annotations

import math

import numpy as np

from jpjica.errors import LengthMismatch, NonFinite, OrderOutOfRange


def set_partitions(items):
    """All partitions of a sequence into nonempty blocks."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def cumulant_partition(*series) -> float:
    """Joint sample cumulant via the moment/partition expansion.

    Applies the general moments-to-cumulants formula,
    cum = sum over partitions pi of (-1)^(|pi|-1) (|pi|-1)! prod_B E[prod x_i],
    directly to raw sample moments.  Algebraically identical to the
    re-centered product estimators for orders up to 4.
    """
    arrs = [np.asarray(s, dtype=float).ravel() for s in series]
    total = 0.0
    for part in set_partitions(range(len(arrs))):
        coef = (-1.0) ** (len(part) - 1) * math.factorial(len(part) - 1)
        prod = 1.0
        for block in part:
            m = np.ones_like(arrs[0])
            for i in block:
                m = m * arrs[i]
            prod *= float(np.mean(m))
        total += coef * prod
    return total


def cross_cumulant(order: int, *series: np.ndarray) -> float:
    """Sample cross-cumulant of ``order`` vectors.

    Orders 2 and 3 are plain product moments of the centered series; at
    order 4 the three pairwise-product corrections are subtracted, which
    makes the statistic vanish for (jointly) Gaussian data.  Every series
    is re-centered, so the statistic is shift-invariant.
    """
    if order not in (2, 3, 4):
        raise OrderOutOfRange(f"order must be one of (2, 3, 4), got {order}")
    if len(series) != order:
        raise LengthMismatch(f"expected {order} series, got {len(series)}")
    arrs = [np.asarray(s, dtype=float).ravel() for s in series]
    v = arrs[0].size
    if v == 0:
        raise LengthMismatch("series must be nonempty")
    if any(a.size != v for a in arrs):
        raise LengthMismatch("series lengths differ")
    for a in arrs:
        if not np.isfinite(a).all():
            raise NonFinite("series contain NaN/Inf")
    c = [a - a.mean() for a in arrs]
    if order == 2:
        return float(np.mean(c[0] * c[1]))
    if order == 3:
        return float(np.mean(c[0] * c[1] * c[2]))
    a, b, d, e = c
    m = lambda x, y: float(np.mean(x * y))
    return (
        float(np.mean(a * b * d * e))
        - m(a, b) * m(d, e)
        - m(a, d) * m(b, e)
        - m(a, e) * m(b, d)
    )


def cumulant_rows(z: np.ndarray, ring: list[np.ndarray]) -> np.ndarray:
    """``cross_cumulant`` of every row of ``z`` against one partner tuple."""
    return np.array([cross_cumulant(len(ring) + 1, row, *ring) for row in z])


def power_iteration(m: np.ndarray, iters: int = 20000, tol: float = 1e-15):
    """Largest eigenvalue/eigenvector of a symmetric matrix by iteration.

    Shifts the matrix to be positive definite first so the dominant
    eigenvalue in magnitude is guaranteed to be the largest one.
    """
    m = np.asarray(m, dtype=float)
    n = m.shape[0]
    shift = 1.0 + n * float(np.abs(m).max(initial=0.0))
    ms = m + shift * np.eye(n)
    rng = np.random.default_rng(7)
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(iters):
        w = ms @ v
        nrm = float(np.linalg.norm(w))
        if nrm == 0.0:
            break
        w /= nrm
        new = float(w @ ms @ w)
        done = abs(new - lam) < tol * max(1.0, abs(new))
        v, lam = w, new
        if done:
            break
    return lam - shift, v


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the regularized incomplete beta (Lentz)."""
    max_it, eps, fpmin = 300, 3e-16, 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < fpmin:
        d = fpmin
    d = 1.0 / d
    h = d
    for m in range(1, max_it + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < fpmin:
            d = fpmin
        c = 1.0 + aa / c
        if abs(c) < fpmin:
            c = fpmin
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < fpmin:
            d = fpmin
        c = 1.0 + aa / c
        if abs(c) < fpmin:
            c = fpmin
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < eps:
            break
    return h


def incomplete_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def student_two_sided_p(t: float, df: float) -> float:
    """P(|T_df| >= |t|) via the incomplete beta identity."""
    if math.isinf(t):
        return 0.0
    x = df / (df + t * t)
    return incomplete_beta(df / 2.0, 0.5, x)


def welch_statistic(a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """Welch t and Satterthwaite df computed from first principles."""
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    sa = a.var(ddof=1) / a.size
    sb = b.var(ddof=1) / b.size
    t = (a.mean() - b.mean()) / math.sqrt(sa + sb)
    df = (sa + sb) ** 2 / (sa**2 / (a.size - 1) + sb**2 / (b.size - 1))
    return t, df


def best_bipartition_inertia(points: np.ndarray) -> float:
    """Globally optimal 2-cluster within-cluster sum of squares."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    n = pts.shape[0]
    if n > 16:
        raise ValueError("exhaustive search limited to 16 points")
    best = math.inf
    for mask in range(1, 2 ** (n - 1)):
        sel = np.array([(mask >> i) & 1 for i in range(n)], dtype=bool)
        ga, gb = pts[sel], pts[~sel]
        inertia = float(((ga - ga.mean(axis=0)) ** 2).sum())
        inertia += float(((gb - gb.mean(axis=0)) ** 2).sum())
        best = min(best, inertia)
    return best


def bh_select(p_values: np.ndarray, q: float) -> np.ndarray:
    """Step-up selection by explicit scan over candidate thresholds."""
    p = np.asarray(p_values, dtype=float).ravel()
    m = p.size
    ranked = np.sort(p)
    threshold = -1.0
    for k in range(m, 0, -1):
        if ranked[k - 1] <= q * k / m:
            threshold = ranked[k - 1]
            break
    return p <= threshold
