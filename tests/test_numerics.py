"""Cumulant, eigen, clustering and test-statistic kernels vs oracles."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jpjica.errors import (
    InvalidQ,
    LengthMismatch,
    NonFinite,
    NotSymmetric,
    OrderOutOfRange,
    SingularCovariance,
    TooFewPoints,
    ZeroSource,
)
from jpjica.numerics import (
    _ring_block_width,
    bh_fdr,
    covariance,
    cumulant_vectors_ring,
    dominant_eigenvector,
    excess_kurtosis,
    inverse_sqrt_psd,
    kmeans,
    one_sample_t_columns,
    silhouette,
    standardize,
    welch_t_columns,
)
from oracles import (
    best_bipartition_inertia,
    bh_select,
    cross_cumulant,
    cumulant_partition,
    cumulant_rows,
    power_iteration,
    student_two_sided_p,
    welch_statistic,
)

# Reference values from the set-partition oracle on default_rng(2026)
# standard normal draws of length 64 (x, y, z, w in draw order).
FROZEN_C2_XY = 0.0049543251381149256
FROZEN_C3_XYZ = 0.10439290579396306
FROZEN_C4_XYZW = -0.31170381054814017
FROZEN_C2_XX = 0.99204631103121244
FROZEN_C3_XXX = 0.57856452754879251
FROZEN_C4_XXXX = 0.26376483535425577


def _frozen_series():
    rng = np.random.default_rng(2026)
    return [rng.standard_normal(64) for _ in range(4)]


def test_cross_cumulant_frozen_values():
    x, y, z, w = _frozen_series()
    assert cross_cumulant(2, x, y) == pytest.approx(FROZEN_C2_XY, rel=1e-12)
    assert cross_cumulant(3, x, y, z) == pytest.approx(FROZEN_C3_XYZ, rel=1e-12)
    assert cross_cumulant(4, x, y, z, w) == pytest.approx(FROZEN_C4_XYZW, rel=1e-12)
    assert cross_cumulant(2, x, x) == pytest.approx(FROZEN_C2_XX, rel=1e-12)
    assert cross_cumulant(3, x, x, x) == pytest.approx(FROZEN_C3_XXX, rel=1e-12)
    assert cross_cumulant(4, x, x, x, x) == pytest.approx(FROZEN_C4_XXXX, rel=1e-12)


@pytest.mark.parametrize("order", [2, 3, 4])
def test_cross_cumulant_matches_partition_oracle(order):
    rng = np.random.default_rng(41)
    for _ in range(20):
        v = int(rng.integers(16, 120))
        series = [
            rng.standard_normal(v) * rng.uniform(0.5, 3.0) + rng.uniform(-2, 2)
            for _ in range(order)
        ]
        got = cross_cumulant(order, *series)
        want = cumulant_partition(*series)
        assert got == pytest.approx(want, rel=1e-10, abs=1e-12)


def test_cross_cumulant_rejects_bad_inputs():
    x = np.ones(8)
    with pytest.raises(OrderOutOfRange):
        cross_cumulant(5, x, x, x, x)
    with pytest.raises(OrderOutOfRange):
        cross_cumulant(1, x)
    with pytest.raises(LengthMismatch):
        cross_cumulant(2, x)
    with pytest.raises(LengthMismatch):
        cross_cumulant(2, x, np.ones(7))
    with pytest.raises(LengthMismatch):
        cross_cumulant(2, np.array([]), np.array([]))
    bad = x.copy()
    bad[0] = np.nan
    with pytest.raises(NonFinite):
        cross_cumulant(2, x, bad)


finite_vec = st.integers(0, 2**32 - 1).map(
    lambda s: np.random.default_rng(s).standard_normal(24)
)


@settings(max_examples=40, deadline=None)
@given(finite_vec, finite_vec, st.floats(-50, 50), st.integers(2, 4))
def test_cross_cumulant_shift_invariant(x, y, shift, order):
    series = [x, y, x * y - 1.0, x + y][:order]
    base = cross_cumulant(order, *series)
    shifted = cross_cumulant(order, series[0] + shift, *series[1:])
    scale = max(1.0, abs(base))
    assert abs(shifted - base) <= 1e-8 * scale


@settings(max_examples=40, deadline=None)
@given(finite_vec, finite_vec, finite_vec, st.floats(-3, 3), st.floats(-3, 3))
def test_cross_cumulant_linear_in_first_argument(x, x2, y, a, b):
    for order in (2, 3, 4):
        series = [y, y * y - 1.0, y + x2][: order - 1]
        lhs = cross_cumulant(order, a * x + b * x2, *series)
        rhs = a * cross_cumulant(order, x, *series) + b * cross_cumulant(
            order, x2, *series
        )
        assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(rhs))


@settings(max_examples=30, deadline=None)
@given(finite_vec, finite_vec, finite_vec, finite_vec)
def test_cross_cumulant_symmetric_in_arguments(x, y, z, w):
    base4 = cross_cumulant(4, x, y, z, w)
    for perm in [(y, x, z, w), (w, z, y, x), (z, w, x, y)]:
        assert cross_cumulant(4, *perm) == pytest.approx(base4, rel=1e-10, abs=1e-12)
    base3 = cross_cumulant(3, x, y, z)
    assert cross_cumulant(3, z, x, y) == pytest.approx(base3, rel=1e-10, abs=1e-12)


def test_fourth_cumulant_vanishes_for_gaussian():
    rng = np.random.default_rng(5)
    vals = []
    for _ in range(30):
        x = rng.standard_normal(20000)
        vals.append(cross_cumulant(4, x, x, x, x))
    # k4 of N(0,1) is 0 with sampling std ~ sqrt(24/V) ~ 0.035
    assert abs(np.mean(vals)) < 0.02
    assert np.max(np.abs(vals)) < 0.2


def test_cumulant_vector_matches_scalar_calls():
    """Ring position 0 of the kernel on centered rows equals scalar calls on raw rows."""
    rng = np.random.default_rng(9)
    z = rng.standard_normal((5, 80))
    partners = np.stack([rng.standard_normal(80) for _ in range(3)])
    got = cumulant_vectors_ring(
        z - z.mean(axis=1, keepdims=True), partners - partners.mean(axis=1, keepdims=True)
    )
    for order, cv in zip((2, 3, 4), got):
        for i in range(z.shape[0]):
            want = cross_cumulant(order, z[i], *partners[: order - 1])
            assert cv[i, 0] == pytest.approx(want, rel=1e-12, abs=1e-14)


def test_ring_vectors_match_explicit_wrapping():
    rng = np.random.default_rng(17)
    c, n, v = 4, 6, 100
    z = rng.standard_normal((c, v))
    zc = z - z.mean(axis=1, keepdims=True)
    partners = rng.standard_normal((n, v))
    partners -= partners.mean(axis=1, keepdims=True)
    cv2, cv3, cv4 = cumulant_vectors_ring(zc, partners)
    assert cv2.shape == cv3.shape == cv4.shape == (c, n)
    for alpha in range(n):
        ring = [partners[(alpha + j) % n] for j in range(3)]
        want2 = cumulant_rows(zc, ring[:1])
        want3 = cumulant_rows(zc, ring[:2])
        want4 = cumulant_rows(zc, ring[:3])
        np.testing.assert_allclose(cv2[:, alpha], want2, rtol=1e-10, atol=1e-13)
        np.testing.assert_allclose(cv3[:, alpha], want3, rtol=1e-10, atol=1e-13)
        np.testing.assert_allclose(cv4[:, alpha], want4, rtol=1e-10, atol=1e-13)


def test_standardize_moments_and_errors():
    rng = np.random.default_rng(3)
    x = rng.uniform(5, 9, 50)
    s = standardize(x)
    assert abs(s.mean()) < 1e-12
    assert np.mean(s * s) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ZeroSource):
        standardize(np.full(10, 2.5))


def test_excess_kurtosis_exact_cases():
    # x = (2,-1,-1,0,0,0): m2=1, m4=3, so excess kurtosis is exactly 0
    assert excess_kurtosis(np.array([2.0, -1, -1, 0, 0, 0])) == pytest.approx(0.0, abs=1e-12)
    # x = (1,0,-1): m2=2/3, m4=2/3 -> 2/3 / (4/9) - 3 = -3/2
    assert excess_kurtosis(np.array([1.0, 0.0, -1.0])) == pytest.approx(-1.5, abs=1e-12)
    with pytest.raises(ZeroSource):
        excess_kurtosis(np.zeros(5))


def test_dominant_eigenvector_closed_form():
    lam, u = dominant_eigenvector(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert lam == pytest.approx(3.0, abs=1e-12)
    np.testing.assert_allclose(u, np.array([1.0, 1.0]) / np.sqrt(2), atol=1e-12)


def test_dominant_eigenvector_matches_power_iteration():
    rng = np.random.default_rng(11)
    for _ in range(10):
        n = int(rng.integers(2, 9))
        m = rng.standard_normal((n, n))
        m = m + m.T
        lam, u = dominant_eigenvector(m)
        lam_o, u_o = power_iteration(m)
        assert lam == pytest.approx(lam_o, rel=1e-9, abs=1e-9)
        assert abs(abs(u @ u_o) - 1.0) < 1e-7
        np.testing.assert_allclose(m @ u, lam * u, atol=1e-9 * max(1, abs(lam)))


def test_dominant_eigenvector_degenerate_is_deterministic():
    lam, u = dominant_eigenvector(np.eye(4))
    assert lam == pytest.approx(1.0)
    np.testing.assert_allclose(u, np.array([1.0, 0, 0, 0]), atol=1e-12)
    # sign convention: largest-magnitude entry positive
    lam2, u2 = dominant_eigenvector(np.diag([1.0, 3.0, 2.0]))
    assert lam2 == pytest.approx(3.0)
    np.testing.assert_allclose(u2, np.array([0.0, 1.0, 0.0]), atol=1e-12)


def test_dominant_eigenvector_rejects_bad_matrices():
    with pytest.raises(NotSymmetric):
        dominant_eigenvector(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(NotSymmetric):
        dominant_eigenvector(np.ones((2, 3)))
    bad = np.eye(2)
    bad[0, 0] = np.nan
    with pytest.raises(NonFinite):
        dominant_eigenvector(bad)


def test_covariance_matches_loop_oracle():
    rng = np.random.default_rng(21)
    x = rng.standard_normal((4, 30)) * 2 + 1
    got = covariance(x)
    want = np.zeros((4, 4))
    for i in range(4):
        for j in range(4):
            xi = x[i] - x[i].mean()
            xj = x[j] - x[j].mean()
            want[i, j] = np.mean(xi * xj)
    np.testing.assert_allclose(got, want, atol=1e-12)
    np.testing.assert_allclose(got, got.T, atol=0)


def test_inverse_sqrt_psd_whitens():
    rng = np.random.default_rng(31)
    x = rng.standard_normal((5, 200))
    r = covariance(x)
    w = inverse_sqrt_psd(r)
    np.testing.assert_allclose(w @ r @ w, np.eye(5), atol=1e-10)
    np.testing.assert_allclose(w, w.T, atol=1e-10)
    with pytest.raises(SingularCovariance):
        inverse_sqrt_psd(np.array([[1.0, 1.0], [1.0, 1.0]]))


def test_kmeans_reaches_global_optimum_on_small_sets():
    rng = np.random.default_rng(4)
    for trial in range(8):
        n = int(rng.integers(4, 11))
        pts = np.concatenate([rng.normal(0, 1, n // 2), rng.normal(6, 1, n - n // 2)])
        rng.shuffle(pts)
        labels, centers, inertia = kmeans(pts, 2, seed=trial)
        want = best_bipartition_inertia(pts)
        assert inertia == pytest.approx(want, rel=1e-9, abs=1e-9)


def test_kmeans_deterministic_and_first_occurrence_labels():
    rng = np.random.default_rng(8)
    pts = rng.standard_normal((20, 2))
    la, ca, ia = kmeans(pts, 3, seed=5)
    lb, cb, ib = kmeans(pts, 3, seed=5)
    np.testing.assert_array_equal(la, lb)
    np.testing.assert_allclose(ca, cb)
    assert la[0] == 0
    seen = []
    for lab in la:
        if lab not in seen:
            seen.append(int(lab))
    assert seen == sorted(seen)
    with pytest.raises(TooFewPoints):
        kmeans(np.ones((5, 1)), 2, seed=0)


def test_silhouette_two_tight_clusters_near_one():
    pts = np.array([0.0, 0.01, 0.02, 10.0, 10.01, 10.02])
    labels = np.array([0, 0, 0, 1, 1, 1])
    assert silhouette(pts, labels) > 0.99
    # swapped labels on one point should hurt
    worse = labels.copy()
    worse[2] = 1
    assert silhouette(pts, worse) < silhouette(pts, labels)
    assert silhouette(pts, np.zeros(6, dtype=int)) == 0.0


def test_two_sample_t_matches_incomplete_beta_oracle():
    rng = np.random.default_rng(13)
    for _ in range(20):
        a = rng.standard_normal(int(rng.integers(4, 40))) + rng.uniform(-1, 1)
        b = rng.standard_normal(int(rng.integers(4, 40))) * rng.uniform(0.5, 2)
        t, p = welch_t_columns(a[:, None], b[:, None])
        t_o, df_o = welch_statistic(a, b)
        assert t[0] == pytest.approx(t_o, rel=1e-10)
        assert p[0] == pytest.approx(student_two_sided_p(t_o, df_o), rel=1e-8, abs=1e-12)


def test_two_sample_t_zero_variance_guards():
    t, p = welch_t_columns(np.full((5, 1), 2.0), np.full((6, 1), 2.0))
    assert t[0] == 0.0 and p[0] == 1.0
    t, p = welch_t_columns(np.full((5, 1), 3.0), np.full((6, 1), 2.0))
    assert np.isinf(t[0]) and t[0] > 0 and p[0] == 0.0
    from jpjica.errors import InsufficientSamples

    with pytest.raises(InsufficientSamples):
        welch_t_columns(np.array([[1.0]]), np.array([[1.0], [2.0]]))


def test_welch_columns_match_scalar_test():
    rng = np.random.default_rng(19)
    a = rng.standard_normal((7, 12))
    b = rng.standard_normal((9, 12)) + 0.5
    t, p = welch_t_columns(a, b)
    for j in range(12):
        tj, dfj = welch_statistic(a[:, j], b[:, j])
        assert t[j] == pytest.approx(tj, rel=1e-12)
        assert p[j] == pytest.approx(student_two_sided_p(tj, dfj), rel=1e-12)


def test_one_sample_t_columns_against_oracle():
    rng = np.random.default_rng(23)
    a = rng.standard_normal((10, 6)) + np.array([0, 0, 0, 1, 2, 5.0])
    t, p = one_sample_t_columns(a)
    for j in range(6):
        col = a[:, j]
        t_o = col.mean() / np.sqrt(col.var(ddof=1) / col.size)
        assert t[j] == pytest.approx(t_o, rel=1e-12)
        assert p[j] == pytest.approx(student_two_sided_p(t_o, col.size - 1), rel=1e-8)
    tz, pz = one_sample_t_columns(np.zeros((4, 2)))
    assert (tz == 0).all() and (pz == 1).all()
    tc, pc = one_sample_t_columns(np.full((4, 1), 3.0))
    assert np.isinf(tc[0]) and pc[0] == 0.0


def test_bh_fdr_matches_scan_oracle():
    rng = np.random.default_rng(29)
    for _ in range(30):
        m = int(rng.integers(1, 40))
        p = rng.uniform(0, 1, m)
        if rng.uniform() < 0.5:
            p[: m // 2] *= 1e-4
        for q in (0.01, 0.05, 0.2):
            np.testing.assert_array_equal(bh_fdr(p, q), bh_select(p, q))


def test_bh_fdr_edges():
    assert bh_fdr(np.array([]), 0.05).size == 0
    np.testing.assert_array_equal(
        bh_fdr(np.array([0.001, 0.002]), 0.05), np.array([True, True])
    )
    np.testing.assert_array_equal(
        bh_fdr(np.array([0.9, 0.8]), 0.05), np.array([False, False])
    )
    with pytest.raises(InvalidQ):
        bh_fdr(np.array([0.5]), 0.0)
    with pytest.raises(InvalidQ):
        bh_fdr(np.array([0.5]), 1.0)
    with pytest.raises(NonFinite):
        bh_fdr(np.array([0.5, np.nan]), 0.05)
    with pytest.raises(NonFinite):
        bh_fdr(np.array([1.5]), 0.05)


def test_bh_fdr_null_false_positive_rate():
    rng = np.random.default_rng(37)
    hits = 0
    for _ in range(200):
        p = rng.uniform(0, 1, 50)
        hits += int(bh_fdr(p, 0.05).any())
    # under the global null, any rejection happens with prob <= q
    assert hits / 200 <= 0.09


@pytest.mark.parametrize("n", [1, 2, 3, 9, 19])
def test_ring_kernel_matches_oracle_across_block_boundaries(n):
    """Blocked ring kernel against the partition oracle at every block edge.

    n = 1 and n = 2 give rings that repeat rows; V = 1 is a single
    (hence all-zero, once centered) sample.
    """
    rng = np.random.default_rng(100 + n)
    b = _ring_block_width(n)
    for v in (1, b - 1, b, b + 1, 3 * b + 7):
        z = rng.laplace(size=(6, v))
        z -= z.mean(axis=1, keepdims=True)
        partners = rng.laplace(size=(n, v)) ** 3
        partners -= partners.mean(axis=1, keepdims=True)
        want = []
        for order in (2, 3, 4):
            rings = [[partners[(a + j) % n] for j in range(order - 1)] for a in range(n)]
            want.append(
                np.array([[cumulant_partition(z[i], *ring) for ring in rings] for i in range(6)])
            )
        for rows in (1, 6):
            got = cumulant_vectors_ring(z[:rows], partners)
            for order, g, w in zip((2, 3, 4), got, want):
                assert g.shape == (rows, n)
                scale = float(np.abs(w[:rows]).max())
                err = float(np.abs(g - w[:rows]).max())
                assert err <= 1e-12 * scale, (v, rows, order, err, scale)
