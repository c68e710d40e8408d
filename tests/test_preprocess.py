"""Order selection, PCA and whitening against an SVD oracle."""
import numpy as np
import pytest

from jpjica.errors import OrderExceedsRank
from jpjica.preprocess import (
    estimate_order_bic,
    pca_reduce,
    preprocess_subject,
    resolve_orders,
    whiten,
)
from jpjica.types import SubjectDataset


def _low_rank(seed, n_time=40, n_voxels=500, rank=5, noise=0.0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n_time, rank))
    s = rng.standard_normal((rank, n_voxels))
    x = a @ s
    if noise:
        x = x + noise * rng.standard_normal(x.shape)
    return x


@pytest.mark.parametrize("rank", [1, 3, 7])
def test_bic_recovers_exact_rank_noiseless(rank):
    x = _low_rank(seed=rank, rank=rank)
    assert estimate_order_bic(x) == rank


def test_bic_recovers_rank_under_weak_noise():
    x = _low_rank(seed=2, rank=6, noise=0.05)
    assert estimate_order_bic(x) == 6


def test_bic_respects_cap():
    x = _low_rank(seed=3, rank=8)
    assert estimate_order_bic(x, c_max=4) <= 4
    with pytest.raises(ValueError):
        estimate_order_bic(x, c_max=0)


def test_pca_matches_svd_oracle():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((12, 300))
    r = 5
    res = pca_reduce(x, r)
    xc = x - x.mean(axis=1, keepdims=True)
    u, s, vt = np.linalg.svd(xc, full_matrices=False)
    # same subspace: |loadings^T u| must be a permutation-free identity
    align = np.abs(res.loadings.T @ u[:, :r])
    np.testing.assert_allclose(align, np.eye(r), atol=1e-9)
    np.testing.assert_allclose(
        res.loadings.T @ res.loadings, np.eye(r), atol=1e-10
    )
    np.testing.assert_allclose(
        res.scores, res.loadings.T @ xc, atol=1e-10
    )
    want_retained = float(np.sum(s[:r] ** 2) / np.sum(s**2))
    assert res.retained_variance == pytest.approx(want_retained, rel=1e-10)
    # sign convention pins each loading column
    for j in range(r):
        i = int(np.argmax(np.abs(res.loadings[:, j])))
        assert res.loadings[i, j] > 0


def test_pca_rejects_order_beyond_rank():
    x = _low_rank(seed=5, n_time=10, rank=3)
    with pytest.raises(OrderExceedsRank):
        pca_reduce(x, 4)
    with pytest.raises(OrderExceedsRank):
        pca_reduce(x, 0)


def test_whiten_gives_identity_covariance():
    rng = np.random.default_rng(13)
    x = rng.standard_normal((6, 400)) * rng.uniform(0.5, 4, (6, 1)) + 2.0
    z, w = whiten(x)
    cov = z @ z.T / z.shape[1]
    np.testing.assert_allclose(cov, np.eye(6), atol=1e-10)
    xc = x - x.mean(axis=1, keepdims=True)
    np.testing.assert_allclose(z, w @ xc, atol=1e-12)


def test_preprocess_subject_w_total_reproduces_z():
    rng = np.random.default_rng(17)
    obs = rng.standard_normal((20, 256))
    ds = SubjectDataset(subject_id="s", observations=obs)
    pre = preprocess_subject(ds, order=4)
    np.testing.assert_allclose(
        pre.z, pre.w_total @ (obs - pre.mean[:, None]), atol=1e-10
    )
    assert pre.n_components == 4
    cov = pre.z @ pre.z.T / pre.z.shape[1]
    np.testing.assert_allclose(cov, np.eye(4), atol=1e-10)


def test_resolve_orders_policies():
    ds = [
        SubjectDataset(subject_id="a", observations=_low_rank(seed=21, rank=3)),
        SubjectDataset(subject_id="b", observations=_low_rank(seed=22, rank=5)),
    ]
    assert resolve_orders(ds, 2) == [2, 2]
    assert resolve_orders(ds, "auto-bic") == [3, 5]
    assert resolve_orders(ds, "global-min") == [3, 3]
    with pytest.raises(ValueError):
        resolve_orders(ds, "median")


def test_bic_and_pca_share_one_eigendecomposition(monkeypatch):
    """Per subject: one covariance eigh for BIC and PCA, one for whitening."""
    x = _low_rank(seed=5, rank=4, noise=0.01)
    ds = SubjectDataset(subject_id="s0", observations=x)
    raw_order = estimate_order_bic(x)
    raw_pca = pca_reduce(x, raw_order)
    calls = []
    real = np.linalg.eigh

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    (order,) = resolve_orders([ds], "auto-bic")
    pre = preprocess_subject(ds, order)
    assert order == raw_order
    assert len(calls) == 2
    pca = pca_reduce(ds, order)
    assert len(calls) == 2
    np.testing.assert_array_equal(pca.scores, raw_pca.scores)
    np.testing.assert_array_equal(pca.loadings, raw_pca.loadings)
    assert pre.z.shape == (order, x.shape[1])
