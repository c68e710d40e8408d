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
    (pre,) = resolve_orders([preprocess_subject(ds, 4)], 4)
    np.testing.assert_allclose(
        pre.z, pre.w_total @ (obs - pre.mean[:, None]), atol=1e-10
    )
    assert pre.n_components == 4
    cov = pre.z @ pre.z.T / pre.z.shape[1]
    np.testing.assert_allclose(cov, np.eye(4), atol=1e-10)


def _resolved_orders(datasets, policy):
    pre = resolve_orders([preprocess_subject(ds, policy) for ds in datasets], policy)
    return [p.n_components for p in pre]


def test_resolve_orders_policies():
    ds = [
        SubjectDataset(subject_id="a", observations=_low_rank(seed=21, rank=3)),
        SubjectDataset(subject_id="b", observations=_low_rank(seed=22, rank=5)),
    ]
    assert _resolved_orders(ds, 2) == [2, 2]
    assert _resolved_orders(ds, "auto-bic") == [3, 5]
    assert _resolved_orders(ds, "global-min") == [3, 3]
    with pytest.raises(ValueError):
        _resolved_orders(ds, "median")


@pytest.mark.filterwarnings("ignore::jpjica.errors.ConvergenceWarning")
def test_bic_and_pca_share_one_eigendecomposition(monkeypatch):
    """Streamed engine: one covariance eigh per subject in its reduction, one whitening eigh."""
    import jpjica.engine as engine
    from jpjica.engine import run_jpji_ica
    from jpjica.types import AlgoConfig

    xs = [_low_rank(seed=5 + k, rank=4 + k, noise=0.01) for k in range(3)]
    datasets = [SubjectDataset(subject_id=f"s{k}", observations=x) for k, x in enumerate(xs)]
    raw_orders = [estimate_order_bic(x) for x in xs]
    raw_pcas = [pca_reduce(x, o) for x, o in zip(xs, raw_orders)]
    calls = {"preprocess_subject": [], "resolve_orders": []}
    inside = []
    real_eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        if inside:
            calls[inside[-1]].append(a.shape)
        return real_eigh(a, *args, **kwargs)

    def spanned(name):
        fn = getattr(engine, name)

        def wrapper(*args, **kwargs):
            inside.append(name)
            try:
                return fn(*args, **kwargs)
            finally:
                inside.pop()

        return wrapper

    monkeypatch.setattr(np.linalg, "eigh", counted)
    for name in calls:
        monkeypatch.setattr(engine, name, spanned(name))
    decomp = run_jpji_ica(iter(datasets), AlgoConfig(seed=0, n_components="auto-bic", max_outer=1))
    n_time = xs[0].shape[0]
    assert calls["preprocess_subject"] == [(n_time, n_time)] * 3
    assert calls["resolve_orders"] == [(o, o) for o in raw_orders]
    for k, pca in enumerate(raw_pcas):
        assert decomp.sources[k].shape == (raw_orders[k], xs[k].shape[1])
        np.testing.assert_array_equal(decomp.whiteners[k], whiten(pca.scores)[1] @ pca.loadings.T)
