"""Order selection, PCA and whitening against an SVD oracle."""
import os
import tracemalloc

import numpy as np
import pytest

from jpjica import io as jio
from jpjica.errors import NonFiniteData, OrderExceedsRank
from jpjica.numerics import covariance
from jpjica.preprocess import (
    C_MAX,
    _CENTRE_BLOCK_COLS,
    estimate_order_bic,
    pca_reduce,
    preprocess_subject,
    resolve_orders,
    whiten,
)
from jpjica.types import SubjectDataset

from oracles import pca_centred_copy


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
    x = _low_rank(seed=3, n_time=80, rank=70)
    assert estimate_order_bic(x) == C_MAX == 60


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
    # sign convention pins each loading column
    for j in range(r):
        i = int(np.argmax(np.abs(res.loadings[:, j])))
        assert res.loadings[i, j] > 0


@pytest.mark.parametrize(
    "n_voxels",
    [_CENTRE_BLOCK_COLS // 4, 2 * _CENTRE_BLOCK_COLS + 123, 2 * _CENTRE_BLOCK_COLS],
    ids=["below-block", "ragged-last-block", "whole-blocks"],
)
def test_blocked_pca_matches_centred_copy_oracle(n_voxels):
    """Blocked centring gives the scores, loadings and BIC order of one whole centred copy."""
    rng = np.random.default_rng(n_voxels)
    x = rng.standard_normal((20, 6)) @ rng.standard_normal((6, n_voxels)) + 3.0
    x += 0.05 * rng.standard_normal(x.shape)
    res = pca_reduce(x, 6)
    scores, loadings, lam = pca_centred_copy(x, 6)
    np.testing.assert_allclose(res.scores, scores, rtol=0, atol=1e-12 * np.abs(scores).max())
    np.testing.assert_allclose(res.loadings, loadings, rtol=0, atol=1e-12)
    np.testing.assert_allclose(res.mean, x.mean(axis=1), rtol=1e-15)
    assert estimate_order_bic(x) == pca_reduce(x).scores.shape[0] == 6


def _traced_peak(fn) -> int:
    """Peak bytes that fn allocates, as tracemalloc sees them (numpy's buffers included)."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def fmri_sized():
    """T=150, V=65536 observations of rank 6 plus weak noise (78.6 MB)."""
    rng = np.random.default_rng(29)
    x = 0.01 * rng.standard_normal((150, 65536))
    x += rng.standard_normal((150, 6)) @ rng.standard_normal((6, 65536))
    return x


@pytest.mark.parametrize(
    "step",
    [estimate_order_bic, pca_reduce, lambda x: pca_reduce(x, 6)],
    ids=["bic", "pca-bic-order", "pca-fixed-order"],
)
def test_order_and_pca_allocate_no_centred_copy(fmri_sized, step):
    """BIC and PCA allocate under half of x: no centred T x V copy of the data."""
    assert _traced_peak(lambda: step(fmri_sized)) < 0.5 * fmri_sized.nbytes


def test_binary_subject_reduces_from_disk_one_block_at_a_time(tmp_path):
    """A T=300, V=32768 subject (78.6 MB) on disk: its reduction allocates under a quarter of it.

    It reads one T x B block at a time, and its result equals the
    reduction of the matrix held in memory bit for bit.
    """
    path = tmp_path / "s_obs.bin"
    rng = np.random.default_rng(31)
    x = 0.01 * rng.standard_normal((300, 32768))
    x += rng.standard_normal((300, 6)) @ rng.standard_normal((6, 32768)) + 2.0
    nbytes = x.nbytes
    jio.save_matrix(path, x)
    del x
    subject = jio.BinarySubject.from_header("s", path)
    reduced = []
    peak = _traced_peak(lambda: reduced.append(preprocess_subject(subject, "auto-bic")))
    assert peak < 0.25 * nbytes
    held = preprocess_subject(SubjectDataset("s", jio.load_matrix(path)), "auto-bic")
    assert reduced[0].n_components == held.n_components == 6
    for field in ("z", "w_total", "mean"):
        np.testing.assert_array_equal(getattr(reduced[0], field), getattr(held, field))


def _binary_subject(tmp_path, x, subject_id="s"):
    path = tmp_path / f"{subject_id}_obs.bin"
    jio.save_matrix(path, x)
    return jio.BinarySubject.from_header(subject_id, path)


@pytest.mark.parametrize(
    "where, bad",
    [((-1, -1), np.nan), ((3, 5), np.inf)],
    ids=["nan-last-entry-partial-block", "inf-first-block"],
)
def test_binary_subject_non_finite_in_any_block_is_refused(tmp_path, where, bad):
    """Every block is checked, the partial second one too; the error names the subject."""
    x = np.random.default_rng(37).standard_normal((12, _CENTRE_BLOCK_COLS + 7))
    x[where] = bad
    subject = _binary_subject(tmp_path, x, "subj-bad")
    with pytest.raises(NonFiniteData, match="subj-bad"):
        preprocess_subject(subject, 3)


@pytest.mark.parametrize("lift", [1e3, 1e6])
def test_shifted_covariance_survives_a_lifted_first_block(lift):
    """The first block sits ``lift`` above the rest, so the shift by its row
    means is far from the row means: the means stay within 1e-15 and the
    scores within 1e-9 of a centred long-double oracle.
    """
    rng = np.random.default_rng(int(lift))
    n_voxels = 4 * _CENTRE_BLOCK_COLS + 123
    x = rng.standard_normal((20, 6)) @ rng.standard_normal((6, n_voxels)) + 3.0
    x += 0.05 * rng.standard_normal(x.shape)
    x[:, :_CENTRE_BLOCK_COLS] += lift
    res = pca_reduce(x, 6)
    xl = x.astype(np.longdouble)
    mean = xl.mean(axis=1)
    xc = xl - mean[:, None]
    r = (xc @ xc.T / n_voxels).astype(float)
    _, vecs = np.linalg.eigh((r + r.T) / 2.0)
    loadings = vecs[:, ::-1][:, :6].copy()
    for j in range(6):
        if loadings[np.argmax(np.abs(loadings[:, j])), j] < 0:
            loadings[:, j] *= -1.0
    scores = (loadings.T.astype(np.longdouble) @ xc).astype(float)
    np.testing.assert_allclose(res.mean, mean.astype(float), rtol=1e-15, atol=0)
    np.testing.assert_allclose(res.scores, scores, rtol=0, atol=1e-9 * np.abs(scores).max())


def test_binary_subject_payload_is_read_twice(tmp_path, monkeypatch):
    """Two passes of column blocks: exactly 2 * T * V * 8 payload bytes through os.preadv."""
    x = np.random.default_rng(41).standard_normal((30, 2 * _CENTRE_BLOCK_COLS + 99))
    subject = _binary_subject(tmp_path, x)
    read = []
    real_preadv = os.preadv

    def counted(fd, buffers, offset):
        got = real_preadv(fd, buffers, offset)
        read.append(got)
        return got

    monkeypatch.setattr(os, "preadv", counted)
    preprocess_subject(subject, "auto-bic")
    assert sum(read) == 2 * x.size * 8


def test_subject_dataset_finite_check_allocates_no_mask(fmri_sized):
    """Building a SubjectDataset checks finiteness without a T x V boolean mask."""
    peak = _traced_peak(lambda: SubjectDataset(subject_id="s", observations=fmri_sized))
    assert peak < 0.05 * fmri_sized.nbytes


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
    np.testing.assert_allclose(w @ covariance(x) @ w.T, np.eye(6), atol=1e-10)
    # two identical rows: nothing can whiten them
    with pytest.raises(OrderExceedsRank):
        whiten(np.vstack([x[:1], x[:1]]))


def test_preprocess_subject_w_total_reproduces_z():
    rng = np.random.default_rng(17)
    obs = rng.standard_normal((20, 256))
    pre = preprocess_subject(SubjectDataset(subject_id="s", observations=obs), 4)
    np.testing.assert_allclose(
        pre.z, pre.w_total @ (obs - pre.mean[:, None]), atol=1e-10
    )
    assert pre.n_components == 4 and pre.n_voxels == 256
    cov = pre.z @ pre.z.T / pre.z.shape[1]
    np.testing.assert_allclose(cov, np.eye(4), atol=1e-10)


def test_whitening_holds_across_eight_decades_of_eigenvalues():
    """Kept eigenvalues from 1 down to 1e-8: cov(z) stays within 1e-9 of I.

    Dividing the scores by the square roots of the eigenvalues misses by
    up to 2.6e-9 on these seeds; dividing by each row's measured RMS does not.
    """
    worst = 0.0
    for seed in range(5):
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.standard_normal((12, 12)))
        scales = np.logspace(0, -4, 6)
        x = q[:, :6] @ (scales[:, None] * rng.standard_normal((6, 3000))) + 5.0
        ds = SubjectDataset(subject_id="s", observations=x)
        (pre,) = resolve_orders([preprocess_subject(ds, 6)], 6)
        cov = pre.z @ pre.z.T / pre.z.shape[1]
        worst = max(worst, float(np.abs(cov - np.eye(6)).max()))
    assert worst <= 1e-9, worst


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
    """Streamed engine: one covariance eigh per subject in the whole run, none in resolve_orders."""
    import jpjica.engine as engine
    from jpjica.engine import run_jpji_ica
    from jpjica.types import AlgoConfig

    xs = [_low_rank(seed=5 + k, rank=4 + k, noise=0.01) for k in range(3)]
    datasets = [SubjectDataset(subject_id=f"s{k}", observations=x) for k, x in enumerate(xs)]
    raw_orders = [estimate_order_bic(x) for x in xs]
    raw_pcas = [pca_reduce(x, o) for x, o in zip(xs, raw_orders)]
    calls = {"preprocess_subject": [], "resolve_orders": [], None: []}
    inside = [None]
    real_eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
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
    for name in ("preprocess_subject", "resolve_orders"):
        monkeypatch.setattr(engine, name, spanned(name))
    decomp = run_jpji_ica(iter(datasets), AlgoConfig(seed=0, n_components="auto-bic", max_outer=1))
    n_time = xs[0].shape[0]
    assert calls == {"preprocess_subject": [(n_time, n_time)] * 3, "resolve_orders": [], None: []}
    for k, pca in enumerate(raw_pcas):
        assert decomp.sources[k].shape == (raw_orders[k], xs[k].shape[1])
        rms = np.sqrt(np.mean(pca.scores**2, axis=1))
        np.testing.assert_allclose(
            decomp.whiteners[k], pca.loadings.T / rms[:, None], rtol=1e-12, atol=0
        )
