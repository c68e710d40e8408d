"""Round-trip tests for the on-disk formats and the command line.

Matrices must survive a save/load cycle bit for bit in both the text
and the binary format, directory manifests must be validated on load,
and the CLI subcommands must compose into the simulate -> decompose ->
evaluate -> report pipeline with the documented exit codes.
"""
from __future__ import annotations

import argparse
import json
import re
import shutil
import os
import struct
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jpjica import cli
from jpjica import io as jio
from jpjica import simulate
from jpjica.classify import label_decomposition
from jpjica.engine import run_jpji_ica
from jpjica.errors import (
    OrderExceedsRank,
    RankDeficientMixing,
    SingleSubjectWarning,
    ZeroSource,
)
from jpjica.simulate import ScenarioSpec, generate_dataset
from jpjica.types import AlgoConfig, SourceKind, SubjectDataset, kind_counts, slot_rows


# ---------------------------------------------------------------- matrices


def test_matrix_csv_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(11)
    arr = rng.standard_normal((7, 5))
    arr[0, 0] = 1e-300
    arr[1, 1] = -1e300
    arr[2, 2] = 1.0 / 3.0
    path = tmp_path / "m.csv"
    jio.save_matrix(path, arr)
    back = jio.load_matrix(path)
    assert back.shape == arr.shape
    # 17 significant digits round-trip IEEE doubles exactly.
    assert np.array_equal(back, arr)


def test_matrix_binary_roundtrip_bitwise(tmp_path):
    rng = np.random.default_rng(12)
    arr = rng.standard_normal((9, 4))
    arr[3, 3] = np.nan
    arr[4, 0] = np.inf
    path = tmp_path / "m.bin"
    jio.save_matrix(path, arr)
    assert path.stat().st_size == 16 + arr.size * 8
    back = jio.load_matrix(path)
    assert back.tobytes() == arr.tobytes()


def test_matrix_vector_loads_as_row(tmp_path):
    vec = np.array([1.0, 2.0, 3.0])
    for name in ("v.csv", "v.bin"):
        path = tmp_path / name
        jio.save_matrix(path, vec)
        back = jio.load_matrix(path)
        assert back.shape == (1, 3)
        assert np.array_equal(back.ravel(), vec)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(1, 8),
    cols=st.integers(1, 8),
    binary=st.booleans(),
)
def test_matrix_roundtrip_property(tmp_path_factory, seed, rows, cols, binary):
    arr = np.random.default_rng(seed).standard_normal((rows, cols)) * 10.0 ** (
        seed % 7 - 3
    )
    path = tmp_path_factory.mktemp("mat") / ("m.bin" if binary else "m.csv")
    jio.save_matrix(path, arr)
    assert np.array_equal(jio.load_matrix(path), arr)


def test_binary_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOPE" + struct.pack("<III", 1, 1, 1) + b"\x00" * 8)
    with pytest.raises(ValueError, match="not a JPJI binary"):
        jio.load_matrix(path)


def test_binary_rejects_short_header(tmp_path):
    path = tmp_path / "short.bin"
    path.write_bytes(b"JPJI\x01\x00")
    with pytest.raises(ValueError, match="not a JPJI binary"):
        jio.load_matrix(path)


def test_binary_rejects_unknown_version(tmp_path):
    path = tmp_path / "v2.bin"
    path.write_bytes(b"JPJI" + struct.pack("<III", 2, 1, 1) + b"\x00" * 8)
    with pytest.raises(ValueError, match="unsupported binary version"):
        jio.load_matrix(path)


def test_binary_rejects_truncated_payload(tmp_path):
    path = tmp_path / "trunc.bin"
    payload = np.zeros(6).tobytes()
    path.write_bytes(b"JPJI" + struct.pack("<III", 1, 2, 4) + payload)
    with pytest.raises(ValueError, match="truncated"):
        jio.load_matrix(path)


def test_binary_rejects_oversized_payload(tmp_path):
    """A payload longer than its header says is rejected, not cut to size."""
    path = tmp_path / "long.bin"
    payload = np.zeros(6).tobytes()
    path.write_bytes(b"JPJI" + struct.pack("<III", 1, 2, 2) + payload)
    with pytest.raises(ValueError, match="oversized binary matrix: size mismatch, 64 bytes"):
        jio.load_matrix(path)


_BASE = np.arange(48.0).reshape(6, 8) / 7.0


@pytest.mark.parametrize(
    "arr",
    [
        _BASE.T,
        _BASE[::2, 1::3],
        np.asfortranarray(_BASE),
        np.arange(-12, 12).reshape(4, 6),
    ],
    ids=["transposed", "strided", "fortran", "integer"],
)
def test_binary_writer_layouts(tmp_path, arr):
    """Any memory layout or dtype is written as row-major little-endian doubles."""
    path = tmp_path / "m.bin"
    jio.save_matrix(path, arr)
    header = b"JPJI" + struct.pack("<III", 1, *arr.shape)
    assert path.read_bytes() == header + np.ascontiguousarray(arr, dtype="<f8").tobytes()
    back = jio.load_matrix(path)
    assert back.dtype == np.float64
    np.testing.assert_array_equal(back, arr)


# ---------------------------------------------------------------- datasets


@pytest.fixture(scope="module")
def small_scene():
    spec = ScenarioSpec(
        n_subjects=3,
        n_joint=1,
        n_pjoint=0,
        n_individual=1,
        n_voxels=1024,
        n_time=100,
        seed=3,
    )
    datasets, truth = generate_dataset(spec)
    return spec, datasets, truth


def _read_back(subject):
    """A subject's observation matrix, read through its block view."""
    back = np.empty((subject.n_time, subject.n_voxels))
    for start, blk in subject.column_blocks(np.empty((subject.n_time, 300))):
        back[:, start : start + blk.shape[1]] = blk
    return back


@pytest.mark.parametrize("binary", [False, True])
def test_dataset_roundtrip(tmp_path, small_scene, binary):
    spec, datasets, truth = small_scene
    out = tmp_path / "ds"
    jio.save_dataset(out, datasets, truth, spec.to_dict(), binary=binary)
    subjects, manifest = jio.read_subjects(out)
    back = list(subjects)
    truth2, _ = jio.load_truth(out)

    assert manifest["kind"] == "dataset"
    assert manifest["format_version"] == jio.FORMAT_VERSION
    assert manifest["scenario"]["n_subjects"] == 3
    ext = ".bin" if binary else ".csv"
    assert all(e["observations"].endswith(ext) for e in manifest["subjects"])

    assert [d.subject_id for d in back] == [d.subject_id for d in datasets]
    assert all(isinstance(d, jio.BinarySubject) == binary for d in back)
    for a, b in zip(back, datasets):
        assert np.array_equal(_read_back(a), b.observations)

    assert truth2 is not None
    counts = [kind_counts(labs) for labs in truth.labels]
    gt = manifest["ground_truth"]
    assert gt["joint_count"] == counts[0][SourceKind.JOINT]
    assert gt["pjoint_counts"] == [c[SourceKind.PARTIALLY_JOINT] for c in counts]
    assert gt["individual_counts"] == [c[SourceKind.INDIVIDUAL] for c in counts]
    assert [kind_counts(labs) for labs in truth2.labels] == counts
    for k in range(3):
        assert np.array_equal(truth2.sources[k], truth.sources[k])
        assert np.array_equal(truth2.mixing[k], truth.mixing[k])
        assert [(l.kind, l.peers) for l in truth2.labels[k]] == [
            (l.kind, l.peers) for l in truth.labels[k]
        ]


def test_dataset_without_truth(tmp_path, small_scene):
    _, datasets, _ = small_scene
    out = tmp_path / "ds"
    jio.save_dataset(out, datasets)
    subjects, manifest = jio.read_subjects(out)
    back = list(subjects)
    truth, _ = jio.load_truth(out)
    assert truth is None
    assert manifest["ground_truth"] is None
    assert len(back) == 3


def test_dataset_rejects_wrong_kind(tmp_path):
    out = tmp_path / "ds"
    out.mkdir()
    (out / "manifest.json").write_text(
        json.dumps({"format_version": "1", "kind": "results"})
    )
    for read in (jio.read_subjects, jio.load_truth):
        with pytest.raises(ValueError, match="not a dataset manifest"):
            read(out)


def test_dataset_rejects_wrong_version(tmp_path, small_scene):
    _, datasets, _ = small_scene
    out = tmp_path / "ds"
    jio.save_dataset(out, datasets)
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["format_version"] = "99"
    (out / "manifest.json").write_text(json.dumps(manifest))
    for read in (jio.read_subjects, jio.load_truth):
        with pytest.raises(ValueError, match="format_version"):
            read(out)


# ----------------------------------------------------------- decompositions


@pytest.fixture(scope="module")
def small_decomp(small_scene):
    _, datasets, _ = small_scene
    config = AlgoConfig(seed=1)
    return label_decomposition(run_jpji_ica(datasets, config))


@pytest.mark.parametrize("binary", [False, True])
def test_decomposition_roundtrip(tmp_path, small_decomp, binary):
    decomp = small_decomp
    out = tmp_path / "res"
    jio.save_decomposition(out, decomp, binary=binary)
    bundle = jio.load_decomposition(out)

    assert bundle.subject_ids == decomp.subject_ids
    assert bundle.manifest["kind"] == "results"
    assert bundle.manifest["algorithm"] == "jpji"
    assert bundle.manifest["orders"] == [int(s.shape[0]) for s in decomp.sources]
    for k in range(decomp.n_subjects):
        assert np.array_equal(bundle.sources[k], decomp.sources[k])
        assert np.array_equal(bundle.demixing[k], decomp.demixing[k])
        assert np.array_equal(bundle.whiteners[k], decomp.whiteners[k])
        assert np.array_equal(bundle.means[k], decomp.row_means[k])

    feats, back = decomp.features, bundle.features
    assert back is not None and feats is not None
    assert back.joint_slots == list(feats.joint_slots)
    assert back.sigma_opt == pytest.approx(feats.sigma_opt)
    mask = ~np.isnan(feats.jpjif)
    assert np.array_equal(np.isnan(back.jpjif), ~mask)
    assert np.array_equal(back.jpjif[mask], feats.jpjif[mask])
    assert np.array_equal(back.kurtosis[mask], feats.kurtosis[mask])

    assert bundle.labels is not None
    for mine, theirs in zip(bundle.labels, decomp.labels):
        assert [(l.kind, l.peers) for l in mine] == [
            (l.kind, l.peers) for l in theirs
        ]


def test_decomposition_trace_file(tmp_path, small_decomp):
    out = tmp_path / "res"
    jio.save_decomposition(out, small_decomp)
    lines = (out / "cost_trace.csv").read_text().splitlines()
    assert lines[0] == "sweep,slot,subject,iteration,cost,mode,converged"
    n_rows = sum(len(t.costs) for t in small_decomp.traces)
    assert len(lines) == 1 + n_rows
    first = lines[1].split(",")
    assert first[2] in small_decomp.subject_ids
    assert first[5] in ("self", "joint")


def test_decomposition_labels_file(tmp_path, small_decomp):
    out = tmp_path / "res"
    jio.save_decomposition(out, small_decomp)
    lines = (out / "labels.csv").read_text().splitlines()
    assert lines[0] == "slot,subject,kind,peers"
    n_rows = sum(len(labs) for labs in small_decomp.labels)
    assert len(lines) == 1 + n_rows
    kinds = {row.split(",")[2] for row in lines[1:]}
    assert kinds <= {"joint", "pjoint", "individual"}


@pytest.fixture(scope="module")
def ragged_decomp():
    """Per-subject BIC orders 2, 4, 3 and 5 on ragged time counts."""
    spec = ScenarioSpec(
        n_subjects=4,
        n_joint=2,
        n_individual=(0, 2, 1, 3),
        n_voxels=1024,
        n_time=(60, 80, 70, 90),
        seed=0,
    )
    datasets, _ = generate_dataset(spec)
    config = AlgoConfig(n_components="auto-bic", seed=0)
    return label_decomposition(run_jpji_ica(datasets, config))


def test_slot_rows_agree_across_layers_with_ragged_orders(tmp_path, ragged_decomp):
    decomp = ragged_decomp
    rows = decomp.slot_rows
    held = rows >= 0
    orders = [s.shape[0] for s in decomp.sources]
    assert len(set(orders)) > 1
    # Slot ordering leaves some subject with gaps between its held slots,
    # so row index and slot index differ.
    assert any(not held[:o, k].all() for k, o in enumerate(orders))

    feats = decomp.features
    assert np.array_equal(np.isfinite(feats.jpjif), held)
    assert np.array_equal(np.vectorize(lambda x: x is not None)(feats.contributions), held)
    assert [len(labs) for labs in decomp.labels] == orders

    ids = decomp.subject_ids
    want = [
        (int(c), ids[k], decomp.labels[k][rows[c, k]].kind.value)
        for c, k in zip(*np.nonzero(held))
    ]
    out = tmp_path / "res"
    jio.save_decomposition(out, decomp)
    for name, kind_col in (("features.csv", 4), ("labels.csv", 2)):
        lines = [ln.split(",") for ln in (out / name).read_text().splitlines()[1:]]
        assert [(int(f[0]), f[1], f[kind_col]) for f in lines] == want, name

    bundle = jio.load_decomposition(out)
    got = cli._feature_rows(bundle)
    assert [(r["slot"], r["subject"], r["kind"]) for r in got] == want
    assert [r["jpjif"] for r in got] == [float(v) for v in feats.jpjif[held]]


def test_decomposition_rejects_wrong_kind(tmp_path, small_scene):
    _, datasets, _ = small_scene
    out = tmp_path / "ds"
    jio.save_dataset(out, datasets)
    (out / "results.json").write_text(
        json.dumps({"format_version": "1", "kind": "dataset"})
    )
    with pytest.raises(ValueError, match="not a results manifest"):
        jio.load_decomposition(out)


# ---------------------------------------------------------------- reports


_METRICS = {"jsir_db": 12.5, "acc_counts": {"joint": True}, "acc_peer_sets": 100.0}


def test_report_roundtrip(tmp_path):
    path = tmp_path / "report.json"
    jio.save_report(path, {"metrics": _METRICS})
    back = jio.load_report(path)
    assert back["kind"] == "report"
    assert back["format_version"] == jio.FORMAT_VERSION
    assert back["metrics"]["jsir_db"] == 12.5


def test_report_rejects_wrong_kind(tmp_path):
    path = tmp_path / "x.json"
    path.write_text(json.dumps({"format_version": "1", "kind": "dataset"}))
    with pytest.raises(ValueError, match="not a report file"):
        jio.load_report(path)


def test_report_rejects_wrong_version(tmp_path):
    path = tmp_path / "x.json"
    path.write_text(json.dumps({"format_version": "0", "kind": "report"}))
    with pytest.raises(ValueError, match="format_version"):
        jio.load_report(path)


@pytest.mark.parametrize(
    "metrics",
    [
        None,
        [],
        {"jsir_db": 1.0, "acc_counts": {}},
        {**_METRICS, "acc_counts": []},
        {**_METRICS, "jsir_db": "12.5"},
    ],
    ids=["absent", "list", "no-peer-sets", "counts-list", "jsir-text"],
)
def test_report_rejects_incomplete_metrics(tmp_path, metrics):
    path = tmp_path / "x.json"
    jio.save_report(path, {} if metrics is None else {"metrics": metrics})
    with pytest.raises(ValueError, match="'metrics' needs"):
        jio.load_report(path)


@pytest.mark.parametrize("dotted", [key[2] for key in jio.REPORT_GROUP_KEYS])
def test_report_rejects_list_at_each_group_key(tmp_path, dotted):
    """Every path the report tables group by is checked: a list there is refused."""
    report = {"metrics": _METRICS}
    *parents, last = dotted.split(".")
    node = report
    for key in parents:
        node = node.setdefault(key, {})
    node[last] = [1]
    path = tmp_path / "x.json"
    jio.save_report(path, report)
    with pytest.raises(ValueError, match=f"'{dotted}' must be a number, string or null"):
        jio.load_report(path)
    node[last] = 1
    jio.save_report(path, report)
    assert jio.report_value(jio.load_report(path), dotted) == 1


# ------------------------------------------------------------------- CLI


@pytest.fixture(scope="module")
def cli_dirs(tmp_path_factory):
    """simulate -> decompose -> evaluate, shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    sim = root / "data"
    res = root / "run"
    code = cli.main(
        [
            "simulate",
            "--subjects", "3",
            "--joint", "1",
            "--individual", "1",
            "--voxels", "1024",
            "--time", "100",
            "--seed", "3",
            "--out", str(sim),
        ]
    )
    assert code == cli.EXIT_OK
    code = cli.main(["decompose", str(sim), "--out", str(res), "--seed", "1"])
    assert code == cli.EXIT_OK
    code = cli.main(["evaluate", str(res), str(sim)])
    assert code == cli.EXIT_OK
    return root, sim, res


def test_cli_pipeline_outputs(cli_dirs):
    _, sim, res = cli_dirs
    assert (sim / "manifest.json").exists()
    assert (res / "results.json").exists()
    assert (res / "features.csv").exists()
    report = jio.load_report(res / "report.json")
    assert np.isfinite(report["metrics"]["jsir_db"])
    assert set(report["metrics"]["acc_counts"]) == {"joint", "pjoint", "individual"}
    assert 0.0 <= report["metrics"]["acc_peer_sets"] <= 100.0
    assert report["results"]["algorithm"] == "jpji"
    assert report["features"], "evaluate should inline the feature table"


def test_cli_decompose_seed_draws_only_jithica_tuples(tmp_path):
    """Two jpji results directories differ only in results.json's seed echo."""
    sim = tmp_path / "data"
    code = cli.main(
        [
            "simulate", "--subjects", "10", "--joint", "2", "--pjoint", "1",
            "--individual", "1", "--clusters", "2", "--voxels", "1024",
            "--time", "100", "--seed", "5", "--out", str(sim),
        ]
    )
    assert code == cli.EXIT_OK

    def decompose(algorithm, seed):
        out = tmp_path / f"{algorithm}-{seed}"
        args = ["decompose", str(sim), "--out", str(out), "--seed", str(seed)]
        assert cli.main(args + ["--algorithm", algorithm]) == cli.EXIT_OK
        files = {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}
        results = json.loads(files.pop(Path("results.json")))
        assert results["config"].pop("seed") == seed
        return files, results

    assert decompose("jpji", 1) == decompose("jpji", 7)
    assert decompose("jithica", 1)[0] != decompose("jithica", 7)[0]


def test_cli_report_tables(cli_dirs, tmp_path):
    root, sim, res = cli_dirs
    res2 = root / "run_jithica"
    assert (
        cli.main(
            ["decompose", str(sim), "--out", str(res2), "--algorithm", "jithica"]
        )
        == cli.EXIT_OK
    )
    rep2 = res2 / "rep.json"
    assert cli.main(["evaluate", str(res2), str(sim), "--out", str(rep2)]) == cli.EXIT_OK

    tables = tmp_path / "tables"
    code = cli.main(
        ["report", str(res / "report.json"), str(rep2), "--out", str(tables)]
    )
    assert code == cli.EXIT_OK
    comparison = (tables / "comparison.csv").read_text().splitlines()
    assert comparison[0].startswith("algorithm,n_runs,jsir_db_mean")
    algos = {line.split(",")[0] for line in comparison[1:]}
    assert algos == {"jpji", "jithica"}
    scatter = (tables / "kurtosis_scatter.csv").read_text().splitlines()
    assert scatter[0] == "algorithm,slot,subject,kurtosis,jpjif,kind"
    assert len(scatter) > 1
    for name in ("convergence.csv", "snr.csv", "subjects.csv"):
        assert (tables / name).exists()


_PIPELINE_IMPORTS = """
import sys
from jpjica import cli

def run(*argv):
    assert cli.main(list(argv)) == 0, argv

for fmt in ([], ["--binary"]):
    data = "data" + "".join(fmt)
    run("simulate", "--subjects", "3", "--joint", "1", "--individual", "1",
        "--voxels", "1024", "--time", "100", "--seed", "3", "--out", data, *fmt)
    for algorithm in ("jpji", "jithica"):
        res = data + "-" + algorithm
        run("decompose", data, "--out", res, "--seed", "1", "--algorithm", algorithm, *fmt)
        run("evaluate", res, data)
        run("report", res + "/report.json", "--out", res + "-tables")
print(sorted(m for m in sys.modules if m.startswith("scipy")))
"""


def test_cli_pipeline_imports_no_scipy(tmp_path):
    """simulate -> decompose -> evaluate -> report loads numpy, never scipy."""
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", _PIPELINE_IMPORTS],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_cli_simulate_binary_roundtrip(tmp_path):
    sim = tmp_path / "ds"
    code = cli.main(
        [
            "simulate",
            "--subjects", "2",
            "--joint", "1",
            "--voxels", "256",
            "--time", "60",
            "--seed", "7",
            "--binary",
            "--out", str(sim),
        ]
    )
    assert code == cli.EXIT_OK
    subjects, manifest = jio.read_subjects(sim)
    datasets = list(subjects)
    truth, _ = jio.load_truth(sim)
    assert manifest["binary"] is True
    assert truth is not None
    assert [(ds.n_time, ds.n_voxels) for ds in datasets] == [(60, 256)] * 2
    for ds, entry in zip(datasets, manifest["subjects"]):
        assert np.array_equal(_read_back(ds), jio.load_matrix(sim / entry["observations"]))


def test_cli_evaluate_does_not_read_observations(cli_dirs, tmp_path):
    """evaluate needs only the manifest and the ground truth of a dataset."""
    _, sim, res = cli_dirs
    bare = tmp_path / "data"
    shutil.copytree(sim, bare)
    removed = sorted(bare.glob("*_obs.*"))
    assert removed
    for path in removed:
        path.unlink()
    truth, manifest = jio.load_truth(bare)
    want_truth, want_manifest = jio.load_truth(sim)
    assert manifest == want_manifest
    assert truth.labels == want_truth.labels
    for got, want in zip(truth.sources, want_truth.sources):
        np.testing.assert_array_equal(got, want)
    out = tmp_path / "report.json"
    assert cli.main(["evaluate", str(res), str(bare), "--out", str(out)]) == cli.EXIT_OK
    assert out.read_bytes() == (res / "report.json").read_bytes()


def test_cli_exit_code_bad_scenario(tmp_path):
    out = tmp_path / "x"
    code = cli.main(["simulate", "--subjects", "3", "--joint", "-1", "--out", str(out)])
    assert code == cli.EXIT_BAD_SCENARIO
    assert not out.exists()


@pytest.mark.parametrize("clusters", ["0", "-4"])
def test_cli_simulate_rejects_no_clusters(tmp_path, clusters):
    out = tmp_path / "x"
    code = cli.main(["simulate", "--subjects", "3", "--joint", "1", "--clusters", clusters,
                     "--out", str(out)])
    assert code == cli.EXIT_BAD_SCENARIO
    assert not out.exists()


def test_cli_generation_error_writes_nothing(tmp_path, monkeypatch):
    """A scenario that fails while drawing the third subject exits 2 before any file exists."""
    smooth_mixing = simulate._smooth_mixing
    calls = []

    def failing_third(*args, **kwargs):
        calls.append(1)
        if len(calls) == 3:
            raise RankDeficientMixing("forced for the third subject")
        return smooth_mixing(*args, **kwargs)

    monkeypatch.setattr(simulate, "_smooth_mixing", failing_third)
    out = tmp_path / "x"
    code = cli.main(
        ["simulate", "--subjects", "4", "--joint", "1", "--voxels", "256",
         "--time", "40", "--binary", "--out", str(out)]
    )
    assert code == cli.EXIT_BAD_SCENARIO
    assert len(calls) == 3
    assert not out.exists()


def _simulate_args(spec: ScenarioSpec) -> list[str]:
    """The `jpjica simulate` arguments that build spec."""
    def per_subject(values):
        return ",".join(str(v) for v in values)

    args = [
        "simulate",
        "--subjects", str(spec.n_subjects),
        "--joint", str(spec.n_joint),
        "--pjoint", per_subject(spec.pjoint_counts),
        "--individual", per_subject(spec.individual_counts),
        "--clusters", str(spec.n_clusters),
        "--voxels", str(spec.n_voxels),
        "--time", per_subject(spec.time_counts),
        "--seed", str(spec.seed),
    ]
    if spec.snr_db is not None:
        args += ["--snr-db", str(spec.snr_db)]
    return args


@pytest.mark.parametrize(
    "binary, snr_db",
    [(False, 5.0), (True, 5.0), (False, None), (True, None)],
    ids=["csv", "binary", "csv-noiseless", "binary-noiseless"],
)
def test_cli_simulate_files_equal_list_form(tmp_path, binary, snr_db):
    """Streamed `simulate` writes the bytes save_dataset writes from generate_dataset."""
    spec = ScenarioSpec(
        n_subjects=4, n_joint=2, n_individual=(1, 0, 2, 1), n_clusters=1,
        n_voxels=256, n_time=(50, 60, 70, 80), snr_db=snr_db, seed=9,
    )
    flag = ["--binary"] if binary else []
    streamed = tmp_path / "streamed"
    assert cli.main(_simulate_args(spec) + flag + ["--out", str(streamed)]) == cli.EXIT_OK
    listed = tmp_path / "listed"
    datasets, truth = generate_dataset(spec)
    jio.save_dataset(listed, datasets, truth, spec.to_dict(), binary=binary)
    names = sorted(p.name for p in listed.iterdir())
    assert names == sorted(p.name for p in streamed.iterdir())
    assert len(names) == 1 + 3 * spec.n_subjects
    for name in names:
        assert (streamed / name).read_bytes() == (listed / name).read_bytes(), name


def test_cli_simulate_holds_one_subject_at_a_time(tmp_path):
    """Binary set-up, noisy or not, peaks under three T x V matrices plus the maps, not K of them."""
    k, v, t = 10, 4096, 150
    for snr_db in (10.0, None):
        spec = ScenarioSpec(
            n_subjects=k, n_joint=3, n_pjoint=2, n_individual=1, n_voxels=v,
            n_time=t, snr_db=snr_db, seed=3,
        )
        out = tmp_path / f"ds-{snr_db}"
        tracemalloc.start()
        try:
            code = cli.main(_simulate_args(spec) + ["--binary", "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == cli.EXIT_OK
        truth, _ = jio.load_truth(out)
        maps = sum(s.nbytes + a.nbytes for s, a in zip(truth.sources, truth.mixing))
        assert peak < 3 * t * v * 8 + maps < k * t * v * 8, snr_db


def test_cli_evaluate_holds_one_subject_at_a_time(tmp_path):
    """evaluate peaks below K*C*V doubles, what the estimated sources alone would take.

    It reads, matches and drops one subject's true and estimated sources
    at a time; holding either side whole would take K*C*V.
    """
    spec = ScenarioSpec(
        n_subjects=16, n_joint=3, n_pjoint=2, n_individual=1, n_voxels=16384,
        n_time=40, seed=4,
    )
    sim, res = tmp_path / "ds", tmp_path / "res"
    assert cli.main(_simulate_args(spec) + ["--binary", "--out", str(sim)]) == cli.EXIT_OK
    assert cli.main(["decompose", str(sim), "--out", str(res), "--binary"]) == cli.EXIT_OK
    tracemalloc.start()
    try:
        code = cli.main(["evaluate", str(res), str(sim)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == cli.EXIT_OK
    assert json.loads((res / "results.json").read_text())["orders"] == [6] * spec.n_subjects
    assert peak < spec.n_subjects * 6 * spec.n_voxels * 8


def _fail_writing(monkeypatch, names):
    """Make save_matrix raise OSError for each file name in ``names``."""
    save_matrix = jio.save_matrix

    def failing(path, arr):
        if Path(path).name in names:
            raise OSError(f"no room for {Path(path).name}")
        save_matrix(path, arr)

    monkeypatch.setattr(jio, "save_matrix", failing)


def test_cli_simulate_write_error_stops_at_the_subjects_in_flight(tmp_path, monkeypatch, capsys):
    """An OSError on the second subject: exit 3, one error line naming it, no manifest.

    The third subject fails too, but the error raised is the first in
    subject order, and no subject past those in flight when the second
    failed is made.
    """
    made = []
    observe = simulate._observe
    monkeypatch.setattr(
        simulate, "_observe", lambda spec, truth, k: made.append(k) or observe(spec, truth, k)
    )
    _fail_writing(monkeypatch, {"sub02_obs.bin", "sub03_obs.bin"})
    out = tmp_path / "ds"
    argv = ["simulate", "--subjects", "8", "--joint", "1", "--voxels", "64", "--time", "20",
            "--snr-db", "5", "--binary", "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_BAD_INPUT
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: cannot write output: "), err
    assert "sub02_obs.bin" in err[0]
    assert not (out / "manifest.json").exists()
    assert {0, 1} <= set(made) <= {0, 1, 2}, made


def test_cli_failed_resimulate_leaves_no_stale_manifest(tmp_path, monkeypatch):
    """Re-simulating into a dataset directory deletes its manifest before any subject file.

    Otherwise the old manifest would still load over subject files that
    the failed run had already replaced.
    """
    out = tmp_path / "ds"
    argv = ["simulate", "--subjects", "4", "--joint", "1", "--voxels", "64", "--time", "20",
            "--binary", "--out", str(out)]
    assert cli.main(argv + ["--seed", "1"]) == cli.EXIT_OK
    assert (out / "manifest.json").exists()
    _fail_writing(monkeypatch, {"sub03_obs.bin"})
    assert cli.main(argv + ["--seed", "2"]) == cli.EXIT_BAD_INPUT
    assert not (out / "manifest.json").exists()
    with pytest.raises(FileNotFoundError):
        jio.read_subjects(out)


def test_cli_exit_code_missing_dataset(tmp_path):
    code = cli.main(
        ["decompose", str(tmp_path / "nope"), "--out", str(tmp_path / "y")]
    )
    assert code == cli.EXIT_BAD_INPUT


def _truncate(path):
    path.write_bytes(path.read_bytes()[:-8])


def _widen(path):
    """One more voxel, and a payload of NaNs: the header must decide before the payload."""
    x = jio.load_matrix(path)
    jio.save_matrix(path, np.full((x.shape[0], x.shape[1] + 1), np.nan))


def _extend(path):
    path.write_bytes(path.read_bytes() + bytes(8))


def _poison(path):
    x = jio.load_matrix(path)
    x[0, 0] = np.nan
    jio.save_matrix(path, x)


def _poison_last(path):
    x = jio.load_matrix(path)
    x[-1, -1] = np.nan
    jio.save_matrix(path, x)


def _no_rows(path):
    jio.save_matrix(path, np.empty((0, jio.load_matrix(path).shape[1])))


def _no_columns(path):
    jio.save_matrix(path, np.empty((jio.load_matrix(path).shape[0], 0)))


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (_truncate, "truncated"),
        (Path.unlink, "No such file"),
        (_widen, "voxels"),
        (_poison, "NaN"),
        (_poison_last, "sub03: observations contain NaN/Inf"),
        (_extend, "size mismatch"),
        (_no_rows, "sub03: observations must be a nonempty"),
        (_no_columns, "sub03: observations must be a nonempty"),
    ],
    ids=["truncated", "deleted", "wider", "nan", "nan-last", "oversized", "no-rows", "no-columns"],
)
def test_cli_decompose_rejects_bad_subject_file(tmp_path, capsys, corrupt, message):
    """A bad file found after earlier subjects were read: exit 3, one error line, no results."""
    sim = tmp_path / "ds"
    code = cli.main(
        [
            "simulate", "--subjects", "3", "--joint", "1", "--individual", "1",
            "--voxels", "256", "--time", "60", "--seed", "5", "--binary",
            "--out", str(sim),
        ]
    )
    assert code == cli.EXIT_OK
    manifest = json.loads((sim / "manifest.json").read_text())
    corrupt(sim / manifest["subjects"][-1]["observations"])
    capsys.readouterr()
    out = tmp_path / "res"
    assert cli.main(["decompose", str(sim), "--out", str(out)]) == cli.EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert message in err
    assert not out.exists()


def test_cli_decompose_refuses_other_voxel_count_before_reading_on(tmp_path, capsys):
    """A second subject with another voxel count is refused before the third is read.

    Its payload is NaN, so the error names the voxel count only if the
    header is checked before any payload is read.
    """
    sim = tmp_path / "ds"
    code = cli.main(
        [
            "simulate", "--subjects", "3", "--joint", "1", "--individual", "1",
            "--voxels", "256", "--time", "60", "--seed", "5", "--binary",
            "--out", str(sim),
        ]
    )
    assert code == cli.EXIT_OK
    manifest = json.loads((sim / "manifest.json").read_text())
    files = [entry["observations"] for entry in manifest["subjects"]]
    _widen(sim / files[1])
    (sim / files[2]).unlink()
    capsys.readouterr()
    out = tmp_path / "res"
    assert cli.main(["decompose", str(sim), "--out", str(out)]) == cli.EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "sub02: 257 voxels, expected 256" in err
    assert not out.exists()


def _drop_id(manifest):
    del manifest["subjects"][1]["id"]
    return manifest


def _number_observations(manifest):
    manifest["subjects"][1]["observations"] = 7
    return manifest


def _subjects_not_list(manifest):
    manifest["subjects"] = "sub01"
    return manifest


@pytest.mark.parametrize("command", ["decompose", "evaluate"])
@pytest.mark.parametrize(
    "corrupt, message",
    [
        (_drop_id, "subjects"),
        (_number_observations, "subjects"),
        (_subjects_not_list, "subjects"),
        (lambda manifest: [manifest], "JSON object"),
    ],
    ids=["no-id", "numeric-observations", "subjects-not-list", "not-an-object"],
)
def test_cli_rejects_malformed_dataset_manifest(
    cli_dirs, tmp_path, capsys, command, corrupt, message
):
    """A manifest without a list of string id/observations entries: exit 3, one error line."""
    _, sim, res = cli_dirs
    bad = tmp_path / "ds"
    shutil.copytree(sim, bad)
    manifest = json.loads((bad / "manifest.json").read_text())
    (bad / "manifest.json").write_text(json.dumps(corrupt(manifest)))
    capsys.readouterr()
    out = tmp_path / "res"
    argv = (
        ["decompose", str(bad), "--out", str(out)]
        if command == "decompose"
        else ["evaluate", str(res), str(bad)]
    )
    assert cli.main(argv) == cli.EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert message in err
    assert not out.exists()


def _drop_joint_count(manifest):
    del manifest["ground_truth"]["joint_count"]
    return manifest


def _drop_truth_sources(manifest):
    del manifest["ground_truth"]["subjects"][0]["sources"]
    return manifest


def _unknown_peer(manifest):
    manifest["ground_truth"]["subjects"][0]["labels"][0]["peers"][0] = "ghost"
    return manifest


def _short_pjoint_counts(manifest):
    manifest["ground_truth"]["pjoint_counts"] = [0]
    return manifest


def _long_individual_counts(manifest):
    manifest["ground_truth"]["individual_counts"].append(1)
    return manifest


@pytest.mark.parametrize(
    "corrupt",
    [
        _drop_joint_count,
        _drop_truth_sources,
        _unknown_peer,
        _short_pjoint_counts,
        _long_individual_counts,
    ],
    ids=[
        "no-joint-count",
        "no-sources",
        "unknown-peer",
        "short-pjoint-counts",
        "long-individual-counts",
    ],
)
def test_cli_evaluate_rejects_malformed_ground_truth(cli_dirs, tmp_path, capsys, corrupt):
    """A ground_truth block missing a key, naming an unknown subject or holding a
    count list without one entry per subject: exit 3, one error line."""
    _, sim, res = cli_dirs
    bad = tmp_path / "ds"
    shutil.copytree(sim, bad)
    manifest = json.loads((bad / "manifest.json").read_text())
    (bad / "manifest.json").write_text(json.dumps(corrupt(manifest)))
    capsys.readouterr()
    assert cli.main(["evaluate", str(res), str(bad)]) == cli.EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "malformed ground_truth" in err


def test_cli_evaluate_rejects_truth_label_of_the_wrong_kind(cli_dirs, tmp_path, capsys):
    """A manifest label whose stored kind is not the one its peers imply: exit 3, one error line."""
    _, sim, res = cli_dirs
    bad = tmp_path / "ds"
    shutil.copytree(sim, bad)
    manifest = json.loads((bad / "manifest.json").read_text())
    label = manifest["ground_truth"]["subjects"][0]["labels"][0]
    assert label["kind"] == "joint" and len(label["peers"]) == 2
    label["kind"] = "pjoint"
    (bad / "manifest.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    assert cli.main(["evaluate", str(res), str(bad)]) == cli.EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "shared with 2 of 2 other subjects is joint, not pjoint" in err


def test_cli_evaluate_rejects_feature_row_of_the_wrong_kind(cli_dirs, tmp_path, capsys):
    """A features.csv row whose stored kind is not the one its peers imply: exit 3, one error line."""
    _, sim, res = cli_dirs
    bad = tmp_path / "run"
    shutil.copytree(res, bad)
    path = bad / "features.csv"
    lines = path.read_text().splitlines()
    f = lines[1].split(",")
    implied = f[4]
    f[4] = "individual" if implied != "individual" else "joint"
    path.write_text("\n".join([lines[0], ",".join(f), *lines[2:]]) + "\n")
    capsys.readouterr()
    assert cli.main(["evaluate", str(bad), str(sim)]) == cli.EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert f"is {implied}, not {f[4]}" in err


def test_cli_evaluate_accepts_dataset_with_cluster_map(cli_dirs, tmp_path):
    """A manifest written with the former ``cluster_map`` key still evaluates."""
    _, sim, res = cli_dirs
    old = tmp_path / "ds"
    shutil.copytree(sim, old)
    manifest = json.loads((old / "manifest.json").read_text())
    assert "cluster_map" not in manifest["ground_truth"]
    manifest["ground_truth"]["cluster_map"] = {}
    (old / "manifest.json").write_text(json.dumps(manifest))
    out = tmp_path / "report.json"
    assert cli.main(["evaluate", str(res), str(old), "--out", str(out)]) == cli.EXIT_OK
    assert json.loads(out.read_text())["metrics"] == jio.load_report(res / "report.json")["metrics"]


# Ids that would escape the directory, split a CSV field or a peer list, or hide.
BAD_IDS = {
    "empty": lambda root: "",
    "absolute": lambda root: str(root / "outside" / "x"),
    "slash": lambda root: "x/y",
    "backslash": lambda root: "x\\y",
    "comma": lambda root: "a,b",
    "pipe": lambda root: "a|b",
    "control": lambda root: "sub\t01",
}


@pytest.mark.parametrize("command", ["decompose", "evaluate"])
@pytest.mark.parametrize("bad_id", list(BAD_IDS.values()), ids=list(BAD_IDS))
def test_cli_rejects_bad_subject_id(cli_dirs, tmp_path, capsys, command, bad_id):
    """A manifest id unfit for a file name or a CSV field: exit 3, one error line, nothing written."""
    _, sim, res = cli_dirs
    bad = tmp_path / "ds"
    shutil.copytree(sim, bad)
    (tmp_path / "outside").mkdir()
    manifest = json.loads((bad / "manifest.json").read_text())
    manifest["subjects"][1]["id"] = bad_id(tmp_path)
    (bad / "manifest.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    out = tmp_path / "res"
    argv = (
        ["decompose", str(bad), "--out", str(out)]
        if command == "decompose"
        else ["evaluate", str(res), str(bad), "--out", str(out)]
    )
    assert cli.main(argv) == cli.EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "subject id" in err
    assert not out.exists()
    assert not any((tmp_path / "outside").iterdir())


@pytest.mark.parametrize("bad_id", list(BAD_IDS.values()), ids=list(BAD_IDS))
def test_writers_reject_bad_subject_id(tmp_path, small_scene, small_decomp, bad_id):
    """save_dataset and save_decomposition raise before writing the subject's files."""
    _, datasets, truth = small_scene
    (tmp_path / "outside").mkdir()
    sid = bad_id(tmp_path)
    renamed = [datasets[0], SubjectDataset(sid, datasets[1].observations)]
    with pytest.raises(ValueError, match="subject id"):
        jio.save_dataset(tmp_path / "ds", renamed, truth)
    assert [p.name for p in (tmp_path / "ds").iterdir()] == [f"{datasets[0].subject_id}_obs.csv"]
    ids = list(small_decomp.subject_ids)
    ids[1] = sid
    with pytest.raises(ValueError, match="subject id"):
        jio.save_decomposition(tmp_path / "res", replace(small_decomp, subject_ids=ids))
    assert not (tmp_path / "res").exists()
    assert not any((tmp_path / "outside").iterdir())


def test_subject_ids_roundtrip(cli_dirs, tmp_path, small_scene):
    """simulate's ids, and ids with spaces and dots, survive decompose and evaluate."""
    _, sim, res = cli_dirs
    ids = [e["id"] for e in json.loads((sim / "manifest.json").read_text())["subjects"]]
    assert jio.load_decomposition(res).subject_ids == ids
    _, datasets, truth = small_scene
    ids = ["sub 01", "s.1", "sub03"]
    renamed = [SubjectDataset(sid, ds.observations) for sid, ds in zip(ids, datasets)]
    data, out = tmp_path / "ds", tmp_path / "res"
    jio.save_dataset(data, renamed, truth)
    subjects, _ = jio.read_subjects(data)
    assert [ds.subject_id for ds in subjects] == ids
    assert cli.main(["decompose", str(data), "--out", str(out), "--seed", "1"]) == cli.EXIT_OK
    assert cli.main(["evaluate", str(out), str(data)]) == cli.EXIT_OK
    assert jio.load_decomposition(out).subject_ids == ids
    report = jio.load_report(out / "report.json")
    assert {row["subject"] for row in report["features"]} == set(ids)


def test_cli_evaluate_rejects_reordered_subject_ids(cli_dirs, tmp_path, capsys):
    """Results naming the dataset's subjects in another order: exit 3, one error line."""
    _, sim, res = cli_dirs
    swapped = tmp_path / "res"
    shutil.copytree(res, swapped)
    (swapped / "report.json").unlink()
    results = json.loads((swapped / "results.json").read_text())
    ids = results["subject_ids"]
    ids[0], ids[1] = ids[1], ids[0]
    (swapped / "results.json").write_text(json.dumps(results))
    capsys.readouterr()
    assert cli.main(["evaluate", str(swapped), str(sim)]) == cli.EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "disagree on subjects" in err
    assert not (swapped / "report.json").exists()


@pytest.mark.parametrize("target", ["dataset", "results"])
def test_cli_evaluate_rejects_oversized_matrix(tmp_path, capsys, target):
    """A binary ground-truth or results matrix longer than its header: exit 3, one error line."""
    sim, res = tmp_path / "ds", tmp_path / "res"
    assert cli.main(
        ["simulate", "--subjects", "3", "--joint", "1", "--individual", "1",
         "--voxels", "256", "--time", "60", "--seed", "5", "--binary", "--out", str(sim)]
    ) == cli.EXIT_OK
    assert cli.main(["decompose", str(sim), "--out", str(res), "--binary"]) == cli.EXIT_OK
    if target == "dataset":
        manifest = json.loads((sim / "manifest.json").read_text())
        _extend(sim / manifest["ground_truth"]["subjects"][-1]["sources"])
    else:
        results = json.loads((res / "results.json").read_text())
        _extend(res / results["files"][results["subject_ids"][-1]]["sources"])
    capsys.readouterr()
    assert cli.main(["evaluate", str(res), str(sim)]) == cli.EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "size mismatch" in err


@pytest.mark.parametrize(
    "target, value",
    [("results-sources", np.nan), ("truth-sources", np.inf), ("truth-mixing", -np.inf)],
)
def test_cli_evaluate_rejects_non_finite_matrix(cli_dirs, tmp_path, capsys, target, value):
    """A NaN or Inf in estimated sources, true sources or true mixing: exit 3, no report."""
    _, sim, res = cli_dirs
    data, run = tmp_path / "data", tmp_path / "run"
    shutil.copytree(sim, data)
    shutil.copytree(res, run)
    (run / "report.json").unlink()
    if target == "results-sources":
        results = json.loads((run / "results.json").read_text())
        path = run / results["files"][results["subject_ids"][0]]["sources"]
    else:
        truth = json.loads((data / "manifest.json").read_text())["ground_truth"]
        path = data / truth["subjects"][0][target.split("-")[1]]
    arr = jio.load_matrix(path)
    arr[-1, -1] = value
    jio.save_matrix(path, arr)
    capsys.readouterr()
    assert cli.main(["evaluate", str(run), str(data)]) == cli.EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert path.name in err and "NaN/Inf" in err
    assert not (run / "report.json").exists()


def test_cli_components_above_rank_exit_3_and_write_nothing(cli_dirs, tmp_path, capsys):
    """Noiseless subjects of rank 2 asked for 5 components: OrderExceedsRank, exit 3."""
    _, sim, _ = cli_dirs
    subjects, _ = jio.read_subjects(sim)
    with pytest.raises(OrderExceedsRank):
        run_jpji_ica(subjects, AlgoConfig(n_components=5))
    out = tmp_path / "res"
    capsys.readouterr()
    argv = ["decompose", str(sim), "--out", str(out), "--components", "5"]
    assert cli.main(argv) == cli.EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error:") and "exceeds numerical rank" in err
    assert not out.exists()


def test_cli_ragged_auto_components_end_to_end(tmp_path):
    """``--components auto`` with BIC orders that differ by subject, simulate to evaluate.

    labels.csv has one row per source, at the (slot, subject) pairs that
    ``types.slot_rows`` marks as held, with the kind of that source row.
    """
    sim, res = tmp_path / "data", tmp_path / "run"
    argv = [
        "simulate", "--subjects", "4", "--joint", "2", "--individual", "0,2,1,3",
        "--voxels", "1024", "--time", "60,80,70,90", "--seed", "0", "--out", str(sim),
    ]
    assert cli.main(argv) == cli.EXIT_OK
    argv = ["decompose", str(sim), "--out", str(res), "--components", "auto", "--seed", "0"]
    assert cli.main(argv) == cli.EXIT_OK
    assert cli.main(["evaluate", str(res), str(sim)]) == cli.EXIT_OK
    assert (res / "report.json").exists()
    results = json.loads((res / "results.json").read_text())
    orders, ids = results["orders"], results["subject_ids"]
    assert len(set(orders)) > 1
    held = np.array([[x is not None for x in row] for row in results["extraction_costs"]])
    rows = slot_rows(held, orders)
    labels = jio.load_decomposition(res).labels
    want = [
        (int(c), ids[k], labels[k][rows[c, k]].kind.value) for c, k in zip(*np.nonzero(rows >= 0))
    ]
    lines = [ln.split(",") for ln in (res / "labels.csv").read_text().splitlines()[1:]]
    assert len(lines) == sum(orders)
    assert [(int(f[0]), f[1], f[2]) for f in lines] == want


def test_cli_ragged_slot_held_by_one_cluster_is_partially_joint(tmp_path):
    """A slot only the sharing cluster holds is joint among its holders.

    The five subjects with a partially joint map have one more source
    than the other five, so ``--components auto`` gives ragged orders and
    that map's slot is held by the cluster alone.  Its sources are
    partially joint among the holders, not joint.
    """
    sim, res = tmp_path / "data", tmp_path / "run"
    argv = [
        "simulate", "--subjects", "10", "--joint", "2", "--pjoint", "0,0,0,0,0,1,1,1,1,1",
        "--voxels", "4096", "--time", "100", "--seed", "0", "--out", str(sim),
    ]
    assert cli.main(argv) == cli.EXIT_OK
    argv = ["decompose", str(sim), "--out", str(res), "--components", "auto", "--seed", "0"]
    assert cli.main(argv) == cli.EXIT_OK
    lines = [ln.split(",") for ln in (res / "labels.csv").read_text().splitlines()[1:]]
    holders_of: dict[str, set[str]] = {}
    for slot, sid, _, _ in lines:
        holders_of.setdefault(slot, set()).add(sid)
    cluster = {f"sub{k:02d}" for k in range(6, 11)}
    extra = [slot for slot, holders in holders_of.items() if holders == cluster]
    assert len(extra) == 1 and len(holders_of) == 3
    rows = [f for f in lines if f[0] == extra[0]]
    for _, sid, kind, peers in rows:
        assert kind == "pjoint" and set(peers.split("|")) == cluster - {sid}
    assert cli.main(["evaluate", str(res), str(sim)]) == cli.EXIT_OK
    metrics = json.loads((res / "report.json").read_text())["metrics"]
    assert metrics["acc_counts"] == {"joint": True, "pjoint": True, "individual": True}
    assert metrics["acc_peer_sets"] == 100.0


def test_cli_single_subject_labels_every_source_individual(tmp_path):
    """With one subject nothing is shared: truth and estimate both say individual."""
    sim, res = tmp_path / "data", tmp_path / "run"
    argv = [
        "simulate", "--subjects", "1", "--joint", "2", "--individual", "1",
        "--voxels", "1024", "--time", "60", "--seed", "0", "--out", str(sim),
    ]
    assert cli.main(argv) == cli.EXIT_OK
    truth = json.loads((sim / "manifest.json").read_text())["ground_truth"]
    assert truth["joint_count"] == 0
    assert truth["pjoint_counts"] == [0] and truth["individual_counts"] == [3]
    assert [lab["kind"] for lab in truth["subjects"][0]["labels"]] == ["individual"] * 3
    argv = ["decompose", str(sim), "--out", str(res), "--seed", "0"]
    with pytest.warns(SingleSubjectWarning):
        assert cli.main(argv) == cli.EXIT_OK
    assert cli.main(["evaluate", str(res), str(sim)]) == cli.EXIT_OK
    metrics = json.loads((res / "report.json").read_text())["metrics"]
    assert metrics["acc_counts"] == {"joint": True, "pjoint": True, "individual": True}


def test_cli_zero_source_mid_sweep_exits_3(cli_dirs, tmp_path, capsys, monkeypatch):
    """A ZeroSource raised inside the sweeps exits 3 with one error line, writing nothing."""
    import jpjica.engine as engine

    real, calls = engine.standardize, []

    def failing(x):
        calls.append(1)
        if len(calls) == 8:
            raise ZeroSource("cannot standardize a (near-)constant vector")
        return real(x)

    monkeypatch.setattr(engine, "standardize", failing)
    _, sim, _ = cli_dirs
    out = tmp_path / "res"
    capsys.readouterr()
    argv = ["decompose", str(sim), "--out", str(out), "--seed", "1"]
    assert cli.main(argv) == cli.EXIT_BAD_INPUT
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "constant vector" in err[0]
    assert len(calls) == 8
    assert not out.exists()


def test_cli_fewer_voxels_than_components(tmp_path, capsys):
    """V=3 < C: four components exit 3 with OrderExceedsRank; auto and min give order V-1."""
    rng = np.random.default_rng(31)
    sim = tmp_path / "data"
    jio.save_dataset(
        sim,
        [SubjectDataset(f"s{k}", rng.standard_normal((10, 3))) for k in range(3)],
    )
    out = tmp_path / "res4"
    capsys.readouterr()
    argv = ["decompose", str(sim), "--out", str(out), "--components", "4"]
    assert cli.main(argv) == cli.EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error:") and "exceeds numerical rank" in err
    assert not out.exists()
    for components in ("auto", "min"):
        res = tmp_path / f"res-{components}"
        argv = ["decompose", str(sim), "--out", str(res), "--components", components]
        assert cli.main(argv) == cli.EXIT_OK
        assert json.loads((res / "results.json").read_text())["orders"] == [2, 2, 2]


@pytest.mark.parametrize("components", ["min", "auto"])
@pytest.mark.parametrize("algorithm", ["jpji", "jithica"])
def test_cli_two_subjects_get_no_partially_joint_label(tmp_path, algorithm, components):
    """With K=2 a proper nonempty peer subset does not exist, ragged orders or not."""
    sim, res = tmp_path / "data", tmp_path / "run"
    argv = [
        "simulate", "--subjects", "2", "--joint", "1", "--individual", "1,2",
        "--voxels", "1024", "--time", "60", "--snr-db", "20", "--seed", "5",
        "--out", str(sim),
    ]
    assert cli.main(argv) == cli.EXIT_OK
    argv = [
        "decompose", str(sim), "--out", str(res), "--seed", "5",
        "--algorithm", algorithm, "--components", components,
    ]
    assert cli.main(argv) == cli.EXIT_OK
    rows = [line.split(",") for line in (res / "labels.csv").read_text().splitlines()[1:]]
    assert rows and {row[2] for row in rows} <= {"joint", "individual"}


def test_cli_exit_code_bad_components(cli_dirs, tmp_path):
    _, sim, _ = cli_dirs
    code = cli.main(
        ["decompose", str(sim), "--out", str(tmp_path / "y"), "--components", "abc"]
    )
    assert code == cli.EXIT_BAD_INPUT


def test_cli_decompose_has_no_tuning_flags(cli_dirs, tmp_path):
    """Order weights, stopping rule: constants; sigma, joint slots and peer sets: derived.

    The joint tolerance is gone with the vote it tuned, so --tau-joint
    is refused like any unknown flag.
    """
    _, sim, _ = cli_dirs
    for flag in (["--weights", "1,1,1"], ["--eps0", "1e-3"], ["--tau-joint", "0.2"],
                 ["--n-clusters", "3"], ["--sigma0", "3.5"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(["decompose", str(sim), "--out", str(tmp_path / "y"), *flag])
        assert exc.value.code == 2
    assert not (tmp_path / "y").exists()


@pytest.mark.parametrize("target", ["truth-sources", "results-sources"])
def test_cli_evaluate_rejects_non_finite_last_subject(cli_dirs, tmp_path, capsys, target):
    """A NaN in the last subject's true or estimated sources, read after the
    other subjects are matched: exit 3, one error line, no report."""
    _, sim, res = cli_dirs
    data, run = tmp_path / "data", tmp_path / "run"
    shutil.copytree(sim, data)
    shutil.copytree(res, run)
    (run / "report.json").unlink()
    if target == "results-sources":
        results = json.loads((run / "results.json").read_text())
        path = run / results["files"][results["subject_ids"][-1]]["sources"]
    else:
        truth = json.loads((data / "manifest.json").read_text())["ground_truth"]
        path = data / truth["subjects"][-1]["sources"]
    arr = jio.load_matrix(path)
    arr[0, 0] = np.nan
    jio.save_matrix(path, arr)
    capsys.readouterr()
    assert cli.main(["evaluate", str(run), str(data)]) == cli.EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: cannot load inputs:") and len(err.splitlines()) == 1
    assert path.name in err and "NaN/Inf" in err
    assert not (run / "report.json").exists()


def test_cli_evaluate_accepts_results_with_removed_config_keys(cli_dirs, tmp_path):
    """The config echo holds the AlgoConfig fields; an older echo with more keys still loads."""
    _, sim, res = cli_dirs
    manifest = json.loads((res / "results.json").read_text())
    assert set(manifest["config"]) == {"max_outer", "n_components", "seed"}
    old = tmp_path / "old"
    shutil.copytree(res, old)
    manifest["config"].update(
        weights=[0.5, 0.75, 1.0], eps0=1e-6, tau_joint=0.15, n_clusters=None, sigma0="auto"
    )
    (old / "results.json").write_text(json.dumps(manifest))
    assert cli.main(["evaluate", str(old), str(sim)]) == cli.EXIT_OK
    assert jio.load_report(old / "report.json")["results"]["config"] == manifest["config"]


@pytest.mark.parametrize(
    "command",
    ["simulate", "simulate-below-file", "decompose", "decompose-below-file", "evaluate", "report"],
)
def test_cli_unwritable_out_exits_3(cli_dirs, tmp_path, capsys, monkeypatch, command):
    """An --out that cannot be written: exit 3, one error line, nothing read or written.

    decompose refuses an --out that is a file, or lies below one, before
    it reads a subject; simulate refuses it before it draws a map.
    """
    _, sim, res = cli_dirs
    blocker = tmp_path / "file"
    blocker.write_text("keep\n")
    missing = tmp_path / "missing"
    reads = []
    read_subjects = jio.read_subjects
    monkeypatch.setattr(jio, "read_subjects", lambda path: reads.append(path) or read_subjects(path))
    stream_dataset = cli.stream_dataset
    monkeypatch.setattr(cli, "stream_dataset", lambda spec: reads.append(spec) or stream_dataset(spec))
    simulate = ["simulate", "--subjects", "2", "--joint", "1", "--voxels", "64", "--time", "20"]
    argv = {
        "simulate": [*simulate, "--out", str(blocker)],
        "simulate-below-file": [*simulate, "--out", str(blocker / "sub")],
        "decompose": ["decompose", str(sim), "--out", str(blocker)],
        "decompose-below-file": ["decompose", str(sim), "--out", str(blocker / "sub")],
        "evaluate": ["evaluate", str(res), str(sim), "--out", str(missing / "report.json")],
        "report": ["report", str(res / "report.json"), "--out", str(blocker)],
    }[command]
    assert cli.main(argv) == cli.EXIT_BAD_INPUT
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: cannot write output: "), err
    assert reads == []
    assert blocker.read_text() == "keep\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]


def test_cli_exit_code_no_ground_truth(cli_dirs, tmp_path, small_scene):
    _, _, res = cli_dirs
    _, datasets, _ = small_scene
    bare = tmp_path / "bare"
    jio.save_dataset(bare, datasets)
    code = cli.main(["evaluate", str(res), str(bare)])
    assert code == cli.EXIT_NO_TRUTH


def test_cli_exit_code_missing_results(cli_dirs, tmp_path):
    _, sim, _ = cli_dirs
    code = cli.main(["evaluate", str(tmp_path / "nope"), str(sim)])
    assert code == cli.EXIT_BAD_INPUT


def test_cli_evaluate_rejects_foreign_dataset(cli_dirs, tmp_path, capsys):
    """Results scored against a dataset they did not come from must fail cleanly."""
    _, _, res = cli_dirs
    other = tmp_path / "other"
    code = cli.main(
        [
            "simulate",
            "--subjects", "2",
            "--joint", "1",
            "--voxels", "256",
            "--time", "60",
            "--seed", "11",
            "--out", str(other),
        ]
    )
    assert code == cli.EXIT_OK
    code = cli.main(["evaluate", str(res), str(other)])
    assert code == cli.EXIT_BAD_INPUT
    assert "disagree on subjects or voxels" in capsys.readouterr().err


def test_cli_exit_code_no_reports(tmp_path, capsys):
    code = cli.main(["report", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
    assert code == cli.EXIT_NO_REPORTS
    assert "skipping" in capsys.readouterr().err


def test_cli_report_skips_report_without_metrics(cli_dirs, tmp_path, capsys):
    """A report lacking ``metrics`` is skipped with one warning; alone it exits 5."""
    _, _, res = cli_dirs
    bad = tmp_path / "bad.json"
    report = json.loads((res / "report.json").read_text())
    del report["metrics"]
    bad.write_text(json.dumps(report))
    capsys.readouterr()
    code = cli.main(["report", str(res / "report.json"), str(bad), "--out", str(tmp_path / "t")])
    assert code == cli.EXIT_OK
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"warning: skipping {bad}")
    assert len((tmp_path / "t" / "comparison.csv").read_text().splitlines()) == 2
    assert cli.main(["report", str(bad), "--out", str(tmp_path / "u")]) == cli.EXIT_NO_REPORTS


def _drop_kurtosis(report):
    del report["features"][0]["kurtosis"]


def _kurtosis_text(report):
    report["features"][0]["kurtosis"] = "1.5"


def _features_text(report):
    report["features"] = "slot,subject"


def _features_null(report):
    report["features"] = None


def _dataset_text(report):
    report["dataset"] = "data"


def _scenario_text(report):
    report["dataset"]["scenario"] = "default"


def _max_outer_list(report):
    report["results"]["config"]["max_outer"] = [1, 2]


@pytest.mark.parametrize(
    "corrupt",
    [_drop_kurtosis, _kurtosis_text, _features_text, _features_null, _dataset_text,
     _scenario_text, _max_outer_list],
    ids=["row-no-kurtosis", "kurtosis-text", "features-text", "features-null",
         "dataset-text", "scenario-text", "max-outer-list"],
)
def test_cli_report_skips_report_the_tables_cannot_read(cli_dirs, tmp_path, capsys, corrupt):
    """A report whose features or group keys ``report`` cannot read is skipped, not a traceback."""
    _, _, res = cli_dirs
    good = res / "report.json"
    report = json.loads(good.read_text())
    corrupt(report)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(report))
    capsys.readouterr()
    assert cli.main(["report", str(bad), str(good), "--out", str(tmp_path / "t")]) == cli.EXIT_OK
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"warning: skipping {bad}")
    assert cli.main(["report", str(good), "--out", str(tmp_path / "u")]) == cli.EXIT_OK
    for table in sorted((tmp_path / "u").iterdir()):
        assert (tmp_path / "t" / table.name).read_bytes() == table.read_bytes(), table.name


def _drop_files(results):
    del results["files"]
    return results


def _drop_subject_sources(results):
    del results["files"][results["subject_ids"][0]]["sources"]
    return results


@pytest.mark.parametrize(
    "corrupt", [_drop_files, _drop_subject_sources], ids=["no-files", "no-sources"]
)
def test_cli_evaluate_rejects_malformed_results(cli_dirs, tmp_path, capsys, corrupt):
    """A results.json missing a key: exit 3 with one error line, not a traceback."""
    _, sim, res = cli_dirs
    bad = tmp_path / "run"
    shutil.copytree(res, bad)
    results = json.loads((bad / "results.json").read_text())
    (bad / "results.json").write_text(json.dumps(corrupt(results)))
    capsys.readouterr()
    assert cli.main(["evaluate", str(bad), str(sim)]) == cli.EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "malformed results.json" in err


def _drop_last_row(lines: list[str], n_slots: int) -> list[str]:
    return lines[:-1]


def _unknown_subject(lines: list[str], n_slots: int) -> list[str]:
    f = lines[1].split(",")
    f[1] = "nobody"
    return [lines[0], ",".join(f), *lines[2:]]


def _slot_out_of_range(lines: list[str], n_slots: int) -> list[str]:
    f = lines[1].split(",")
    f[0] = str(n_slots)
    return [lines[0], ",".join(f), *lines[2:]]


@pytest.mark.parametrize(
    "corrupt", [_drop_last_row, _unknown_subject, _slot_out_of_range], ids=lambda f: f.__name__
)
def test_cli_evaluate_rejects_malformed_features(cli_dirs, tmp_path, capsys, corrupt):
    """A features.csv that does not map onto the source rows fails with exit 3."""
    _, sim, res = cli_dirs
    bad = tmp_path / "run"
    shutil.copytree(res, bad)
    n_slots = max(json.loads((bad / "results.json").read_text())["orders"])
    path = bad / "features.csv"
    lines = path.read_text().splitlines()
    path.write_text("\n".join(corrupt(lines, n_slots)) + "\n")
    assert cli.main(["evaluate", str(bad), str(sim)]) == cli.EXIT_BAD_INPUT
    assert "cannot load inputs" in capsys.readouterr().err


def _readme_cli_flags() -> set[str]:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"--[a-z][a-z0-9-]*", section))


def _cli_flags() -> set[str]:
    """Every option string of every subcommand, --help aside."""
    sub = next(
        a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    return {
        o
        for p in sub.choices.values()
        for a in p._actions
        if not isinstance(a, argparse._HelpAction)
        for o in a.option_strings
    }


def test_readme_cli_flags_exist():
    """Every --flag in the README's CLI section is an option of some subcommand."""
    documented = _readme_cli_flags()
    assert documented
    assert documented <= _cli_flags(), sorted(documented - _cli_flags())


def test_cli_flags_are_documented():
    """Every option of every subcommand is named in the README's CLI section."""
    missing = _cli_flags() - _readme_cli_flags()
    assert not missing, sorted(missing)


def test_readme_library_block_runs(capsys):
    """The README's "Library use" example runs against the current API."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Library use\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 11 and np.isfinite(float(lines[-1]))
