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
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jpjica import cli
from jpjica import io as jio
from jpjica.classify import label_decomposition
from jpjica.engine import run_jpji_ica
from jpjica.errors import OrderExceedsRank
from jpjica.simulate import ScenarioSpec, generate_dataset
from jpjica.types import AlgoConfig, SourceKind


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


@pytest.mark.parametrize("binary", [False, True])
def test_dataset_roundtrip(tmp_path, small_scene, binary):
    spec, datasets, truth = small_scene
    out = tmp_path / "ds"
    jio.save_dataset(out, datasets, truth, spec.to_dict(), binary=binary)
    back, truth2, manifest = jio.load_dataset(out)

    assert manifest["kind"] == "dataset"
    assert manifest["format_version"] == jio.FORMAT_VERSION
    assert manifest["scenario"]["n_subjects"] == 3
    ext = ".bin" if binary else ".csv"
    assert all(e["observations"].endswith(ext) for e in manifest["subjects"])

    assert [d.subject_id for d in back] == [d.subject_id for d in datasets]
    for a, b in zip(back, datasets):
        assert np.array_equal(a.observations, b.observations)

    assert truth2 is not None
    assert truth2.joint_count == truth.joint_count
    assert truth2.pjoint_counts == list(truth.pjoint_counts)
    assert truth2.individual_counts == list(truth.individual_counts)
    assert truth2.cluster_map == truth.cluster_map
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
    back, truth, manifest = jio.load_dataset(out)
    assert truth is None
    assert manifest["ground_truth"] is None
    assert len(back) == 3


def test_dataset_rejects_wrong_kind(tmp_path):
    out = tmp_path / "ds"
    out.mkdir()
    (out / "manifest.json").write_text(
        json.dumps({"format_version": "1", "kind": "results"})
    )
    with pytest.raises(ValueError, match="not a dataset manifest"):
        jio.load_dataset(out)


def test_dataset_rejects_wrong_version(tmp_path, small_scene):
    _, datasets, _ = small_scene
    out = tmp_path / "ds"
    jio.save_dataset(out, datasets)
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["format_version"] = "99"
    (out / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match="format_version"):
        jio.load_dataset(out)


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


def test_report_roundtrip(tmp_path):
    path = tmp_path / "report.json"
    jio.save_report(path, {"metrics": {"jsir_db": 12.5}})
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
    datasets, truth, manifest = jio.load_dataset(sim)
    assert manifest["binary"] is True
    assert truth is not None
    assert datasets[0].observations.shape == (60, 256)


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
    _, want_truth, want_manifest = jio.load_dataset(sim)
    assert manifest == want_manifest
    assert truth.labels == want_truth.labels
    for got, want in zip(truth.sources, want_truth.sources):
        np.testing.assert_array_equal(got, want)
    out = tmp_path / "report.json"
    assert cli.main(["evaluate", str(res), str(bare), "--out", str(out)]) == cli.EXIT_OK
    assert out.read_bytes() == (res / "report.json").read_bytes()


def test_cli_exit_code_bad_scenario(tmp_path):
    code = cli.main(
        ["simulate", "--subjects", "3", "--joint", "-1", "--out", str(tmp_path / "x")]
    )
    assert code == cli.EXIT_BAD_SCENARIO


def test_cli_exit_code_missing_dataset(tmp_path):
    code = cli.main(
        ["decompose", str(tmp_path / "nope"), "--out", str(tmp_path / "y")]
    )
    assert code == cli.EXIT_BAD_INPUT


def _truncate(path):
    path.write_bytes(path.read_bytes()[:-8])


def _widen(path):
    x = jio.load_matrix(path)
    jio.save_matrix(path, np.random.default_rng(0).standard_normal((x.shape[0], x.shape[1] + 1)))


def _poison(path):
    x = jio.load_matrix(path)
    x[0, 0] = np.nan
    jio.save_matrix(path, x)


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (_truncate, "truncated"),
        (Path.unlink, "No such file"),
        (_widen, "voxels"),
        (_poison, "NaN"),
    ],
    ids=["truncated", "deleted", "wider", "nan"],
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


@pytest.mark.parametrize(
    "corrupt",
    [_drop_joint_count, _drop_truth_sources, _unknown_peer],
    ids=["no-joint-count", "no-sources", "unknown-peer"],
)
def test_cli_evaluate_rejects_malformed_ground_truth(cli_dirs, tmp_path, capsys, corrupt):
    """A ground_truth block missing a key or naming an unknown subject: exit 3, one error line."""
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


def test_cli_components_above_rank_exit_3_and_write_nothing(cli_dirs, tmp_path, capsys):
    """Noiseless subjects of rank 2 asked for 5 components: OrderExceedsRank, exit 3."""
    _, sim, _ = cli_dirs
    subjects, _, _ = jio.load_dataset(sim)
    with pytest.raises(OrderExceedsRank):
        run_jpji_ica(subjects, AlgoConfig(n_components=5))
    out = tmp_path / "res"
    capsys.readouterr()
    argv = ["decompose", str(sim), "--out", str(out), "--components", "5"]
    assert cli.main(argv) == cli.EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error:") and "exceeds numerical rank" in err
    assert not out.exists()


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


def test_readme_cli_flags_exist():
    """Every --flag in the README's CLI section is an option of some subcommand."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"--[a-z][a-z0-9-]*", section))
    sub = next(
        a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    known = {o for p in sub.choices.values() for a in p._actions for o in a.option_strings}
    assert documented
    assert documented <= known, sorted(documented - known)
