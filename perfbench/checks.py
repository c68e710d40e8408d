"""Correctness checks made apart from the program.

Every check reads the files the CLI wrote with this module's own
readers (CSV text, or the documented 16-byte ``JPJI`` binary header
followed by row-major little-endian float64) and recomputes what it
needs.  None compares against a stored copy of earlier output.  Each
check returns ``(name, ok, detail)``; a check that does not hold counts
as one failed operation.
"""
from __future__ import annotations

import csv
import json
import math
import struct
from pathlib import Path

import numpy as np
from scipy.optimize import linear_sum_assignment

# Acceptance criterion 02: whitened data has identity covariance.
WHITEN_TOL = 1e-6
# Sources are unit-variance rows; recomputing them from the stored
# demixing rows, whitener and row means reorders float sums, which moves
# values by ~1e-14.  1e-8 absolute leaves six decades of room.
SOURCES_TOL = 1e-8
# The jSIR recomputation follows the same formula in another order.
JSIR_TOL = 1e-6


def read_matrix(path: Path) -> np.ndarray:
    """Read a matrix file written by the CLI, without using jpjica."""
    if path.suffix == ".bin":
        blob = path.read_bytes()
        if len(blob) < 16 or blob[:4] != b"JPJI":
            raise ValueError(f"{path}: bad binary header")
        version, rows, cols = struct.unpack("<III", blob[4:16])
        if version != 1 or len(blob) != 16 + 8 * rows * cols:
            raise ValueError(f"{path}: version {version} or size does not match header")
        return np.frombuffer(blob, dtype="<f8", offset=16).reshape(rows, cols)
    with open(path) as fh:
        rows = [[float(tok) for tok in line.split(",")] for line in fh if line.strip()]
    return np.array(rows, dtype="<f8")


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    a = np.ascontiguousarray(a, dtype="<f8")
    b = np.ascontiguousarray(b, dtype="<f8")
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _std_rows(x: np.ndarray) -> np.ndarray:
    xc = x - x.mean(axis=1, keepdims=True)
    return xc / np.sqrt(np.mean(xc * xc, axis=1, keepdims=True))


def _db(rho: float) -> float:
    if rho <= 0.0:
        return -120.0
    if rho >= 1.0 - 1e-12:
        return 120.0
    return min(120.0, max(-120.0, 10.0 * math.log10(rho / (2.0 * (1.0 - rho)))))


def check_run(dataset: Path, results: Path, expected) -> list[tuple[str, bool, str]]:
    """Set-up files, whitening, sources and jSIR, in one pass over subjects.

    ``expected`` is ``(datasets, truth)`` from a fresh in-memory
    simulation: every matrix file of the dataset must equal it bit for
    bit.  Each observation matrix is read once and serves every check.
    """
    datasets, truth = expected
    manifest = json.loads((dataset / "manifest.json").read_text())
    res = json.loads((results / "results.json").read_text())
    report = json.loads((results / "report.json").read_text())
    gt = manifest["ground_truth"]["subjects"]
    differ, worst_white, worst_src, per_subject = [], 0.0, 0.0, []
    for k, entry in enumerate(manifest["subjects"]):
        obs = read_matrix(dataset / entry["observations"])
        s_true = read_matrix(dataset / gt[k]["sources"])
        for name, got, want in (
            (entry["observations"], obs, datasets[k].observations),
            (gt[k]["sources"], s_true, truth.sources[k]),
            (gt[k]["mixing"], read_matrix(dataset / gt[k]["mixing"]), truth.mixing[k]),
        ):
            if not _same_bits(got, want):
                differ.append(name)
        if entry["id"] != datasets[k].subject_id or gt[k]["id"] != entry["id"]:
            differ.append(f"id {entry['id']}")
        files = res["files"][entry["id"]]
        w = read_matrix(results / files["whitener"])
        mean = read_matrix(results / files["mean"]).ravel()
        u = read_matrix(results / files["demixing"])
        y = read_matrix(results / files["sources"])
        z = w @ (obs - mean[:, None])
        cov = z @ z.T / z.shape[1]
        worst_white = max(worst_white, float(np.linalg.norm(cov - np.eye(cov.shape[0]))))
        worst_src = max(worst_src, float(np.max(np.abs(_std_rows(u @ z) - y))))
        corr = np.abs(_std_rows(s_true) @ _std_rows(y).T) / y.shape[1]
        rows, cols = linear_sum_assignment(-corr)
        per_subject.append(float(np.mean([_db(float(corr[i, j])) for i, j in zip(rows, cols)])))
    jsir = float(np.mean(per_subject))
    reported = float(report["metrics"]["jsir_db"])
    return [
        ("dataset_bits", not differ, f"differ: {differ[:3]}"),
        ("whitening_identity", worst_white < WHITEN_TOL, f"worst |cov - I|_F {worst_white:.3e}"),
        ("sources_recompute", worst_src < SOURCES_TOL, f"worst |diff| {worst_src:.3e}"),
        ("jsir_recompute", abs(jsir - reported) < JSIR_TOL, f"{jsir!r} vs report {reported!r}"),
    ]


def check_label_counts(dataset: Path, results: Path) -> tuple[str, bool, str]:
    """Per-subject counts of each kind in labels.csv equal the ground truth."""
    gt = json.loads((dataset / "manifest.json").read_text())["ground_truth"]
    ids = [e["id"] for e in gt["subjects"]]
    counts = {sid: {"joint": 0, "pjoint": 0, "individual": 0} for sid in ids}
    with open(results / "labels.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            counts[row["subject"]][row["kind"]] += 1
    bad = [
        sid
        for k, sid in enumerate(ids)
        if counts[sid]
        != {
            "joint": gt["joint_count"],
            "pjoint": gt["pjoint_counts"][k],
            "individual": gt["individual_counts"][k],
        }
    ]
    return "label_counts", not bad, f"wrong counts for {bad[:3]}" if bad else ""


def quality(results: Path) -> dict[str, float]:
    """The three quality metrics, as written to report.json."""
    m = json.loads((results / "report.json").read_text())["metrics"]
    return {
        "jsir_db": float(m["jsir_db"]),
        "acc_counts_pct": 100.0 * sum(bool(v) for v in m["acc_counts"].values()) / len(m["acc_counts"]),
        "acc_peer_sets_pct": float(m["acc_peer_sets"]),
    }


def check_floors(q: dict[str, float], floors: dict[str, float]) -> list[tuple[str, bool, str]]:
    return [
        (f"floor_{name}", q[name] >= floor, f"{q[name]!r} vs floor {floor}")
        for name, floor in floors.items()
    ]


def self_mode_counts(results: Path) -> tuple[int, int]:
    """Self-mode extractions and inner iterations, from cost_trace.csv."""
    extractions, iterations = set(), 0
    with open(results / "cost_trace.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            if row["mode"] != "self":
                continue
            extractions.add((row["sweep"], row["slot"], row["subject"]))
            iterations += int(row["iteration"]) > 0
    return len(extractions), iterations
