"""Directory formats for datasets, decomposition results and reports.

Matrices are stored headerless, either as comma-separated text with 17
significant digits (lossless for IEEE doubles) or, with the binary
flag, as a 16-byte header (magic "JPJI", then uint32 version, rows,
cols, little-endian) followed by row-major float64 data.  Subject
identifiers are stable strings; peer sets are serialized as id lists
and mapped back to positional indices on load.
"""
from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from .types import (
    AlgoConfig,
    Decomposition,
    FeatureTable,
    GroundTruth,
    SourceKind,
    SourceLabel,
    SubjectDataset,
    slot_rows,
)

FORMAT_VERSION = "1"
_MAGIC = b"JPJI"


def save_matrix(path: str | Path, arr: np.ndarray) -> None:
    """Write a 2-D matrix; the .bin suffix selects the binary format."""
    path = Path(path)
    arr = np.atleast_2d(np.asarray(arr, dtype=float))
    if path.suffix == ".bin":
        with open(path, "wb") as fh:
            fh.write(_MAGIC)
            fh.write(struct.pack("<III", 1, arr.shape[0], arr.shape[1]))
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    else:
        np.savetxt(path, arr, delimiter=",", fmt="%.17g")


def load_matrix(path: str | Path) -> np.ndarray:
    """Read a matrix written by :func:`save_matrix`."""
    path = Path(path)
    if path.suffix == ".bin":
        with open(path, "rb") as fh:
            header = fh.read(16)
            if len(header) != 16 or header[:4] != _MAGIC:
                raise ValueError(f"{path}: not a JPJI binary matrix")
            version, rows, cols = struct.unpack("<III", header[4:])
            if version != 1:
                raise ValueError(f"{path}: unsupported binary version {version}")
            data = np.fromfile(fh, dtype="<f8", count=rows * cols)
            if data.size != rows * cols:
                raise ValueError(f"{path}: truncated binary matrix")
            return data.reshape(rows, cols)
    return np.loadtxt(path, delimiter=",", ndmin=2)


def _ext(binary: bool) -> str:
    return ".bin" if binary else ".csv"


def save_dataset(
    directory: str | Path,
    datasets: list[SubjectDataset],
    truth: GroundTruth | None = None,
    scenario_dict: dict | None = None,
    binary: bool = False,
) -> Path:
    """Write observations (and optional ground truth) plus manifest.json."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    ext = _ext(binary)
    ids = [ds.subject_id for ds in datasets]
    subjects = []
    for ds in datasets:
        fname = f"{ds.subject_id}_obs{ext}"
        save_matrix(directory / fname, ds.observations)
        subjects.append(
            {"id": ds.subject_id, "n_time": ds.n_time, "observations": fname}
        )
    manifest = {
        "format_version": FORMAT_VERSION,
        "kind": "dataset",
        "n_subjects": len(datasets),
        "n_voxels": datasets[0].n_voxels,
        "binary": binary,
        "scenario": scenario_dict,
        "subjects": subjects,
        "ground_truth": None,
    }
    if truth is not None:
        gt_subjects = []
        for k, ds in enumerate(datasets):
            s_name = f"truth_{ds.subject_id}_sources{ext}"
            a_name = f"truth_{ds.subject_id}_mixing{ext}"
            save_matrix(directory / s_name, truth.sources[k])
            save_matrix(directory / a_name, truth.mixing[k])
            gt_subjects.append(
                {
                    "id": ds.subject_id,
                    "sources": s_name,
                    "mixing": a_name,
                    "labels": [
                        {
                            "kind": lab.kind.value,
                            "peers": sorted(ids[j] for j in lab.peers),
                        }
                        for lab in truth.labels[k]
                    ],
                }
            )
        manifest["ground_truth"] = {
            "joint_count": truth.joint_count,
            "pjoint_counts": list(truth.pjoint_counts),
            "individual_counts": list(truth.individual_counts),
            "cluster_map": {
                key: sorted(ids[j] for j in members)
                for key, members in sorted(truth.cluster_map.items())
            },
            "subjects": gt_subjects,
        }
    _dump_json(directory / "manifest.json", manifest)
    return directory / "manifest.json"


def load_dataset(
    directory: str | Path,
) -> tuple[list[SubjectDataset], GroundTruth | None, dict]:
    """Read a dataset directory back; inverse of :func:`save_dataset`."""
    subjects, manifest = read_subjects(directory)
    return list(subjects), _truth_from_manifest(Path(directory), manifest), manifest


def read_subjects(directory: str | Path) -> tuple[Iterator[SubjectDataset], dict]:
    """Lazy subjects of a dataset directory, and its manifest, read at once.

    Each observation matrix is read when the iterator reaches it.
    """
    directory = Path(directory)
    manifest = _load_dataset_manifest(directory)
    subjects = (
        SubjectDataset(
            subject_id=entry["id"],
            observations=load_matrix(directory / entry["observations"]),
        )
        for entry in manifest["subjects"]
    )
    return subjects, manifest


def load_truth(directory: str | Path) -> tuple[GroundTruth | None, dict]:
    """Ground truth and manifest of a dataset directory.

    Same as :func:`load_dataset` without the observation matrices, which
    are never read.
    """
    directory = Path(directory)
    manifest = _load_dataset_manifest(directory)
    return _truth_from_manifest(directory, manifest), manifest


def _load_dataset_manifest(directory: Path) -> dict:
    manifest = _load_json(directory / "manifest.json")
    if manifest.get("kind") != "dataset":
        raise ValueError(f"{directory}: manifest is not a dataset manifest")
    _check_version(manifest)
    subjects = manifest.get("subjects")
    if not isinstance(subjects, list) or not all(
        isinstance(entry, dict)
        and isinstance(entry.get("id"), str)
        and isinstance(entry.get("observations"), str)
        for entry in subjects
    ):
        raise ValueError(
            f"{directory}: manifest 'subjects' must be a list of entries"
            " with string 'id' and 'observations'"
        )
    return manifest


def _truth_from_manifest(directory: Path, manifest: dict) -> GroundTruth | None:
    """Ground truth of a manifest, or None; a malformed block raises ValueError."""
    gt = manifest.get("ground_truth")
    if gt is None:
        return None
    try:
        idx_of = {entry["id"]: k for k, entry in enumerate(manifest["subjects"])}
        sources, mixing, labels = [], [], []
        for k, entry in enumerate(gt["subjects"]):
            sources.append(load_matrix(directory / entry["sources"]))
            mixing.append(load_matrix(directory / entry["mixing"]))
            labels.append(
                [
                    SourceLabel(
                        kind=SourceKind(lab["kind"]),
                        peers=frozenset(idx_of[p] for p in lab["peers"]),
                        n_subjects=len(manifest["subjects"]),
                        subject=k,
                    )
                    for lab in entry["labels"]
                ]
            )
        return GroundTruth(
            sources=sources,
            mixing=mixing,
            labels=labels,
            joint_count=gt["joint_count"],
            pjoint_counts=list(gt["pjoint_counts"]),
            individual_counts=list(gt["individual_counts"]),
            cluster_map={
                key: frozenset(idx_of[p] for p in members)
                for key, members in gt["cluster_map"].items()
            },
        )
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError(
            f"{directory}: malformed ground_truth ({type(exc).__name__}: {exc})"
        ) from exc


def save_decomposition(
    directory: str | Path, decomp: Decomposition, binary: bool = False
) -> Path:
    """Write demixing rows, sources, whiteners, features, labels, traces."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    ext = _ext(binary)
    ids = decomp.subject_ids
    files: dict[str, dict[str, str]] = {}
    for k, sid in enumerate(ids):
        entry = {
            "demixing": f"{sid}_demixing{ext}",
            "sources": f"{sid}_sources{ext}",
            "whitener": f"{sid}_whitener{ext}",
            "mean": f"{sid}_mean{ext}",
        }
        save_matrix(directory / entry["demixing"], decomp.demixing[k])
        save_matrix(directory / entry["sources"], decomp.sources[k])
        save_matrix(directory / entry["whitener"], decomp.whiteners[k])
        save_matrix(directory / entry["mean"], decomp.row_means[k][None, :])
        files[sid] = entry
    feats = decomp.features
    row_of = decomp.slot_rows
    with open(directory / "features.csv", "w") as fh:
        fh.write("slot,subject,jpjif,kurtosis,kind,peers\n")
        for c in range(decomp.n_slots):
            for k, sid in enumerate(ids):
                row = row_of[c, k]
                if row < 0:
                    continue
                jp = feats.jpjif[c, k] if feats is not None else float("nan")
                ku = feats.kurtosis[c, k] if feats is not None else float("nan")
                kind, peers = "", ""
                if decomp.labels is not None:
                    lab = decomp.labels[k][row]
                    kind = lab.kind.value
                    peers = "|".join(sorted(ids[j] for j in lab.peers))
                fh.write(f"{c},{sid},{jp:.17g},{ku:.17g},{kind},{peers}\n")
    if decomp.labels is not None:
        with open(directory / "labels.csv", "w") as fh:
            fh.write("slot,subject,kind,peers\n")
            for c in range(decomp.n_slots):
                for k, sid in enumerate(ids):
                    row = row_of[c, k]
                    if row < 0:
                        continue
                    lab = decomp.labels[k][row]
                    peers = "|".join(sorted(ids[j] for j in lab.peers))
                    fh.write(f"{c},{sid},{lab.kind.value},{peers}\n")
    with open(directory / "cost_trace.csv", "w") as fh:
        fh.write("sweep,slot,subject,iteration,cost,mode,converged\n")
        for t in decomp.traces:
            for i, val in enumerate(t.costs):
                fh.write(
                    f"{t.sweep},{t.slot},{ids[t.subject]},{i},{val:.17g},"
                    f"{t.mode},{int(t.converged)}\n"
                )
    cfg = decomp.config
    results = {
        "format_version": FORMAT_VERSION,
        "kind": "results",
        "algorithm": decomp.algorithm,
        "binary": binary,
        "subject_ids": list(ids),
        "orders": [int(s.shape[0]) for s in decomp.sources],
        "config": _config_dict(cfg),
        "joint_slots": list(feats.joint_slots) if feats is not None else None,
        "sigma_opt": feats.sigma_opt if feats is not None else None,
        "jpjif_joint": feats.jpjif_joint if feats is not None else None,
        "extraction_costs": _nan_to_none(decomp.extraction_costs),
        "self_mode": decomp.self_mode.astype(int).tolist(),
        "files": files,
    }
    _dump_json(directory / "results.json", results)
    return directory / "results.json"


@dataclass
class ResultsBundle:
    """In-memory view of a results directory."""

    subject_ids: list[str]
    sources: list[np.ndarray]
    demixing: list[np.ndarray]
    whiteners: list[np.ndarray]
    means: list[np.ndarray]
    labels: list[list[SourceLabel]] | None
    features: FeatureTable | None
    manifest: dict


def load_decomposition(directory: str | Path) -> ResultsBundle:
    """Read a results directory back into arrays and labels."""
    directory = Path(directory)
    manifest = _load_json(directory / "results.json")
    if manifest.get("kind") != "results":
        raise ValueError(f"{directory}: manifest is not a results manifest")
    _check_version(manifest)
    ids = list(manifest["subject_ids"])
    idx_of = {sid: k for k, sid in enumerate(ids)}
    sources, demixing, whiteners, means = [], [], [], []
    for sid in ids:
        entry = manifest["files"][sid]
        sources.append(load_matrix(directory / entry["sources"]))
        demixing.append(load_matrix(directory / entry["demixing"]))
        whiteners.append(load_matrix(directory / entry["whitener"]))
        means.append(load_matrix(directory / entry["mean"]).ravel())
    orders = [s.shape[0] for s in sources]
    n_slots = max(orders)
    jpjif = np.full((n_slots, len(ids)), np.nan)
    kurt = np.full((n_slots, len(ids)), np.nan)
    held = np.zeros((n_slots, len(ids)), dtype=bool)
    kinds: dict[tuple[int, int], tuple[str, frozenset[int]]] = {}
    with open(directory / "features.csv") as fh:
        next(fh)
        for line in fh:
            slot_s, sid, jp, ku, kind, peers = line.rstrip("\n").split(",")
            try:
                k = idx_of[sid]
                peer_idx = frozenset(idx_of[p] for p in peers.split("|") if p)
            except KeyError as exc:
                raise ValueError(f"features.csv names unknown subject {exc}") from None
            c = int(slot_s)
            if not 0 <= c < n_slots:
                raise ValueError(f"features.csv: slot {c} outside [0, {n_slots})")
            held[c, k] = True
            jpjif[c, k] = float(jp)
            kurt[c, k] = float(ku)
            if kind:
                kinds[(c, k)] = (kind, peer_idx)
    row_of = slot_rows(held, orders)
    labels = None
    if kinds:
        if len(kinds) != held.sum():
            raise ValueError("features.csv labels some sources but not others")
        labels = [[None] * o for o in orders]
        for (c, k), (kind, peer_idx) in kinds.items():
            labels[k][row_of[c, k]] = SourceLabel(
                kind=SourceKind(kind), peers=peer_idx, n_subjects=len(ids), subject=k
            )
    features = FeatureTable(
        jpjif=jpjif,
        contributions=np.empty(jpjif.shape, dtype=object),
        kurtosis=kurt,
        joint_slots=list(manifest.get("joint_slots") or []),
        sigma_opt=manifest.get("sigma_opt"),
        jpjif_joint=manifest.get("jpjif_joint"),
    )
    return ResultsBundle(
        subject_ids=ids,
        sources=sources,
        demixing=demixing,
        whiteners=whiteners,
        means=means,
        labels=labels,
        features=features,
        manifest=manifest,
    )


def save_report(path: str | Path, report_dict: dict) -> None:
    report_dict = dict(report_dict)
    report_dict.setdefault("format_version", FORMAT_VERSION)
    report_dict.setdefault("kind", "report")
    _dump_json(Path(path), report_dict)


def load_report(path: str | Path) -> dict:
    data = _load_json(Path(path))
    if data.get("kind") != "report":
        raise ValueError(f"{path}: not a report file")
    _check_version(data)
    return data


def _config_dict(cfg: AlgoConfig) -> dict:
    return {
        "weights": list(cfg.weights),
        "max_outer": cfg.max_outer,
        "eps0": cfg.eps0,
        "max_inner": cfg.max_inner,
        "n_components": cfg.n_components,
        "sigma0": cfg.sigma0,
        "mode_switch": cfg.mode_switch,
        "tau_joint": cfg.tau_joint,
        "n_clusters": cfg.n_clusters,
        "seed": cfg.seed,
    }


def _nan_to_none(arr: np.ndarray) -> list:
    return [[None if np.isnan(v) else float(v) for v in row] for row in arr]


def _dump_json(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_json(path: Path) -> dict:
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object")
    return data


def _check_version(manifest: dict) -> None:
    version = manifest.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported format_version {version!r}")
