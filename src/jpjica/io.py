"""Directory formats for datasets, decomposition results and reports.

Matrices are stored headerless, either as comma-separated text with 17
significant digits (lossless for IEEE doubles) or, with the binary
flag, as a 16-byte header (magic "JPJI", then uint32 version, rows,
cols, little-endian) followed by row-major float64 data.  Subject
identifiers are stable strings; peer sets are serialized as id lists
and mapped back to positional indices on load.  An identifier prefixes
file names and fills CSV fields, so it may hold no separator of either.
"""
from __future__ import annotations

import json
import os
import struct
import unicodedata
from collections import deque
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .types import (
    Decomposition,
    FeatureTable,
    GroundTruth,
    SourceKind,
    SourceLabel,
    SubjectDataset,
    check_nonempty,
    kind_counts,
    slot_rows,
)

FORMAT_VERSION = "1"
_MAGIC = b"JPJI"
# Subjects save_dataset makes and writes at once, by file suffix.  Binary:
# two, so one subject's noise draw or file write (numpy and the kernel drop
# the GIL for both) runs beside the other's, at one more T x V matrix.
# CSV: one, as np.savetxt formats under the GIL and a second writer only
# contends for it (two made noiseless CSV set-up slower; CHANGES.md).
_SUBJECTS_IN_FLIGHT = {".bin": 2, ".csv": 1}


def save_matrix(path: str | Path, arr: np.ndarray) -> None:
    """Write a 2-D matrix; the .bin suffix selects the binary format."""
    path = Path(path)
    arr = np.atleast_2d(np.asarray(arr, dtype=float))
    if path.suffix == ".bin":
        with open(path, "wb") as fh:
            fh.write(_MAGIC)
            fh.write(struct.pack("<III", 1, arr.shape[0], arr.shape[1]))
            # Straight from the array's buffer: no bytes copy of the payload.
            fh.write(memoryview(np.ascontiguousarray(arr, dtype="<f8")))
    else:
        np.savetxt(path, arr, delimiter=",", fmt="%.17g")


def _binary_shape(fh, path: Path) -> tuple[int, int]:
    """Rows and columns of the binary matrix open in ``fh``, read from its header.

    Checks the magic, the version and that the file holds exactly the
    payload the header declares; leaves ``fh`` at the first payload byte.
    """
    header = fh.read(16)
    if len(header) != 16 or header[:4] != _MAGIC:
        raise ValueError(f"{path}: not a JPJI binary matrix")
    version, rows, cols = struct.unpack("<III", header[4:])
    if version != 1:
        raise ValueError(f"{path}: unsupported binary version {version}")
    size = os.fstat(fh.fileno()).st_size
    expected = 16 + 8 * rows * cols
    if size != expected:
        kind = "truncated" if size < expected else "oversized"
        raise ValueError(
            f"{path}: {kind} binary matrix: size mismatch, {size} bytes"
            f" where a {rows}x{cols} header needs {expected}"
        )
    return rows, cols


def load_matrix(path: str | Path) -> np.ndarray:
    """Read a matrix written by :func:`save_matrix`."""
    path = Path(path)
    if path.suffix == ".bin":
        with open(path, "rb") as fh:
            rows, cols = _binary_shape(fh, path)
            return np.fromfile(fh, dtype="<f8", count=rows * cols).reshape(rows, cols)
    return np.loadtxt(path, delimiter=",", ndmin=2)


@dataclass(frozen=True)
class BinarySubject:
    """A subject whose binary observation matrix stays on disk.

    Built from the file's header alone; the payload is read only through
    the ``types.Observations`` view: each T x B column block with one
    ``os.preadv`` per row into the caller's buffer.  The reduction takes
    two passes of blocks, so each payload byte is read twice.  A short
    read raises ValueError naming the file.
    """

    subject_id: str
    path: Path
    n_time: int
    n_voxels: int

    @classmethod
    def from_header(cls, subject_id: str, path: Path) -> "BinarySubject":
        """Check the header of ``path``; a 0-row or 0-column one raises EmptyInput."""
        with open(path, "rb") as fh:
            rows, cols = _binary_shape(fh, path)
        check_nonempty(subject_id, (rows, cols))
        return cls(subject_id, path, rows, cols)

    def column_blocks(self, out: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
        """Each block of ``out.shape[1]`` columns, read into ``out[:, :b]``."""
        width = out.shape[1]
        with open(self.path, "rb") as fh:
            for start in range(0, self.n_voxels, width):
                blk = out[:, : min(width, self.n_voxels - start)]
                for i in range(self.n_time):
                    self._read(fh.fileno(), blk[i], i, start)
                yield start, blk

    def _read(self, fd: int, dest: np.ndarray, row: int, col: int) -> None:
        """Fill the contiguous ``dest`` from row ``row``, column ``col`` on."""
        got = os.preadv(fd, [dest], 16 + 8 * (row * self.n_voxels + col))
        if got != dest.nbytes:
            raise ValueError(
                f"{self.path}: short read, {got} of {dest.nbytes} bytes at row {row}"
            )
        if not np.little_endian:
            dest.byteswap(inplace=True)


def _load_finite(path: Path) -> np.ndarray:
    """:func:`load_matrix`, with NaN/Inf rejected by a ValueError that names the file."""
    arr = load_matrix(path)
    # Row by row, as SubjectDataset checks: no boolean mask of the whole matrix.
    if not all(np.isfinite(row).all() for row in arr):
        raise ValueError(f"{path}: matrix contains NaN/Inf")
    return arr


class MatrixFiles(Sequence):
    """Finite matrices left on disk, each read when it is asked for.

    Item k is the matrix at ``paths[k]``, which must have ``rows[k]``
    rows.  Nothing read is kept here: each access reads the file again.
    A NaN/Inf or another row count raises ValueError naming the file.
    """

    def __init__(self, paths: Sequence[Path], rows: Sequence[int]) -> None:
        self.paths, self.rows = list(paths), list(rows)

    def __len__(self) -> int:
        return len(self.paths)

    def __getitem__(self, k: int) -> np.ndarray:
        arr = _load_finite(self.paths[k])
        if arr.shape[0] != self.rows[k]:
            raise ValueError(
                f"{self.paths[k]}: {arr.shape[0]} rows where {self.rows[k]} are expected"
            )
        return arr


def _check_subject_id(sid: str) -> None:
    """Reject an id that is empty or holds a path or CSV separator or a control character."""
    if not sid or any(ch in "/\\,|" or unicodedata.category(ch) == "Cc" for ch in sid):
        raise ValueError(
            f"subject id {sid!r} is empty or holds '/', '\\', ',', '|' or a control character"
        )


def _ext(binary: bool) -> str:
    return ".bin" if binary else ".csv"


def save_dataset(
    directory: str | Path,
    datasets: Sequence[SubjectDataset],
    truth: GroundTruth | None = None,
    scenario_dict: dict | None = None,
    binary: bool = False,
) -> Path:
    """Write observations (and optional ground truth) plus manifest.json.

    Item k of ``datasets`` is read, checked and written on a worker
    thread, and dropped there: at most two binary subjects or one CSV
    subject at a time (``_SUBJECTS_IN_FLIGHT``).  A lazy sequence such
    as ``simulate.stream_dataset``'s therefore makes each subject on the
    worker too, and at most that many T x V matrices are held.  An
    existing manifest.json is deleted before the first subject file is
    written, and the new one is written last, in subject order, so a
    directory whose writing failed has no manifest.  When a subject
    fails, subjects not yet started are cancelled, those in flight are
    finished, and the first error in subject order is raised.
    """
    if not len(datasets):
        raise ValueError("a dataset needs at least one subject")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "manifest.json").unlink(missing_ok=True)
    ext = _ext(binary)

    def write(k: int) -> tuple[dict, int]:
        ds = datasets[k]
        _check_subject_id(ds.subject_id)
        fname = f"{ds.subject_id}_obs{ext}"
        save_matrix(directory / fname, ds.observations)
        return {"id": ds.subject_id, "n_time": ds.n_time, "observations": fname}, ds.n_voxels

    # Imported here, so decompose and evaluate, which write no dataset, do
    # not load the pool and the logging module it pulls in.
    from concurrent.futures import ThreadPoolExecutor

    written: list[tuple[dict, int]] = []
    most = _SUBJECTS_IN_FLIGHT[ext]
    pool = ThreadPoolExecutor(most)
    try:
        in_flight = deque()
        for k in range(len(datasets)):
            in_flight.append(pool.submit(write, k))
            if len(in_flight) == most:
                written.append(in_flight.popleft().result())
        written += [job.result() for job in in_flight]
    finally:
        pool.shutdown(cancel_futures=True)
    subjects = [entry for entry, _ in written]
    ids = [entry["id"] for entry in subjects]
    n_voxels = written[0][1]
    manifest = {
        "format_version": FORMAT_VERSION,
        "kind": "dataset",
        "n_subjects": len(ids),
        "n_voxels": n_voxels,
        "binary": binary,
        "scenario": scenario_dict,
        "subjects": subjects,
        "ground_truth": None,
    }
    if truth is not None:
        gt_subjects = []
        for k, sid in enumerate(ids):
            s_name = f"truth_{sid}_sources{ext}"
            a_name = f"truth_{sid}_mixing{ext}"
            save_matrix(directory / s_name, truth.sources[k])
            save_matrix(directory / a_name, truth.mixing[k])
            gt_subjects.append(
                {
                    "id": sid,
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
        counts = [kind_counts(labs) for labs in truth.labels]
        manifest["ground_truth"] = {
            "joint_count": counts[0][SourceKind.JOINT],
            "pjoint_counts": [c[SourceKind.PARTIALLY_JOINT] for c in counts],
            "individual_counts": [c[SourceKind.INDIVIDUAL] for c in counts],
            "subjects": gt_subjects,
        }
    _dump_json(directory / "manifest.json", manifest)
    return directory / "manifest.json"


def read_subjects(
    directory: str | Path,
) -> tuple[Iterator[SubjectDataset | BinarySubject], dict]:
    """Lazy subjects of a dataset directory, and its manifest, read at once.

    A subject is made when the iterator reaches it.  A binary subject is
    a :class:`BinarySubject`: its header is checked then, and the
    reduction reads its payload block by block, twice, so no T x V
    matrix of it is ever held.  A CSV subject is parsed whole into a
    ``SubjectDataset``.
    """
    directory = Path(directory)
    manifest = _load_dataset_manifest(directory)
    subjects = (
        _subject(entry["id"], directory / entry["observations"])
        for entry in manifest["subjects"]
    )
    return subjects, manifest


def _subject(subject_id: str, path: Path) -> SubjectDataset | BinarySubject:
    if path.suffix == ".bin":
        return BinarySubject.from_header(subject_id, path)
    return SubjectDataset(subject_id=subject_id, observations=load_matrix(path))


def load_truth(directory: str | Path) -> tuple[GroundTruth | None, dict]:
    """Ground truth and manifest of a dataset directory.

    The observation matrices are never read; :func:`read_subjects` reads
    them.  The true sources stay on disk as :class:`MatrixFiles`, each
    read when it is asked for; the mixing matrices and labels are read
    now.
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
    for entry in subjects:
        _check_subject_id(entry["id"])
    return manifest


def _truth_from_manifest(directory: Path, manifest: dict) -> GroundTruth | None:
    """Ground truth of a manifest, or None.

    A malformed block, NaN/Inf, a label whose kind is not the one its
    peers imply, or a count that is not its labels' raises ValueError;
    so does a sources matrix without one row per label, when it is read.
    """
    gt = manifest.get("ground_truth")
    if gt is None:
        return None
    try:
        idx_of = {entry["id"]: k for k, entry in enumerate(manifest["subjects"])}
        paths, mixing, labels = [], [], []
        for k, entry in enumerate(gt["subjects"]):
            paths.append(directory / entry["sources"])
            mixing.append(_load_finite(directory / entry["mixing"]))
            labels.append(
                [
                    _stored_label(
                        lab["kind"],
                        (idx_of[p] for p in lab["peers"]),
                        len(manifest["subjects"]),
                        k,
                    )
                    for lab in entry["labels"]
                ]
            )
        joint = gt["joint_count"]
        pjoint, individual = list(gt["pjoint_counts"]), list(gt["individual_counts"])
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError(
            f"{directory}: malformed ground_truth ({type(exc).__name__}: {exc})"
        ) from exc
    if not len(pjoint) == len(individual) == len(labels):
        raise ValueError(
            f"{directory}: malformed ground_truth (pjoint_counts and"
            f" individual_counts need one entry per subject, {len(labels)})"
        )
    for k, counts in enumerate(map(kind_counts, labels)):
        if counts[SourceKind.JOINT] != joint:
            raise ValueError("joint count mismatch")
        pj, iv = counts[SourceKind.PARTIALLY_JOINT], counts[SourceKind.INDIVIDUAL]
        if (pj, iv) != (pjoint[k], individual[k]):
            raise ValueError("per-subject count mismatch")
    sources = MatrixFiles(paths, [len(labs) for labs in labels])
    return GroundTruth(sources=sources, mixing=mixing, labels=labels)


def _stored_label(kind: str, peers: Iterable[int], n_subjects: int, subject: int) -> SourceLabel:
    """The label of a file entry that stores ``kind`` beside the peer set.

    Raises ValueError when ``kind`` is not the kind the peers imply.
    """
    label = SourceLabel(peers=peers, n_subjects=n_subjects, subject=subject)
    if SourceKind(kind) is not label.kind:
        raise ValueError(
            f"a source shared with {len(label.peers)} of {n_subjects - 1}"
            f" other subjects is {label.kind.value}, not {kind}"
        )
    return label


def save_decomposition(
    directory: str | Path, decomp: Decomposition, binary: bool = False
) -> Path:
    """Write demixing rows, sources, whiteners, features, labels, traces."""
    ids = decomp.subject_ids
    for sid in ids:
        _check_subject_id(sid)
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    ext = _ext(binary)
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
    feature_lines = ["slot,subject,jpjif,kurtosis,kind,peers\n"]
    label_lines = ["slot,subject,kind,peers\n"]
    for c in range(decomp.n_slots):
        for k, sid in enumerate(ids):
            row = row_of[c, k]
            if row < 0:
                continue
            jp, ku = feats.jpjif[c, k], feats.kurtosis[c, k]
            kind, peers = "", ""
            if decomp.labels is not None:
                lab = decomp.labels[k][row]
                kind = lab.kind.value
                peers = "|".join(sorted(ids[j] for j in lab.peers))
                label_lines.append(f"{c},{sid},{kind},{peers}\n")
            feature_lines.append(f"{c},{sid},{jp:.17g},{ku:.17g},{kind},{peers}\n")
    with open(directory / "features.csv", "w") as fh:
        fh.writelines(feature_lines)
    if decomp.labels is not None:
        with open(directory / "labels.csv", "w") as fh:
            fh.writelines(label_lines)
    with open(directory / "cost_trace.csv", "w") as fh:
        fh.write("sweep,slot,subject,iteration,cost,mode,converged\n")
        for t in decomp.traces:
            for i, val in enumerate(t.costs):
                fh.write(
                    f"{t.sweep},{t.slot},{ids[t.subject]},{i},{val:.17g},"
                    f"{t.mode},{int(t.converged)}\n"
                )
    results = {
        "format_version": FORMAT_VERSION,
        "kind": "results",
        "algorithm": decomp.algorithm,
        "binary": binary,
        "subject_ids": list(ids),
        "orders": [int(s.shape[0]) for s in decomp.sources],
        "config": asdict(decomp.config),
        "joint_slots": list(feats.joint_slots),
        "sigma_opt": feats.sigma_opt,
        "jpjif_joint": feats.jpjif_joint,
        "extraction_costs": _nan_to_none(decomp.extraction_costs),
        "self_mode": decomp.self_mode.astype(int).tolist(),
        "files": files,
    }
    _dump_json(directory / "results.json", results)
    return directory / "results.json"


@dataclass
class ResultsBundle:
    """View of a results directory; its sources stay on disk (:class:`MatrixFiles`)."""

    subject_ids: list[str]
    sources: Sequence[np.ndarray]
    demixing: list[np.ndarray]
    whiteners: list[np.ndarray]
    means: list[np.ndarray]
    labels: list[list[SourceLabel]] | None
    features: FeatureTable
    manifest: dict


def load_decomposition(directory: str | Path) -> ResultsBundle:
    """Read a results directory back into arrays and labels.

    The sources stay on disk as :class:`MatrixFiles`, each read when it
    is asked for, and must have the row counts ``results.json`` lists
    under ``orders``.  A ``results.json`` missing ``subject_ids``,
    ``orders``, ``files`` or a file entry raises ValueError, and so does
    a sources matrix holding NaN/Inf or another row count, when it is
    read.
    """
    directory = Path(directory)
    manifest = _load_json(directory / "results.json")
    if manifest.get("kind") != "results":
        raise ValueError(f"{directory}: manifest is not a results manifest")
    _check_version(manifest)
    paths, demixing, whiteners, means = [], [], [], []
    try:
        ids = list(manifest["subject_ids"])
        orders = manifest["orders"]
        for sid in ids:
            entry = manifest["files"][sid]
            paths.append(directory / entry["sources"])
            demixing.append(load_matrix(directory / entry["demixing"]))
            whiteners.append(load_matrix(directory / entry["whitener"]))
            means.append(load_matrix(directory / entry["mean"]).ravel())
    except (KeyError, TypeError) as exc:
        raise ValueError(
            f"{directory}: malformed results.json ({type(exc).__name__}: {exc})"
        ) from exc
    if not (
        isinstance(orders, list)
        and len(orders) == len(ids)
        and all(isinstance(o, int) and o >= 1 for o in orders)
    ):
        raise ValueError(
            f"{directory}: malformed results.json (orders needs one positive integer per subject)"
        )
    idx_of = {sid: k for k, sid in enumerate(ids)}
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
            labels[k][row_of[c, k]] = _stored_label(kind, peer_idx, len(ids), k)
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
        sources=MatrixFiles(paths, orders),
        demixing=demixing,
        whiteners=whiteners,
        means=means,
        labels=labels,
        features=features,
        manifest=manifest,
    )


# The keys ``jpjica report`` groups its tables by: (table file, column,
# dotted path in a report, key when the value is null or absent).
# load_report checks every path, so adding a table here is enough.
REPORT_GROUP_KEYS = (
    ("convergence.csv", "max_outer", "results.config.max_outer", None),
    ("snr.csv", "snr_db", "dataset.scenario.snr_db", "inf"),
    ("subjects.csv", "n_subjects", "dataset.n_subjects", None),
    ("comparison.csv", "algorithm", "results.algorithm", None),
)


def report_value(report: dict, dotted: str):
    """Value at a dotted path of nested objects; None once a step is null or absent.

    Raises ValueError when a step before the last is neither an object
    nor null.
    """
    value = report
    for key in dotted.split("."):
        if value is None:
            break
        if not isinstance(value, dict):
            raise ValueError(f"the parent of '{key}' in '{dotted}' is not an object")
        value = value.get(key)
    return value


def save_report(path: str | Path, report_dict: dict) -> None:
    report_dict = dict(report_dict)
    report_dict.setdefault("format_version", FORMAT_VERSION)
    report_dict.setdefault("kind", "report")
    _dump_json(Path(path), report_dict)


def load_report(path: str | Path) -> dict:
    """Read a report written by :func:`save_report`.

    Raises ValueError unless the report holds what ``jpjica report``
    reads: in ``metrics``, numbers ``jsir_db`` and ``acc_peer_sets`` and
    an object ``acc_counts``; a number, string or null at each key the
    tables group by, each step of whose path is an object or absent; and
    a list ``features`` (or none) of rows with an integer ``slot``, a
    string ``subject`` and numbers ``jpjif`` and ``kurtosis``.  The
    group keys are those of ``REPORT_GROUP_KEYS``.
    """
    data = _load_json(Path(path))
    if data.get("kind") != "report":
        raise ValueError(f"{path}: not a report file")
    _check_version(data)
    metrics = data.get("metrics")
    if not (
        isinstance(metrics, dict)
        and isinstance(metrics.get("acc_counts"), dict)
        and all(isinstance(metrics.get(k), (int, float)) for k in ("jsir_db", "acc_peer_sets"))
    ):
        raise ValueError(
            f"{path}: 'metrics' needs numbers jsir_db and acc_peer_sets and an object acc_counts"
        )
    for _, _, name, _ in REPORT_GROUP_KEYS:
        try:
            value = report_value(data, name)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        if not isinstance(value, (int, float, str, type(None))):
            raise ValueError(f"{path}: '{name}' must be a number, string or null")
    features = data.get("features", [])
    if not (
        isinstance(features, list)
        and all(
            isinstance(row, dict)
            and isinstance(row.get("slot"), int)
            and isinstance(row.get("subject"), str)
            and all(isinstance(row.get(k), (int, float)) for k in ("jpjif", "kurtosis"))
            for row in features
        )
    ):
        raise ValueError(
            f"{path}: 'features' needs rows with an integer slot, a string subject "
            "and numbers jpjif and kurtosis"
        )
    return data


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
