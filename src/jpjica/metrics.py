"""Evaluation against ground truth: matching, jSIR, accuracy scores."""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import CountMismatchWarning
from .numerics import linear_sum_assignment
from .types import Decomposition, GroundTruth, SourceKind, SourceLabel

_DB_CLAMP = 120.0


@dataclass(frozen=True)
class SubjectMatch:
    """Pairing of one subject's true and estimated sources.

    ``est_of_true[i]`` is the estimated row matched to true row i (or -1
    when counts differ and the row went unmatched); ``correlation[i]``
    the absolute correlation of the pair and ``sign[i]`` its sign.
    """

    est_of_true: np.ndarray
    correlation: np.ndarray
    sign: np.ndarray


def _std_rows(x: np.ndarray) -> np.ndarray:
    xc = x - x.mean(axis=1, keepdims=True)
    sd = np.sqrt(np.mean(xc * xc, axis=1, keepdims=True))
    sd = np.where(sd < 1e-300, 1.0, sd)
    return xc / sd


def match_sources(
    true_sources: Sequence[np.ndarray], est_sources: Sequence[np.ndarray]
) -> list[SubjectMatch]:
    """Per-subject assignment maximizing total absolute correlation."""
    out: list[SubjectMatch] = []
    for t, e in zip(true_sources, est_sources):
        ts = _std_rows(np.asarray(t, dtype=float))
        es = _std_rows(np.asarray(e, dtype=float))
        if ts.shape[0] != es.shape[0]:
            warnings.warn(
                f"{ts.shape[0]} true vs {es.shape[0]} estimated sources;"
                " extra rows stay unmatched",
                CountMismatchWarning,
            )
        corr = ts @ es.T / ts.shape[1]
        rows, cols = linear_sum_assignment(-np.abs(corr))
        est_of_true = np.full(ts.shape[0], -1, dtype=int)
        correlation = np.zeros(ts.shape[0])
        sign = np.ones(ts.shape[0])
        for i, j in zip(rows, cols):
            est_of_true[i] = j
            correlation[i] = abs(float(corr[i, j]))
            sign[i] = 1.0 if corr[i, j] >= 0 else -1.0
        out.append(SubjectMatch(est_of_true=est_of_true, correlation=correlation, sign=sign))
    return out


def jsir_db(rho: float) -> float:
    """Signal-to-interference ratio in dB of one matched pair.

    For zero-mean unit-variance vectors with correlation rho the energy
    ratio of signal to residual is rho / (2 (1 - rho)); clamped to
    +-120 dB to keep perfect/failed recoveries finite.
    """
    rho = min(max(float(rho), 0.0), 1.0)
    if rho <= 0.0:
        return -_DB_CLAMP
    if 1.0 - rho < 1e-12:
        return _DB_CLAMP
    val = 10.0 * np.log10(rho / (2.0 * (1.0 - rho)))
    return float(np.clip(val, -_DB_CLAMP, _DB_CLAMP))


def jsir(matches: Sequence[SubjectMatch]) -> tuple[float, list[float]]:
    """Mean jSIR over subjects (matched pairs averaged within subject)."""
    per_subject: list[float] = []
    for m in matches:
        vals = [jsir_db(m.correlation[i]) for i in range(m.est_of_true.size) if m.est_of_true[i] >= 0]
        per_subject.append(float(np.mean(vals)) if vals else -_DB_CLAMP)
    return float(np.mean(per_subject)), per_subject


def _count(labels: Sequence[SourceLabel], kind: SourceKind) -> int:
    return sum(1 for l in labels if l.kind is kind)


def acc_counts_run(
    truth: Sequence[Sequence[SourceLabel]], est: Sequence[Sequence[SourceLabel]]
) -> dict[str, bool]:
    """Per-kind run verdict: every subject's count of that kind matches."""
    out: dict[str, bool] = {}
    for kind in SourceKind:
        out[kind.value] = all(
            _count(t, kind) == _count(e, kind) for t, e in zip(truth, est)
        )
    return out


def acc_c(runs: Sequence[dict[str, bool]]) -> dict[str, float]:
    """Percentage of runs with fully correct counts, per kind.

    A run that does not name a kind counts as wrong for it.
    """
    out: dict[str, float] = {}
    for kind in SourceKind:
        vals = [100.0 * bool(r.get(kind.value)) for r in runs]
        out[kind.value] = float(np.mean(vals)) if vals else float("nan")
    return out


def acc_peer_sets_run(
    truth: Sequence[Sequence[SourceLabel]],
    est: Sequence[Sequence[SourceLabel]],
    matches: Sequence[SubjectMatch],
) -> float:
    """Percentage of matched sources with exactly recovered peer sets."""
    per_subject: list[float] = []
    for t_labels, e_labels, m in zip(truth, est, matches):
        hits, total = 0, 0
        for i, lab in enumerate(t_labels):
            total += 1
            j = int(m.est_of_true[i])
            if 0 <= j < len(e_labels) and e_labels[j].peers == lab.peers:
                hits += 1
        per_subject.append(100.0 * hits / total if total else 100.0)
    return float(np.mean(per_subject)) if per_subject else float("nan")


def acc_k(run_values: Sequence[float]) -> float:
    """Mean peer-set accuracy over runs."""
    return float(np.mean([float(v) for v in run_values])) if run_values else float("nan")


@dataclass
class EvaluationReport:
    """All evaluation results of one run."""

    jsir_db: float
    jsir_per_subject: list[float]
    acc_counts: dict[str, bool]
    acc_peer_sets: float
    matches: list[SubjectMatch]

    def to_dict(self) -> dict:
        return {
            "jsir_db": self.jsir_db,
            "jsir_per_subject": self.jsir_per_subject,
            "acc_counts": {k: bool(v) for k, v in self.acc_counts.items()},
            "acc_peer_sets": self.acc_peer_sets,
            "matching": [
                {
                    "est_of_true": m.est_of_true.tolist(),
                    "correlation": m.correlation.tolist(),
                    "sign": m.sign.tolist(),
                }
                for m in self.matches
            ],
        }


def evaluate_run(truth: GroundTruth, decomp: Decomposition) -> EvaluationReport:
    """Match sources and compute all metrics for one labeled run.

    Only ``decomp.sources`` and ``decomp.labels`` are read, so an
    ``io.ResultsBundle`` loaded from a results directory serves as well.
    """
    if decomp.labels is None:
        raise ValueError("decomposition must be labeled before evaluation")
    matches = match_sources(truth.sources, decomp.sources)
    overall, per_subject = jsir(matches)
    counts = acc_counts_run(truth.labels, decomp.labels)
    peers = acc_peer_sets_run(truth.labels, decomp.labels, matches)
    return EvaluationReport(
        jsir_db=overall,
        jsir_per_subject=per_subject,
        acc_counts=counts,
        acc_peer_sets=peers,
        matches=matches,
    )
