"""Single-tuple baseline decomposition (two-way labels only).

Shares the sweep/deflation schedule with the main engine but replaces
the full peer ring by one randomly drawn partner tuple per extraction,
and decides joint versus individual at extraction time by thresholding
the tuple cost.  Partially joint structure is invisible to this
variant: every source comes out labeled joint or individual.
"""
from __future__ import annotations

from dataclasses import replace
from typing import Iterable

import numpy as np

from .engine import run_jpji_ica
from .types import AlgoConfig, Decomposition, Observations, SourceKind, SourceLabel


def run_ji_thica(
    datasets: Iterable[Observations], config: AlgoConfig | None = None
) -> Decomposition:
    """Run the single-tuple decomposition and attach two-way labels.

    The label of each source is the final-sweep extraction decision:
    joint if the tuple cost cleared the threshold (sigma0, or its
    automatic value), individual otherwise.  The feature table is the
    engine's, unchanged.
    """
    decomp = run_jpji_ica(datasets, config, algorithm="jithica")
    k_total = decomp.n_subjects
    held = decomp.slot_rows >= 0
    labels: list[list[SourceLabel]] = []
    for k in range(k_total):
        subject_labels: list[SourceLabel] = []
        for c in np.flatnonzero(held[:, k]):
            holders = frozenset(int(j) for j in np.flatnonzero(held[c]) if j != k)
            if decomp.self_mode[c, k] or not holders:
                kind, peers = SourceKind.INDIVIDUAL, frozenset()
            elif len(holders) == k_total - 1:
                kind, peers = SourceKind.JOINT, holders
            else:
                # Ragged orders: "shared" can only mean the slot holders.
                kind, peers = SourceKind.PARTIALLY_JOINT, holders
            subject_labels.append(
                SourceLabel(kind=kind, peers=peers, n_subjects=k_total, subject=k)
            )
        labels.append(subject_labels)
    return replace(decomp, labels=labels)
