"""Single-tuple baseline decomposition (shared-or-own labels).

Shares the sweep/deflation schedule with the main engine but replaces
the full peer ring by one randomly drawn partner tuple per extraction,
and decides at extraction time, by thresholding the tuple cost, whether
a source is shared by the slot's holders or is its subject's own.  The
baseline cannot find a sharing cluster: with equal orders every source
comes out joint or individual, and under ragged orders a shared source
is partially joint among the holders of its slot.
"""
from __future__ import annotations

from dataclasses import replace
from typing import Iterable

import numpy as np

from .engine import run_jpji_ica
from .types import AlgoConfig, Decomposition, Observations, SourceLabel


def run_ji_thica(
    datasets: Iterable[Observations], config: AlgoConfig | None = None
) -> Decomposition:
    """Run the single-tuple decomposition and attach its labels.

    The label of each source is the final-sweep extraction decision:
    shared by the slot's holders if the tuple cost cleared the engine's
    floor (``engine.mode_switch_threshold``), the subject's own
    otherwise.  The feature table is the engine's, unchanged.
    """
    decomp = run_jpji_ica(datasets, config, algorithm="jithica")
    k_total = decomp.n_subjects
    held = decomp.slot_rows >= 0
    labels: list[list[SourceLabel]] = []
    for k in range(k_total):
        subject_labels: list[SourceLabel] = []
        for c in np.flatnonzero(held[:, k]):
            holders = () if decomp.self_mode[c, k] else np.flatnonzero(held[c])
            peers = {int(j) for j in holders if j != k}
            subject_labels.append(SourceLabel(peers=peers, n_subjects=k_total, subject=k))
        labels.append(subject_labels)
    return replace(decomp, labels=labels)
