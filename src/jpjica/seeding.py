"""Deterministic stream splitting for every randomized stage.

A single user seed is split into independent generators through
``numpy.random.SeedSequence`` spawn keys.  Each pipeline stage owns a
fixed domain code, optionally extended by structural indices (for
example the subject index), so adding draws to one stage never perturbs
another and results are reproducible bit for bit.
"""
from __future__ import annotations

import numpy as np

# Codes are permanent: retiring a stage must not renumber the others,
# or every downstream stream would shift.  Codes 4 and 5 (the
# classifier's "clusters") belonged to stages that no longer draw.
DOMAINS = {
    "maps": 0,
    "mixing": 1,
    "noise": 2,
    "engine": 3,
}


def rng_for(seed: int, domain: str, *indices: int) -> np.random.Generator:
    """Generator for one (domain, indices...) slot of the seed tree."""
    key = (DOMAINS[domain],) + tuple(int(i) for i in indices)
    return np.random.default_rng(np.random.SeedSequence(entropy=int(seed), spawn_key=key))
