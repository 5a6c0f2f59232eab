"""Deterministic random streams.

Every stochastic component draws from a PCG64 generator keyed by
(seed, *stream tags). PCG64 is a fixed, named algorithm whose output is
platform-independent, so any run is bit-reproducible from its config seed.
Tags keep independent purposes (init, corpus, shuffling, adapters) on
non-overlapping streams.
"""

import numpy as np

# Stream tags. New purposes get new tags; existing values never change,
# otherwise old configs stop reproducing their runs.
INIT = 1
CORPUS = 2
BATCH = 3
LORA = 4


def rng(seed: int, *tags: int) -> np.random.Generator:
    """Generator for stream (seed, *tags)."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, *tags])))
