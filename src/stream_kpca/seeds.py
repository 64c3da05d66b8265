"""Named RNG sub-streams derived from one master seed.

Every source of randomness in the package draws from a sub-stream keyed by
(master seed, stream name, index), so a single seed pins the whole run and
no component touches global RNG state.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError

STREAM_TAGS = {
    "feature_map": 1,
    "reservoir": 2,
    "data_gen": 3,
    "benchmark_cell": 4,
    "test_split": 5,
}


def substream_seed(master: int, name: str, index: int = 0) -> int:
    if master < 0:
        raise ConfigurationError(f"seed must be a non-negative integer, got {master}")
    try:
        tag = STREAM_TAGS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown RNG stream {name!r}; known: {sorted(STREAM_TAGS)}"
        ) from None
    seq = np.random.SeedSequence([int(master), tag, int(index)])
    return int(seq.generate_state(1, np.uint64)[0])
