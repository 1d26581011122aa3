"""Deterministic random streams.

Every stochastic component derives its own independent stream from a
root seed plus a structured key, so adding a component never perturbs
the stream of another (counter-based sub-seeding via SeedSequence).
"""

from __future__ import annotations

import zlib
from typing import TYPE_CHECKING, Union

if TYPE_CHECKING:
    import numpy as np

Key = Union[str, int]


def _key_to_int(key: Key) -> int:
    if isinstance(key, int):
        return key
    return zlib.crc32(str(key).encode("utf-8"))


def rng_stream(root_seed: int, *key: Key) -> np.random.Generator:
    """An independent, reproducible generator for (root_seed, *key).

    Example
    -------
    >>> a = rng_stream(42, "nic", 0)
    >>> b = rng_stream(42, "nic", 0)
    >>> float(a.random()) == float(b.random())
    True
    """
    # imported here: only the Marcel jitter draws random numbers, and
    # numpy is half of every other run's start-up
    import numpy as np

    seq = np.random.SeedSequence([root_seed] + [_key_to_int(k) for k in key])
    return np.random.default_rng(seq)
