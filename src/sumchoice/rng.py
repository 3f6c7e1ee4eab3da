"""Deterministic, splittable random streams.

Every randomized routine in the package derives its generator from an
integer seed plus a label path, so per-trial streams are reproducible and
independent of execution order.  Seeding goes through a string key, which
``random.Random`` hashes with SHA-512 (stable across processes and
platforms, unlike ``hash()`` on tuples).  A seed is read by
``operator.index``: a bool is the int it equals, so it draws that int's
stream, and a float or a string is a ValueError.
"""

from __future__ import annotations

import operator
import random


def derive_rng(seed: int, *path: object) -> random.Random:
    """Return a ``random.Random`` keyed by ``seed`` and a label path.

    ``derive_rng(seed, "trial", 7)`` and ``derive_rng(seed, "trial", 8)``
    are independent streams; equal arguments give identical streams.
    """
    try:
        seed = operator.index(seed)
    except TypeError:
        raise ValueError(f"seeds must be integers, got {seed!r}") from None
    key = ":".join(str(part) for part in (seed, *path))
    return random.Random(key)
