"""Deterministic random-number helpers.

Every stochastic choice in the workload generators flows through a seeded
:class:`numpy.random.Generator` so that simulation runs — and therefore all
reported numbers — are bit-for-bit reproducible.

This module imports no NumPy at module scope: the simulator core
(``machine.faults`` imports :func:`derive_seed`) runs without it, and NumPy
loads when the first generator is made (:func:`make_rng`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

#: default seed used by workload generators when the caller does not care
DEFAULT_SEED: int = 0x5C1997  # SC '97


def make_rng(seed: int | None = None) -> np.random.Generator:
    """Return a seeded :class:`numpy.random.Generator`.

    ``None`` means "the package default", *not* nondeterminism: experiments
    must reproduce exactly across runs.
    """
    import numpy as np

    return np.random.default_rng(DEFAULT_SEED if seed is None else seed)


def derive_seed(seed: int, *salts: int | str) -> int:
    """Derive a child seed deterministically from ``seed`` and salts.

    Used to give independent-but-reproducible streams to sub-generators
    (e.g. one per simulated processor) without correlated sequences.
    ``seed`` must lie in [0, 2**64) (an unsigned 64-bit state); outside it
    raises :class:`OverflowError`.
    """
    h = int(seed)
    if not 0 <= h < 2**64:
        raise OverflowError(f"seed {seed} out of bounds for uint64")
    for salt in salts:
        if isinstance(salt, str):
            salt = sum(ord(c) * 131**i for i, c in enumerate(salt)) % (2**31)
        h = (h * 6364136223846793005 + int(salt) * 1442695040888963407 + 1) % 2**64
    return h % (2**31 - 1)
