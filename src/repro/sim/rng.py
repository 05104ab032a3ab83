"""Deterministic per-component random streams.

Experiments must be reproducible run-to-run (the paper reports averages and
standard deviations over 3 runs; we re-run with three seeds).  Handing every
component its own :class:`random.Random` derived from a root seed and a
stable name keeps streams independent: adding a new consumer does not
perturb existing ones.

:class:`ZipfSampler` adds skewed index draws for workloads that model
realistic name popularity (a handful of hot services, a long cold tail)
on top of any stream the registry hands out — the skew is a pure
function of ``(n, s)``, so two equally-seeded streams sample identical
sequences.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from typing import Dict, List

try:  # CPython's builtin hash, as ``random`` takes ``_sha512``: no OpenSSL mapped
    from _sha256 import sha256
except ImportError:  # pragma: no cover - an interpreter that names it otherwise
    from hashlib import sha256


class RngRegistry:
    """Factory of named, independently-seeded :class:`random.Random` streams."""

    def __init__(self, root_seed: int) -> None:
        self._root_seed = root_seed
        self._streams: Dict[str, random.Random] = {}

    @property
    def root_seed(self) -> int:
        return self._root_seed

    def stream(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it deterministically
        on first use and keeping it for later draws."""
        existing = self._streams.get(name)
        if existing is None:
            existing = self._streams[name] = self.derive(name)
        return existing

    def derive(self, name: str) -> random.Random:
        """A fresh copy of ``name``'s stream, not kept: for a consumer
        that draws once (a start phase), so the registry does not hold a
        generator state per activity for the whole run."""
        digest = sha256(
            f"{self._root_seed}:{name}".encode("utf-8")
        ).digest()
        seed = int.from_bytes(digest[:8], "big")
        return random.Random(seed)

    def fork(self, name: str) -> "RngRegistry":
        """Derive a child registry, e.g. one per experiment repetition."""
        digest = sha256(
            f"{self._root_seed}:fork:{name}".encode("utf-8")
        ).digest()
        return RngRegistry(int.from_bytes(digest[:8], "big"))


class ZipfSampler:
    """Deterministic Zipf-skewed index draws over ``range(n)``.

    Rank ``k`` (0 = most popular) is drawn with probability proportional
    to ``1 / (k + 1) ** s``.  Sampling is inverse-CDF over precomputed
    cumulative weights (:func:`bisect.bisect_left`), so one draw costs
    one ``rng.random()`` call plus an O(log n) search and the sequence is
    a pure function of the stream's seed — the same determinism contract
    every ``RngRegistry`` stream carries.

    ``s = 0`` degenerates to the uniform distribution (every rank weight
    1), so workloads can expose the skew as a knob whose zero value means
    "unskewed" without switching sampling code paths.
    """

    __slots__ = ("n", "s", "_cumulative", "_total")

    def __init__(self, n: int, s: float) -> None:
        if n <= 0:
            raise ValueError(f"ZipfSampler needs n >= 1, got {n}")
        if s < 0:
            raise ValueError(f"ZipfSampler needs s >= 0, got {s}")
        self.n = n
        self.s = s
        cumulative: List[float] = []
        total = 0.0
        for rank in range(n):
            total += 1.0 / float(rank + 1) ** s
            cumulative.append(total)
        self._cumulative = cumulative
        self._total = total

    def sample(self, rng: random.Random) -> int:
        """Draw one rank in ``[0, n)`` using ``rng``'s stream."""
        return bisect_left(self._cumulative, rng.random() * self._total)

    def weight(self, rank: int) -> float:
        """The normalized probability of ``rank`` (for tests/analysis)."""
        previous = self._cumulative[rank - 1] if rank > 0 else 0.0
        return (self._cumulative[rank] - previous) / self._total
