"""Block-count configurations, allele frequency spectra and partition enumeration."""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral, Real
from typing import Iterator, List, Tuple

__all__ = [
    "Configuration",
    "AFSVector",
    "afs",
    "enumerate_afs",
    "log_partition_coefficient",
]

_ENUM_LIMIT = 40


@dataclass(frozen=True)
class Configuration:
    """Block sizes (n_1, ..., n_k) in order of appearance; all entries >= 1."""

    counts: Tuple[int, ...]

    def __post_init__(self):
        if len(self.counts) == 0:
            raise ValueError("configuration needs at least one block")
        # A tuple of positive Python ints, as every method here builds, is kept as it is.
        counts = self.counts
        if type(counts) is not tuple or any(type(c) is not int or c < 1 for c in counts):
            if not all(isinstance(c, Integral) or isinstance(c, Real) and float(c).is_integer()
                       for c in counts) or min(counts) < 1:
                raise ValueError(f"block counts must be positive integers, got {counts}")
            object.__setattr__(self, "counts", tuple(int(c) for c in counts))

    @property
    def n(self) -> int:
        return sum(self.counts)

    @property
    def k(self) -> int:
        return len(self.counts)

    def __iter__(self):
        return iter(self.counts)

    def __len__(self):
        return len(self.counts)

    def sorted_counts(self) -> Tuple[int, ...]:
        return tuple(sorted(self.counts, reverse=True))

    def remove_one(self, i: int) -> "Configuration | None":
        """The configuration with one count removed from block i; None if it empties
        the last remaining observation."""
        counts = list(self.counts)
        if not (0 <= i < len(counts)):
            raise IndexError(f"block index {i} out of range")
        counts[i] -= 1
        if counts[i] == 0:
            del counts[i]
        if not counts:
            return None
        return Configuration(tuple(counts))

    def add_one(self, i: int) -> "Configuration":
        counts = list(self.counts)
        if not (0 <= i < len(counts)):
            raise IndexError(f"block index {i} out of range")
        counts[i] += 1
        return Configuration(tuple(counts))

    def append_block(self) -> "Configuration":
        return Configuration(self.counts + (1,))

    @classmethod
    def parse(cls, text: str) -> "Configuration":
        """Parse the comma-separated text form, e.g. "3,2,1"."""
        try:
            counts = tuple(int(p) for p in text.split(","))
        except ValueError as exc:
            raise ValueError(f"cannot parse configuration {text!r}") from exc
        return cls(counts)

    def __str__(self):
        return ",".join(str(c) for c in self.counts)


@dataclass(frozen=True)
class AFSVector:
    """Multiplicity representation m = (m_1, ..., m_n): m_j blocks of size j."""

    m: Tuple[int, ...]

    def __post_init__(self):
        if len(self.m) == 0 or any(x < 0 for x in self.m):
            raise ValueError(f"invalid multiplicity vector {self.m}")
        object.__setattr__(self, "m", tuple(int(x) for x in self.m))

    @property
    def n(self) -> int:
        return sum((j + 1) * mj for j, mj in enumerate(self.m))

    @property
    def k(self) -> int:
        return sum(self.m)

    def to_configuration(self) -> Configuration:
        counts = []
        for j in range(len(self.m), 0, -1):
            counts.extend([j] * self.m[j - 1])
        return Configuration(tuple(counts))


def afs(config: Configuration) -> AFSVector:
    """Multiplicity vector of a configuration: m_j = #{i : n_i = j}."""
    n = config.n
    m = [0] * n
    for c in config.counts:
        m[c - 1] += 1
    return AFSVector(tuple(m))


def _descending_partitions(n: int, largest: int) -> Iterator[List[int]]:
    if n == 0:
        yield []
        return
    for first in range(min(largest, n), 0, -1):
        for rest in _descending_partitions(n - first, first):
            yield [first] + rest


def enumerate_afs(n: int) -> List[AFSVector]:
    """All integer partitions of n in multiplicity form, reverse-lexicographic order.

    The result is exactly the union over k of the admissible multiplicity
    vectors with sum j*m_j = n and sum m_j = k.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n > _ENUM_LIMIT:
        raise ValueError(
            f"n = {n} is too large for full enumeration (limit {_ENUM_LIMIT}); "
            "iterate partitions in a streaming fashion instead")
    out = []
    for parts in _descending_partitions(n, n):
        m = [0] * n
        for p in parts:
            m[p - 1] += 1
        out.append(AFSVector(tuple(m)))
    return out


def log_partition_coefficient(m: AFSVector) -> float:
    """log of n! / prod_j (j!)^{m_j} m_j!.

    This counts the ordered observation sequences compatible with the
    multiplicity vector, the weight that converts integrals of the auxiliary
    density over multiplicity classes into a normalized distribution.
    """
    n = m.n
    out = math.lgamma(n + 1)
    for j, mj in enumerate(m.m, start=1):
        if mj:
            out -= mj * math.lgamma(j + 1) + math.lgamma(mj + 1)
    return out
