"""Configurations, multiplicity vectors and partition combinatorics."""

import math
from itertools import combinations

import numpy as np
import pytest

from nbpk.partitions import (
    AFSVector,
    Configuration,
    afs,
    enumerate_afs,
    log_partition_coefficient,
)


def test_afs_examples():
    assert afs(Configuration((2, 1, 1))).m == (2, 1, 0, 0)
    assert afs(Configuration((4,))).m == (0, 0, 0, 1)
    assert afs(Configuration((3, 2, 1))).m == (1, 1, 1, 0, 0, 0)


def test_afs_invariants():
    for counts in [(2, 1, 1), (4,), (3, 2, 1), (5, 5, 1, 1, 1)]:
        c = Configuration(counts)
        m = afs(c)
        assert m.n == c.n
        assert m.k == c.k


def test_enumerate_n4():
    vecs = enumerate_afs(4)
    assert len(vecs) == 5
    by_k = {}
    for m in vecs:
        by_k[m.k] = by_k.get(m.k, 0) + 1
    assert by_k == {1: 1, 2: 2, 3: 1, 4: 1}


def test_enumerate_n1():
    vecs = enumerate_afs(1)
    assert len(vecs) == 1 and vecs[0].m == (1,)


def _partition_count(n):
    """Independent recursive partition counter (memoized pentagonal-free form)."""
    table = {}

    def count(remaining, largest):
        if remaining == 0:
            return 1
        key = (remaining, largest)
        if key not in table:
            table[key] = sum(count(remaining - f, f)
                             for f in range(min(largest, remaining), 0, -1))
        return table[key]

    return count(n, n)


def test_enumerate_n7_count():
    assert len(enumerate_afs(7)) == 15
    assert _partition_count(7) == 15
    for n in range(1, 11):
        assert len(enumerate_afs(n)) == _partition_count(n)


def test_enumerate_no_duplicates():
    for n in range(1, 9):
        vecs = enumerate_afs(n)
        assert len({m.m for m in vecs}) == len(vecs)
        for m in vecs:
            assert m.n == n


def test_enumerate_rejects_large_n():
    with pytest.raises(ValueError):
        enumerate_afs(41)


def test_log_partition_coefficient_examples():
    assert log_partition_coefficient(AFSVector((2, 1, 0, 0))) == pytest.approx(math.log(6.0))
    assert log_partition_coefficient(AFSVector((1,))) == pytest.approx(0.0)
    assert log_partition_coefficient(AFSVector((0, 0, 1))) == pytest.approx(0.0)


def _set_partitions(items):
    """All set partitions of a list, by recursive insertion."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [part[i] + [first]] + part[i + 1:]
        yield part + [[first]]


def test_coefficient_counts_set_partitions():
    # the coefficient equals the number of set partitions of [n] with the
    # given block-size multiset
    for n in range(1, 7):
        tally = {}
        for part in _set_partitions(list(range(n))):
            m = [0] * n
            for block in part:
                m[len(block) - 1] += 1
            key = tuple(m)
            tally[key] = tally.get(key, 0) + 1
        for mvec in enumerate_afs(n):
            want = tally[mvec.m]
            got = math.exp(log_partition_coefficient(mvec))
            assert got == pytest.approx(want, rel=1e-12)


def test_configuration_accessors():
    c = Configuration((3, 1, 2))
    assert c.n == 6 and c.k == 3
    assert c.sorted_counts() == (3, 2, 1)
    assert list(c) == [3, 1, 2]
    assert len(c) == 3


def test_configuration_edits():
    c = Configuration((3, 1))
    assert c.remove_one(0).counts == (2, 1)
    assert c.remove_one(1).counts == (3,)
    assert c.add_one(1).counts == (3, 2)
    assert c.append_block().counts == (3, 1, 1)
    assert Configuration((1,)).remove_one(0) is None
    for edit in (c.remove_one, c.add_one):  # a negative index is not the last block
        for i in (5, -1):
            with pytest.raises(IndexError):
                edit(i)


def test_configuration_parse_roundtrip():
    c = Configuration.parse("3,2,1")
    assert c.counts == (3, 2, 1)
    assert str(c) == "3,2,1"
    with pytest.raises(ValueError):
        Configuration.parse("3,x")
    with pytest.raises(ValueError):
        Configuration((0, 2))
    with pytest.raises(ValueError):
        Configuration(())


@pytest.mark.parametrize("counts", [(2, 1), [2, 1], (np.int64(2), 1), (2.0, 1), (True, 1)],
                         ids=repr)
def test_configuration_accepts_integral_counts_as_python_ints(counts):
    stored = Configuration(counts).counts
    assert stored == tuple(int(c) for c in counts)
    assert type(stored) is tuple and all(type(c) is int for c in stored)


@pytest.mark.parametrize("counts", [(), (0,), (-1,), (2.5,), (math.nan,), (math.inf,), ("2",)],
                         ids=repr)
def test_configuration_rejects_bad_counts_with_value_error(counts):
    with pytest.raises(ValueError):
        Configuration(counts)


def test_afs_vector_roundtrip():
    for counts in [(4, 2, 2, 1), (1, 1, 1), (6,)]:
        c = Configuration(counts)
        back = afs(c).to_configuration()
        assert sorted(back.counts) == sorted(counts)


def test_afs_vector_validation():
    with pytest.raises(ValueError):
        AFSVector(())
    with pytest.raises(ValueError):
        AFSVector((1, -1))
