import pickle

import pytest
from hypothesis import given

from allelic_bdi import (
    AllelicPartition,
    BoundExceededError,
    DomainError,
    EventKind,
    InapplicableEventError,
    PartitionParseError,
    TransitionEvent,
    enumerate_partitions,
)
from conftest import ascending_partitions, group_sizes, partition_of

# number of integer partitions of 0..12
PARTITION_COUNTS = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77]


def test_empty_partition():
    e0 = AllelicPartition.empty()
    assert e0.size == 0
    assert e0.num_groups == 0
    assert e0.entries == ()
    assert e0.encode() == "0"
    assert AllelicPartition.decode("0") == e0
    assert e0.as_dict() == {}


def test_constructor_validation():
    with pytest.raises(DomainError):
        AllelicPartition([(0, 1)])
    with pytest.raises(DomainError):
        AllelicPartition([(1, 0)])
    with pytest.raises(DomainError):
        AllelicPartition([(1, 1), (1, 2)])
    with pytest.raises(DomainError):
        AllelicPartition([(2, -1)])


def test_counts_and_multiplicities():
    m = AllelicPartition([(2, 1), (1, 2)])
    assert m.encode() == "1^2 2^1"
    assert m.size == 4
    assert m.num_groups == 3
    assert m.multiplicity(1) == 2
    assert m.multiplicity(2) == 1
    assert m.multiplicity(5) == 0


def test_entries_sorted_and_dense():
    m = AllelicPartition([(4, 1), (1, 2)])
    assert m.entries == ((1, 2), (4, 1))
    assert m.support == (1, 4)
    assert m.dense(5) == (2, 0, 0, 1, 0)
    assert m.dense(2) == (2, 0)
    assert m.dense() == (2, 0, 0, 1, 0, 0)


def test_encode_decode_round_trip():
    for n in range(9):
        for m in enumerate_partitions(n):
            assert AllelicPartition.decode(m.encode()) == m


@pytest.mark.parametrize(
    "text",
    ["", "  ", "1^", "^2", "x", "1^2^3", "1^0", "0^1", "-1^2", "1^1 1^2", "2^1 1^1", "0 1^1"],
)
def test_decode_rejects_malformed(text):
    with pytest.raises(PartitionParseError) as info:
        AllelicPartition.decode(text)
    assert "position" in str(info.value)
    assert isinstance(info.value.position, int)


def test_decode_requires_increasing_sizes():
    # sizes must be strictly increasing left to right
    with pytest.raises(PartitionParseError):
        AllelicPartition.decode("1^1 1^1")
    assert AllelicPartition.decode("1^1 2^1 5^3").encode() == "1^1 2^1 5^3"


def test_apply_new_family():
    e0 = AllelicPartition.empty()
    m1 = e0.apply_event(TransitionEvent.new_family())
    assert m1.encode() == "1^1"
    assert e0.encode() == "0"  # inputs are never mutated


def test_apply_growth():
    m = AllelicPartition.decode("1^2 2^1")
    grown = m.apply_event(TransitionEvent.growth(1))
    assert grown.encode() == "1^1 2^2"
    grown2 = m.apply_event(TransitionEvent.growth(2))
    assert grown2.encode() == "1^2 3^1"
    with pytest.raises(InapplicableEventError):
        m.apply_event(TransitionEvent.growth(3))


def test_apply_death():
    m = AllelicPartition.decode("1^1 3^1")
    assert m.apply_event(TransitionEvent.death(1)).encode() == "3^1"
    assert m.apply_event(TransitionEvent.death(3)).encode() == "1^1 2^1"
    with pytest.raises(InapplicableEventError):
        m.apply_event(TransitionEvent.death(2))
    assert AllelicPartition.decode("1^1").apply_event(
        TransitionEvent.death(1)
    ) == AllelicPartition.empty()


@given(group_sizes())
def test_encode_decode_round_trip_property(sizes):
    m = partition_of(sizes)
    assert AllelicPartition.decode(m.encode()) == m


@given(group_sizes())
def test_growth_then_death_returns_the_state_property(sizes):
    m = partition_of(sizes)
    for i in m.support:
        grown = m.apply_event(TransitionEvent.growth(i))
        assert grown.size == m.size + 1
        assert grown.apply_event(TransitionEvent.death(i + 1)) == m


def test_event_validation_and_text():
    with pytest.raises(DomainError):
        TransitionEvent(EventKind.NEW_FAMILY, 1)
    with pytest.raises(DomainError):
        TransitionEvent(EventKind.GROWTH, None)
    with pytest.raises(DomainError):
        TransitionEvent(EventKind.DEATH, 0)
    assert str(TransitionEvent.growth(2)) == "growth@2"
    assert str(TransitionEvent.new_family()) == "new_family"
    assert TransitionEvent.new_family().size_delta == 1
    assert TransitionEvent.growth(4).size_delta == 1
    assert TransitionEvent.death(4).size_delta == -1


def test_enumeration_matches_naive_recursion():
    for n in range(13):
        via_library = set(enumerate_partitions(n))
        via_recursion = {
            partition_of(parts) for parts in ascending_partitions(n)
        }
        assert via_library == via_recursion
        assert len(enumerate_partitions(n)) == PARTITION_COUNTS[n]


def test_enumeration_order_is_stable():
    order = [m.encode() for m in enumerate_partitions(3)]
    assert order == ["1^3", "1^1 2^1", "3^1"]
    # many singletons first, one big group last
    five = [m.encode() for m in enumerate_partitions(5)]
    assert five[0] == "1^5"
    assert five[-1] == "5^1"
    assert len(five) == len(set(five)) == 7


def test_enumeration_bounds():
    with pytest.raises(DomainError):
        enumerate_partitions(-1)
    with pytest.raises(BoundExceededError):
        enumerate_partitions(41)


def test_size_and_group_count_consistency():
    for n in range(11):
        for m in enumerate_partitions(n):
            assert m.size == sum(i * c for i, c in m) == n
            assert m.num_groups == sum(c for _, c in m)


def test_hash_and_equality():
    a = AllelicPartition.decode("1^2 4^1")
    b = AllelicPartition([(4, 1), (1, 2)])
    assert a == b
    assert hash(a) == hash(b)
    table = {a: "x"}
    assert table[b] == "x"
    assert a != AllelicPartition.decode("1^2")
    assert a != "1^2 4^1"


def test_pickle_round_trip():
    m = AllelicPartition.decode("2^3 7^1")
    assert pickle.loads(pickle.dumps(m)) == m
    assert pickle.loads(pickle.dumps(AllelicPartition.empty())) == AllelicPartition.empty()


def test_repr_is_evalable_shape():
    m = AllelicPartition.decode("1^1 2^2")
    assert "AllelicPartition" in repr(m)
