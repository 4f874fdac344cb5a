"""Unit tests for attribute domains (Section 3.1 value mapping)."""

import pytest

from repro.errors import DomainError, SchemaError
from repro.relational.domain import (
    CategoricalDomain,
    IntegerRangeDomain,
    StringDomain,
)


class TestIntegerRangeDomain:
    def test_round_trip(self):
        d = IntegerRangeDomain(10, 19)
        for v in range(10, 20):
            assert d.decode(d.encode(v)) == v

    def test_size(self):
        assert IntegerRangeDomain(0, 63).size == 64
        assert IntegerRangeDomain(5, 5).size == 1
        assert IntegerRangeDomain(-3, 3).size == 7

    def test_negative_lo_offsets_correctly(self):
        d = IntegerRangeDomain(-5, 4)
        assert d.encode(-5) == 0
        assert d.encode(4) == 9
        assert d.decode(0) == -5

    def test_out_of_range_rejected(self):
        d = IntegerRangeDomain(0, 9)
        with pytest.raises(DomainError):
            d.encode(10)
        with pytest.raises(DomainError):
            d.encode(-1)

    def test_non_integer_rejected(self):
        with pytest.raises(DomainError):
            IntegerRangeDomain(0, 9).encode("five")

    def test_empty_range_rejected(self):
        with pytest.raises(SchemaError):
            IntegerRangeDomain(5, 4)

    def test_bad_ordinal_rejected(self):
        d = IntegerRangeDomain(0, 9)
        with pytest.raises(DomainError):
            d.decode(10)

    def test_range_clamps_only_when_it_overlaps(self):
        d = IntegerRangeDomain(0, 9)
        assert d.encode_range(-5, 3) == (0, 3)
        assert d.encode_range(4, 50) == (4, 9)
        assert d.encode_range(-5, 50) == (0, 9)
        assert d.encode_range(50, 50) is None
        assert d.encode_range(-5, -1) is None
        lo, hi = d.encode_range(50, 40)  # inverted stays inverted
        assert lo > hi

    def test_contains(self):
        d = IntegerRangeDomain(0, 9)
        assert d.contains(5)
        assert not d.contains(99)


class TestCategoricalDomain:
    DEPARTMENTS = ["accounting", "engineering", "management",
                   "production", "marketing", "personnel"]

    def test_ordinal_positions_follow_given_order(self):
        d = CategoricalDomain(self.DEPARTMENTS)
        assert d.encode("accounting") == 0
        assert d.encode("personnel") == 5

    def test_sorted_option(self):
        d = CategoricalDomain(["b", "a", "c"], sort=True)
        assert d.values == ["a", "b", "c"]
        assert d.encode("a") == 0

    def test_round_trip(self):
        d = CategoricalDomain(self.DEPARTMENTS)
        for v in self.DEPARTMENTS:
            assert d.decode(d.encode(v)) == v

    def test_unknown_value_rejected(self):
        d = CategoricalDomain(self.DEPARTMENTS)
        with pytest.raises(DomainError):
            d.encode("sales")

    def test_unhashable_value_rejected(self):
        d = CategoricalDomain(["a"])
        with pytest.raises(DomainError):
            d.encode(["not", "hashable"])

    def test_duplicates_rejected(self):
        with pytest.raises(SchemaError):
            CategoricalDomain(["x", "x"])

    def test_empty_rejected(self):
        with pytest.raises(SchemaError):
            CategoricalDomain([])


class TestStringDomain:
    def test_interning_assigns_sequential_indices(self):
        d = StringDomain(capacity=10)
        assert d.encode("alice") == 0
        assert d.encode("bob") == 1
        assert d.encode("alice") == 0
        assert d.population == 2

    def test_size_is_capacity_not_population(self):
        d = StringDomain(capacity=100)
        d.encode("only-one")
        assert d.size == 100

    def test_decode(self):
        d = StringDomain(capacity=10, values=["x", "y"])
        assert d.decode(0) == "x"
        assert d.decode(1) == "y"

    def test_decode_uninterned_ordinal_rejected(self):
        d = StringDomain(capacity=10, values=["x"])
        with pytest.raises(DomainError):
            d.decode(5)

    def test_capacity_enforced(self):
        d = StringDomain(capacity=2, values=["a", "b"])
        with pytest.raises(DomainError):
            d.encode("c")

    def test_non_string_rejected(self):
        with pytest.raises(DomainError):
            StringDomain(capacity=2).encode(42)

    def test_zero_capacity_rejected(self):
        with pytest.raises(SchemaError):
            StringDomain(capacity=0)
