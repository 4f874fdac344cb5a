"""Attribute domains and the Section 3.1 value-to-ordinal mappings.

AVQ operates on tuples whose attributes are *ordinals* — non-negative
integers smaller than a fixed domain size.  A :class:`Domain` pairs that
ordinal space with the bidirectional mapping to application values:

* :class:`IntegerRangeDomain` — contiguous integers (ages, hours, ids);
* :class:`CategoricalDomain` — a known finite value set, mapped to its
  ordinal position (the paper: "each attribute value is mapped to its
  ordinal position in the domain");
* :class:`StringDomain` — alphanumeric strings replaced by indices into a
  string table, the Graefe/Shapiro-style dictionary the paper cites for
  open-ended string attributes.

``StringDomain`` is the one mutable domain: it assigns indices on first
use, up to a declared capacity (the capacity, not the current population,
defines the phi radix so that encodings remain stable as strings arrive).
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Optional, Tuple

from repro.errors import DomainError, SchemaError

__all__ = [
    "Domain",
    "IntegerRangeDomain",
    "CategoricalDomain",
    "StringDomain",
]


class Domain:
    """Base class: a finite ordered value set of known size."""

    @property
    def size(self) -> int:
        """``|A_i|`` — number of distinct values (the phi radix)."""
        raise NotImplementedError

    def encode(self, value) -> int:
        """Map an application value to its ordinal in ``[0, size)``."""
        raise NotImplementedError

    def decode(self, ordinal: int) -> object:
        """Map an ordinal back to the application value."""
        raise NotImplementedError

    def contains(self, value) -> bool:
        """Whether ``value`` is encodable in this domain."""
        try:
            self.encode(value)
        except DomainError:
            return False
        return True

    def encode_bound(self, value) -> int:
        """Encode a *query bound*, which may lie outside the domain.

        The default is strict encoding; ordered domains override this to
        clamp out-of-range bounds (a range query asking for ``years
        between 0 and 99`` should simply cover the whole domain).
        """
        return self.encode(value)

    def encode_range(self, lo, hi) -> Optional[Tuple[int, int]]:
        """Encode a query range ``lo .. hi``; ``None`` if it selects nothing.

        The default encodes each bound with :meth:`encode_bound`.  The
        pair may come back inverted under the domain order; callers
        report that as an error.
        """
        return self.encode_bound(lo), self.encode_bound(hi)

    def _check_ordinal(self, ordinal: int) -> None:
        if not 0 <= ordinal < self.size:
            raise DomainError(
                f"ordinal {ordinal} outside domain of size {self.size}"
            )


class IntegerRangeDomain(Domain):
    """Contiguous integers ``lo .. hi`` inclusive.

    >>> d = IntegerRangeDomain(10, 19)
    >>> d.size, d.encode(13), d.decode(3)
    (10, 3, 13)
    """

    def __init__(self, lo: int, hi: int):
        if hi < lo:
            raise SchemaError(f"empty integer range [{lo}, {hi}]")
        self._lo = int(lo)
        self._hi = int(hi)

    @property
    def lo(self) -> int:
        """Smallest value in the range."""
        return self._lo

    @property
    def hi(self) -> int:
        """Largest value in the range."""
        return self._hi

    @property
    def size(self) -> int:
        return self._hi - self._lo + 1

    def encode(self, value) -> int:
        v = _as_int(value)
        if not self._lo <= v <= self._hi:
            raise DomainError(
                f"{v} outside integer range [{self._lo}, {self._hi}]"
            )
        return v - self._lo

    def decode(self, ordinal: int):
        self._check_ordinal(ordinal)
        return self._lo + ordinal

    def encode_bound(self, value) -> int:
        """Clamp a query bound into the range before encoding."""
        v = _as_int(value)
        return self.encode(min(max(v, self._lo), self._hi))

    def encode_range(self, lo, hi) -> Optional[Tuple[int, int]]:
        """Clamp a range that overlaps the domain; ``None`` if it misses.

        Both bounds are clamped together, not one at a time: clamped
        alone, a range wholly outside the domain (``a == 50`` on
        ``0 .. 9``) would collapse onto the edge value and select the
        rows holding it.

        >>> d = IntegerRangeDomain(0, 9)
        >>> d.encode_range(-5, 3), d.encode_range(50, 50)
        ((0, 3), None)
        """
        v_lo, v_hi = _as_int(lo), _as_int(hi)
        if v_lo > v_hi:
            # Inverted: keep it inverted (unclamped) so callers report it.
            return v_lo - self._lo, v_hi - self._lo
        if v_hi < self._lo or v_lo > self._hi:
            return None
        return self.encode_bound(v_lo), self.encode_bound(v_hi)

    def __repr__(self) -> str:
        return f"IntegerRangeDomain({self._lo}, {self._hi})"


class CategoricalDomain(Domain):
    """A fixed, fully known value set mapped to ordinal positions.

    Values keep the order they were given in (or sorted order when
    ``sort=True``), so that range queries over the ordinals are meaningful
    for inherently ordered categories.

    >>> d = CategoricalDomain(["mgmt", "marketing", "production"])
    >>> d.encode("marketing"), d.decode(2)
    (1, 'production')
    """

    def __init__(self, values: Iterable[Hashable], *, sort: bool = False):
        vals: List[Hashable] = list(values)
        if not vals:
            raise SchemaError("categorical domain needs at least one value")
        if sort:
            vals = sorted(vals)
        self._values = vals
        self._index: Dict[Hashable, int] = {}
        for i, v in enumerate(vals):
            if v in self._index:
                raise SchemaError(f"duplicate categorical value {v!r}")
            self._index[v] = i

    @property
    def values(self) -> List[Hashable]:
        """The value set, in ordinal order."""
        return list(self._values)

    @property
    def size(self) -> int:
        return len(self._values)

    def encode(self, value) -> int:
        try:
            return self._index[value]
        except (KeyError, TypeError) as exc:
            raise DomainError(f"{value!r} not in categorical domain") from exc

    def decode(self, ordinal: int):
        self._check_ordinal(ordinal)
        return self._values[ordinal]

    def __repr__(self) -> str:
        preview = ", ".join(repr(v) for v in self._values[:3])
        suffix = ", ..." if len(self._values) > 3 else ""
        return f"CategoricalDomain([{preview}{suffix}])"


class StringDomain(Domain):
    """Open-ended strings dictionary-encoded into a bounded table (Sec. 3.1).

    The paper: "for alphanumeric strings, we may construct a table
    containing the set of these strings and replace each attribute by an
    index into the table".  Capacity is fixed up front because the phi
    radix must not change once tuples have been coded.

    >>> d = StringDomain(capacity=100)
    >>> d.encode("alice"), d.encode("bob"), d.encode("alice")
    (0, 1, 0)
    >>> d.decode(1)
    'bob'
    """

    def __init__(self, capacity: int, *, values: Iterable[str] = ()):
        if capacity < 1:
            raise SchemaError(f"string table capacity must be >= 1, got {capacity}")
        self._capacity = int(capacity)
        self._table: List[str] = []
        self._index: Dict[str, int] = {}
        for v in values:
            self.encode(v)

    @property
    def size(self) -> int:
        # The radix is the full capacity: encodings must not shift when new
        # strings are interned later.
        return self._capacity

    @property
    def population(self) -> int:
        """Number of distinct strings interned so far."""
        return len(self._table)

    def encode(self, value) -> int:
        if not isinstance(value, str):
            raise DomainError(f"{value!r} is not a string")
        existing = self._index.get(value)
        if existing is not None:
            return existing
        if len(self._table) >= self._capacity:
            raise DomainError(
                f"string table full (capacity {self._capacity}); "
                f"cannot intern {value!r}"
            )
        idx = len(self._table)
        self._table.append(value)
        self._index[value] = idx
        return idx

    def decode(self, ordinal: int):
        self._check_ordinal(ordinal)
        if ordinal >= len(self._table):
            raise DomainError(
                f"ordinal {ordinal} has no interned string "
                f"(population {len(self._table)})"
            )
        return self._table[ordinal]

    def __repr__(self) -> str:
        return (
            f"StringDomain(capacity={self._capacity}, "
            f"population={len(self._table)})"
        )


def _as_int(value) -> int:
    try:
        return int(value)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"{value!r} is not an integer") from exc
