"""Filtering one decoded block, in ordinal space where the codec allows.

A vectorised table's blocks decode to their phi-sorted int64 ordinals:
the prefix sums of the block's difference sequence, with no tuple built
(:meth:`~repro.storage.avqfile.AVQFile.decode_payload`).  A conjunctive
range query is answered on that array directly:

* a bound ``[lo, hi]`` on the *leading* attribute is the phi interval
  ``[lo * w0, (hi + 1) * w0)``, cut from the sorted array with two
  binary searches;
* every other bound is a mask over that attribute's column of the
  remaining slice, ``(ordinal // w_i) % |A_i|``;
* tuples are built only for the rows that pass.

Blocks in tuple form (heap tables, and ordinal spaces too wide for the
overflow-safe int64 decode) take the per-tuple loop instead.  That loop
is also the oracle the differential tests hold the array path to: same
tuples, same phi order.
"""

from __future__ import annotations

from typing import Collection, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.vectorized import VectorizedBlockCodec
from repro.errors import QueryError
from repro.storage.block import DecodedBlock

__all__ = ["block_contains", "block_tuples", "match_block", "match_values"]

#: Bound predicates as :meth:`RangePredicate.bind` returns them:
#: ``(position, lo, hi)`` ordinal ranges, inclusive.
Bound = Sequence[Tuple[int, int, int]]


def match_block(
    block: DecodedBlock,
    bound: Bound,
    codec: Optional[VectorizedBlockCodec],
) -> List[Tuple[int, ...]]:
    """The block's tuples inside every bound range, in phi order.

    ``codec`` is the storage's ordinal codec; it is only consulted for
    blocks in array form.
    """
    if not isinstance(block, np.ndarray):
        return [
            t for t in block if all(lo <= t[pos] <= hi for pos, lo, hi in bound)
        ]
    codec = _require(codec)
    weights = codec.mapper.weights
    start, stop = 0, len(block)
    others = []
    for pos, lo, hi in bound:
        if pos == 0:
            start = max(start, int(np.searchsorted(block, lo * weights[0])))
            stop = min(
                stop, int(np.searchsorted(block, (hi + 1) * weights[0]))
            )
        else:
            others.append((pos, lo, hi))
    if start >= stop:
        return []
    ordinals = block[start:stop]
    if others:
        mask = np.ones(len(ordinals), dtype=bool)
        for pos, lo, hi in others:
            column = _column(ordinals, pos, codec)
            mask &= (column >= lo) & (column <= hi)
        ordinals = ordinals[mask]
    return block_tuples(ordinals, codec)


def match_values(
    block: DecodedBlock,
    position: int,
    values: Collection[int],
    codec: Optional[VectorizedBlockCodec],
) -> List[Tuple[int, ...]]:
    """The block's tuples whose attribute ``position`` is in ``values``.

    The inner side of an equi-join: one column mask per block rather
    than one dictionary probe per tuple.
    """
    if not isinstance(block, np.ndarray):
        return [t for t in block if t[position] in values]
    codec = _require(codec)
    keys = np.fromiter(values, dtype=np.int64, count=len(values))
    return block_tuples(
        block[np.isin(_column(block, position, codec), keys)], codec
    )


def block_tuples(
    block: DecodedBlock, codec: Optional[VectorizedBlockCodec]
) -> List[Tuple[int, ...]]:
    """Every tuple of the block, in phi order."""
    if not isinstance(block, np.ndarray):
        return list(block)
    rows = _require(codec).phi_inverse_rows(block)
    return list(map(tuple, rows.tolist()))


def block_contains(
    block: DecodedBlock, values: Tuple[int, ...], ordinal: int
) -> bool:
    """Whether the block stores the tuple ``values`` (phi ``ordinal``)."""
    if not isinstance(block, np.ndarray):
        return values in block
    i = int(np.searchsorted(block, ordinal))
    return i < len(block) and int(block[i]) == ordinal


def _require(codec: Optional[VectorizedBlockCodec]) -> VectorizedBlockCodec:
    if codec is None:
        raise QueryError("an ordinal-array block needs its ordinal codec")
    return codec


def _column(
    ordinals: np.ndarray, position: int, codec: VectorizedBlockCodec
) -> np.ndarray:
    """Attribute ``position`` of every ordinal (Equation 2.3, one column)."""
    column = ordinals // codec.mapper.weights[position]
    if position:
        column %= codec.mapper.domain_sizes[position]
    return column
