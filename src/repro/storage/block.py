"""Disk-block constants and the block abstraction (Section 3.3).

The paper partitions relations into units of I/O transfer — disk blocks —
and codes each block independently so that decompression is localized.
The evaluation fixes the block size at 8192 bytes; we default to that but
keep it configurable for the block-size ablation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple, Union

import numpy as np

from repro.errors import StorageError

__all__ = ["DEFAULT_BLOCK_SIZE", "Block", "DecodedBlock"]

#: The paper's Section 5.2 block size.
DEFAULT_BLOCK_SIZE = 8192

#: One decoded data block.  A vectorised AVQ codec yields the block's
#: phi-sorted, read-only int64 ordinal array; heap blocks and ordinal
#: spaces too wide for the overflow-safe int64 decode yield the list of
#: ordinal tuples.
DecodedBlock = Union[np.ndarray, List[Tuple[int, ...]]]


@dataclass(frozen=True)
class Block:
    """One fixed-size disk block: a payload plus slack accounting.

    ``payload`` is the meaningful prefix; the rest of the block (up to
    ``block_size``) is slack the packer tries to minimise.
    """

    payload: bytes
    block_size: int = DEFAULT_BLOCK_SIZE

    def __post_init__(self):
        if self.block_size < 1:
            raise StorageError(f"block size must be positive, got {self.block_size}")
        if len(self.payload) > self.block_size:
            raise StorageError(
                f"payload of {len(self.payload)} bytes exceeds block size "
                f"{self.block_size}"
            )

    @property
    def used(self) -> int:
        """Meaningful bytes in the block."""
        return len(self.payload)

    @property
    def slack(self) -> int:
        """Unused bytes at the end of the block."""
        return self.block_size - len(self.payload)

    @property
    def utilisation(self) -> float:
        """Fraction of the block occupied by payload."""
        return len(self.payload) / self.block_size

    def padded(self) -> bytes:
        """The full on-disk image: payload followed by zero slack bytes."""
        return self.payload + bytes(self.slack)
