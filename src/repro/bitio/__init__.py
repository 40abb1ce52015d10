"""Bit-level coding substrate.

Everything the paper measures is a number of *bits*; this package provides
the exact machinery to produce and parse them:

* :class:`~repro.bitio.bitarray.BitArray` — immutable packed bit sequences;
* :class:`~repro.bitio.writer.BitWriter` / :class:`~repro.bitio.reader.BitReader`
  — sequential codecs with unary, Elias gamma/delta and the paper's
  self-delimiting ``ẑ``/``z'`` codes (Definition 4);
* :mod:`~repro.bitio.combinatorial` — enumerative codes for subsets
  (interconnection patterns) and permutations (port assignments,
  relabellings).

Two invariants hold throughout.  *Canonical padding*: a packed buffer has
exactly ``ceil(length / 8)`` bytes and its pad bits are zero, so equal
bit sequences have equal bytes.  *Word-level access*: bits move as whole
fields (``int.from_bytes``, shifts and masks over the covering bytes), so
packing, slicing and parsing cost O(bytes), never one Python step per
bit.  The wire format is the plain MSB-first bit string either way.
"""

from repro.bitio.bitarray import BitArray
from repro.bitio.combinatorial import (
    decode_permutation,
    decode_subset,
    encode_permutation,
    encode_subset,
    log2_binomial,
    log2_factorial,
    permutation_code_width,
    rank_permutation,
    rank_subset,
    read_subset,
    subset_code_width,
    unrank_permutation,
    unrank_subset,
    write_subset,
)
from repro.bitio.reader import BitReader
from repro.bitio.writer import BitWriter

__all__ = [
    "BitArray",
    "BitReader",
    "BitWriter",
    "decode_permutation",
    "decode_subset",
    "encode_permutation",
    "encode_subset",
    "log2_binomial",
    "log2_factorial",
    "permutation_code_width",
    "rank_permutation",
    "rank_subset",
    "read_subset",
    "subset_code_width",
    "unrank_permutation",
    "unrank_subset",
    "write_subset",
]
