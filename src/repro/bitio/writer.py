"""Sequential bit writer with the prefix codes used throughout the paper.

The paper (Definition 4) relies on two self-delimiting codes:

* the *hat* code ``ẑ = 1^|z| 0 z`` of length ``2|z| + 1``;
* the *prime* code ``z' = ̂|z| z`` — the hat code of the binary length
  of ``z`` followed by ``z`` itself — of length ``|z| + 2⌈log(|z|+1)⌉ + 1``.

On top of those we provide unary and Elias gamma/delta codes, which the
routing-table constructions (Theorem 1) and codecs use for small integers.

Writes are word-level: every code is appended as whole ``value``/``width``
fields straight into the byte buffer, at a cost of O(bytes written).  The
buffer keeps the canonical padding of :class:`BitArray` (no bytes past
``ceil(length / 8)``, pad bits zero), so :meth:`BitWriter.getvalue` and
a byte-aligned :meth:`BitWriter.write_bits` are plain byte copies.
"""

from __future__ import annotations

from typing import Iterable

from repro.bitio.bitarray import BitArray
from repro.errors import BitstreamError

__all__ = ["BitWriter"]


class BitWriter:
    """Append-only builder for a :class:`BitArray`."""

    def __init__(self) -> None:
        self._buf = bytearray()
        self._length = 0

    def __len__(self) -> int:
        return self._length

    @property
    def bit_length(self) -> int:
        """Number of bits written so far."""
        return self._length

    # -- primitive writes --------------------------------------------------

    def write_bit(self, bit: int) -> None:
        """Append a single bit (0 or 1)."""
        if bit not in (0, 1):
            raise BitstreamError(f"bit must be 0 or 1, got {bit!r}")
        self._append(1 if bit else 0, 1)

    def write_bits(self, bits: Iterable[int]) -> None:
        """Append every bit of an iterable (e.g. a :class:`BitArray`).

        A :class:`BitArray` is appended as one field; any other iterable
        is validated as a whole first, so a bad bit writes nothing.
        """
        array = bits if isinstance(bits, BitArray) else BitArray(bits)
        if self._length & 7:
            self._append(array.to_int(), len(array))
        else:
            self._buf += array.to_bytes()
            self._length += len(array)

    def write_uint(self, value: int, width: int) -> None:
        """Append ``value`` as a fixed-width big-endian unsigned integer."""
        if width < 0:
            raise BitstreamError(f"width must be non-negative, got {width}")
        if value < 0 or value.bit_length() > width:
            raise BitstreamError(f"value {value} does not fit in {width} bits")
        self._append(value, width)

    def _append(self, value: int, width: int) -> None:
        """Append a field already known to fit: fill the free low bits of
        the last byte, then extend by whole bytes."""
        free = -self._length & 7
        self._length += width
        if free:
            if width <= free:
                self._buf[-1] |= value << (free - width)
                return
            width -= free
            self._buf[-1] |= value >> width
            value &= (1 << width) - 1
        size = (width + 7) >> 3
        self._buf += (value << ((size << 3) - width)).to_bytes(size, "big")

    # -- prefix codes ------------------------------------------------------

    def write_unary(self, value: int) -> None:
        """Append ``value`` ones followed by a terminating zero.

        This is the code Theorem 1 uses for the first routing table: the
        index of the covering neighbour ``v_t`` is written as ``1^t 0``.
        """
        if value < 0:
            raise BitstreamError(f"unary value must be non-negative, got {value}")
        self._append(((1 << value) - 1) << 1, value + 1)

    def write_hat(self, payload: BitArray) -> None:
        """Append the paper's ``ẑ = 1^|z| 0 z`` self-delimiting code."""
        self.write_unary(len(payload))
        self.write_bits(payload)

    def write_prime(self, payload: BitArray) -> None:
        """Append the paper's shorter ``z'`` self-delimiting code.

        ``z'`` is the hat code of the binary representation of ``|z|``
        followed by ``z``; its length is ``|z| + 2⌈log(|z|+1)⌉ + 1``.
        """
        length = len(payload)
        self.write_unary(length.bit_length())
        self._append(length, length.bit_length())
        self.write_bits(payload)

    def write_gamma(self, value: int) -> None:
        """Append the Elias gamma code of a non-negative integer.

        The classical gamma code covers positive integers; we shift by one so
        zero is representable (``value + 1`` is encoded).
        """
        if value < 0:
            raise BitstreamError(f"gamma value must be non-negative, got {value}")
        shifted = value + 1
        width = shifted.bit_length()
        self.write_unary(width - 1)
        self.write_uint(shifted - (1 << (width - 1)), width - 1)

    def write_delta(self, value: int) -> None:
        """Append the Elias delta code of a non-negative integer (shifted)."""
        if value < 0:
            raise BitstreamError(f"delta value must be non-negative, got {value}")
        shifted = value + 1
        width = shifted.bit_length()
        self.write_gamma(width - 1)
        self.write_uint(shifted - (1 << (width - 1)), width - 1)

    # -- output ------------------------------------------------------------

    def getvalue(self) -> BitArray:
        """The bits written so far, as an immutable :class:`BitArray`."""
        return BitArray._from_packed(bytes(self._buf), self._length)
