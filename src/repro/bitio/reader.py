"""Sequential bit reader mirroring :class:`repro.bitio.writer.BitWriter`.

Every ``write_*`` method on the writer has a matching ``read_*`` here; a
value written then read round-trips exactly.  Reads past the end of the
stream raise :class:`~repro.errors.BitstreamError` rather than returning
garbage, so truncated encodings are always detected.

Reads are word-level: a fixed-width field is taken from the buffer in
one piece (the bytes that cover it, a shift and a mask), and
:meth:`BitReader.read_unary` finds its terminating ``0`` by scanning
eight bytes at a time.  Cost is O(bytes read), never one step per bit.
"""

from __future__ import annotations

from repro.bitio.bitarray import BitArray, _field
from repro.errors import BitstreamError

__all__ = ["BitReader"]

# Bytes examined per step of the unary scan.
_WORD_BYTES = 8


class BitReader:
    """Sequential reader over a :class:`BitArray`."""

    def __init__(self, bits: BitArray) -> None:
        self._buf = bits.to_bytes()
        self._length = len(bits)
        self._pos = 0

    @property
    def position(self) -> int:
        """Current read offset in bits."""
        return self._pos

    @property
    def remaining(self) -> int:
        """Number of unread bits."""
        return self._length - self._pos

    def at_end(self) -> bool:
        """True when every bit has been consumed."""
        return self._pos >= self._length

    # -- primitive reads ---------------------------------------------------

    def read_bit(self) -> int:
        """Read a single bit."""
        pos = self._pos
        if pos >= self._length:
            raise BitstreamError("read past end of bit stream")
        self._pos = pos + 1
        return (self._buf[pos >> 3] >> (7 - (pos & 7))) & 1

    def read_bits(self, count: int) -> BitArray:
        """Read ``count`` bits as a :class:`BitArray`."""
        return BitArray._from_int(self.read_uint(count), count)

    def read_uint(self, width: int) -> int:
        """Read a fixed-width big-endian unsigned integer."""
        if width < 0:
            raise BitstreamError(f"count must be non-negative, got {width}")
        pos = self._pos
        if pos + width > self._length:
            raise BitstreamError(
                f"requested {width} bits but only {self.remaining} remain"
            )
        self._pos = pos + width
        return _field(self._buf, pos, width)

    # -- prefix codes ------------------------------------------------------

    def read_unary(self) -> int:
        """Read a ``1^k 0`` unary code, returning ``k``."""
        start = pos = self._pos
        end = self._length
        buf = self._buf
        while pos < end:
            first = pos >> 3
            last = min(first + _WORD_BYTES, len(buf))
            width = (last << 3) - pos
            zeros = ~int.from_bytes(buf[first:last], "big") & ((1 << width) - 1)
            if zeros:
                # Pad bits are zero, so a zero found past ``end`` means
                # the stream ran out first.
                stop = (last << 3) - zeros.bit_length()
                if stop >= end:
                    break
                self._pos = stop + 1
                return stop - start
            pos = last << 3
        self._pos = end
        raise BitstreamError("read past end of bit stream")

    def read_hat(self) -> BitArray:
        """Read a hat-coded (``ẑ``) payload."""
        length = self.read_unary()
        return self.read_bits(length)

    def read_prime(self) -> BitArray:
        """Read a prime-coded (``z'``) payload."""
        width = self.read_unary()
        length = self.read_uint(width)
        if width != length.bit_length():
            raise BitstreamError("malformed prime code: non-canonical length")
        return self.read_bits(length)

    def read_gamma(self) -> int:
        """Read an Elias gamma code (shifted so zero is representable)."""
        width = self.read_unary()
        mantissa = self.read_uint(width)
        return (1 << width) + mantissa - 1

    def read_delta(self) -> int:
        """Read an Elias delta code (shifted so zero is representable)."""
        width = self.read_gamma()
        mantissa = self.read_uint(width)
        return (1 << width) + mantissa - 1
