"""A compact, immutable sequence of bits.

:class:`BitArray` is the currency of the whole library: graph encodings
(Definition 2 of the paper), serialised routing functions, and the
incompressibility codecs all produce and consume it.  It stores bits packed
eight per byte (most significant bit first) and exposes a small, explicit
API: indexing, slicing, concatenation and conversion to/from ``'01'`` text.

Two invariants make every operation cost O(bytes) rather than O(bits):

* **Canonical padding.**  The buffer holds exactly ``ceil(length / 8)``
  bytes and every pad bit after ``length`` is zero.  Equal bit sequences
  therefore have equal buffers, so equality, hashing, :meth:`count` and
  :meth:`to_bytes` read the buffer directly.
* **Word-level access.**  A field (a slice, :meth:`to_int`, an unaligned
  concatenation) is read by one ``int.from_bytes`` over the bytes that
  cover it, then a shift and a mask; no operation loops once per bit.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Union

from repro.errors import BitstreamError

__all__ = ["BitArray"]


class BitArray:
    """An immutable array of bits, packed MSB-first into bytes."""

    __slots__ = ("_buf", "_length")

    def __init__(self, bits: Iterable[int] = ()) -> None:
        digits: list[str] = []
        for bit in bits:
            if bit not in (0, 1):
                raise BitstreamError(f"bit must be 0 or 1, got {bit!r}")
            digits.append("1" if bit else "0")
        text = "".join(digits)
        self._buf: bytes = _pack(int(text, 2) if text else 0, len(text))
        self._length: int = len(text)

    # -- constructors ------------------------------------------------------

    @classmethod
    def _from_packed(cls, buf: bytes, length: int) -> "BitArray":
        """Build directly from packed bytes (internal fast path).

        The result is canonical: bytes past ``ceil(length / 8)`` are
        dropped and the pad bits of the last kept byte are cleared.
        """
        if length > 8 * len(buf):
            raise BitstreamError(
                f"length {length} exceeds capacity of {len(buf)} bytes"
            )
        size = (length + 7) >> 3
        pad = (size << 3) - length
        data = bytes(buf[:size])
        if pad and data[-1] & ((1 << pad) - 1):
            data = data[:-1] + bytes((data[-1] & (0xFF << pad) & 0xFF,))
        instance = cls.__new__(cls)
        instance._buf = data
        instance._length = length
        return instance

    @classmethod
    def _from_int(cls, value: int, width: int) -> "BitArray":
        """Build from a non-negative ``value`` known to fit in ``width``."""
        instance = cls.__new__(cls)
        instance._buf = _pack(value, width)
        instance._length = width
        return instance

    @classmethod
    def from01(cls, text: str) -> "BitArray":
        """Parse a string of ``'0'``/``'1'`` characters."""
        if not text.strip("01"):
            return cls._from_int(int(text, 2) if text else 0, len(text))
        try:
            return cls(int(ch) for ch in text)
        except ValueError as exc:
            raise BitstreamError(f"invalid bit character in {text!r}") from exc

    @classmethod
    def from_int(cls, value: int, width: int) -> "BitArray":
        """Encode ``value`` as exactly ``width`` bits, most significant first."""
        if width < 0:
            raise BitstreamError(f"width must be non-negative, got {width}")
        if value < 0:
            raise BitstreamError(f"value must be non-negative, got {value}")
        if width < value.bit_length():
            raise BitstreamError(f"value {value} does not fit in {width} bits")
        return cls._from_int(value, width)

    @classmethod
    def zeros(cls, length: int) -> "BitArray":
        """An all-zero bit array of the given length."""
        if length < 0:
            raise BitstreamError(f"length must be non-negative, got {length}")
        return cls._from_packed(bytes((length + 7) // 8), length)

    # -- accessors ---------------------------------------------------------

    def __len__(self) -> int:
        return self._length

    def __iter__(self) -> Iterator[int]:
        return map(int, self.to01())

    def __getitem__(self, index: Union[int, slice]) -> Union[int, "BitArray"]:
        if isinstance(index, slice):
            start, stop, step = index.indices(self._length)
            if step != 1:
                return BitArray.from01(self.to01()[index])
            width = max(stop - start, 0)
            return BitArray._from_int(_field(self._buf, start, width), width)
        if index < 0:
            index += self._length
        if not 0 <= index < self._length:
            raise IndexError(f"bit index {index} out of range")
        return (self._buf[index >> 3] >> (7 - (index & 7))) & 1

    def to01(self) -> str:
        """Render as a string of ``'0'``/``'1'`` characters."""
        if not self._length:
            return ""
        return format(self.to_int(), f"0{self._length}b")

    def to_int(self) -> int:
        """Interpret the whole array as a big-endian unsigned integer."""
        return int.from_bytes(self._buf, "big") >> (-self._length & 7)

    def to_bytes(self) -> bytes:
        """Packed byte representation (final byte zero-padded)."""
        return self._buf

    def count(self, bit: int = 1) -> int:
        """Number of positions equal to ``bit``."""
        ones = int.from_bytes(self._buf, "big").bit_count()
        return ones if bit else self._length - ones

    # -- operators ---------------------------------------------------------

    def __add__(self, other: "BitArray") -> "BitArray":
        if not isinstance(other, BitArray):
            return NotImplemented
        if self._length % 8 == 0:
            return BitArray._from_packed(
                self._buf + other._buf, self._length + len(other)
            )
        return BitArray._from_int(
            (self.to_int() << other._length) | other.to_int(),
            self._length + other._length,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitArray):
            return NotImplemented
        return self._length == other._length and self._buf == other._buf

    def __hash__(self) -> int:
        return hash((self._buf, self._length))

    def __repr__(self) -> str:
        preview = self.to01() if self._length <= 64 else self.to01()[:61] + "..."
        return f"BitArray({preview!r}, length={self._length})"


def _pack(value: int, width: int) -> bytes:
    """The canonical buffer of ``value`` as a ``width``-bit field."""
    size = (width + 7) >> 3
    return (value << ((size << 3) - width)).to_bytes(size, "big")


def _field(buf: bytes, start: int, width: int) -> int:
    """The ``width`` bits of ``buf`` from bit ``start``, as an integer.

    Reads only the bytes that cover the field; the caller guarantees the
    field lies inside ``buf``.
    """
    first = start >> 3
    last = (start + width + 7) >> 3
    word = int.from_bytes(buf[first:last], "big")
    return (word >> ((last << 3) - start - width)) & ((1 << width) - 1)
