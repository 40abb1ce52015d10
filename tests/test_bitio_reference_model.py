"""Word-level bit codec against a per-bit reference model.

:class:`BitArray`, :class:`BitWriter` and :class:`BitReader` move whole
fields through ``int.from_bytes``, shifts and masks.  The model below is
the plain definition instead: a ``list[int]`` that every write appends to
one bit at a time and every read consumes one bit at a time.  Random
interleavings of every code, at every byte alignment, must produce the
same bits, read back the same values and fail with the same messages.
"""

from __future__ import annotations

from typing import List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitio import BitArray, BitReader, BitWriter
from repro.errors import BitstreamError


class RefWriter:
    """Per-bit model of :class:`BitWriter`."""

    def __init__(self) -> None:
        self.bits: List[int] = []

    def write_bit(self, bit: int) -> None:
        if bit not in (0, 1):
            raise BitstreamError(f"bit must be 0 or 1, got {bit!r}")
        self.bits.append(bit)

    def write_bits(self, bits: List[int]) -> None:
        for bit in bits:
            self.write_bit(bit)

    def write_uint(self, value: int, width: int) -> None:
        if width < 0:
            raise BitstreamError(f"width must be non-negative, got {width}")
        if value < 0 or value.bit_length() > width:
            raise BitstreamError(f"value {value} does not fit in {width} bits")
        for i in range(width - 1, -1, -1):
            self.write_bit((value >> i) & 1)

    def write_unary(self, value: int) -> None:
        if value < 0:
            raise BitstreamError(f"unary value must be non-negative, got {value}")
        self.write_bits([1] * value + [0])

    def write_hat(self, payload: List[int]) -> None:
        self.write_unary(len(payload))
        self.write_bits(payload)

    def write_prime(self, payload: List[int]) -> None:
        length = len(payload)
        self.write_hat([int(ch) for ch in bin(length)[2:]] if length else [])
        self.write_bits(payload)

    def write_gamma(self, value: int) -> None:
        if value < 0:
            raise BitstreamError(f"gamma value must be non-negative, got {value}")
        width = (value + 1).bit_length()
        self.write_unary(width - 1)
        self.write_uint(value + 1 - (1 << (width - 1)), width - 1)

    def write_delta(self, value: int) -> None:
        if value < 0:
            raise BitstreamError(f"delta value must be non-negative, got {value}")
        width = (value + 1).bit_length()
        self.write_gamma(width - 1)
        self.write_uint(value + 1 - (1 << (width - 1)), width - 1)


class RefReader:
    """Per-bit model of :class:`BitReader`."""

    def __init__(self, bits: List[int]) -> None:
        self.bits = bits
        self.pos = 0

    def read_bit(self) -> int:
        if self.pos >= len(self.bits):
            raise BitstreamError("read past end of bit stream")
        self.pos += 1
        return self.bits[self.pos - 1]

    def read_bits(self, count: int) -> List[int]:
        if count < 0:
            raise BitstreamError(f"count must be non-negative, got {count}")
        remaining = len(self.bits) - self.pos
        if count > remaining:
            raise BitstreamError(
                f"requested {count} bits but only {remaining} remain"
            )
        return [self.read_bit() for _ in range(count)]

    def read_uint(self, width: int) -> int:
        value = 0
        for bit in self.read_bits(width):
            value = (value << 1) | bit
        return value

    def read_unary(self) -> int:
        count = 0
        while self.read_bit():
            count += 1
        return count

    def read_hat(self) -> List[int]:
        return self.read_bits(self.read_unary())

    def read_prime(self) -> List[int]:
        length_bits = self.read_hat()
        length = int("".join(map(str, length_bits)) or "0", 2)
        if len(length_bits) != length.bit_length():
            raise BitstreamError("malformed prime code: non-canonical length")
        return self.read_bits(length)

    def read_gamma(self) -> int:
        width = self.read_unary()
        return (1 << width) + self.read_uint(width) - 1

    def read_delta(self) -> int:
        width = self.read_gamma()
        return (1 << width) + self.read_uint(width) - 1


bit_lists = st.lists(st.integers(0, 1), max_size=90)


@st.composite
def uint_fields(draw) -> Tuple[int, int]:
    width = draw(st.integers(0, 70))
    return draw(st.integers(0, (1 << width) - 1)), width


operations = st.one_of(
    st.tuples(st.just("bit"), st.integers(0, 1)),
    st.tuples(st.just("uint"), uint_fields()),
    st.tuples(st.just("unary"), st.integers(0, 70)),
    st.tuples(st.just("gamma"), st.integers(0, 2**70)),
    st.tuples(st.just("delta"), st.integers(0, 2**70)),
    st.tuples(st.just("hat"), bit_lists),
    st.tuples(st.just("prime"), bit_lists),
    st.tuples(st.just("bits"), bit_lists),
)


def _write(writer, op: str, arg, as_array: bool) -> None:
    if op == "uint":
        writer.write_uint(*arg)
    elif op in ("hat", "prime", "bits"):
        payload = BitArray(arg) if as_array else arg
        getattr(writer, f"write_{op}")(payload)
    else:
        getattr(writer, f"write_{op}")(arg)


def _read(reader, op: str, arg):
    if op == "uint":
        return reader.read_uint(arg[1])
    if op == "bits":
        return list(reader.read_bits(len(arg)))
    value = getattr(reader, f"read_{op}")()
    return list(value) if op in ("hat", "prime") else value


def _expected(op: str, arg):
    return arg[0] if op == "uint" else arg


class TestInterleavedCodes:
    @settings(max_examples=300)
    @given(st.integers(0, 7), st.lists(operations, max_size=25))
    def test_writes_match_model_and_read_back(self, offset, ops):
        writer, model = BitWriter(), RefWriter()
        for sink in (writer, model):
            sink.write_uint(0, offset)
        for op, arg in ops:
            _write(writer, op, arg, as_array=True)
            _write(model, op, arg, as_array=False)
            assert len(writer) == len(model.bits)
        bits = writer.getvalue()
        assert bits.to01() == "".join(map(str, model.bits))
        assert list(bits) == model.bits

        reader, ref = BitReader(bits), RefReader(model.bits)
        assert reader.read_uint(offset) == ref.read_uint(offset) == 0
        for op, arg in ops:
            got = _read(reader, op, arg)
            assert got == _read(ref, op, arg) == _expected(op, arg)
            assert reader.position == ref.pos
        assert reader.at_end()

    @given(st.integers(0, 7), st.lists(st.integers(0, 1), max_size=40))
    def test_plain_iterables_write_like_bit_arrays(self, offset, payload):
        from_list, from_array = BitWriter(), BitWriter()
        for writer in (from_list, from_array):
            writer.write_uint(0, offset)
        from_list.write_bits(payload)
        from_array.write_bits(BitArray(payload))
        assert from_list.getvalue() == from_array.getvalue()


class TestBitArrayAgainstModel:
    @settings(max_examples=60)
    @given(bit_lists)
    def test_every_slice(self, bits):
        array = BitArray(bits)
        for start in range(len(bits) + 1):
            for stop in range(start, len(bits) + 1):
                part = array[start:stop]
                assert list(part) == bits[start:stop]
                assert part == BitArray(bits[start:stop])

    @given(bit_lists, st.slices(90))
    def test_general_slices(self, bits, index):
        assert list(BitArray(bits)[index]) == bits[index]

    @given(bit_lists)
    def test_conversions(self, bits):
        array = BitArray(bits)
        text = "".join(map(str, bits))
        assert array.to01() == text
        assert array.to_int() == int(text or "0", 2)
        assert array.count(1) == sum(bits)
        assert [array[i] for i in range(len(bits))] == bits
        assert BitArray.from_int(array.to_int(), len(bits)) == array
        assert BitArray.from01(text) == array

    @given(bit_lists, bit_lists)
    def test_concatenation(self, left, right):
        combined = BitArray(left) + BitArray(right)
        assert list(combined) == left + right
        assert combined == BitArray(left + right)
        assert combined.to_bytes() == BitArray(left + right).to_bytes()


def _message(call) -> str:
    with pytest.raises(BitstreamError) as info:
        call()
    return str(info.value)


class TestErrorsMatchModel:
    @given(st.lists(st.integers(0, 1), max_size=30), st.integers(-3, 40))
    def test_reads_past_the_end(self, bits, width):
        for name in ("read_uint", "read_bits"):
            reader, ref = BitReader(BitArray(bits)), RefReader(bits)
            if 0 <= width <= len(bits):
                getattr(reader, name)(width)
                continue
            assert _message(lambda: getattr(reader, name)(width)) == _message(
                lambda: ref.read_bits(width)
            )
            assert reader.position == ref.pos == 0

    @given(st.integers(0, 30), st.integers(0, 7))
    def test_unterminated_codes(self, ones, offset):
        bits = [0] * offset + [1] * ones
        for name in ("read_unary", "read_gamma", "read_delta", "read_hat"):
            reader, ref = BitReader(BitArray(bits)), RefReader(bits)
            reader.read_uint(offset)
            ref.read_uint(offset)
            assert _message(getattr(reader, name)) == _message(
                getattr(ref, name)
            )
            assert reader.position == ref.pos

    @given(bit_lists)
    def test_prime_codes_on_arbitrary_bits(self, bits):
        reader, ref = BitReader(BitArray(bits)), RefReader(bits)
        try:
            expected = ref.read_prime()
        except BitstreamError as exc:
            assert _message(reader.read_prime) == str(exc)
        else:
            assert list(reader.read_prime()) == expected
        assert reader.position == ref.pos

    @given(uint_fields(), st.integers(1, 8))
    def test_over_wide_writes(self, field, excess):
        value, width = field
        value |= 1 << (width + excess - 1)
        assert _message(lambda: BitWriter().write_uint(value, width)) == (
            _message(lambda: RefWriter().write_uint(value, width))
        )
        assert _message(lambda: BitArray.from_int(value, width)) == (
            f"value {value} does not fit in {width} bits"
        )

    @pytest.mark.parametrize(
        "call",
        [
            lambda w: w.write_uint(1, -1),
            lambda w: w.write_uint(-1, 4),
            lambda w: w.write_bit(2),
            lambda w: w.write_bits([1, 0, 3]),
            lambda w: w.write_unary(-1),
            lambda w: w.write_gamma(-1),
            lambda w: w.write_delta(-2),
        ],
    )
    def test_invalid_writes(self, call):
        assert _message(lambda: call(BitWriter())) == _message(
            lambda: call(RefWriter())
        )
