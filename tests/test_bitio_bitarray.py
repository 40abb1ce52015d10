"""Unit tests for :class:`repro.bitio.BitArray`."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.bitio import BitArray
from repro.errors import BitstreamError


class TestConstruction:
    def test_empty(self):
        bits = BitArray()
        assert len(bits) == 0
        assert bits.to01() == ""

    def test_from_iterable(self):
        bits = BitArray([1, 0, 1, 1])
        assert bits.to01() == "1011"

    def test_rejects_non_bits(self):
        with pytest.raises(BitstreamError):
            BitArray([0, 2, 1])

    def test_from01(self):
        assert BitArray.from01("10110").to01() == "10110"

    def test_from01_rejects_garbage(self):
        with pytest.raises(BitstreamError):
            BitArray.from01("10x1")

    def test_from_int_exact_width(self):
        assert BitArray.from_int(5, 3).to01() == "101"

    def test_from_int_zero_padding(self):
        assert BitArray.from_int(5, 6).to01() == "000101"

    def test_from_int_rejects_overflow(self):
        with pytest.raises(BitstreamError):
            BitArray.from_int(8, 3)

    def test_from_int_rejects_negative(self):
        with pytest.raises(BitstreamError):
            BitArray.from_int(-1, 4)

    def test_zeros(self):
        bits = BitArray.zeros(10)
        assert len(bits) == 10
        assert bits.count(1) == 0
        assert bits.count(0) == 10


class TestAccess:
    def test_indexing(self):
        bits = BitArray.from01("1001")
        assert [bits[i] for i in range(4)] == [1, 0, 0, 1]

    def test_negative_indexing(self):
        bits = BitArray.from01("1001")
        assert bits[-1] == 1
        assert bits[-3] == 0

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            BitArray.from01("10")[2]

    def test_slicing(self):
        bits = BitArray.from01("110010")
        assert bits[1:4].to01() == "100"

    def test_iteration(self):
        assert list(BitArray.from01("101")) == [1, 0, 1]

    def test_to_int(self):
        assert BitArray.from01("1101").to_int() == 13

    def test_to_int_empty(self):
        assert BitArray().to_int() == 0

    def test_count(self):
        bits = BitArray.from01("1101001")
        assert bits.count(1) == 4
        assert bits.count(0) == 3

    def test_to_bytes_padding(self):
        bits = BitArray.from01("1" * 9)
        raw = bits.to_bytes()
        assert len(raw) == 2
        assert raw[0] == 0xFF
        assert raw[1] == 0x80


class TestOperators:
    def test_concatenation(self):
        left = BitArray.from01("101")
        right = BitArray.from01("01")
        assert (left + right).to01() == "10101"

    def test_concatenation_byte_aligned(self):
        left = BitArray.from01("10110100")
        right = BitArray.from01("111")
        assert (left + right).to01() == "10110100111"

    def test_equality(self):
        assert BitArray.from01("101") == BitArray([1, 0, 1])
        assert BitArray.from01("101") != BitArray.from01("1010")

    def test_equality_ignores_padding_difference(self):
        a = BitArray.from01("1")
        b = BitArray.from01("10")
        assert a != b

    def test_hashable(self):
        seen = {BitArray.from01("101"), BitArray.from01("101")}
        assert len(seen) == 1

    def test_repr_short(self):
        assert "101" in repr(BitArray.from01("101"))


class TestProperties:
    @given(st.lists(st.integers(min_value=0, max_value=1), max_size=200))
    def test_to01_round_trip(self, bits):
        array = BitArray(bits)
        assert BitArray.from01(array.to01()) == array

    @given(st.integers(min_value=0, max_value=2**64 - 1))
    def test_int_round_trip(self, value):
        width = max(value.bit_length(), 1)
        assert BitArray.from_int(value, width).to_int() == value

    @given(
        st.lists(st.integers(min_value=0, max_value=1), max_size=64),
        st.lists(st.integers(min_value=0, max_value=1), max_size=64),
    )
    def test_concatenation_matches_lists(self, left, right):
        combined = BitArray(left) + BitArray(right)
        assert list(combined) == left + right

    @given(st.lists(st.integers(min_value=0, max_value=1), max_size=100))
    def test_count_consistency(self, bits):
        array = BitArray(bits)
        assert array.count(1) + array.count(0) == len(array)


class TestCanonicalPacking:
    """Packed input with stray pad bits or extra bytes is normalised."""

    def test_pad_bits_are_cleared(self):
        bits = BitArray._from_packed(b"\xff", 3)
        assert bits.to_bytes() == b"\xe0"
        assert bits.count(0) == 0
        assert bits.count(1) == 3

    def test_equal_and_same_hash_as_built_array(self):
        packed = BitArray._from_packed(b"\xff", 3)
        built = BitArray([1, 1, 1])
        assert packed == built
        assert hash(packed) == hash(built)

    def test_surplus_bytes_are_dropped(self):
        bits = BitArray._from_packed(b"\xa5\xff\xff", 4)
        assert bits.to_bytes() == b"\xa0"
        assert bits == BitArray.from01("1010")

    def test_empty_from_nonempty_buffer(self):
        bits = BitArray._from_packed(b"\x01\x02", 0)
        assert bits.to_bytes() == b""
        assert bits == BitArray()

    def test_capacity_still_checked(self):
        with pytest.raises(BitstreamError, match="exceeds capacity"):
            BitArray._from_packed(b"\x00", 9)

    @given(st.binary(max_size=16), st.data())
    def test_matches_its_own_bits(self, buf, data):
        length = data.draw(st.integers(0, 8 * len(buf)))
        bits = BitArray._from_packed(buf, length)
        expected = BitArray.from01(
            "".join(format(byte, "08b") for byte in buf)[:length]
        )
        assert bits == expected
        assert bits.to_bytes() == expected.to_bytes()
        assert len(bits.to_bytes()) == (length + 7) // 8
