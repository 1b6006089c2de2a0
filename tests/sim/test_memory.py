"""Sparse memory tests, including hypothesis property tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.memory import AlignmentError, Memory


def test_default_zero():
    m = Memory()
    assert m.read_word(0x1000) == 0
    assert m.read_byte(0xDEADBEEF) == 0


def test_word_roundtrip():
    m = Memory()
    m.write_word(0x100, 0x11223344)
    assert m.read_word(0x100) == 0x11223344
    assert m.read_byte(0x100) == 0x44  # little endian
    assert m.read_byte(0x103) == 0x11


def test_word_wraps_32bit():
    m = Memory()
    m.write_word(0x100, -1)
    assert m.read_word(0x100) == 0xFFFFFFFF


def test_unaligned_word_raises():
    m = Memory()
    with pytest.raises(AlignmentError):
        m.read_word(0x101)
    with pytest.raises(AlignmentError):
        m.write_word(0x102, 5)


def test_half_roundtrip():
    m = Memory()
    m.write_half(0x200, 0xBEEF)
    assert m.read_half(0x200) == 0xBEEF
    with pytest.raises(AlignmentError):
        m.read_half(0x201)


def test_cross_page_bytes():
    m = Memory()
    from repro.sim.memory import PAGE_SIZE
    base = PAGE_SIZE - 2
    m.write_bytes(base, b"abcd")
    assert m.read_bytes(base, 4) == b"abcd"


def test_load_image():
    m = Memory()
    m.load_image({0x10000000: 0x41, 0x10000001: 0x42})
    assert m.read_bytes(0x10000000, 2) == b"AB"


@given(st.integers(min_value=0, max_value=0xFFFFFFFC // 4 * 4),
       st.integers(min_value=0, max_value=0xFFFFFFFF))
@settings(max_examples=100)
def test_word_roundtrip_property(addr, value):
    addr &= ~3
    m = Memory()
    m.write_word(addr, value)
    assert m.read_word(addr) == value


@given(st.dictionaries(st.integers(min_value=0, max_value=1 << 20),
                       st.integers(min_value=0, max_value=255), max_size=50))
@settings(max_examples=50)
def test_byte_store_property(writes):
    m = Memory()
    for a, v in writes.items():
        m.write_byte(a, v)
    for a, v in writes.items():
        assert m.read_byte(a) == v
