"""Sparse byte-addressable memory.

Chunked storage: memory is a dict of fixed-size bytearrays keyed by page
number, so large sparse address spaces (data segment at 0x10000000, stack
near the top of the 32-bit space) stay cheap while hot pages get dense
bytearray access.
"""

from __future__ import annotations

from typing import Iterable

PAGE_SHIFT = 12
PAGE_SIZE = 1 << PAGE_SHIFT
PAGE_MASK = PAGE_SIZE - 1
ADDR_MASK = 0xFFFF_FFFF


class AlignmentError(Exception):
    """Raised on unaligned word/halfword access (MIPS semantics)."""


class Memory:
    """32-bit byte-addressable little-endian memory."""

    def __init__(self) -> None:
        self._pages: dict[int, bytearray] = {}

    def _page(self, addr: int) -> bytearray:
        pno = addr >> PAGE_SHIFT
        page = self._pages.get(pno)
        if page is None:
            page = bytearray(PAGE_SIZE)
            self._pages[pno] = page
        return page

    # -- byte ------------------------------------------------------------------

    def read_byte(self, addr: int) -> int:
        addr &= ADDR_MASK
        page = self._pages.get(addr >> PAGE_SHIFT)
        if page is None:
            return 0
        return page[addr & PAGE_MASK]

    def write_byte(self, addr: int, value: int) -> None:
        addr &= ADDR_MASK
        self._page(addr)[addr & PAGE_MASK] = value & 0xFF

    # -- halfword ---------------------------------------------------------------

    def read_half(self, addr: int) -> int:
        addr &= ADDR_MASK
        if addr & 1:
            raise AlignmentError(f"unaligned halfword read at 0x{addr:08x}")
        off = addr & PAGE_MASK
        page = self._pages.get(addr >> PAGE_SHIFT)
        if page is None:
            return 0
        return page[off] | (page[off + 1] << 8)

    def write_half(self, addr: int, value: int) -> None:
        addr &= ADDR_MASK
        if addr & 1:
            raise AlignmentError(f"unaligned halfword write at 0x{addr:08x}")
        page = self._page(addr)
        off = addr & PAGE_MASK
        page[off] = value & 0xFF
        page[off + 1] = (value >> 8) & 0xFF

    # -- word ----------------------------------------------------------------------

    def read_word(self, addr: int) -> int:
        addr &= ADDR_MASK
        if addr & 3:
            raise AlignmentError(f"unaligned word read at 0x{addr:08x}")
        off = addr & PAGE_MASK
        page = self._pages.get(addr >> PAGE_SHIFT)
        if page is None:
            return 0
        return int.from_bytes(page[off:off + 4], "little")

    def write_word(self, addr: int, value: int) -> None:
        addr &= ADDR_MASK
        if addr & 3:
            raise AlignmentError(f"unaligned word write at 0x{addr:08x}")
        page = self._page(addr)
        off = addr & PAGE_MASK
        page[off:off + 4] = (value & 0xFFFF_FFFF).to_bytes(4, "little")

    # -- bulk ----------------------------------------------------------------------

    def load_image(self, image: dict[int, int] | Iterable[tuple[int, int]]) -> None:
        """Load a {address: byte} image (e.g. a Program's data segment)."""
        items = image.items() if isinstance(image, dict) else image
        for addr, byte in items:
            self.write_byte(addr, byte)

    def read_bytes(self, addr: int, n: int) -> bytes:
        return bytes(self.read_byte(addr + i) for i in range(n))

    def write_bytes(self, addr: int, data: bytes) -> None:
        for i, b in enumerate(data):
            self.write_byte(addr + i, b)
