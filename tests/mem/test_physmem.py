"""Tests for the flat simulated memory."""

import numpy as np
import pytest

from repro.errors import AlignmentError, SegmentationFault
from repro.mem.physmem import NULL_PTR, PhysicalMemory


def test_sbrk_returns_aligned_growing_addresses():
    mem = PhysicalMemory()
    a = mem.sbrk(100, align=64)
    b = mem.sbrk(100, align=64)
    assert a % 64 == 0 and b % 64 == 0
    assert b >= a + 100


def test_read_write_roundtrip_all_widths():
    mem = PhysicalMemory()
    base = mem.sbrk(64)
    for size, value in ((1, 0xAB), (4, 0xDEADBEEF), (8, 0x0123456789ABCDEF)):
        mem.write(base, size, value)
        assert mem.read(base, size) == value


def test_little_endian_layout():
    mem = PhysicalMemory()
    base = mem.sbrk(8)
    mem.write_u64(base, 0x1122334455667788)
    assert mem.read_u8(base) == 0x88
    assert mem.read_u32(base + 4) == 0x11223344


def test_write_truncates_to_width():
    mem = PhysicalMemory()
    base = mem.sbrk(8)
    mem.write_u32(base, 0x1_FFFF_FFFF)
    assert mem.read_u32(base) == 0xFFFF_FFFF


def test_null_dereference_faults():
    mem = PhysicalMemory()
    mem.sbrk(64)
    with pytest.raises(SegmentationFault):
        mem.read(NULL_PTR, 8)


def test_unaligned_access_faults():
    mem = PhysicalMemory()
    base = mem.sbrk(64)
    with pytest.raises(AlignmentError):
        mem.read(base + 1, 8)
    with pytest.raises(AlignmentError):
        mem.write(base + 2, 4, 1)


def test_out_of_bounds_faults():
    mem = PhysicalMemory()
    base = mem.sbrk(64)
    with pytest.raises(SegmentationFault):
        mem.read(base + 64, 8)


def test_memory_limit_enforced():
    mem = PhysicalMemory(limit_bytes=1024)
    with pytest.raises(SegmentationFault):
        mem.sbrk(2048)


def test_negative_allocation_rejected():
    with pytest.raises(ValueError):
        PhysicalMemory().sbrk(-1)


def test_bad_alignment_rejected():
    with pytest.raises(ValueError):
        PhysicalMemory().sbrk(8, align=3)


def test_fresh_memory_reads_zero():
    mem = PhysicalMemory()
    base = mem.sbrk(64)
    assert mem.read_u64(base) == 0


def test_read_bytes_debug_helper():
    mem = PhysicalMemory()
    base = mem.sbrk(16)
    mem.write_u32(base, 0x04030201)
    assert mem.read_bytes(base, 4) == b"\x01\x02\x03\x04"


def test_allocated_bytes_tracks_brk():
    mem = PhysicalMemory()
    mem.sbrk(100, align=64)
    assert mem.allocated_bytes >= 100


def test_field_roundtrip_strided_and_by_row():
    mem = PhysicalMemory()
    base = mem.sbrk(16 * 8)
    mem.write_field(base + 8, 8, 8, np.arange(8, dtype=np.uint64) + 100,
                    stride=16)
    mem.write_field(base, 4, 8, 0x1_FFFF_FFFF, stride=16)
    mem.write_field(base + 4, 4, 8, np.array([1 << 40 | 7, 9], np.uint64),
                    stride=16, rows=np.array([2, 5]))
    assert mem.read_u64(base + 16 * 3 + 8) == 103
    assert mem.read_u32(base + 16 * 7) == 0xFFFF_FFFF
    assert mem.read_u32(base + 16 * 2 + 4) == 7  # truncated to the width
    assert mem.read_field(base + 4, 4, 8, stride=16).tolist() == \
        [0, 0, 7, 0, 0, 9, 0, 0]
    assert mem.read_field(base + 8, 8, 8, stride=16,
                          rows=[6, 0]).tolist() == [106, 100]
    assert mem.read_bytes(base + 12, 4) == b"\x00" * 4  # gap untouched


def test_field_access_is_checked():
    mem = PhysicalMemory()
    base = mem.sbrk(64)
    with pytest.raises(SegmentationFault):
        mem.write_field(base, 8, 9, 1)
    with pytest.raises(SegmentationFault):
        mem.read_field(NULL_PTR, 4, 1)
    with pytest.raises(AlignmentError):
        mem.write_field(base + 4, 8, 2, 1)
    with pytest.raises(AlignmentError):
        mem.read_field(base, 8, 2, stride=12)
    with pytest.raises(IndexError):
        mem.write_field(base, 8, 8, [1], rows=[8])
    assert mem.read_field(base, 8, 0).size == 0


def test_field_access_never_pins_the_store():
    mem = PhysicalMemory()
    base = mem.sbrk(64)
    with pytest.raises(IndexError):
        mem.write_field(base, 8, 8, [1], rows=[9])
    values = mem.read_field(base, 8, 8)
    mem.sbrk(1 << 16)  # a leaked buffer export would raise BufferError
    assert values.tolist() == [0] * 8  # a copy, not a view of the store
