"""Simulated-disk substrate: pages, buffer pool, records, I/O accounting,
and the durability primitives (checksummed frames, corruption injection,
write-ahead logging)."""

from .buffer import BufferPool
from .checksum import crc32c
from .corruption import Corruption, CorruptionInjector, PAGE_CORRUPTION_KINDS
from .pages import (
    FRAME_OVERHEAD,
    PAGE_SIZE,
    ChecksummedPageStore,
    FilePageStore,
    InMemoryPageStore,
    PageCorruptionError,
    PageStore,
    ScrubReport,
)
from .recordfile import RecordFile, RecordPointer
from .serializer import (
    decode_floats,
    decode_keywords,
    decode_sorted_ids,
    decode_text,
    decode_uint_list,
    decode_varint,
    encode_floats,
    encode_keywords,
    encode_sorted_ids,
    encode_text,
    encode_uint_list,
    encode_varint,
)
from .stats import IOSnapshot, IOStats, SearchStats
from .wal import (
    RECORD_OP,
    SimulatedCrash,
    WalCorruptionError,
    WalScrubReport,
    WriteAheadLog,
    fsync_dir,
    wal_scrub,
)

__all__ = [
    "FRAME_OVERHEAD",
    "PAGE_CORRUPTION_KINDS",
    "PAGE_SIZE",
    "RECORD_OP",
    "BufferPool",
    "ChecksummedPageStore",
    "Corruption",
    "CorruptionInjector",
    "FilePageStore",
    "IOSnapshot",
    "IOStats",
    "InMemoryPageStore",
    "PageCorruptionError",
    "PageStore",
    "RecordFile",
    "RecordPointer",
    "ScrubReport",
    "SearchStats",
    "SimulatedCrash",
    "WalCorruptionError",
    "WalScrubReport",
    "WriteAheadLog",
    "crc32c",
    "decode_floats",
    "decode_keywords",
    "decode_sorted_ids",
    "decode_text",
    "decode_uint_list",
    "decode_varint",
    "encode_floats",
    "encode_keywords",
    "encode_sorted_ids",
    "encode_text",
    "encode_uint_list",
    "encode_varint",
    "fsync_dir",
    "wal_scrub",
]
