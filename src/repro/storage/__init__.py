"""Simulated-disk substrate: pages, buffer pool, records, I/O accounting,
and the durability primitives (checksummed frames, write-ahead logging)."""

from .buffer import BufferPool
from .pages import (
    FRAME_OVERHEAD,
    PAGE_SIZE,
    ChecksummedPageStore,
    FilePageStore,
    InMemoryPageStore,
    PageCorruptionError,
    PageStore,
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
from .stats import IOSnapshot, IOStats, ScrubReport, SearchStats
from .wal import (
    RECORD_OP,
    SimulatedCrash,
    WalCorruptionError,
    WriteAheadLog,
    fsync_dir,
    wal_scrub,
)

__all__ = [
    "FRAME_OVERHEAD",
    "PAGE_SIZE",
    "RECORD_OP",
    "BufferPool",
    "ChecksummedPageStore",
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
    "WriteAheadLog",
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
