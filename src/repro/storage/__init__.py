"""Simulated-disk substrate: pages, buffer pool, records, I/O accounting,
and the durability primitive (the write-ahead log)."""

from .buffer import BufferPool
from .pages import (
    PAGE_SIZE,
    FilePageStore,
    InMemoryPageStore,
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
    WalCorruptionError,
    WriteAheadLog,
    fsync_dir,
    wal_scrub,
)

__all__ = [
    "PAGE_SIZE",
    "RECORD_OP",
    "BufferPool",
    "FilePageStore",
    "IOSnapshot",
    "IOStats",
    "InMemoryPageStore",
    "PageStore",
    "RecordFile",
    "RecordPointer",
    "ScrubReport",
    "SearchStats",
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
