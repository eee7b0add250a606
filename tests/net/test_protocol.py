"""Wire format: round-trips, typed rejection of every corruption class.

Satellite of the network PR: truncated frames, oversized length
prefixes, corrupted CRCs, and version mismatches must each surface as
their own :class:`~repro.net.ProtocolError` subclass — never as a hang,
a misparse, or an unhandled crash.
"""

import math
import random
import struct

import pytest

from repro.core import DirectionalQuery, MatchMode, QueryResult, ResultEntry
from repro.net import (
    HEADER_SIZE,
    MAGIC,
    MAX_PAYLOAD,
    WIRE_VERSION,
    BadMagic,
    ChecksumMismatch,
    ErrorCode,
    FrameTooLarge,
    HealthReport,
    MessageType,
    OverloadError,
    ProtocolError,
    RpcError,
    TruncatedFrame,
    VersionMismatch,
)
from repro.net.protocol import (
    HEADER_FORMAT,
    check_payload,
    decode_error,
    decode_health_response,
    decode_search_request,
    decode_search_response,
    decode_stats_response,
    encode_error,
    encode_frame,
    encode_health_response,
    encode_search_request,
    encode_search_response,
    encode_stats_response,
    read_frame,
)
from repro.storage import SearchStats


def frame_reader(blob):
    """A ``recv`` over a byte string: short, then empty, at the end."""
    state = {"pos": 0}

    def recv(count):
        start = state["pos"]
        state["pos"] = min(len(blob), start + count)
        return blob[start:state["pos"]]

    return recv


def read_blob(blob):
    return read_frame(frame_reader(blob))


# -- framing round-trip -------------------------------------------------------


def test_frame_round_trip():
    payload = b"\x00\x01\x02 directional"
    msg_type, got = read_blob(encode_frame(MessageType.STATS_REQUEST,
                                           payload))
    assert msg_type is MessageType.STATS_REQUEST
    assert got == payload


def test_empty_payload_round_trip():
    msg_type, got = read_blob(encode_frame(MessageType.HEALTH_REQUEST))
    assert msg_type is MessageType.HEALTH_REQUEST
    assert got == b""


def test_encode_rejects_oversized_payload():
    class FakeLen(bytes):
        def __len__(self):
            return MAX_PAYLOAD + 1

    with pytest.raises(FrameTooLarge):
        encode_frame(MessageType.ERROR, FakeLen())


# -- header corruption classes ------------------------------------------------


def test_bad_magic_is_typed():
    blob = bytearray(encode_frame(MessageType.HEALTH_REQUEST))
    blob[0] ^= 0xFF
    with pytest.raises(BadMagic):
        read_blob(bytes(blob))


def test_http_request_is_bad_magic():
    """A text client poking the port fails fast, not mysteriously."""
    with pytest.raises(BadMagic):
        read_blob(b"GET / HTTP/1.1\r\nHost: x\r\n\r\n")


def test_version_mismatch_is_typed():
    header = struct.pack(HEADER_FORMAT, MAGIC, WIRE_VERSION + 1,
                         int(MessageType.HEALTH_REQUEST), 0, 0)
    with pytest.raises(VersionMismatch):
        read_blob(header)


def test_oversized_length_prefix_is_rejected_before_allocation():
    """A hostile length prefix must not make the peer read gigabytes."""
    header = struct.pack(HEADER_FORMAT, MAGIC, WIRE_VERSION,
                         int(MessageType.SEARCH_REQUEST),
                         MAX_PAYLOAD + 1, 0)
    reads = []

    def recv(count):
        reads.append(count)
        return (header if count == HEADER_SIZE else b"x" * count)

    with pytest.raises(FrameTooLarge):
        read_frame(recv)
    assert reads == [HEADER_SIZE]  # payload was never requested


def test_unknown_message_type_is_typed():
    header = struct.pack(HEADER_FORMAT, MAGIC, WIRE_VERSION, 200, 0, 0)
    with pytest.raises(ProtocolError):
        read_blob(header)


def test_corrupted_crc_is_typed():
    blob = bytearray(encode_frame(MessageType.STATS_REQUEST, b"payload"))
    blob[-1] ^= 0x01  # flip one payload bit; header CRC now disagrees
    with pytest.raises(ChecksumMismatch):
        read_blob(bytes(blob))


def test_check_payload_accepts_matching_crc():
    import zlib
    seed = zlib.crc32(bytes([int(MessageType.STATS_REQUEST)]))
    crc = zlib.crc32(b"ok", seed) & 0xFFFFFFFF
    assert check_payload(b"ok", crc, MessageType.STATS_REQUEST) == b"ok"


def test_crc_is_seeded_with_the_type_byte():
    """The same payload under a different type must not share a CRC."""
    import zlib
    seed = zlib.crc32(bytes([int(MessageType.STATS_REQUEST)]))
    crc = zlib.crc32(b"ok", seed) & 0xFFFFFFFF
    with pytest.raises(ChecksumMismatch):
        check_payload(b"ok", crc, MessageType.HEALTH_REQUEST)
    with pytest.raises(ChecksumMismatch):
        check_payload(b"ok", zlib.crc32(b"ok") & 0xFFFFFFFF,
                      MessageType.STATS_REQUEST)


@pytest.mark.parametrize("cut", [0, 1, HEADER_SIZE - 1])
def test_truncated_header_is_typed(cut):
    blob = encode_frame(MessageType.HEALTH_REQUEST)
    with pytest.raises(TruncatedFrame):
        read_blob(blob[:cut])


def test_truncated_payload_is_typed():
    blob = encode_frame(MessageType.STATS_REQUEST, b"0123456789")
    for cut in range(HEADER_SIZE, len(blob)):
        with pytest.raises(TruncatedFrame):
            read_blob(blob[:cut])


def test_every_single_bit_flip_in_header_is_detected():
    """Exhaustive: no single-bit header corruption parses silently.

    All 96 header bits — including the type byte, which the CRC seed
    covers as of wire version 2 — must surface as a typed
    :class:`ProtocolError`.  Wire v1 left the type byte unprotected: a
    flip to another *valid* type parsed cleanly and dispatched the
    payload as the wrong message.
    """
    blob = encode_frame(MessageType.SEARCH_REQUEST, b"body")
    for byte_index in range(HEADER_SIZE):
        for bit in range(8):
            mutated = bytearray(blob)
            mutated[byte_index] ^= 1 << bit
            with pytest.raises(ProtocolError):
                read_blob(bytes(mutated))


def test_type_byte_flipped_to_valid_type_is_checksum_mismatch():
    """A type flip that still spells a valid type fails the CRC, typed.

    SEARCH_REQUEST (1) with bit 1 flipped is HEALTH_REQUEST (3): magic,
    version, and length all still validate, and the type is known — only
    the type-seeded CRC can catch it.
    """
    assert int(MessageType.SEARCH_REQUEST) ^ 0x02 == \
        int(MessageType.HEALTH_REQUEST)
    blob = bytearray(encode_frame(MessageType.SEARCH_REQUEST, b"body"))
    blob[3] ^= 0x02
    with pytest.raises(ChecksumMismatch):
        read_blob(bytes(blob))


def test_random_garbage_never_hangs_or_misparses():
    rng = random.Random(0xD35C)
    for _ in range(200):
        blob = bytes(rng.randrange(256)
                     for _ in range(rng.randrange(0, 64)))
        try:
            read_blob(blob)
        except ProtocolError:
            continue  # typed rejection is the contract
        # Parsing "succeeded": only possible if garbage spelled a full
        # valid frame — vanishingly unlikely; treat it as a finding.
        raise AssertionError(f"garbage parsed as a frame: {blob!r}")


# -- search request payload ---------------------------------------------------


def query_of(keywords=("cafe", "atm"), k=5, mode=MatchMode.ALL):
    return DirectionalQuery.make(12.5, -3.25, 0.1, 2.9, list(keywords), k,
                                 match_mode=mode)


def test_search_request_round_trip_bit_exact():
    query = query_of()
    decoded, budget = decode_search_request(encode_search_request(query,
                                                                  1.5))
    assert decoded.location.x == query.location.x
    assert decoded.location.y == query.location.y
    assert decoded.interval.lower == query.interval.lower
    assert decoded.interval.upper == query.interval.upper
    assert decoded.k == query.k
    assert decoded.match_mode is query.match_mode
    assert sorted(decoded.keywords) == sorted(query.keywords)
    assert budget == 1.5


def test_search_request_match_any_round_trip():
    decoded, _ = decode_search_request(
        encode_search_request(query_of(mode=MatchMode.ANY)))
    assert decoded.match_mode is MatchMode.ANY


@pytest.mark.parametrize("budget,expected", [
    (None, None),          # unbounded stays unbounded
    (math.inf, None),      # inf normalises to unbounded
    (0.0, 0.0),            # already-expired crosses as zero
    (-3.0, 0.0),           # negative clamps to zero, not to "unbounded"
    (0.25, 0.25),
])
def test_budget_sentinel(budget, expected):
    _, got = decode_search_request(
        encode_search_request(query_of(), budget))
    assert got == expected


def test_unicode_keywords_round_trip():
    query = query_of(keywords=("café", "東京"))
    decoded, _ = decode_search_request(encode_search_request(query))
    assert sorted(decoded.keywords) == sorted(query.keywords)


def test_too_many_keywords_is_typed():
    query = query_of(keywords=tuple(f"kw{i}" for i in range(256)))
    with pytest.raises(ProtocolError):
        encode_search_request(query)


def test_overlong_string_is_typed():
    query = query_of(keywords=("k" * 70000,))
    with pytest.raises(ProtocolError):
        encode_search_request(query)


def test_truncated_request_payload_is_typed():
    blob = encode_search_request(query_of())
    for cut in (0, 8, len(blob) // 2, len(blob) - 1):
        with pytest.raises(ProtocolError):
            decode_search_request(blob[:cut])


def test_trailing_bytes_are_typed():
    with pytest.raises(ProtocolError):
        decode_search_request(encode_search_request(query_of()) + b"\x00")


def test_invalid_utf8_keyword_is_typed():
    blob = bytearray(encode_search_request(query_of(keywords=("zzzz",))))
    blob.reverse()  # guaranteed to scramble the length-prefixed strings
    with pytest.raises(ProtocolError):
        decode_search_request(bytes(blob))


def test_invalid_query_fields_are_typed_not_crashes():
    """A payload whose floats decode but violate query invariants."""
    blob = bytearray(encode_search_request(query_of()))
    struct.pack_into("!I", blob, 32, 0)  # k = 0 is invalid
    with pytest.raises(ProtocolError):
        decode_search_request(bytes(blob))


# -- search response payload --------------------------------------------------


def result_of(n=3, partial=False):
    return QueryResult([ResultEntry(i * 7, i * 1.25) for i in range(n)],
                       partial=partial)


def test_search_response_round_trip():
    stats = SearchStats(regions_examined=4, subregions_examined=9,
                        nodes_examined=31, pois_examined=120,
                        distance_computations=77, candidates_verified=55)
    blob = encode_search_response(
        result_of(5), cached=True, generation=42, server_latency=0.0125,
        stats=stats, degraded=True, failure_cause="shard 3 down")
    remote = decode_search_response(blob)
    assert [(e.poi_id, e.distance) for e in remote.result.entries] == \
        [(i * 7, i * 1.25) for i in range(5)]
    assert remote.cached and remote.degraded
    assert not remote.partial
    assert remote.generation == 42
    assert remote.server_latency == 0.0125
    assert remote.stats == stats
    assert remote.failure_cause == "shard 3 down"


def test_unavailable_shards_round_trip():
    """The typed brownout trailer survives the wire bit-exactly."""
    blob = encode_search_response(result_of(2, partial=True),
                                  failure_cause="shards 1, 4 unavailable",
                                  unavailable_shards=[4, 1])
    remote = decode_search_response(blob)
    assert remote.unavailable_shards == (4, 1)
    assert remote.partial
    assert remote.failure_cause == "shards 1, 4 unavailable"


def test_unavailable_shards_default_is_empty_and_flagless():
    """Full answers carry no trailer: old decoders keep working."""
    with_field = encode_search_response(result_of(3),
                                        unavailable_shards=())
    without = encode_search_response(result_of(3))
    assert with_field == without
    assert decode_search_response(without).unavailable_shards == ()


def test_partial_flag_and_empty_result_round_trip():
    remote = decode_search_response(
        encode_search_response(result_of(0, partial=True)))
    assert remote.partial
    assert remote.result.entries == []
    assert remote.stats is None
    assert remote.failure_cause is None


def test_distances_cross_bit_exactly():
    """No JSON float drift: equivalence suites need exact distances."""
    entries = [ResultEntry(1, 0.1 + 0.2), ResultEntry(2, 1e-308),
               ResultEntry(3, math.pi)]
    remote = decode_search_response(
        encode_search_response(QueryResult(entries)))
    assert [e.distance for e in remote.result.entries] == \
        [0.1 + 0.2, 1e-308, math.pi]


def test_truncated_response_payload_is_typed():
    blob = encode_search_response(result_of(4))
    for cut in (0, 5, len(blob) - 3):
        with pytest.raises(ProtocolError):
            decode_search_response(blob[:cut])


# -- health / stats / error ---------------------------------------------------


def test_health_round_trip():
    report = HealthReport(ok=True, shard_id=3, generation=17,
                          num_pois=1920, requests_total=12345,
                          uptime_seconds=6.5)
    assert decode_health_response(encode_health_response(report)) == report


def test_stats_round_trip():
    values = {"net_requests_total": 10.0, "query_latency_p95": 0.004,
              "uptime_seconds": 12.25}
    assert decode_stats_response(encode_stats_response(values)) == values


def test_stats_truncated_is_typed():
    blob = encode_stats_response({"a": 1.0, "b": 2.0})
    with pytest.raises(ProtocolError):
        decode_stats_response(blob[:-4])


def test_error_round_trip_overload_is_its_own_type():
    error = decode_error(encode_error(ErrorCode.OVERLOAD, "full up"))
    assert isinstance(error, OverloadError)
    assert error.code is ErrorCode.OVERLOAD
    assert "full up" in str(error)


def test_error_round_trip_other_codes():
    for code in (ErrorCode.BAD_REQUEST, ErrorCode.INTERNAL,
                 ErrorCode.SHUTTING_DOWN):
        error = decode_error(encode_error(code, "detail"))
        assert isinstance(error, RpcError)
        assert not isinstance(error, OverloadError)
        assert error.code is code


def test_unknown_error_code_is_typed():
    with pytest.raises(ProtocolError):
        decode_error(b"\xfe" + b"\x00\x00")


# -- statement frames (DQL over the wire) -------------------------------------


def statement_codec():
    from repro.net.protocol import (
        decode_statement_request,
        decode_statement_response,
        encode_statement_request,
        encode_statement_response,
    )
    return (encode_statement_request, decode_statement_request,
            encode_statement_response, decode_statement_response)


def test_statement_request_round_trip():
    enc, dec, _, _ = statement_codec()
    statement = "SELECT 5 NEAR (1.5, -2.5) MATCHING 'café'"
    assert dec(enc(statement, 0.25)) == (statement, 0.25)


@pytest.mark.parametrize("budget,expected",
                         [(None, None), (math.inf, None), (1.5, 1.5),
                          (0.0, 0.0)])
def test_statement_budget_sentinel(budget, expected):
    enc, dec, _, _ = statement_codec()
    assert dec(enc("SHOW METRICS", budget))[1] == expected


def test_statement_longer_than_u16_round_trips():
    # Statements use the u32 long-string form, not the u16 _pack_str.
    enc, dec, _, _ = statement_codec()
    statement = "SELECT 1 NEAR (0, 0) MATCHING '" + "x " * 40000 + "'"
    assert len(statement) > 0xFFFF
    assert dec(enc(statement, None))[0] == statement


def test_statement_search_response_nests_search_payload():
    _, _, enc, dec = statement_codec()
    result = QueryResult(
        [ResultEntry(7, 1.25), ResultEntry(3, 2.5)], partial=True)
    nested = encode_search_response(result, cached=True, generation=4,
                                    server_latency=0.125)
    remote = dec(enc("SELECT 2 NEAR (0.0, 0.0) MATCHING 'cafe'",
                     "search", search=nested))
    assert remote.kind == "search"
    assert remote.search.cached is True
    assert remote.search.generation == 4
    assert [(e.poi_id, e.distance) for e in remote.search.result.entries] \
        == [(7, 1.25), (3, 2.5)]
    assert remote.search.result.partial is True


def test_statement_table_response_round_trip():
    _, _, enc, dec = statement_codec()
    table = {"shards.total": 2.0, "shard.0.pois": 150.0}
    remote = dec(enc("SHOW SHARDS", "table", table=table))
    assert remote.kind == "table"
    assert remote.table == table


def test_statement_text_response_round_trip():
    _, _, enc, dec = statement_codec()
    report = "plan:\n  subquery quadrant=0\nreconciliation (OK)\n" * 100
    remote = dec(enc("EXPLAIN SELECT ...", "text", text=report))
    assert remote.kind == "text"
    assert remote.text == report


def test_statement_unknown_kind_byte_is_typed():
    _, _, enc, dec = statement_codec()
    blob = bytearray(enc("SHOW METRICS", "table", table={}))
    kind_at = 4 + len("SHOW METRICS")  # u32 length prefix + text
    assert blob[kind_at] == 2
    blob[kind_at] = 0x7F
    with pytest.raises(ProtocolError):
        dec(bytes(blob))


def test_statement_truncated_is_typed():
    enc, dec, _, _ = statement_codec()
    blob = enc("SELECT 1 NEAR (0, 0) MATCHING 'cafe'", 1.0)
    for cut in (1, 3, 10, len(blob) - 1):
        with pytest.raises(ProtocolError):
            dec(blob[:cut])


def test_statement_outcome_encoder_matches_response_encoder():
    from repro.net.protocol import (
        decode_statement_response,
        encode_statement_outcome,
    )

    class Outcome:
        statement = "SELECT 1 NEAR (0.0, 0.0) MATCHING 'cafe'"
        kind = "search"
        entries = (ResultEntry(9, 3.75),)
        partial = False
        cached = False
        generation = 2
        latency_seconds = 0.5

    remote = decode_statement_response(encode_statement_outcome(Outcome()))
    assert remote.statement == Outcome.statement
    assert remote.search.generation == 2
    assert [(e.poi_id, e.distance) for e in remote.search.result.entries] \
        == [(9, 3.75)]
