#!/usr/bin/env python3
"""Regenerates the checked-in fuzz seed corpus (ISSUE 8).

One file per interesting shape, three directories for the three parsers:

  packet/   UDP datagrams for net::deserialize_packet_e
  trailer/  INT trailers for sim::parse_trailer_e
  control/  deframed request payloads for SwdServer::handle_control

The files are deterministic functions of this script — no randomness, no
timestamps — so regeneration is always byte-identical and a corpus diff
in review means the wire format actually changed. The same files are the
seed inputs for the libFuzzer harnesses (tests/fuzz/) and are replayed
with deterministic mutations by test_fuzz_replay on every ctest run.

Layouts mirrored here (keep in sync with the C++ codecs):
  packet:  'N' 'C' 'L' ver | u16 src dst from to | u8 comp | u8 flags |
           u16 len | payload | [trailer when flags bit0]
  trailer: u8 count | count * (u16 dev, u32 gen, u64 in, u64 out,
           u32 qdepth, u32 ops)   (30 bytes per hop)
  control: u64 client | u64 request | u8 opcode | operands
"""
import itertools
import os
import struct

HERE = os.path.dirname(os.path.abspath(__file__))


def emit(subdir, name, data):
    path = os.path.join(HERE, subdir)
    os.makedirs(path, exist_ok=True)
    with open(os.path.join(path, name), "wb") as f:
        f.write(data)


def header(src=3, dst=9, frm=0, to=1, comp=1, flags=0, length=0, version=1):
    return b"NCL" + bytes([version]) + struct.pack(
        "<HHHHBBH", src, dst, frm, to, comp, flags, length)


def hop(dev=1, gen=7, ingress=1000, egress=2000, qdepth=3, ops=12):
    return struct.pack("<HIQQII", dev, gen, ingress, egress, qdepth, ops)


def trailer(*hops):
    return bytes([len(hops)]) + b"".join(hops)


def cstr(s):
    raw = s.encode()
    return struct.pack("<H", len(raw)) + raw


# Each control seed gets its own request id: the daemon answers a repeated
# (client, request id) from its idempotency cache without dispatching it,
# so seeds replayed by one process would otherwise all get the first reply.
_request_ids = itertools.count(1)


def request(opcode, operands=b"", client=0x11, reqid=None):
    if reqid is None:
        reqid = next(_request_ids)
    return struct.pack("<QQB", client, reqid, opcode) + operands


# --- packet/ ---------------------------------------------------------------
payload = bytes([1, 2, 3, 4, 0xFF])
emit("packet", "valid_min", header())
emit("packet", "valid_payload", header(length=len(payload)) + payload)
emit("packet", "valid_telemetry",
     header(flags=1, length=len(payload)) + payload + trailer(hop(), hop(dev=2)))
emit("packet", "valid_telemetry_0hops", header(flags=1) + trailer())
emit("packet", "empty", b"")
emit("packet", "short_header", header()[:8])
emit("packet", "bad_magic", b"GET / HTTP/1.0\r\n\r\n")
emit("packet", "bad_version", header(version=2, length=len(payload)) + payload)
emit("packet", "len_overrun", header(length=100) + payload)
emit("packet", "trailing_slack", header(length=len(payload)) + payload + b"\x00\x00")
emit("packet", "trailer_truncated",
     header(flags=1, length=len(payload)) + payload + trailer(hop())[:-4])
emit("packet", "trailer_count_over_max",
     header(flags=1) + bytes([16]) + hop() * 16)

# --- trailer/ --------------------------------------------------------------
emit("trailer", "hops_0", trailer())
emit("trailer", "hops_2", trailer(hop(), hop(dev=2, gen=8)))
emit("trailer", "hops_max", trailer(*[hop(dev=d) for d in range(15)]))
emit("trailer", "empty", b"")
emit("trailer", "count_over_max", bytes([16]) + hop() * 16)
emit("trailer", "size_mismatch", trailer(hop()) + b"\xAA")
emit("trailer", "count_without_hops", bytes([3]))

# --- control/ --------------------------------------------------------------
emit("control", "ping", request(1))
emit("control", "stats", request(6))
emit("control", "metrics_text", request(9))
emit("control", "list_kernels", request(13))
emit("control", "managed_write",
     request(2, cstr("thresh") + struct.pack("<H", 0) + struct.pack("<Q", 42)))
emit("control", "managed_read", request(3, cstr("thresh") + struct.pack("<H", 0)))
emit("control", "set_multicast",
     request(8, struct.pack("<HH", 5, 2) + struct.pack("<HH", 1, 2)))
emit("control", "flight_dump", request(10, struct.pack("<I", 5)))
source = b"_kernel(9) void noop(unsigned x) { return ncl::reflect(); }"
emit("control", "load_kernel",
     request(11, struct.pack("<I", 4) + b"\x00" + cstr("noop") +
             struct.pack("<H", 0) + struct.pack("<I", len(source)) + source))
emit("control", "load_kernel_len_bomb",
     request(11, struct.pack("<I", 4) + b"\x00" + cstr("noop") +
             struct.pack("<H", 0) + struct.pack("<I", 0xFFFFFFFF)))
emit("control", "unload_kernel", request(12, struct.pack("<I", 4)))
emit("control", "unknown_opcode", request(200, b"\x01\x02\x03"))
emit("control", "truncated", request(2)[:9])
emit("control", "empty", b"")

print("corpus regenerated under", HERE)
