#!/usr/bin/env python3
"""Recompute every CRC32C stored in OSSMPAGE v2 page files.

Checks the header CRC (over its first 40 bytes), the index CRC (over
everything from the index offset to the end of the file) and every page
slot's trailer (over its payload), with a bytewise CRC32C that shares no
code with the Rust kernel. Prints each mismatch and exits 1 if any file
has one.

Usage: page_crcs.py FILE...
"""
import struct
import sys

TABLE = []
for i in range(256):
    c = i
    for _ in range(8):
        c = (c >> 1) ^ 0x82F63B78 if c & 1 else c >> 1
    TABLE.append(c)


def crc32c(data):
    c = 0xFFFFFFFF
    for b in data:
        c = TABLE[(c ^ b) & 0xFF] ^ (c >> 8)
    return c ^ 0xFFFFFFFF


def mismatches(path):
    with open(path, "rb") as f:
        data = f.read()
    magic, version, _m, page_bytes, num_pages, index_offset, index_crc, header_crc = (
        struct.unpack_from("<8sIIIQQII", data)
    )
    if magic != b"OSSMPAGE" or version != 2:
        return ["not an OSSMPAGE v2 file"]
    bad = []
    if crc32c(data[:40]) != header_crc:
        bad.append("header")
    if crc32c(data[index_offset:]) != index_crc:
        bad.append("index")
    for p in range(num_pages):
        at = 44 + p * (page_bytes + 4)
        (trailer,) = struct.unpack_from("<I", data, at + page_bytes)
        if crc32c(data[at : at + page_bytes]) != trailer:
            bad.append(f"page {p}")
    return bad


failed = False
for path in sys.argv[1:]:
    bad = mismatches(path)
    print(f"{path}: {'CRC mismatch in ' + ', '.join(bad) if bad else 'every CRC matches'}")
    failed |= bool(bad)
sys.exit(1 if failed else 0)
