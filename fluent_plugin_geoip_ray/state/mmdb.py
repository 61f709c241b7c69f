"""Minimal MaxMind DB (.mmdb) reader + fixture writer.

Implements the PUBLIC MaxMind DB file format specification
(https://maxmind.github.io/MaxMind-DB/ -- binary search tree of IP bits +
16-byte separator + typed data section + metadata map after the
``\\xab\\xcd\\xefMaxMind.com`` marker).  The ``maxminddb`` wheel is absent
in this sandbox, so this module provides:

* :class:`MMDBReader` -- a spec-complete-enough reader (record sizes
  24/28/32, v4 and v6 trees, all scalar types, maps, arrays and pointers)
  that duck-types the ``maxminddb.Reader.get`` contract consumed by
  :class:`..state.backends.MaxmindBackend` (the analog of the reference's
  ``GeoIP2::Database#lookup``, ``lib/fluent/plugin/filter_geoip.rb:215``).
  Lookups are batched: ``get_many(ips)`` parses strict dotted quads with
  one vectorized regex/split (anything else through ``ipaddress``), then
  descends the tree -- viewed at open as a ``(node_count, 2)`` record array
  -- with one numpy gather per bit level over the addresses still inside
  it (32 levels from the cached IPv4 start node, 128 for IPv6), stopping
  early on data pointers and misses; each hit's data record is then
  decoded.  ``get(ip)`` is ``get_many([ip])[0]`` after validation.
* :func:`write_mmdb` -- a deterministic writer used to build fixture
  databases: exact hosts and CIDR networks with longest-prefix semantics,
  record size 24/28/32, an IPv6 tree with IPv4 at the conventional
  ``::/96`` prefix (the start-node rule the public readers use) or an
  IPv4-only tree.

The writer inlines every value (no pointer emission); the reader handles
the full pointer grammar so real GeoLite2 files decode too.
"""

from __future__ import annotations

import ipaddress
import os
import struct

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

METADATA_MARKER = b"\xab\xcd\xefMaxMind.com"

# data-section type numbers (spec "Output Data Section")
_T_POINTER = 1
_T_UTF8 = 2
_T_DOUBLE = 3
_T_BYTES = 4
_T_UINT16 = 5
_T_UINT32 = 6
_T_MAP = 7
_T_INT32 = 8
_T_UINT64 = 9
_T_UINT128 = 10
_T_ARRAY = 11
_T_BOOL = 14
_T_FLOAT = 15

# a dotted quad exactly as ``ipaddress`` accepts it: four ASCII-digit
# octets, each <= 255 and without a leading zero
_OCTET = r"(?:25[0-5]|2[0-4][0-9]|1[0-9][0-9]|[1-9]?[0-9])"
_DOTTED_QUAD = rf"^{_OCTET}\.{_OCTET}\.{_OCTET}\.{_OCTET}$"


# --------------------------------------------------------------------------
# encoder (writer side)
# --------------------------------------------------------------------------

def _ctrl(type_num: int, size: int) -> bytes:
    """Control byte (+ extended-type byte, + size bytes) for a field."""
    first3 = type_num if type_num < 8 else 0
    ext = b"" if type_num < 8 else bytes([type_num - 7])
    if size < 29:
        return bytes([(first3 << 5) | size]) + ext
    if size < 29 + 256:
        return bytes([(first3 << 5) | 29]) + ext + bytes([size - 29])
    if size < 285 + 65536:
        return bytes([(first3 << 5) | 30]) + ext + (size - 285).to_bytes(2, "big")
    return bytes([(first3 << 5) | 31]) + ext + (size - 65_821).to_bytes(3, "big")


def _uint_bytes(v: int) -> bytes:
    if v == 0:
        return b""
    return v.to_bytes((v.bit_length() + 7) // 8, "big")


def encode_value(value) -> bytes:
    """Encode one value (no pointers; nested values inline)."""
    if isinstance(value, bool):
        return _ctrl(_T_BOOL, 1 if value else 0)
    if isinstance(value, str):
        raw = value.encode("utf-8")
        return _ctrl(_T_UTF8, len(raw)) + raw
    if isinstance(value, float):
        return _ctrl(_T_DOUBLE, 8) + struct.pack(">d", value)
    if isinstance(value, int):
        if value < 0:
            raw = value.to_bytes(4, "big", signed=True)
            return _ctrl(_T_INT32, 4) + raw
        raw = _uint_bytes(value)
        if value < 1 << 16:
            return _ctrl(_T_UINT16, len(raw)) + raw
        if value < 1 << 32:
            return _ctrl(_T_UINT32, len(raw)) + raw
        return _ctrl(_T_UINT64, len(raw)) + raw
    if isinstance(value, bytes):
        return _ctrl(_T_BYTES, len(value)) + value
    if isinstance(value, dict):
        out = _ctrl(_T_MAP, len(value))
        for k, v in value.items():
            out += encode_value(str(k)) + encode_value(v)
        return out
    if isinstance(value, (list, tuple)):
        out = _ctrl(_T_ARRAY, len(value))
        for v in value:
            out += encode_value(v)
        return out
    raise TypeError(f"unsupported mmdb value type: {type(value)!r}")


# --------------------------------------------------------------------------
# writer
# --------------------------------------------------------------------------

class _Node:
    __slots__ = ("left", "right")

    def __init__(self):
        self.left = None   # None | _Node | ("data", offset)
        self.right = None


def _network_bits(key: str, ip_version: int) -> list[int] | None:
    """Tree path of ``key`` (an address or CIDR network), or None for a key
    that names no IP (a hostname).  In a v6 tree an IPv4 network sits under
    the ``::/96`` prefix (the start-node convention of the public readers)."""
    try:
        net = ipaddress.ip_network(key)
    except ValueError:
        if "/" in key:
            raise ValueError(f"mmdb key {key!r}: not a network (host bits set?)") from None
        return None
    packed = net.network_address.packed
    plen = net.prefixlen
    if net.version == 4 and ip_version == 6:
        packed = b"\x00" * 12 + packed
        plen += 96
    elif net.version == 6 and ip_version == 4:
        raise ValueError(f"mmdb key {key!r}: IPv6 network in an IPv4 tree")
    if plen == 0:
        raise ValueError(f"mmdb key {key!r}: a zero-length prefix has no record")
    bits = [(byte >> (7 - i)) & 1 for byte in packed for i in range(8)]
    return bits[:plen]


def _pack_records(left: int, right: int, record_size: int) -> bytes:
    if record_size == 32:
        return struct.pack(">II", left, right)
    if record_size == 24:
        return left.to_bytes(3, "big") + right.to_bytes(3, "big")
    # 28: 24 low bits of each record around a middle byte of their high nibbles
    middle = ((left >> 24) << 4) | (right >> 24)
    return left.to_bytes(4, "big")[1:] + bytes([middle]) + right.to_bytes(4, "big")[1:]


def write_mmdb(docs: dict[str, dict], path: str,
               database_type: str = "Synthetic-GeoIP2-Fixture",
               record_size: int = 32, ip_version: int = 6) -> str:
    """Write a deterministic .mmdb for ``docs`` ({key -> nested document}).

    A key is an address (an exact host) or a CIDR network (``10.0.0.0/8``,
    ``2001:db8::/32``); lookups get longest-prefix semantics.  Non-IP keys
    are skipped (mmdb stores networks, not hostnames).  ``record_size`` is
    24, 28 or 32 bits; ``ip_version`` 4 writes an IPv4-only tree."""
    if record_size not in (24, 28, 32):
        raise ValueError(f"unsupported record size {record_size}")
    if ip_version not in (4, 6):
        raise ValueError(f"unsupported ip_version {ip_version}")
    # data section: dedupe identical documents by their encoded bytes
    data = bytearray()
    offsets: dict[bytes, int] = {}
    leaves: list[tuple[list[int], int]] = []
    for key, doc in sorted(docs.items()):
        bits = _network_bits(key, ip_version)
        if bits is None:
            continue
        enc = encode_value(doc)
        if enc not in offsets:
            offsets[enc] = len(data)
            data.extend(enc)
        leaves.append((bits, offsets[enc]))

    # build the trie, shorter prefixes first: a more-specific network pushes
    # the leaf of its covering network down into both children on its path
    root = _Node()
    for bits, off in sorted(leaves, key=lambda leaf: len(leaf[0])):
        node = root
        for bit in bits[:-1]:
            attr = "right" if bit else "left"
            nxt = getattr(node, attr)
            if not isinstance(nxt, _Node):
                cover, nxt = nxt, _Node()
                nxt.left = nxt.right = cover
                setattr(node, attr, nxt)
            node = nxt
        setattr(node, "right" if bits[-1] else "left", ("data", off))

    # number nodes breadth-first
    order: list[_Node] = []
    queue = [root]
    index: dict[int, int] = {}
    while queue:
        n = queue.pop(0)
        index[id(n)] = len(order)
        order.append(n)
        for child in (n.left, n.right):
            if isinstance(child, _Node):
                queue.append(child)
    node_count = len(order)
    if node_count + 16 + len(data) >= 1 << record_size:
        raise ValueError(f"database too large for record size {record_size}")

    def record(child) -> int:
        if child is None:
            return node_count                      # miss
        if isinstance(child, _Node):
            return index[id(child)]
        return node_count + 16 + child[1]          # data pointer

    tree = b"".join(_pack_records(record(n.left), record(n.right), record_size)
                    for n in order)

    metadata = {
        "binary_format_major_version": 2,
        "binary_format_minor_version": 0,
        # fixed epoch: fixture bytes must be deterministic
        "build_epoch": 1_700_000_000,
        "database_type": database_type,
        "description": {"en": "synthetic fixture (public spec writer)"},
        "ip_version": ip_version,
        "languages": ["en"],
        "node_count": node_count,
        "record_size": record_size,
    }
    blob = tree + b"\x00" * 16 + bytes(data) + METADATA_MARKER + \
        encode_value(metadata)
    tmp = path + ".tmp"
    with open(tmp, "wb") as f:
        f.write(blob)
    os.replace(tmp, path)
    return path


# --------------------------------------------------------------------------
# reader
# --------------------------------------------------------------------------

class MMDBReader:
    """Reader: ``get(ip)`` / ``get_many(ips)`` -> doc | None
    (maxminddb-compatible for the lookup contract the enrich backend needs)."""

    def __init__(self, path: str):
        with open(path, "rb") as f:
            self._buf = f.read()
        marker_at = self._buf.rfind(METADATA_MARKER)
        if marker_at < 0:
            raise ValueError(f"{path}: not an mmdb file (metadata marker missing)")
        self.metadata, _ = self._decode(marker_at + len(METADATA_MARKER))
        self.node_count = self.metadata["node_count"]
        self.record_size = self.metadata["record_size"]
        self.ip_version = self.metadata["ip_version"]
        self._tree_size = self.node_count * self.record_size * 2 // 8
        self._data_start = self._tree_size + 16
        self._tree = self._tree_records().reshape(-1)  # node * 2 + bit -> record
        self._v4_start = self._descend_zeros(96 if self.ip_version == 6 else 0)

    # -- search tree -------------------------------------------------------

    def _tree_records(self) -> np.ndarray:
        """The search tree as a ``(node_count, 2)`` array of records.

        Record size 32 is a zero-copy view of the file buffer.  Sizes 24 and
        28 are unpacked into one resident uint32 array (8 bytes per node,
        e.g. ~80 MB for a 10M-node database; not measured on a real
        GeoLite2 file), built in place from the uint8 byte columns so no
        other n-length temporary is larger than one byte per node."""
        n, rs = self.node_count, self.record_size
        if rs == 32:
            return np.frombuffer(self._buf, dtype=">u4", count=2 * n).reshape(n, 2)
        if rs not in (24, 28):
            raise ValueError(f"unsupported record size {rs}")
        raw = np.frombuffer(self._buf, dtype=np.uint8,
                            count=self._tree_size).reshape(n, rs // 4)
        tree = np.zeros((n, 2), dtype=np.uint32)
        left, right = tree[:, 0], tree[:, 1]
        if rs == 28:  # the middle byte holds the high nibble of each record
            left |= raw[:, 3] >> 4
            right |= raw[:, 3] & 0x0F
        for rec, first in ((left, 0), (right, 4 if rs == 28 else 3)):
            for col in range(first, first + 3):
                rec <<= 8
                rec |= raw[:, col]
        return tree

    def _descend_zeros(self, depth: int) -> int:
        """Record reached from the root along ``depth`` zero bits: the IPv4
        start node of a v6 tree (``::/96``), the root of a v4 tree."""
        node = 0
        for _ in range(depth):
            if node >= self.node_count:
                break
            node = int(self._tree[2 * node])
        return node

    def _descend(self, start: int, packed: np.ndarray) -> np.ndarray:
        """Record reached by each address of ``packed`` (k x bytes, uint8)
        from node ``start``: one gather per bit level over the addresses
        still inside the tree, so a data pointer or a miss stops early."""
        out = np.full(len(packed), start, dtype=np.int64)
        if start >= self.node_count or not len(packed):
            return out
        bits = np.ascontiguousarray(np.unpackbits(packed, axis=1).T)
        pos = np.arange(len(packed))
        node = out
        for level in bits:
            node = self._tree[2 * node + level[pos]].astype(np.int64)
            done = node >= self.node_count
            if done.any():
                out[pos[done]] = node[done]
                pos, node = pos[~done], node[~done]
                if not len(pos):
                    break
        out[pos] = node  # ran out of bits inside the tree: no record
        return out

    def _parse(self, addresses: list) -> list[tuple[int, np.ndarray, np.ndarray]]:
        """``(version, positions, packed bytes)`` per IP version present;
        strings that are not addresses are left out (a miss)."""
        arr = pa.array(addresses, pa.string())
        mask = pc.fill_null(pc.match_substring_regex(arr, _DOTTED_QUAD), False)
        strict = mask.to_numpy(zero_copy_only=False)
        octets = pc.split_pattern(arr.filter(mask), ".").flatten()
        pos = {4: [np.flatnonzero(strict)], 6: []}
        raw = {4: [octets.cast(pa.uint8()).to_numpy().reshape(-1, 4)], 6: []}
        for i in np.flatnonzero(~strict).tolist():
            try:
                addr = ipaddress.ip_address(addresses[i])
            except ValueError:
                continue
            pos[addr.version].append(np.array([i]))
            raw[addr.version].append(np.frombuffer(addr.packed, np.uint8)[None])
        return [(v, np.concatenate(pos[v]), np.concatenate(raw[v]))
                for v in (4, 6) if pos[v]]

    def get_many(self, addresses: list) -> list:
        """Document (or None) per address string; invalid strings miss."""
        out = [None] * len(addresses)
        for version, pos, packed in self._parse(addresses):
            if version == 4:
                recs = self._descend(self._v4_start, packed)
            elif self.ip_version == 6:
                recs = self._descend(0, packed)
            else:
                continue  # IPv6 address, IPv4-only tree
            hit = recs > self.node_count
            base = self._tree_size - self.node_count
            for i, rec in zip(pos[hit].tolist(), recs[hit].tolist()):
                out[i] = self._decode(base + rec)[0]
        return out

    def get(self, ip: str):
        addr = ipaddress.ip_address(ip)  # ValueError on garbage (caller gates)
        return self.get_many([str(addr)])[0]

    # -- data section decoder ---------------------------------------------

    def _decode(self, offset: int):
        buf = self._buf
        ctrl = buf[offset]
        offset += 1
        type_num = ctrl >> 5
        if type_num == 0:
            type_num = buf[offset] + 7
            offset += 1
        if type_num == _T_POINTER:
            ss = (ctrl >> 3) & 0x3
            vv = ctrl & 0x7
            if ss == 0:
                ptr = (vv << 8) | buf[offset]
                offset += 1
            elif ss == 1:
                ptr = ((vv << 16) | int.from_bytes(buf[offset:offset + 2], "big")) + 2048
                offset += 2
            elif ss == 2:
                ptr = ((vv << 24) | int.from_bytes(buf[offset:offset + 3], "big")) + 526_336
                offset += 3
            else:
                ptr = int.from_bytes(buf[offset:offset + 4], "big")
                offset += 4
            value, _ = self._decode(self._data_start + ptr)
            return value, offset

        size = ctrl & 0x1F
        if size == 29:
            size = 29 + buf[offset]
            offset += 1
        elif size == 30:
            size = 285 + int.from_bytes(buf[offset:offset + 2], "big")
            offset += 2
        elif size == 31:
            size = 65_821 + int.from_bytes(buf[offset:offset + 3], "big")
            offset += 3

        if type_num == _T_UTF8:
            return buf[offset:offset + size].decode("utf-8"), offset + size
        if type_num == _T_DOUBLE:
            return struct.unpack(">d", buf[offset:offset + 8])[0], offset + 8
        if type_num == _T_BYTES:
            return bytes(buf[offset:offset + size]), offset + size
        if type_num in (_T_UINT16, _T_UINT32, _T_UINT64, _T_UINT128):
            return int.from_bytes(buf[offset:offset + size], "big"), offset + size
        if type_num == _T_INT32:
            return int.from_bytes(buf[offset:offset + size], "big", signed=True), offset + size
        if type_num == _T_MAP:
            out = {}
            for _ in range(size):
                key, offset = self._decode(offset)
                val, offset = self._decode(offset)
                out[key] = val
            return out, offset
        if type_num == _T_ARRAY:
            items = []
            for _ in range(size):
                val, offset = self._decode(offset)
                items.append(val)
            return items, offset
        if type_num == _T_BOOL:
            return bool(size), offset
        if type_num == _T_FLOAT:
            return struct.unpack(">f", buf[offset:offset + 4])[0], offset + 4
        raise ValueError(f"unsupported mmdb type {type_num} at {offset}")


def open_database(path: str) -> MMDBReader:
    """maxminddb-shaped module entry point."""
    return MMDBReader(path)
