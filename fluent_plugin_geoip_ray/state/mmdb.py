"""Minimal MaxMind DB (.mmdb) reader + fixture writer.

Implements the PUBLIC MaxMind DB file format specification
(https://maxmind.github.io/MaxMind-DB/ -- binary search tree of IP bits +
16-byte separator + typed data section + metadata map after the
``\\xab\\xcd\\xefMaxMind.com`` marker).  ``MaxmindBackend`` always reads
through this module, which provides:

* :class:`MMDBReader` -- a spec-complete-enough reader (record sizes
  24/28/32, v4 and v6 trees, all scalar types, maps, arrays and pointers)
  that duck-types the ``maxminddb.Reader.get`` contract consumed by
  :class:`..state.backends.MaxmindBackend` (the analog of the reference's
  ``GeoIP2::Database#lookup``, ``lib/fluent/plugin/filter_geoip.rb:215``).
  It maps the file read-only, so an open copies nothing and the
  processes that open one file share its pages.  Lookups are batched:
  both ``get_many(ips)`` and ``get_paths(ips, paths)`` parse strict
  dotted quads with one vectorized regex/split (anything else through
  ``ipaddress``), then descend the tree -- viewed
  at open as a ``(node_count, 2)`` record array -- with one numpy gather
  per bit level over the addresses still inside it (32 levels from the
  cached IPv4 start node, 128 for IPv6), stopping early on data pointers
  and misses.  ``get_many`` then decodes each hit's whole record with the
  scalar decoder (``get(ip)`` is ``get_many([ip])[0]`` after validation;
  ``dump`` and the tests use them).  ``get_paths``, the enrich path,
  decodes only the values on the given paths: it walks every hit record in
  lockstep, one token per record per numpy step, following pointers,
  matching map keys as raw bytes against a trie of the paths, and returns
  one column per path (utf8 as an Arrow string array gathered from the
  file buffer, numbers and bools as typed arrays).
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
import mmap
import os
import struct

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..templates import column_values, value_column

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

# per type number: the payload is ``size`` bytes long / has a fixed length /
# the type may appear in the data section (pointers, maps and arrays have no
# payload of their own; bool keeps its value in the size bits)
_SIZED = np.zeros(17, bool)
_SIZED[[_T_UTF8, _T_BYTES, _T_UINT16, _T_UINT32, _T_INT32, _T_UINT64, _T_UINT128]] = True
_FIXED = np.zeros(17, np.int64)
_FIXED[[_T_DOUBLE, _T_FLOAT]] = 8, 4
# the first n bytes of a big-endian 8-byte word, n = 0..8
_HEAD_MASK = np.array([(1 << 64) - (1 << (64 - 8 * n)) for n in range(9)], dtype=np.uint64)
_VALID = np.zeros(17, bool)
_VALID[[_T_POINTER, _T_UTF8, _T_DOUBLE, _T_BYTES, _T_UINT16, _T_UINT32, _T_MAP,
        _T_INT32, _T_UINT64, _T_UINT128, _T_ARRAY, _T_BOOL, _T_FLOAT]] = True

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

class _PathTrie:
    """``paths`` (tuples of str keys and int indexes) compiled for
    :meth:`MMDBReader.get_paths`.

    Node 0 stands above the record: its one child, index 0, is the record
    itself, so the walk can treat a record as item 0 of a one-item array.
    ``str_child[node, key id]`` and ``int_child[node, index]`` are a node's
    children (-1: none); ``slot[node]`` is the leaf slot of a node that ends
    a path (-1: none), and ``path_slot[j]`` the slot of ``paths[j]``."""

    def __init__(self, paths: tuple):
        self.paths = paths
        full = [(0,) + path for path in paths]
        node_of: dict[tuple, int] = {(): 0, (0,): 1}
        edges = [(0, 0, 1)]  # (parent, segment, child)
        for path in full:
            for depth in range(2, len(path) + 1):
                if path[:depth] not in node_of:
                    node_of[path[:depth]] = len(node_of)
                    edges.append((node_of[path[:depth - 1]], path[depth - 1],
                                  node_of[path[:depth]]))
        n = len(node_of)
        keys = sorted({seg.encode() for _, seg, _ in edges if isinstance(seg, str)})
        # keys as zero-padded big-endian 8-byte words
        self.width = max(1, -(-max(map(len, keys), default=0) // 8))
        padded = np.zeros((len(keys), 8 * self.width), np.uint8)
        for i, key in enumerate(keys):
            padded[i, :len(key)] = np.frombuffer(key, np.uint8)
        self.key_words = padded.view(">u8").astype(np.uint64)
        self.key_len = np.array([len(key) for key in keys], dtype=np.int64)
        ints = [seg for _, seg, _ in edges if isinstance(seg, int)]
        self.str_child = np.full((n, len(keys)), -1, np.int64)
        self.int_child = np.full((n, max(ints) + 1), -1, np.int64)
        for parent, seg, child in edges:
            if isinstance(seg, str):
                self.str_child[parent, keys.index(seg.encode())] = child
            elif seg >= 0:  # a negative index is never in range (as in dig)
                self.int_child[parent, seg] = child
        self.has_str = (self.str_child >= 0).any(axis=1)
        self.has_int = (self.int_child >= 0).any(axis=1)
        ends = list(dict.fromkeys(node_of[path] for path in full))
        self.slot = np.full(n, -1, np.int64)
        self.slot[ends] = np.arange(len(ends))
        self.leaf_count = len(ends)
        self.path_slot = [ends.index(node_of[path]) for path in full]
        # frames: the one-item array above the record, one per container on
        # a path, and one skipped container
        self.depth = max(map(len, full), default=1) + 1

    def match_keys(self, be64: np.ndarray, at: np.ndarray, size: np.ndarray,
                   kind: np.ndarray) -> np.ndarray:
        """Key id of each map key (utf8 of ``size`` bytes at ``at``; ``be64``
        reads 8 big-endian bytes at any offset), -1 when it is no key of the
        trie: same length, same zero-padded words."""
        last = len(be64) - 1  # data keys lie far from the end of the file
        words = [be64[np.minimum(at + 8 * i, last)] & _HEAD_MASK[np.clip(size - 8 * i, 0, 8)]
                 for i in range(self.width)]
        kid = np.full(len(at), -1, np.int64)
        utf8 = kind == _T_UTF8
        for j, n in enumerate(self.key_len.tolist()):
            hit = utf8 & (size == n)
            for word, key_word in zip(words[:-(-n // 8)], self.key_words[j]):
                hit &= word == key_word
            kid[hit] = j
        return kid


class MMDBReader:
    """Reader: ``get(ip)`` / ``get_many(ips)`` -> doc | None
    (maxminddb-compatible), and ``get_paths(ips, paths)`` -> columns (the
    enrich backend's batch contract)."""

    def __init__(self, path: str):
        # mmap refuses empty files; they fail below as a missing marker
        with open(path, "rb") as f:
            size = os.fstat(f.fileno()).st_size
            self._buf = (mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)
                         if size else b"")
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
        self._bytes = np.frombuffer(self._buf, dtype=np.uint8)
        # 8 big-endian bytes read at any offset (an unaligned view, no copy)
        self._be64 = np.ndarray((max(len(self._buf) - 7, 0),), dtype=">u8",
                                buffer=self._buf, strides=(1,))
        self._trie: _PathTrie | None = None  # the paths of the last get_paths
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

    def _records(self, addresses: list) -> tuple[np.ndarray, np.ndarray]:
        """``(positions, data offsets)`` of the addresses that have a data
        record; invalid strings and IPv6 addresses in an IPv4 tree miss."""
        pos_l, off_l = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)]
        for version, pos, packed in self._parse(addresses):
            if version == 4:
                recs = self._descend(self._v4_start, packed)
            elif self.ip_version == 6:
                recs = self._descend(0, packed)
            else:
                continue  # IPv6 address, IPv4-only tree
            hit = recs > self.node_count
            pos_l.append(pos[hit])
            off_l.append(recs[hit] + (self._tree_size - self.node_count))
        return np.concatenate(pos_l), np.concatenate(off_l)

    def get_many(self, addresses: list) -> list:
        """Document (or None) per address string; invalid strings miss."""
        out = [None] * len(addresses)
        pos, offsets = self._records(addresses)
        for i, off in zip(pos.tolist(), offsets.tolist()):
            out[i] = self._decode(off)[0]
        return out

    def get_paths(self, addresses: list, paths) -> tuple[np.ndarray, list]:
        """``(found, columns)`` for the address strings: ``found[i]`` is
        whether address i has a record, and ``columns[j]`` holds
        ``templates.dig(record, paths[j])`` per address (null where it
        misses).  A column is a ``pa.Array`` when its values share one kind
        (utf8 -> string, double/float -> float64, uint16/32/64 and int32 ->
        int64, bool -> bool), else an object ndarray; map, array, bytes and
        uint128 leaves are decoded one by one with the scalar decoder.

        The hit records are walked in lockstep, one token per record per
        step, and only the values on ``paths`` are decoded."""
        paths = tuple(map(tuple, paths))
        if self._trie is None or self._trie.paths != paths:
            self._trie = _PathTrie(paths)
        trie = self._trie
        k = len(addresses)
        pos, offsets = self._records(addresses)
        found = np.zeros(k, dtype=bool)
        found[pos] = True
        starts = np.zeros(k, dtype=np.int64)
        starts[pos] = offsets
        leaves = self._walk(starts, pos, trie)
        slots = [self._leaf_column(*(a[:, j] for a in leaves))
                 for j in range(trie.leaf_count)]
        return found, [slots[j] for j in trie.path_slot]

    # -- path-projected lockstep walk --------------------------------------

    def _token(self, p: np.ndarray):
        """``(type, size, payload offset)`` of the field at each offset of
        ``p``; for a pointer, ``size`` is its target and ``payload`` the
        offset just after it."""
        b = self._bytes
        c = b[p].astype(np.int64)
        t = c >> 5
        ext = t == 0
        t[ext] = b[p[ext] + 1] + 7
        head = p + 1 + ext
        size = c & 0x1F
        payload = head.copy()

        def after(q, nbytes):  # the ``nbytes`` bytes at q, big-endian
            return (self._be64[q] >> np.uint64(64 - 8 * nbytes)).astype(np.int64)

        esc = (size >= 29) & (t != _T_POINTER)
        if esc.any():
            h, s = head[esc], size[esc]
            size[esc] = np.select([s == 29, s == 30], [29 + after(h, 1), 285 + after(h, 2)],
                                  65_821 + after(h, 3))
            payload[esc] = h + (s - 28)
        ptr = t == _T_POINTER
        if ptr.any():
            q, cp = p[ptr], c[ptr]
            ss, vv = (cp >> 3) & 0x3, cp & 0x7
            size[ptr] = self._data_start + np.select(
                [ss == 0, ss == 1, ss == 2],
                [(vv << 8) | after(q + 1, 1),
                 ((vv << 16) | after(q + 1, 2)) + 2048,
                 ((vv << 24) | after(q + 1, 3)) + 526_336],
                after(q + 1, 4))
            payload[ptr] = q + 2 + ss
        bad = ~_VALID[np.minimum(t, 16)]
        if bad.any():
            i = int(np.flatnonzero(bad)[0])
            raise ValueError(f"unsupported mmdb type {int(t[i])} at {int(p[i])}")
        return t, size, payload

    def _walk(self, starts: np.ndarray, active: np.ndarray, trie: _PathTrie):
        """Leaves on ``trie``'s paths of the records at ``starts[active]``:
        ``(type, size, payload, field)`` arrays of shape (k, leaf slots),
        type 0 where a record has no value on the path.

        Each step reads one token, or leaves one finished container, of
        every record still walking.  A record keeps a stack of containers
        (flat arrays, ``record * depth + level``): per frame the trie node
        (-1 for a skipped container, which counts the values left to skip
        and absorbs nested inline containers), the items left (2 per map
        entry), the array index or the child node its last key matched, and
        where to return when the container was reached through a pointer.
        Skipped pointers are not followed."""
        k, cap, slots = len(starts), trie.depth, trie.leaf_count
        kind = np.zeros((k, slots), np.int64)
        size = np.zeros((k, slots), np.int64)
        payload = np.zeros((k, slots), np.int64)
        field = np.zeros((k, slots), np.int64)
        pos = starts.copy()
        depth = np.zeros(k, np.int64)
        f_node = np.zeros(k * cap, np.int64)   # level 0: the one-item array
        f_rem = np.zeros(k * cap, np.int64)
        f_rem[::cap] = 1
        f_idx = np.zeros(k * cap, np.int64)
        f_ret = np.full(k * cap, -1, np.int64)
        f_arr = np.zeros(k * cap, bool)
        f_arr[::cap] = True
        int_child, width = trie.int_child.ravel(), trie.int_child.shape[1]

        def push(r, fi, node, items, ret, arr):
            depth[r] += 1
            fi = fi + 1
            f_node[fi], f_rem[fi], f_ret[fi], f_arr[fi] = node, items, ret, arr
            f_idx[fi] = np.where(arr, 0, -1)  # a map's key has matched nothing yet

        def consume(fi):
            f_rem[fi] -= 1
            f_idx[fi] += f_arr[fi]

        act = np.asarray(active, np.int64) if slots else np.zeros(0, np.int64)
        while len(act):
            fi = act * cap + depth[act]
            popping = f_rem[fi] == 0
            r = act
            if popping.any():
                pr, pf = act[popping], fi[popping]
                back = f_ret[pf]
                pos[pr] = np.where(back >= 0, back, pos[pr])
                depth[pr] -= 1
                consume(pf[pf % cap > 0] - 1)  # level 0 left: the record is done
                r, fi = act[~popping], fi[~popping]
            act = act[depth[act] >= 0]
            if not len(r):
                continue
            p = pos[r]
            node, arr, idx = f_node[fi], f_arr[fi], f_idx[fi]
            is_key = ~arr & (node >= 0) & (f_rem[fi] % 2 == 0)
            # the trie node of a value: an array's child at the index, a map
            # value's matched child, -1 inside a skipped container
            in_range = idx < width
            at_index = int_child[np.maximum(node, 0) * width + np.minimum(idx, width - 1)]
            want = np.where(arr, np.where(in_range, at_index, -1), idx)
            t, s, pl = self._token(p)
            # keys and wanted values are read through their pointers
            via = (is_key | (want >= 0)) & (t == _T_POINTER)
            at, after = p, np.full(len(r), -1, np.int64)
            if via.any():
                after = np.where(via, pl, -1)
                at = np.where(via, s, p)
                t2, s2, pl2 = self._token(s[via])
                if (t2 == _T_POINTER).any():
                    raise ValueError("mmdb pointer to a pointer")
                t[via], s[via], pl[via] = t2, s2, pl2
            # end of a scalar's payload, or of a skipped pointer
            end = pl + np.where(_SIZED[t], s, _FIXED[t])

            if is_key.any():
                kf = fi[is_key]
                kid = trie.match_keys(self._be64, pl[is_key], s[is_key], t[is_key])
                f_idx[kf] = np.where(
                    kid >= 0, trie.str_child[node[is_key], np.maximum(kid, 0)], -1)
                f_rem[kf] -= 1
                pos[r[is_key]] = np.where(via[is_key], after[is_key], end[is_key])

            val = ~is_key
            slot = np.where(want >= 0, trie.slot[want], -1)
            leaf = val & (slot >= 0)
            if leaf.any():
                lr, ls = r[leaf], slot[leaf]
                kind[lr, ls], size[lr, ls] = t[leaf], s[leaf]
                payload[lr, ls], field[lr, ls] = pl[leaf], at[leaf]
            is_map, is_arr = t == _T_MAP, t == _T_ARRAY
            items = np.where(is_map, 2 * s, s)
            descend = val & (want >= 0) & (
                (is_map & trie.has_str[want]) | (is_arr & trie.has_int[want]))
            if descend.any():
                pos[r[descend]] = pl[descend]
                push(r[descend], fi[descend], want[descend], items[descend],
                     after[descend], is_arr[descend])
            inline = val & (is_map | is_arr) & ~descend & ~via
            skipping = node < 0
            absorb = inline & skipping
            if absorb.any():  # a skipped container absorbs the items of one inside it
                f_rem[fi[absorb]] += items[absorb] - 1
                pos[r[absorb]] = pl[absorb]
            nested = inline & ~skipping
            if nested.any():
                pos[r[nested]] = pl[nested]
                push(r[nested], fi[nested], -1, items[nested], -1, False)
            flat = val & ~descend & ~inline
            if flat.any():
                pos[r[flat]] = np.where(via[flat], after[flat], end[flat])
                consume(fi[flat])
        return kind, size, payload, field

    def _leaf_column(self, kind, size, payload, field):
        """One leaf slot's values as a column (see :meth:`get_paths`)."""
        b = self._bytes
        k = len(kind)
        first = b[np.minimum(payload, len(b) - 1)]
        # integers past int64 (uint64 >= 2**63) are left to the scalar decoder
        wide = (size > 8) | ((size == 8) & (first >= 0x80) & (kind != _T_INT32))
        groups = {
            "str": kind == _T_UTF8,
            "float": (kind == _T_DOUBLE) | (kind == _T_FLOAT),
            "int": np.isin(kind, (_T_UINT16, _T_UINT32, _T_INT32, _T_UINT64)) & ~wide,
            "bool": kind == _T_BOOL,
        }
        groups["other"] = (kind != 0) & ~np.logical_or.reduce(list(groups.values()))
        parts = []
        for name, mask in groups.items():
            if not mask.any():
                continue
            rows = np.flatnonzero(mask)
            s, pl = size[rows], payload[rows]
            if name == "str":
                offsets = np.zeros(len(rows) + 1, np.int64)
                np.cumsum(s, out=offsets[1:])
                idx = np.repeat(pl - offsets[:-1], s) + np.arange(offsets[-1])
                vals = pa.StringArray.from_buffers(
                    len(rows), pa.py_buffer(offsets.astype(np.int32)),
                    pa.py_buffer(b[idx].tobytes()))
                try:
                    vals.validate(full=True)
                except pa.ArrowInvalid as e:
                    raise ValueError(f"mmdb utf8 field is not valid UTF-8: {e}") from None
            elif name == "float":  # IEEE bits: 8 bytes, or the first 4 of float
                bits = self._be64[pl].astype(np.uint64)
                dbl = kind[rows] == _T_DOUBLE
                vals = pa.array(np.where(dbl, bits.view(np.float64),
                                         (bits >> 32).astype(np.uint32).view(np.float32)))
            elif name == "int":  # the first ``size`` bytes, big-endian
                word = self._be64[pl].astype(np.uint64)
                v = np.where(s > 0, word >> np.minimum(64 - 8 * s, 63).astype(np.uint64), 0)
                v = v.astype(np.int64)
                # int32 is signed over its stored bytes, as the scalar decoder reads it
                neg = (kind[rows] == _T_INT32) & (s > 0) & (s < 8) & (first[rows] >= 0x80)
                v[neg] -= np.int64(1) << (8 * s[neg])
                vals = pa.array(v)
            elif name == "bool":
                vals = pa.array(s != 0)
            else:
                vals = [self._decode(int(f))[0] for f in field[rows]]
            parts.append((rows, vals))
        if not parts:
            return pa.nulls(k)
        if len(parts) == 1 and isinstance(parts[0][1], pa.Array):
            rows, vals = parts[0]
            at = np.full(k, -1, np.int64)
            at[rows] = np.arange(len(rows))
            return vals.take(pa.array(at, mask=at < 0))
        out = [None] * k
        for rows, vals in parts:
            for i, v in zip(rows.tolist(), column_values(vals)):
                out[i] = v
        return value_column(out)

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
