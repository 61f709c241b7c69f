"""MaxMind .mmdb execution path: build a deterministic fixture database with
the spec-based writer, read it back with the pure-Python reader, and run the
enrich golden matrix through MaxmindBackend (filter_geoip.rb:204-217 backend
dispatch; lookup contract of GeoIP2::Database#lookup)."""

import hashlib
import ipaddress
import logging
import random
import struct

import pyarrow as pa
import pytest

from fluent_plugin_geoip_ray.config import RecordSpec, compile_record_spec
from fluent_plugin_geoip_ray.stages.enrich import GeoEnrich
from fluent_plugin_geoip_ray.templates import dig
from fluent_plugin_geoip_ray.state.backends import MaxmindBackend, dig_paths, make_backend
from fluent_plugin_geoip_ray.state import mmdb
from fluent_plugin_geoip_ray.state.fixture import GEO_FIXTURE_ROWS, fixture_geo_docs
from fluent_plugin_geoip_ray.state.mmdb import (
    METADATA_MARKER,
    MMDBReader,
    encode_value,
    write_mmdb,
)


@pytest.fixture(scope="module")
def mmdb_path(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("mmdb") / "fixture.mmdb")
    return write_mmdb(fixture_geo_docs(), path)


def test_writer_is_deterministic(tmp_path):
    p1 = write_mmdb(fixture_geo_docs(), str(tmp_path / "a.mmdb"))
    p2 = write_mmdb(fixture_geo_docs(), str(tmp_path / "b.mmdb"))
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_reader_roundtrips_every_fixture_ip(mmdb_path):
    reader = MMDBReader(mmdb_path)
    docs = fixture_geo_docs()
    for row in GEO_FIXTURE_ROWS:
        ip = row["ip"]
        assert reader.get(ip) == docs[ip], ip


def test_reader_metadata(mmdb_path):
    reader = MMDBReader(mmdb_path)
    md = reader.metadata
    assert md["binary_format_major_version"] == 2
    assert md["ip_version"] == 6
    assert md["record_size"] == 32
    assert md["languages"] == ["en"]
    assert isinstance(md["node_count"], int) and md["node_count"] > 0


def test_reader_misses(mmdb_path):
    reader = MMDBReader(mmdb_path)
    assert reader.get("203.0.113.1") is None          # RFC5737, absent
    assert reader.get("1.2.3.4") is None
    assert reader.get("2001:db8::1") is None           # absent v6
    with pytest.raises(ValueError):
        reader.get("not-an-ip")


@pytest.mark.parametrize("content", [b"", b"not a database\n" * 64])
def test_reader_rejects_empty_and_non_mmdb_files(tmp_path, content):
    path = tmp_path / "bad.mmdb"
    path.write_bytes(content)
    with pytest.raises(ValueError, match="bad.mmdb: not an mmdb file"):
        MMDBReader(str(path))


def test_ipv6_lookup(mmdb_path):
    reader = MMDBReader(mmdb_path)
    doc = reader.get("2001:4860:4860::8888")
    assert doc["country"]["iso_code"] == "US"


def test_size31_field_roundtrip(tmp_path):
    """ADVICE r2: the size-31 length base is 65_821 (285 + 65536) per the
    MaxMind DB spec.  A field >= 65_821 bytes must round-trip — the old
    821_245 constant made the writer crash with OverflowError in the
    65_821..821_244 range and mis-decode conformant files."""
    big = "x" * 70_000                      # inside the formerly-broken range
    docs = {"10.9.9.9": {"country": {"iso_code": "US"}, "blob": big}}
    path = write_mmdb(docs, str(tmp_path / "big.mmdb"))
    doc = MMDBReader(path).get("10.9.9.9")
    assert doc["blob"] == big
    assert doc["country"]["iso_code"] == "US"


def test_maxmind_backend_lookup_contract(mmdb_path):
    be = MaxmindBackend(mmdb_path)
    assert be.lookup("66.102.3.80")["city"]["names"]["en"] == "Mountain View"
    assert be.lookup("not-an-ip") is None              # invalid input -> miss
    assert be.lookup("203.0.113.1") is None
    assert make_backend({"library": "maxmind", "path": mmdb_path}).lookup(
        "8.8.8.8"
    )["country"]["iso_code"] == "US"


def _enrich_rows(record, ips, mmdb_path, **spec_kw):
    spec = RecordSpec(lookup_keys=["ip"], record=record, **spec_kw)
    stage = GeoEnrich(
        compile_record_spec(spec),
        backend_spec={"library": "maxmind", "path": mmdb_path},
    )
    return stage(pa.table({"ip": list(ips)})).to_pylist()


def test_enrich_matrix_through_mmdb(mmdb_path):
    """The reference record-directive matrix (test_filter_geoip.rb:258-323)
    through the REAL binary-trie path -- values must equal the DictBackend
    goldens (same fixture truth, different storage engine)."""
    record = {
        "city": "${city.names.en['ip']}",
        "country": "${country.names.en['ip']}",
        "latitude": "${location.latitude['ip']}",
        "longitude": "${location.longitude['ip']}",
        "geopoint": "[${location.longitude['ip']}, ${location.latitude['ip']}]",
        "nest": '{ "city" : ${city.names.en[\'ip\']}, "cc" : ${country.iso_code[\'ip\']}}',
    }
    ips = ["66.102.3.80", "8.8.8.8", "180.94.85.84", "203.0.113.1", None]
    rows = _enrich_rows(record, ips, mmdb_path)

    hit = rows[0]
    assert hit["city"] == "Mountain View"
    assert hit["country"] == "United States"
    assert hit["latitude"] == 37.419200000000004
    assert hit["longitude"] == -122.0574
    assert hit["geopoint"] == [-122.0574, 37.419200000000004]
    assert hit["nest"] == {"city": "Mountain View", "cc": "US"}

    no_city = rows[1]
    assert no_city["city"] is None and no_city["country"] == "United States"

    nil_latlon = rows[2]   # doc exists, lat/lon nil -> 0.0 (filter_geoip.rb:194-198)
    assert nil_latlon["latitude"] == 0.0 and nil_latlon["longitude"] == 0.0

    miss = rows[3]
    assert miss["city"] is None and miss["latitude"] is None

    null_in = rows[4]
    assert null_in["city"] is None


def test_mmdb_backend_matches_dict_backend(mmdb_path):
    """Same spec, same inputs: binary path == dict path, field for field."""
    record = {
        "city": "${city.names.en['ip']}",
        "cc": "${country.iso_code['ip']}",
        "latitude": "${location.latitude['ip']}",
    }
    ips = [r["ip"] for r in GEO_FIXTURE_ROWS] + ["203.0.113.9", None]
    spec = compile_record_spec(RecordSpec(lookup_keys=["ip"], record=record))
    via_mmdb = GeoEnrich(
        spec, backend_spec={"library": "maxmind", "path": mmdb_path}
    )(pa.table({"ip": ips})).to_pylist()
    via_dict = GeoEnrich(spec)(pa.table({"ip": ips})).to_pylist()
    assert via_mmdb == via_dict


def test_mmdb_property_roundtrip():
    """Property: any {ip -> doc} table of JSON-ish docs survives the
    write->read round trip exactly (spec encoder/decoder inverse pair)."""
    from hypothesis import given, settings, strategies as st

    scalars = st.one_of(
        st.text(max_size=12),
        st.booleans(),
        st.integers(min_value=0, max_value=2**63 - 1),
        st.integers(min_value=-2**31, max_value=-1),
        st.floats(allow_nan=False, allow_infinity=False, width=64),
    )
    docs_strategy = st.dictionaries(
        st.from_regex(r"\A\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\Z").filter(
            lambda ip: all(int(o) < 256 for o in ip.split("."))
        ),
        st.dictionaries(
            st.text(min_size=1, max_size=8),
            st.one_of(scalars, st.lists(scalars, max_size=3),
                      st.dictionaries(st.text(min_size=1, max_size=6),
                                      scalars, max_size=3)),
            max_size=4,
        ),
        min_size=1, max_size=8,
    )

    @settings(max_examples=25, deadline=None)
    @given(docs=docs_strategy)
    def check(docs, tmp_dir):
        import os

        # writer skips unparseable keys (e.g. leading-zero octets, rejected
        # by ipaddress); normalize to the parseable subset the writer stores
        valid = {}
        for ip, doc in docs.items():
            try:
                ipaddress.ip_address(ip)
            except ValueError:
                continue
            valid[ip] = doc
        if not valid:
            return
        path = os.path.join(tmp_dir, "prop.mmdb")
        write_mmdb(valid, path)
        reader = MMDBReader(path)
        for ip, doc in valid.items():
            got = reader.get(ip)
            assert got == doc, (ip, got, doc)

    import tempfile

    with tempfile.TemporaryDirectory() as d:
        check(tmp_dir=d)


# -- referee: the per-bit scalar trie walk -----------------------------------

def _scalar_record(reader, node, side):
    rs, buf = reader.record_size, reader._buf
    base = node * rs * 2 // 8
    if rs == 32:
        off = base + side * 4
        return int.from_bytes(buf[off:off + 4], "big")
    if rs == 24:
        off = base + side * 3
        return int.from_bytes(buf[off:off + 3], "big")
    middle = buf[base + 3]
    if side == 0:
        return ((middle >> 4) << 24) | int.from_bytes(buf[base:base + 3], "big")
    return ((middle & 0x0F) << 24) | int.from_bytes(buf[base + 4:base + 7], "big")


def scalar_get(reader, ip):
    """One address, one bit at a time from node 0: the reference walk the
    batched descent must agree with."""
    addr = ipaddress.ip_address(ip)
    packed = addr.packed
    if addr.version == 6 and reader.ip_version == 4:
        return None
    if addr.version == 4 and reader.ip_version == 6:
        packed = b"\x00" * 12 + packed
    node = 0
    for byte in packed:
        for i in range(8):
            if node >= reader.node_count:
                break
            node = _scalar_record(reader, node, (byte >> (7 - i)) & 1)
        if node >= reader.node_count:
            break
    if node > reader.node_count:
        return reader._decode(reader._tree_size + (node - reader.node_count))[0]
    return None  # a miss, or out of bits inside the tree


def scalar_get_or_miss(reader, ip):
    try:
        return scalar_get(reader, ip)
    except ValueError:
        return None


# -- exact hosts: byte-identical writer output ---------------------------------

def _host_docs():
    rng = random.Random(11)
    docs = {}
    for i in range(400):
        if i % 4 == 3:
            ip = "2001:db8:%x::%x" % (rng.randrange(1 << 16), rng.randrange(1 << 16))
        else:
            ip = ".".join(str(rng.randrange(256)) for _ in range(4))
        docs[ip] = {"country": {"iso_code": "C%d" % (i % 7)}, "n": i % 13}
    docs["not-an-ip.example"] = {"skipped": True}
    return docs


@pytest.mark.parametrize("name,docs,digest", [
    ("fixture", fixture_geo_docs(),
     "276b1f3d723fdbb54703ea75bbe7b77b9d4f6ad85b77e8eab1bf74cec735fb08"),
    ("hosts", _host_docs(),
     "b63a4ac6ed98a21396d3ed6dc8a283fdfd1ff8c0f450f600aba219c224a7dbf7"),
])
def test_exact_host_writer_bytes_pinned(tmp_path, name, docs, digest):
    """Exact-host input keeps the bytes of the exact-host-only writer
    (record_size 32, v6 tree), so cached fixture databases stay valid."""
    path = write_mmdb(docs, str(tmp_path / f"{name}.mmdb"))
    assert hashlib.sha256(open(path, "rb").read()).hexdigest() == digest


# -- prefix networks, record sizes, tree versions ------------------------------

def _prefix_docs(ip_version):
    """Overlapping networks of mixed length (a /8 holding a /16 holding a
    /24 holding a /32, siblings, a v4 default-ish /1) plus v6 ones."""
    docs = {
        "10.0.0.0/8": {"net": "10/8"},
        "10.1.0.0/16": {"net": "10.1/16"},
        "10.1.2.0/24": {"net": "10.1.2/24"},
        "10.1.2.3": {"net": "10.1.2.3/32"},
        "10.1.3.0/25": {"net": "10.1.3/25"},
        "10.128.0.0/9": {"net": "10.128/9"},
        "128.0.0.0/1": {"net": "128/1"},
        "192.168.0.0/16": {"net": "192.168/16", "cc": "ZZ"},
        "192.168.7.7": {"net": "192.168.7.7/32", "cc": "ZZ"},
        "1.2.3.4": {"net": "1.2.3.4/32"},
        "not-an-ip.example": {"net": "skipped"},
    }
    if ip_version == 6:
        docs.update({
            "2001:db8::/32": {"net": "db8/32"},
            "2001:db8:1::/48": {"net": "db8:1/48"},
            "2001:db8:1::1": {"net": "db8:1::1/128"},
            "2400::/12": {"net": "2400/12"},
        })
    return docs


def _lpm_truth(docs, ip_version, ip):
    """Longest-prefix match by brute-force containment."""
    try:
        addr = ipaddress.ip_address(ip)
    except ValueError:
        return None
    if addr.version == 6 and ip_version == 4:
        return None
    best, best_len = None, -1
    for key, doc in docs.items():
        try:
            net = ipaddress.ip_network(key)
        except ValueError:
            continue
        if net.version == addr.version and addr in net and net.prefixlen > best_len:
            best, best_len = doc, net.prefixlen
    return best


def _probe_addresses(docs, seed=5):
    rng = random.Random(seed)
    probes = ["01.2.3.4", "256.1.1.1", " 1.2.3.4", "1.2.3", "::ffff:1.2.3.4",
              "", "x", "1.2.3.4 ", "1.2.3.4\n", "0.0.0.0", "255.255.255.255",
              "10.1.2.3", "10.1.2.4", "2001:db8:1::1", "2001:DB8:1::2"]
    for key in docs:
        try:
            net = ipaddress.ip_network(key)
        except ValueError:
            continue
        probes.append(str(net.network_address))
        probes.append(str(net.broadcast_address))
        probes.append(str(net.network_address + rng.randrange(net.num_addresses)))
        if int(net.network_address) > 0:
            probes.append(str(net.network_address - 1))
    probes += [str(ipaddress.IPv4Address(rng.getrandbits(32))) for _ in range(200)]
    probes += [str(ipaddress.IPv6Address(rng.getrandbits(128))) for _ in range(50)]
    probes += [str(ipaddress.IPv6Address((0x2001_0DB8 << 96) | rng.getrandbits(96)))
               for _ in range(50)]
    return probes


@pytest.mark.parametrize("ip_version", [4, 6])
@pytest.mark.parametrize("record_size", [24, 28, 32])
def test_get_many_matches_scalar_referee(tmp_path, record_size, ip_version):
    docs = _prefix_docs(ip_version)
    path = write_mmdb(docs, str(tmp_path / "nets.mmdb"),
                      record_size=record_size, ip_version=ip_version)
    reader = MMDBReader(path)
    assert reader.record_size == record_size
    assert reader.ip_version == ip_version
    probes = _probe_addresses(docs)
    got = reader.get_many(probes)
    assert len(got) == len(probes)
    for ip, doc in zip(probes, got):
        assert doc == scalar_get_or_miss(reader, ip), ip
        assert doc == _lpm_truth(docs, ip_version, ip), ip
    # the prefix structure is really exercised: most-specific wins
    assert reader.get("10.1.2.3") == {"net": "10.1.2.3/32"}
    assert reader.get("10.1.2.200") == {"net": "10.1.2/24"}
    assert reader.get("10.1.200.1") == {"net": "10.1/16"}
    assert reader.get("10.2.0.0") == {"net": "10/8"}
    assert reader.get("10.200.0.0") == {"net": "10.128/9"}
    assert reader.get("11.0.0.0") is None
    for garbage in ("01.2.3.4", "256.1.1.1", " 1.2.3.4", "1.2.3", "", "x"):
        with pytest.raises(ValueError):
            reader.get(garbage)


@pytest.mark.parametrize("record_size", [24, 28, 32])
def test_get_many_exact_hosts_matches_referee(tmp_path, record_size):
    docs = _host_docs()
    path = write_mmdb(docs, str(tmp_path / "hosts.mmdb"), record_size=record_size)
    reader = MMDBReader(path)
    probes = [k for k in docs] + _probe_addresses({}, seed=9)
    for ip, doc in zip(probes, reader.get_many(probes)):
        assert doc == scalar_get_or_miss(reader, ip), ip
        assert doc == (None if ip == "not-an-ip.example" else docs.get(ip)), ip


@pytest.mark.parametrize("record_size", [24, 28, 32])
def test_tree_records_match_scalar_records(tmp_path, record_size):
    """Random tree bytes, so records use all their bits (the high nibbles
    of 28-bit records too): the array view equals the byte-level reads."""
    rng = random.Random(record_size)
    n = 64
    tree = bytes(rng.getrandbits(8) for _ in range(n * record_size // 4))
    meta = {"binary_format_major_version": 2, "ip_version": 6,
            "node_count": n, "record_size": record_size}
    path = tmp_path / "random.mmdb"
    path.write_bytes(tree + b"\x00" * 16 + METADATA_MARKER + encode_value(meta))
    reader = MMDBReader(str(path))
    got = reader._tree.reshape(n, 2).tolist()
    assert got == [[_scalar_record(reader, i, s) for s in (0, 1)] for i in range(n)]


def test_writer_rejects_unstorable_keys(tmp_path):
    with pytest.raises(ValueError):
        write_mmdb({"10.0.0.1/8": {}}, str(tmp_path / "a.mmdb"))   # host bits set
    with pytest.raises(ValueError):
        write_mmdb({"2001:db8::/32": {}}, str(tmp_path / "b.mmdb"), ip_version=4)
    with pytest.raises(ValueError):
        write_mmdb({"1.2.3.4": {}}, str(tmp_path / "c.mmdb"), record_size=16)


def test_ipv4_start_node_inside_covering_v6_network(tmp_path):
    """A v6 network covering ``::/96`` answers every IPv4 address (the
    IPv4 start node is itself a data record)."""
    docs = {"::/64": {"net": "::/64"}, "2001:db8::/32": {"net": "db8"}}
    reader = MMDBReader(write_mmdb(docs, str(tmp_path / "v.mmdb")))
    probes = ["1.2.3.4", "255.255.255.255", "::1", "2001:db8::5", "2002::"]
    assert reader.get_many(probes) == [scalar_get(reader, ip) for ip in probes]
    assert reader.get("1.2.3.4") == {"net": "::/64"}


# -- enrich over the batched mmdb path ------------------------------------------

class _PerValueMaxmind(MaxmindBackend):
    """The per-address path: one ``lookup`` per unique value, dug per path."""

    def lookup_paths(self, addresses, paths):
        return dig_paths([self.lookup(a) for a in addresses], paths)


def test_enrich_batched_equals_per_value_lookup(mmdb_path, caplog):
    record = {
        "city": "${city.names.en['ip']}",
        "cc": "${country.iso_code['ip']}",
        "latitude": "${location.latitude['ip']}",
    }
    spec = compile_record_spec(RecordSpec(lookup_keys=["ip"], record=record))
    values = ["", None, "not-an-ip", "01.2.3.4", "2001:4860:4860::8888",
              "66.102.3.80", "8.8.8.8", "203.0.113.1", "2001:db8::1", None, ""]
    batches = [pa.table({"ip": values}), pa.table({"ip": list(reversed(values))})]

    bspec = {"library": "maxmind", "path": mmdb_path}
    ref = GeoEnrich(spec, backend_spec=bspec)
    ref.backend = _PerValueMaxmind(mmdb_path)
    want = [ref(b).to_pylist() for b in batches]

    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="fluent_plugin_geoip_ray.stages.enrich"):
        stage = GeoEnrich(spec, backend_spec=bspec)
        got = [stage(b).to_pylist() for b in batches]
    assert got == want
    # the v6 hit has no city, so only the v4 hit passes the gate
    assert [r["geoip_enriched"] for r in got[0]] == [v == "66.102.3.80" for v in values]
    cc = stage._columns[stage._path_col[("country", "iso_code")]]
    assert cc.to_pylist()[stage._rows["2001:4860:4860::8888"]] == "US"
    empty = [r for r in caplog.records if "is empty string" in r.getMessage()]
    assert len(empty) == 1


# -- get_paths: the path-projected walk against dig over get_many ----------------

class _PointerEncoder:
    """Test-only data-section encoder that emits pointers, as real GeoIP2
    files do: a map, an array or a string of 3+ bytes (a map key too) that
    was written before becomes a pointer to its first copy, in the minimal
    pointer form or, at random, the 4-byte one.  Ints past uint64 are
    written as uint128 and some floats as float32.  Used in place of
    ``encode_value`` while ``write_mmdb`` lays out the data section."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.size = 0        # data-section bytes so far
        self.first = {}      # value key -> offset of its first copy
        self.outputs = set()  # whole records already written (write_mmdb dedupes them)
        self.forms = set()   # pointer sizes emitted (the ``SS`` bits)

    def __call__(self, value) -> bytes:
        out = bytearray()
        self._emit(value, out)
        enc = bytes(out)
        if enc not in self.outputs:
            self.outputs.add(enc)
            self.size += len(enc)
        return enc

    def _pointer(self, ptr: int) -> bytes:
        if self.rng.random() < 0.25 or ptr >= 526_336 + (1 << 27):
            ss, head, tail = 3, 0, ptr.to_bytes(4, "big")
        elif ptr < 2048:
            ss, head, tail = 0, ptr >> 8, bytes([ptr & 0xFF])
        elif ptr < 2048 + (1 << 19):
            v = ptr - 2048
            ss, head, tail = 1, v >> 16, (v & 0xFFFF).to_bytes(2, "big")
        else:
            v = ptr - 526_336
            ss, head, tail = 2, v >> 24, (v & 0xFFFFFF).to_bytes(3, "big")
        self.forms.add(ss)
        return bytes([0x20 | (ss << 3) | head]) + tail

    def _emit(self, value, out: bytearray) -> None:
        shared = isinstance(value, (dict, list)) or (
            isinstance(value, str) and len(value.encode()) >= 3)
        key = repr((type(value).__name__, value)) if shared else None
        if key in self.first:
            out += self._pointer(self.first[key])
            return
        if shared:
            self.first[key] = self.size + len(out)
        if isinstance(value, dict):
            out += mmdb._ctrl(mmdb._T_MAP, len(value))
            for k, v in value.items():
                self._emit(k, out)
                self._emit(v, out)
        elif isinstance(value, list):
            out += mmdb._ctrl(mmdb._T_ARRAY, len(value))
            for v in value:
                self._emit(v, out)
        elif isinstance(value, int) and not isinstance(value, bool) and value >= 1 << 64:
            raw = value.to_bytes(16, "big").lstrip(b"\x00")
            out += mmdb._ctrl(mmdb._T_UINT128, len(raw)) + raw
        elif isinstance(value, float) and struct.unpack(">f", struct.pack(">f", value))[0] == value \
                and self.rng.random() < 0.5:
            out += mmdb._ctrl(mmdb._T_FLOAT, 4) + struct.pack(">f", value)
        else:
            out += encode_value(value)


def _write(docs, path, encoder, **kw):
    """``write_mmdb``; ``encoder`` "inline" (its own encoder), "pointers"
    or a function encoding each record of the data section.  The metadata
    is always written by ``encode_value``."""
    if encoder == "inline":
        return write_mmdb(docs, path, **kw)
    if encoder == "pointers":
        encoder = _PointerEncoder(seed=len(docs))

    def data_encoder(value):
        if isinstance(value, dict) and "binary_format_major_version" in value:
            mmdb.encode_value = encode_value  # restored by the context below
            return encode_value(value)
        return encoder(value)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mmdb, "encode_value", data_encoder)
        return write_mmdb(docs, path, **kw)


_KEYS = ["a", "b", "en", "en\x00", "names", "iso_code", "k" * 30, "ключ", "geoname_id"]


def _random_value(rng, depth=0):
    r = rng.random()
    if depth < 3 and r < 0.3:
        return {rng.choice(_KEYS): _random_value(rng, depth + 1)
                for _ in range(rng.randrange(5))}
    if depth < 3 and r < 0.4:
        return [_random_value(rng, depth + 1) for _ in range(rng.randrange(4))]
    return rng.choice([
        lambda: "".join(rng.choice("abé€") for _ in range(rng.choice([0, 2, 5, 28, 29, 300]))),
        lambda: rng.uniform(-1e6, 1e6),
        lambda: rng.choice([0.5, -2.25, 1.0, 3.0e-5]),
        lambda: rng.randrange(1 << 16),
        lambda: rng.randrange(1 << 16, 1 << 32),
        lambda: rng.randrange(1 << 32, 1 << 63),
        lambda: rng.randrange(1 << 63, 1 << 64),
        lambda: rng.randrange(1 << 64, 1 << 100),
        lambda: -rng.randrange(1, 1 << 31),
        lambda: rng.random() < 0.5,
        lambda: bytes(rng.randrange(256) for _ in range(3)),
    ])()


def _random_docs(rng, n, ip_version):
    docs = {}
    for i in range(n):
        if ip_version == 6 and i % 3 == 0:
            key = str(ipaddress.IPv6Address(rng.getrandbits(128)))
        else:
            key = str(ipaddress.IPv4Address(rng.getrandbits(32)))
        doc = {rng.choice(_KEYS): _random_value(rng, 1) for _ in range(rng.randrange(1, 6))}
        if i % 7 == 0:
            doc["m"] = {k: i for k in ["a", "b"] + [f"w{j}" for j in range(30)]}  # 32 entries
        docs[key] = doc
    docs[next(iter(docs))] = docs[list(docs)[-1]]  # two hosts, one record
    return docs


def _paths(rng):
    fixed = [("a",), ("names", "en"), ("a", 0), ("a", 9), ("b", "a", "en"),
             ("a", "names", 1), ("m", "w7"), ("m", 0), ("m",), ("en", 0, "a"),
             ("ключ",), ("k" * 30, "iso_code"), ("geoname_id",), ("nope", "a")]
    rand = [tuple(rng.choice(_KEYS + [0, 1, 2]) for _ in range(rng.randrange(1, 4)))
            for _ in range(25)]
    return list(dict.fromkeys(fixed + rand))


def _values(col):
    return col.to_pylist() if isinstance(col, pa.Array) else list(col)


def _assert_paths_match_dig(reader, probes, paths):
    found, cols = reader.get_paths(probes, paths)
    docs = reader.get_many(probes)
    assert found.tolist() == [d is not None for d in docs]
    assert len(cols) == len(paths)
    for path, col in zip(paths, cols):
        assert len(col) == len(probes)
        assert _values(col) == [dig(d, path) for d in docs], path
    return docs


@pytest.mark.parametrize("encoder", ["inline", "pointers"])
@pytest.mark.parametrize("ip_version", [4, 6])
@pytest.mark.parametrize("record_size", [24, 28, 32])
def test_get_paths_matches_dig_over_get_many(tmp_path, record_size, ip_version, encoder):
    rng = random.Random(record_size * 10 + ip_version)
    docs = _random_docs(rng, 150, ip_version)
    path = _write(docs, str(tmp_path / "r.mmdb"), encoder,
                  record_size=record_size, ip_version=ip_version)
    reader = MMDBReader(path)
    probes = list(docs) + _probe_addresses({}, seed=record_size) + ["", "x", "2001:db8::1"]
    got = _assert_paths_match_dig(reader, probes, _paths(rng))
    assert got[:len(docs)] == list(docs.values())
    # the paths are compiled once and reused; a new path set recompiles
    assert reader.get_paths(probes[:3], [("a",)])[0].tolist() == [True] * 3


def test_pointer_encoder_exercises_every_pointer_form(tmp_path):
    """Records in key order: random ones, a 0.5 MB string, then records
    that point past it (the 3-byte form)."""
    rng = random.Random(3)
    docs = {f"1.0.0.{i}": {"pair": f"pair {i // 2}", "r": _random_value(rng)}
            for i in range(10, 99)}
    docs["2.0.0.1"] = {"blob": "z" * 530_000, "tail": {"en": "after"}}
    docs.update({f"3.0.0.{i}": {"tail": {"en": "after"}, "n": i} for i in range(1, 9)})
    enc = _PointerEncoder(seed=3)
    reader = MMDBReader(_write(docs, str(tmp_path / "p.mmdb"), enc))
    assert enc.forms == {0, 1, 2, 3}
    got = _assert_paths_match_dig(reader, list(docs), [("blob",), ("tail", "en"), ("a",), ("b", 0)])
    assert got == list(docs.values())


def test_get_paths_prefix_database_matches_longest_prefix_referee(tmp_path):
    """Overlapping v4 and v6 prefixes of mixed length; several prefixes
    share one record, as in a real City database."""
    rng = random.Random(23)
    shared = [{"city": {"names": {"en": f"C{i}"}}, "location": {"latitude": i / 7},
               "subdivisions": [{"iso_code": f"R{i}"}, {"iso_code": "S"}, {"iso_code": "T"}]}
              for i in range(12)]
    docs = {}
    for _ in range(300):
        if rng.random() < 0.7:
            plen = rng.randrange(4, 33)
            net = ipaddress.ip_network((rng.getrandbits(32) >> (32 - plen) << (32 - plen), plen))
        else:
            plen = rng.randrange(16, 129)
            bits = (0x2001_0DB8 << 96 | rng.getrandbits(96)) if rng.random() < 0.5 \
                else rng.getrandbits(128)
            net = ipaddress.ip_network((bits >> (128 - plen) << (128 - plen), plen))
        docs[str(net)] = rng.choice(shared)
    for encoder in ("inline", "pointers"):
        reader = MMDBReader(_write(docs, str(tmp_path / f"{encoder}.mmdb"), encoder))
        probes = _probe_addresses(docs, seed=4)
        paths = [("city", "names", "en"), ("location", "latitude"),
                 ("subdivisions", 0, "iso_code"), ("subdivisions", 1)]
        found, cols = reader.get_paths(probes, paths)
        truth = [_lpm_truth(docs, 6, ip) for ip in probes]
        assert found.tolist() == [t is not None for t in truth]
        assert 0 < found.sum() < len(probes)
        for path, col in zip(paths, cols):
            assert _values(col) == [dig(t, path) for t in truth], path


def test_get_paths_rejects_pointer_to_pointer(tmp_path):
    """A pointer may not point to a pointer (MaxMind DB spec); a record
    that is one pointer is fine."""
    inner = encode_value({"a": "xyz"})
    records = iter([inner, b"\x20\x00", b"\x20" + bytes([len(inner)])])
    docs = {"1.0.0.1": {"n": 1}, "1.0.0.2": {"n": 2}, "1.0.0.3": {"n": 3}}
    reader = MMDBReader(_write(docs, str(tmp_path / "pp.mmdb"), lambda doc: next(records)))
    found, (col,) = reader.get_paths(["1.0.0.1", "1.0.0.2"], [("a",)])
    assert found.tolist() == [True, True] and col.to_pylist() == ["xyz", "xyz"]
    with pytest.raises(ValueError, match="pointer to a pointer"):
        reader.get_paths(["1.0.0.3"], [("a",)])


def test_get_paths_keys_match_exact_bytes(tmp_path):
    """Keys are matched byte for byte, length included: "en\\0" is no "en"."""
    docs = {"1.0.0.1": {"en\x00": "nul", "e": "short", "enx": "long"},
            "1.0.0.2": {"en\x00": "nul", "en": "yes"}}
    reader = MMDBReader(write_mmdb(docs, str(tmp_path / "k.mmdb")))
    found, (col,) = reader.get_paths(list(docs), [("en",)])
    assert col.to_pylist() == [None, "yes"]
