"""Golden-output enrich tests, transposing the reference's scenario matrices
(test/plugin/test_filter_geoip.rb:168-521, geoip2_c backend; values pinned to
the GeoIP2 goldens) onto Arrow batches.  No Ray needed: GeoEnrich is a plain
callable over pyarrow Tables."""

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from fluent_plugin_geoip_ray.config import RecordSpec, compile_record_spec
from fluent_plugin_geoip_ray.functions.accessor import resolve_accessor
from fluent_plugin_geoip_ray.pipelines.flagship import canonical_record_spec, heavy_record_spec
from fluent_plugin_geoip_ray.stages.enrich import ENRICHED_COL, GeoEnrich
from fluent_plugin_geoip_ray.state.fixture import fixture_geo_docs
from fluent_plugin_geoip_ray.state.mmdb import write_mmdb
from fluent_plugin_geoip_ray.templates import _to_s, arrow_type, dig, evaluate_plan


def enrich(record, ips, lookup_keys=("ip",), **spec_kw):
    spec = RecordSpec(lookup_keys=list(lookup_keys), record=record, **spec_kw)
    stage = GeoEnrich(compile_record_spec(spec))
    batch = (
        pa.table({"ip": list(ips)})
        if isinstance(ips[0], (str, type(None)))
        else pa.table(ips[0])
    )
    return stage(batch).to_pylist()


CITY = "${city.names.en['ip']}"
LAT = "${location.latitude['ip']}"
LON = "${location.longitude['ip']}"


def test_full_record_directive_matrix():
    """test_filter_geoip.rb:258-323 golden records."""
    record = {
        "from_city": CITY,
        "from_country": "${country.names.en['ip']}",
        "latitude": LAT,
        "longitude": LON,
        "float_concat": f"{LAT},{LON}",
        "float_array": f"[{LON}, {LAT}]",
        "float_nest": f'{{ "lat" : {LAT}, "lon" : {LON}}}',
        "string_concat": "${city.names.en['ip']},${country.names.en['ip']}",
        "string_array": "[${city.names.en['ip']}, ${country.names.en['ip']}]",
        "string_nest": '{ "city" : ${city.names.en[\'ip\']}, "country_name" : ${country.names.en[\'ip\']}}',
        "unknown_city": "${city.names.en['unknown_key']}",
        "undefined": "${city.names.en['undefined']}",
        "broken_array1": f"[{LON}, ${{location.latitude['undefined']}}]",
        "broken_array2": "[${location.longitude['undefined']}, ${location.latitude['undefined']}]",
    }
    rows = enrich(record, ["66.102.3.80", None])
    hit, miss = rows[0], rows[1]
    assert hit["from_city"] == "Mountain View"
    assert hit["from_country"] == "United States"
    assert hit["latitude"] == 37.419200000000004
    assert hit["longitude"] == -122.0574
    assert hit["float_concat"] == "37.419200000000004,-122.0574"
    assert hit["float_array"] == [-122.0574, 37.419200000000004]
    assert hit["float_nest"] == {"lat": 37.419200000000004, "lon": -122.0574}
    assert hit["string_concat"] == "Mountain View,United States"
    assert hit["string_array"] == ["Mountain View", "United States"]
    assert hit["string_nest"] == {"city": "Mountain View", "country_name": "United States"}
    assert hit["unknown_city"] is None
    assert hit["undefined"] is None
    assert hit["broken_array1"] == [-122.0574, None]
    assert hit["broken_array2"] == [None, None]

    assert miss["from_city"] is None
    assert miss["latitude"] is None
    assert miss["float_concat"] == ","
    assert miss["float_array"] == [None, None]
    assert miss["float_nest"] == {"lat": None, "lon": None}
    assert miss["string_concat"] == ","
    assert miss["string_array"] == [None, None]
    assert miss["string_nest"] == {"city": None, "country_name": None}


def test_unknown_and_invalid_ip_yield_nils():
    """test_filter_geoip.rb:189-210: RFC5737 / garbage IPs miss quietly."""
    rows = enrich({"city": CITY}, ["203.0.113.1", "not-an-ip", "999.999.999.999"])
    assert all(r["city"] is None for r in rows)
    assert all(r["geoip_enriched"] is False for r in rows)


def test_empty_string_ip_yields_nil():
    """test_filter_geoip.rb:212-230 (warn + nil, distinct from missing)."""
    rows = enrich({"city": CITY}, [""])
    assert rows[0]["city"] is None


def test_missing_lookup_column_yields_nil():
    """'message' => 'missing field' scenario (test_filter_geoip.rb:301-317)."""
    spec = RecordSpec(lookup_keys=["ip"], record={"city": CITY})
    stage = GeoEnrich(compile_record_spec(spec))
    out = stage(pa.table({"other": ["x"]})).to_pylist()
    assert out[0]["city"] is None


def test_nil_latlon_coalesces_to_zero():
    """filter_geoip.rb:194-198 via the doc-without-location fixture IP
    (mock-DB scenario test_filter_geoip.rb:456-480)."""
    rows = enrich(
        {"latitude": LAT, "longitude": LON, "country": "${country.names.en['ip']}"},
        ["180.94.85.84"],
    )
    assert rows[0]["latitude"] == 0.0
    assert rows[0]["longitude"] == 0.0
    assert rows[0]["country"] == "Afghanistan"


def test_skip_adding_null_record_first_placeholder_order():
    """README.md:114-192 + filter_geoip.rb:122-123: the gate keys off the
    FIRST record entry's placeholder. 8.8.8.8 has country but no city."""
    # city first -> 8.8.8.8 skipped
    rows = enrich(
        {"city": CITY, "country": "${country.names.en['ip']}"},
        ["8.8.8.8"],
        skip_adding_null_record=True,
    )
    assert rows[0]["geoip_enriched"] is False
    assert rows[0]["city"] is None and rows[0]["country"] is None
    # country first -> kept, city stays nil
    rows = enrich(
        {"country": "${country.names.en['ip']}", "city": CITY},
        ["8.8.8.8"],
        skip_adding_null_record=True,
    )
    assert rows[0]["geoip_enriched"] is True
    assert rows[0]["country"] == "United States"
    assert rows[0]["city"] is None


def test_skip_gate_all_enrich_values_suppressed():
    """test_filter_geoip.rb:232-256: when the gate fires, no enrich values."""
    rows = enrich(
        {"city": CITY, "lat": LAT},
        ["203.0.113.1"],
        skip_adding_null_record=True,
    )
    assert rows[0]["city"] is None and rows[0]["lat"] is None
    assert rows[0]["geoip_enriched"] is False


def test_multiple_lookup_keys_resolve_independently():
    """test_filter_geoip.rb:325-362: from/to keys bind per-placeholder."""
    batch = pa.table(
        {"from_ip": ["66.102.3.80"], "to_ip": ["125.54.15.42"]}
    )
    spec = RecordSpec(
        lookup_keys=["from_ip", "to_ip"],
        record={
            "from_country": "${country.names.en['from_ip']}",
            "to_country": "${country.names.en['to_ip']}",
            "string_array": "[${country.names.en['from_ip']}, ${country.names.en['to_ip']}]",
        },
    )
    out = GeoEnrich(compile_record_spec(spec))(batch).to_pylist()[0]
    assert out["from_country"] == "United States"
    assert out["to_country"] == "Japan"
    assert out["string_array"] == ["United States", "Japan"]


def test_quoted_json_template_and_quoted_placeholder_drop():
    """test_filter_geoip.rb:364-400: quoted '[...]' is JSON; a quoted
    placeholder inside a plain string template interpolates ''."""
    rows = enrich(
        {
            "geopoint": f"'[{LON}, {LAT}]'",
            "quoted_in_string": f"x '{CITY}' y",
        },
        ["66.102.3.80"],
    )
    assert rows[0]["geopoint"] == [-122.0574, 37.419200000000004]
    assert rows[0]["quoted_in_string"] == "x  y"


def test_host_token_lookup():
    rows = enrich({"city": "${city.names.en['host']}"}, [None],
                  lookup_keys=("host",))
    # column 'host' missing in the one-column table -> nil; now with a table:
    batch = pa.table({"host": ["host_google", "host_unknown"]})
    spec = RecordSpec(lookup_keys=["host"], record={"city": "${city.names.en['host']}"})
    out = GeoEnrich(compile_record_spec(spec))(batch).to_pylist()
    assert out[0]["city"] == "Mountain View"
    assert out[1]["city"] is None


def test_ip_dedup_cache_across_batches():
    spec = RecordSpec(lookup_keys=["ip"], record={"city": CITY})
    stage = GeoEnrich(compile_record_spec(spec))
    stage(pa.table({"ip": ["66.102.3.80"] * 10}))
    assert stage._found[stage._rows["66.102.3.80"]]
    out = stage(pa.table({"ip": ["66.102.3.80", "8.8.8.8"]})).to_pylist()
    assert out[0]["city"] == "Mountain View"


def test_typed_passthrough_vs_string_coercion():
    """SURVEY §2.4.3: latitude float, float_concat string."""
    rows = enrich({"latitude": LAT, "concat": f"{LAT},{LON}"}, ["66.102.3.80"])
    assert isinstance(rows[0]["latitude"], float)
    assert isinstance(rows[0]["concat"], str)


def test_ipv6_lookup_end_to_end():
    """IPv6 token extraction + lookup (geoip2 backends accept v6)."""
    from fluent_plugin_geoip_ray.stages.parse import parse_transcripts

    t = pa.table({"text": ["query from 2001:4860:4860::8888 ok", "none"],
                  "role": ["user", "user"]})
    parsed = parse_transcripts(t, fields=("ip", "ip6"))
    assert parsed.column("ip6").to_pylist() == ["2001:4860:4860::8888", None]
    spec = RecordSpec(lookup_keys=["ip6"],
                      record={"cc": "${country.iso_code['ip6']}"})
    out = GeoEnrich(compile_record_spec(spec))(parsed).to_pylist()
    assert out[0]["cc"] == "US" and out[1]["cc"] is None


def test_empty_record_directive_passthrough():
    """Reference accepts an empty config / empty <record> and passes records
    through unchanged (test_filter_geoip.rb:42-47; add_geoip_field over an
    empty @map).  Here: no enrich columns added, data columns byte-equal,
    only the gate column (no placeholder found -> not enriched) appears."""
    from fluent_plugin_geoip_ray.config import RecordSpec

    spec = RecordSpec(lookup_keys=["ip"], record={})
    stage = GeoEnrich(compile_record_spec(spec))
    batch = pa.table({"ip": ["66.102.3.80", None], "message": ["a", "b"]})
    out = stage(batch)
    assert out.column_names == ["ip", "message", "geoip_enriched"]
    assert out.select(["ip", "message"]).equals(batch)
    assert out["geoip_enriched"].to_pylist() == [False, False]


# -- referee: the document path --------------------------------------------------

class _DocColumns:
    """Placeholder arrays gathered from per-unique Python values (the
    object path ``templates.evaluate_plan`` ran over before lookups became
    columns)."""

    def __init__(self, n, placeholders, unique_values, codes):
        self.n = n
        self._ph = {p.key: p for p in placeholders}
        self._uvals = unique_values
        self._codes = codes

    def _gather(self, key, vals):
        out = np.asarray(vals + [None], dtype=object)
        return out[self._codes[self._ph[key].record_key]]

    def typed_array(self, key):
        rows = self._gather(key, self._uvals[key])
        return pa.array(rows, type=arrow_type(self._ph[key].dtype), from_pandas=True)

    def string_array(self, key):
        rows = self._gather(key, [_to_s(v) for v in self._uvals[key]])
        return pa.array(np.where(rows == None, "", rows), type=pa.string())  # noqa: E711

    def string_array_nullsafe(self, key):
        svals = [None if v is None else _to_s(v) for v in self._uvals[key]]
        return pa.array(self._gather(key, svals), type=pa.string(), from_pandas=True)


class DocumentEnrich(GeoEnrich):
    """The document path, kept as the columnar stage's referee: one
    ``lookup`` per unique value, a document cache, ``dig`` per placeholder
    and object gathers.  Its skip gate tests the dug values for nil."""

    def __init__(self, spec, backend_spec=None):
        super().__init__(spec, backend_spec=backend_spec)
        self._doc_cache = {}

    def _docs(self, batch, key):
        n = batch.num_rows
        col = resolve_accessor(batch, key) if key in self._live_keys else None
        if col is None:
            return np.zeros(n, dtype=np.int64), [None]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        enc = pc.dictionary_encode(col.cast(pa.string()))
        uniques = enc.dictionary.to_pylist()
        codes = pc.fill_null(enc.indices, len(uniques)).to_numpy(zero_copy_only=False)
        for v in uniques:
            if v not in self._doc_cache:
                self._doc_cache[v] = None if v == "" else self.backend.lookup(v)
        return codes.astype(np.int64), [self._doc_cache[v] for v in uniques] + [None]

    def __call__(self, batch):
        spec = self.spec
        record_keys = dict.fromkeys(
            [p.record_key for p in spec.placeholders] + list(spec.lookup_keys))
        joint, m, key_codes, docs = np.zeros(batch.num_rows, dtype=np.int64), 1, {}, {}
        for key in record_keys:
            codes, docs[key] = self._docs(batch, key)
            radix = len(docs[key])
            if key_codes:
                uniq, joint = np.unique(joint * radix + codes, return_inverse=True)
            else:
                uniq, joint = np.arange(radix, dtype=np.int64), codes
            for k in key_codes:
                key_codes[k] = key_codes[k][uniq // radix]
            key_codes[key] = uniq % radix
            m = len(uniq)
        unique_values = {}
        for ph in spec.placeholders:
            vals = []
            for doc in docs[ph.record_key]:
                v = None if doc is None else dig(doc, ph.geoip_path)
                if doc is not None and ph.is_latlon and v is None:
                    v = 0.0
                vals.append(v)
            unique_values[ph.key] = vals
        cols = _DocColumns(m, spec.placeholders, unique_values, key_codes)
        undecided, skip = np.ones(m, dtype=bool), np.ones(m, dtype=bool)
        for ph in spec.placeholders:
            found_u = np.asarray([d is not None for d in docs[ph.record_key]], dtype=bool)
            newly = found_u[key_codes[ph.record_key]] & undecided
            nil_u = np.asarray([v is None for v in unique_values[ph.key]] + [True])
            skip[newly] = nil_u[key_codes[ph.record_key]][newly]
            undecided &= ~newly
        enriched = pa.array(~skip)
        rows = pa.array(joint)
        out = batch
        for name, plan in spec.plans.items():
            arr = evaluate_plan(plan, cols)
            if spec.skip_adding_null_record:
                arr = pc.if_else(enriched, arr, pa.scalar(None, arr.type))
            out = out.append_column(name, arr.take(rows))
        return out.append_column(ENRICHED_COL, enriched.take(rows))


def _referee_batches():
    """Three batches over fixture hits, host tokens, misses, "", None,
    invalid strings and IPv6; later batches reuse earlier values."""
    rng = np.random.default_rng(17)
    pool = list(fixture_geo_docs()) + [
        "203.0.113.1", "", None, "not-an-ip", "01.2.3.4", "999.1.1.1",
        "2001:db8::1", "::ffff:66.102.3.80", "host_unknown"]
    batches = []
    for n in (40, 25, 60):
        cols = {name: [pool[i] for i in rng.integers(0, len(pool), n)]
                for name in ("ip", "ip2", "host")}
        t = pa.table(cols)
        batches.append(t.append_column(
            "src", pa.StructArray.from_arrays([t.column("ip").combine_chunks()], ["ip"])))
    return batches


def _nested_spec(**kw):
    return RecordSpec(lookup_keys=["$.src.ip"], record={
        "city": "${city.names.en['$.src.ip']}",
        "country_code": "${country.iso_code['$.src.ip']}",
        "region": "${subdivisions.0.names.en['$.src.ip']}",
        "sub": "[${subdivisions.1.iso_code['$.src.ip']}, ${postal.code['$.src.ip']}]",
    }, **kw)


@pytest.fixture(scope="module")
def fixture_mmdb(tmp_path_factory):
    return write_mmdb(fixture_geo_docs(), str(tmp_path_factory.mktemp("enrich") / "fx.mmdb"))


@pytest.mark.parametrize("backend", ["dict", "mmdb"])
@pytest.mark.parametrize("skip", [False, True])
@pytest.mark.parametrize("make_spec", [canonical_record_spec, heavy_record_spec, _nested_spec],
                         ids=["canonical", "heavy", "nested"])
def test_columnar_enrich_equals_document_referee(backend, skip, make_spec, fixture_mmdb):
    spec = make_spec()
    spec.skip_adding_null_record = skip
    compiled = compile_record_spec(spec)
    bspec = ({"library": "dict"} if backend == "dict"
             else {"library": "maxmind", "path": fixture_mmdb})
    stage, ref = GeoEnrich(compiled, backend_spec=bspec), DocumentEnrich(compiled, bspec)
    for batch in _referee_batches():
        got, want = stage(batch), ref(batch)
        assert got.schema == want.schema
        assert got.to_pylist() == want.to_pylist()
    assert any(r[ENRICHED_COL] for r in got.to_pylist())


# -- non-string geo values ---------------------------------------------------------

_ID_DOCS = {"1.2.3.4": {"city": {"geoname_id": 5375480, "names": {"en": "X"}}},
            "1.2.3.5": {"city": {"names": {"en": "Y"}}}}


def _id_stage(record, backend, tmp_path, **spec_kw):
    spec = compile_record_spec(RecordSpec(lookup_keys=["ip"], record=record, **spec_kw))
    if backend == "dict":
        return GeoEnrich(spec, backend_spec={"library": "dict", "docs": _ID_DOCS})
    path = write_mmdb(_ID_DOCS, str(tmp_path / "ids.mmdb"))
    return GeoEnrich(spec, backend_spec={"library": "maxmind", "path": path})


@pytest.mark.parametrize("backend", ["dict", "mmdb"])
def test_int_value_interpolates_in_string_template(backend, tmp_path):
    """filter_geoip.rb:133-134 interpolates to_s of any value."""
    stage = _id_stage({"id": "id=${city.geoname_id['ip']}"}, backend, tmp_path,
                      skip_adding_null_record=True)
    rows = stage(pa.table({"ip": ["1.2.3.4", "1.2.3.5", "9.9.9.9"]})).to_pylist()
    assert [r["id"] for r in rows] == ["id=5375480", None, None]
    assert [r[ENRICHED_COL] for r in rows] == [True, False, False]


@pytest.mark.parametrize("backend", ["dict", "mmdb"])
@pytest.mark.parametrize("template,kind", [
    ("${city.geoname_id['ip']}", "int"),
    ("${city.names['ip']}", "dict"),
    ('{"id": ${city.geoname_id["ip"]}}', "int"),
])
def test_value_outside_declared_dtype_raises_clear_error(backend, template, kind, tmp_path):
    stage = _id_stage({"out": template}, backend, tmp_path)
    with pytest.raises(ValueError) as err:
        stage(pa.table({"ip": ["1.2.3.4", "1.2.3.5"]}))
    msg = str(err.value)
    assert "city." in msg and f"value of type {kind} " in msg and "placeholder_types" in msg


@pytest.mark.parametrize("backend", ["dict", "mmdb"])
def test_placeholder_types_declares_int_value(backend, tmp_path):
    key, quoted = "${city.geoname_id['ip']}", '${city.geoname_id["ip"]}'
    stage = _id_stage({"id": key, "nest": '{"id": %s}' % quoted}, backend, tmp_path,
                      placeholder_types={key: "int64", quoted: "int64"})
    rows = stage(pa.table({"ip": ["1.2.3.4", "1.2.3.5"]})).to_pylist()
    assert [r["id"] for r in rows] == [5375480, None]
    assert [r["nest"] for r in rows] == [{"id": 5375480}, {"id": None}]


@pytest.mark.parametrize("backend", ["dict", "mmdb"])
def test_nan_value_is_null_when_typed_but_not_nil(backend, tmp_path):
    """A NaN coordinate is a value (the gate passes, ``to_s`` is "nan") that
    a float64 column holds as null, as Arrow's pandas conversion does."""
    docs = {"1.2.3.4": {"location": {"latitude": float("nan")}}}
    spec = compile_record_spec(RecordSpec(
        lookup_keys=["ip"], record={"lat": LAT, "s": f"at {LAT}"},
        skip_adding_null_record=True))
    if backend == "dict":
        bspec = {"library": "dict", "docs": docs}
    else:
        bspec = {"library": "maxmind", "path": write_mmdb(docs, str(tmp_path / "nan.mmdb"))}
    rows = GeoEnrich(spec, backend_spec=bspec)(pa.table({"ip": ["1.2.3.4"]})).to_pylist()
    assert rows == [{"ip": "1.2.3.4", "lat": None, "s": "at nan", ENRICHED_COL: True}]
