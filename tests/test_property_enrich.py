"""Property-based equivalence: vectorized engine vs a per-row reference
interpreter that transliterates the Ruby semantics directly
(add_geoip_field / create_placeholder / geolocate,
lib/fluent/plugin/filter_geoip.rb:121-202).

Hypothesis generates record specs (random mixes of passthrough / string /
JSON templates over random geo paths and lookup keys) and random input
columns (fixture IPs, misses, nulls, empty strings); the vectorized
GeoEnrich output must match the row-at-a-time interpretation exactly.
Batches of up to 200 rows drawn from a few key tuples exercise the joint
lookup codes the stage evaluates templates over.
"""

from __future__ import annotations

import json

import pyarrow as pa
from hypothesis import given, settings
from hypothesis import strategies as st

from fluent_plugin_geoip_ray.config import (
    PLACEHOLDER_SCAN_RE,
    PLACEHOLDER_SINGLE_RE,
    RecordSpec,
    compile_record_spec,
)
from fluent_plugin_geoip_ray.stages.enrich import ENRICHED_COL, GeoEnrich
from fluent_plugin_geoip_ray.state.fixture import fixture_geo_docs
from fluent_plugin_geoip_ray.templates import _to_s, dig, output_schema

DOCS = fixture_geo_docs()

GEO_PATHS = [
    "city.names.en",
    "country.iso_code",
    "country.names.en",
    "location.latitude",
    "location.longitude",
    "postal.code",
    "subdivisions.0.iso_code",
    "subdivisions.0.names.en",
    "nonexistent.path",
]
LOOKUP_VALUES = [
    "66.102.3.80", "66.102.9.80", "8.8.8.8", "125.54.15.42", "180.94.85.84",
    "203.0.113.1", "host_google", "host_unknown", "", None,
]


# ---- per-row reference interpreter (Ruby transliteration) -----------------

def reference_row(compiled, row: dict) -> dict:
    """One record through geolocate -> create_placeholder -> add_geoip_field."""
    geodata = {}
    for key in {p.record_key for p in compiled.placeholders}:
        ip = row.get(key) if key in compiled.lookup_keys else None
        geo = None
        if ip:  # nil and "" both yield nil geo (filter_geoip.rb:167-179)
            geo = DOCS.get(ip)
        geodata[key] = geo

    placeholder = {}
    for p in compiled.placeholders:  # filter_geoip.rb:187-202
        if geodata.get(p.record_key) is None:
            continue
        value = dig(geodata[p.record_key], p.geoip_path)
        if p.geoip_path[-1] in ("latitude", "longitude") and value is None:
            value = 0.0
        placeholder[p.key] = value

    out = dict(row)
    skip = (
        compiled.skip_adding_null_record
        and (next(iter(placeholder.values()), None) is None)
    )
    if skip:
        return out
    for record_key, template in _raw_templates(compiled).items():
        if PLACEHOLDER_SINGLE_RE.match(template):
            out[record_key] = placeholder.get(template)
        elif _json_like(template):
            def sub(m):
                matched = m.group(0)
                bare = matched[1:-1] if _sym_quoted(matched) else m.group(1)
                return json.dumps(placeholder.get(bare))
            value = json.loads(PLACEHOLDER_SCAN_RE.sub(sub, template))
            out[record_key] = _apply_schema_closure(compiled, record_key, value)
        else:
            def sub_s(m):
                return _to_s(placeholder.get(m.group(0)))
            out[record_key] = PLACEHOLDER_SCAN_RE.sub(sub_s, template)
    return out


def _apply_schema_closure(compiled, field, value):
    """Mirror the engine's documented mixed-type JSON-array closure (Arrow
    lists need one element type -> list<string> with _to_s elements)."""
    from fluent_plugin_geoip_ray.config import JsonTemplatePlan
    from fluent_plugin_geoip_ray.templates import arrow_type

    plan = compiled.plans[field]
    if not isinstance(plan, JsonTemplatePlan):
        return value

    by_key = compiled.placeholder_by_key

    def node_types(node):
        kind = node[0]
        if kind == "ref":
            return {str(arrow_type(by_key[node[1]].dtype))}
        if kind == "const":
            v = node[1]
            if v is None:
                return {"null"}
            return {type(v).__name__}
        return {"nested"}

    def walk(node, val):
        kind = node[0]
        if kind == "arr":
            child_types = set()
            for ch in node[1]:
                child_types |= node_types(ch)
            vals = [walk(ch, v) for ch, v in zip(node[1], val)]
            if len(child_types) > 1:
                return [None if v is None else _to_s(v) for v in vals]
            return vals
        if kind == "obj" and isinstance(val, dict):
            return {name: walk(ch, val[name]) for name, ch in node[1]}
        return val

    return walk(plan.skeleton, value)


def _raw_templates(compiled):
    # re-derive the (quote-stripped) template text per field from the plans
    # is lossy; instead carry the raw spec alongside in the test
    return compiled._raw  # attached in _compile below


def _json_like(t):
    import re

    return bool(re.search(r"^\[.+\]$", t, re.S) or re.search(r"^\{.+\}$", t, re.S))


def _sym_quoted(t):
    import re

    return bool(re.match(r"(^'.+'$|^\".+\"$)", t, re.S))


def _compile(record: dict, lookup_keys, skip):
    spec = RecordSpec(lookup_keys=list(lookup_keys), record=dict(record),
                      skip_adding_null_record=skip)
    compiled = compile_record_spec(spec)
    stripped = {}
    for k, v in record.items():
        stripped[k] = v[1:-1] if _sym_quoted(v) else v
    compiled._raw = stripped
    return compiled


# ---- strategies -----------------------------------------------------------

def placeholder_strategy(keys):
    return st.builds(
        lambda path, key: f"${{{path}['{key}']}}",
        st.sampled_from(GEO_PATHS),
        st.sampled_from(keys),
    )


def template_strategy(keys):
    ph = placeholder_strategy(keys)
    passthrough = ph
    string_tmpl = st.builds(
        lambda a, b, lit: f"{a}{lit}{b}", ph, ph, st.sampled_from([",", " - ", "/"])
    )
    json_arr = st.builds(lambda a, b: f"[{a}, {b}]", ph, ph)
    json_obj = st.builds(lambda a, b: f'{{ "x": {a}, "y": {b} }}', ph, ph)
    return st.one_of(passthrough, string_tmpl, json_arr, json_obj)


KEY_SETS = [["ip"], ["ip", "ip2"], ["ip", "ip2", "host"]]


@st.composite
def spec_and_rows(draw, key_sets=KEY_SETS[:2], min_rows=1, max_rows=12):
    keys = draw(st.sampled_from(key_sets))
    n_fields = draw(st.integers(1, 5))
    record = {
        f"f{i}": draw(template_strategy(keys)) for i in range(n_fields)
    }
    skip = draw(st.booleans())
    n_rows = draw(st.integers(min_rows, max_rows))
    rows = [
        {k: draw(st.sampled_from(LOOKUP_VALUES)) for k in keys}
        for _ in range(n_rows)
    ]
    return keys, record, skip, rows


@st.composite
def spec_and_repeating_rows(draw):
    """Up to 200 rows drawn from at most 8 key tuples, so tuples repeat."""
    keys, record, skip, pool = draw(
        spec_and_rows(key_sets=KEY_SETS, min_rows=1, max_rows=8)
    )
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=0, max_size=200))
    return keys, record, skip, [pool[i] for i in picks]


def check_against_row_interpreter(keys, record, skip, rows):
    compiled = _compile(record, keys, skip)
    stage = GeoEnrich(compiled)
    batch = pa.table({k: [r[k] for r in rows] for k in keys})
    out = stage(batch)
    want = output_schema(compiled) + [(ENRICHED_COL, pa.bool_())]
    assert [(f.name, f.type) for f in out.schema][len(keys):] == want
    got = out.to_pylist()
    assert len(got) == len(rows)
    for i, row in enumerate(rows):
        expect = reference_row(compiled, row)
        for field in record:
            g = got[i][field]
            e = expect.get(field)
            if skip and field not in expect:
                e = None  # engine keeps fixed schema: suppressed -> null
            assert g == e, (
                f"field {field!r} template {record[field]!r} row {row}: "
                f"vectorized={g!r} reference={e!r}"
            )


@settings(max_examples=60, deadline=None, derandomize=True)
@given(spec_and_rows())
def test_vectorized_matches_row_interpreter(args):
    check_against_row_interpreter(*args)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(spec_and_repeating_rows())
def test_joint_codes_match_row_interpreter(args):
    check_against_row_interpreter(*args)


def test_zero_row_batch_keeps_output_schema():
    record = {
        "city": "${city.names.en['ip']}",
        "pair": "${location.latitude['ip2']},${country.iso_code['host']}",
        "point": "[${location.longitude['ip']}, ${location.latitude['host']}]",
        "mixed": "[${city.names.en['ip2']}, ${location.latitude['ip']}]",
        "obj": '{ "lat": ${location.latitude["host"]}, "cc": ${country.iso_code["ip"]} }',
    }
    for keys in KEY_SETS:
        for skip in (False, True):
            check_against_row_interpreter(keys, record, skip, [])
