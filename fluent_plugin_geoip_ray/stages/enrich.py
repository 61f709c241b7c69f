"""GeoEnrich: the stateful enrich stage (a ``map_batches`` task callable).

Ray-Data-native re-expression of the reference's per-event chain
``get_address -> geolocate -> create_placeholder -> add_geoip_field``
(``lib/fluent/plugin/filter_geoip.rb:106-139,159-202``):

* :func:`enrich_dataset` runs the stage in Ray Data's task pool; each
  task builds one :class:`GeoEnrich` on its first batch, whose
  ``__init__`` opens the backend ONCE -- the analog of
  ``load_database`` running once per Fluentd worker in ``configure``
  (``filter_geoip.rb:103,204-217``).  An ``.mmdb`` open maps the file
  read-only, so a task's open copies no database.
* per batch, lookup values are dictionary-encoded, and the uniques not yet
  in the stage's cache go to the backend in ONE ``lookup_paths`` call for
  the spec's distinct geo paths (for an .mmdb, a batched trie descent and
  one vectorized walk that decodes only those paths; transcript traffic is
  heavy-hitter skewed) -- a broadcast-small-side lookup join (SURVEY §2.3
  "Joins/lookups").  The answers are columns, not documents: found records
  are appended to the stage's value table (one column per path, lat/lon
  nils coalesced to 0.0 there), which persists across batches, and the
  cache maps each lookup value to its row (row 0: no record).
* every output is a function of the looked-up records alone, so rows are
  encoded by one joint code over all of the spec's record keys (the tuple
  of their lookup codes, densified).  Placeholder values are value-table
  columns taken at the joint codes' rows; the skip gate and every template
  plan are evaluated once per joint code, then each output column is
  expanded to rows with one ``take``: per-batch work is O(distinct key
  tuples) of Arrow and numpy kernels, not O(rows).
* the ``skip_adding_null_record`` gate (``filter_geoip.rb:40,122-123``)
  becomes a per-joint-code boolean: skip fires iff no lookup succeeded, or
  the first placeholder (template order) whose lookup succeeded has a nil
  value -- exactly ``placeholder.values.first.nil?`` on the
  insertion-ordered hash (the test is on the looked-up value, before any
  dtype, so a value of any type can pass it).
  The batch keeps a fixed schema: enrich columns are nulled on skipped rows
  and a ``geoip_enriched:bool`` column records the gate (SURVEY §2.1 P6);
  routes filter on it.
"""

from __future__ import annotations

import logging

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..config import CompiledRecordSpec, RecordSpec, compile_record_spec
from ..functions.accessor import resolve_accessor
from ..state.backends import make_backend
from ..templates import (
    PlaceholderColumns,
    column_values,
    concat_columns,
    evaluate_plan,
    take_column,
    value_column,
)

logger = logging.getLogger(__name__)

ENRICHED_COL = "geoip_enriched"


class GeoEnrich:
    def __init__(
        self,
        spec: RecordSpec | CompiledRecordSpec,
        backend_spec: dict | None = None,
    ):
        """``backend_spec`` is a small config dict for
        :func:`~fluent_plugin_geoip_ray.state.backends.make_backend`
        (default: the built-in dict fixture)."""
        self.spec = (
            spec if isinstance(spec, CompiledRecordSpec) else compile_record_spec(spec)
        )
        self.backend = make_backend(backend_spec or {"library": "dict"})
        # value table, persisting across batches (stage state): row 0 is the
        # no-record row (misses, "", null keys); found records get a row each,
        # with one column per distinct geo path of the spec
        self._paths = tuple(dict.fromkeys(p.geoip_path for p in self.spec.placeholders))
        self._path_col = {path: j for j, path in enumerate(self._paths)}
        self._latlon = {p.geoip_path for p in self.spec.placeholders if p.is_latlon}
        self._found = np.zeros(1, dtype=bool)
        self._columns = [pa.nulls(1) for _ in self._paths]
        self._rows: dict = {}  # lookup value -> value-table row
        self._warned_empty = False
        # record_keys referenced by placeholders that are NOT lookup keys dig
        # into a missing geodata entry -> always nil (test_filter_geoip.rb:273-297)
        self._live_keys = set(self.spec.lookup_keys)

    # -- per-batch core ------------------------------------------------------

    def _lookup_column(self, batch: pa.Table, key: str):
        """Return (codes:int64[n] into uniques+[null], rows:int64[uniques+1]),
        ``rows`` being each unique's value-table row (0 for the null slot).

        ``key`` may be a plain column name or a fluentd record-accessor path
        (``$.from.ip`` / ``$["host"]["ip"]``, filter_geoip.rb:60) resolved
        through struct columns via ``pc.struct_field``.
        """
        n = batch.num_rows
        none = np.zeros(n, dtype=np.int64), np.zeros(1, dtype=np.int64)
        if key not in self._live_keys:
            return none
        col = resolve_accessor(batch, key)
        if col is None:
            return none
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        if not pa.types.is_string(col.type) and not pa.types.is_large_string(col.type):
            col = col.cast(pa.string())
        enc = pc.dictionary_encode(col)
        uniques = enc.dictionary.to_pylist()
        idx = pc.fill_null(enc.indices, len(uniques)).to_numpy(zero_copy_only=False)
        codes = idx.astype(np.int64)
        cache = self._rows
        todo = [v for v in uniques if v not in cache]
        if "" in todo:
            if not self._warned_empty:
                logger.warning("%s is empty string", key)  # filter_geoip.rb:172-174
                self._warned_empty = True
            cache[""] = 0
            todo.remove("")
        if todo:
            self._append(todo, *self.backend.lookup_paths(todo, self._paths))
        rows = np.fromiter((cache[v] for v in uniques), dtype=np.int64,
                           count=len(uniques))
        return codes, np.append(rows, 0)

    def _append(self, values: list, found: np.ndarray, columns: list) -> None:
        """Add the found records of ``values`` to the value table."""
        hit = np.flatnonzero(found)
        start = len(self._found)
        self._rows.update(dict.fromkeys(values, 0))
        self._rows.update(zip([values[i] for i in hit.tolist()],
                              range(start, start + len(hit))))
        if not len(hit):
            return
        self._found = np.append(self._found, np.ones(len(hit), dtype=bool))
        for j, path in enumerate(self._paths):
            col = take_column(columns[j], hit)
            if path in self._latlon:
                col = _zero_nulls(col)  # found record: nil lat/lon -> 0.0 (filter_geoip.rb:194-198)
            self._columns[j] = concat_columns(self._columns[j], col)

    def _joint_codes(self, batch: pa.Table):
        """Encode each row by the tuple of its lookup codes.

        Returns (joint:int64[n] into m joint uniques, m, key_rows):
        ``key_rows[key][j]`` is joint unique j's value-table row for ``key``.
        One key's codes are the joint codes; several keys combine as a mixed
        radix, re-densified after each key so the radix stays below
        n * (m + 1).
        """
        spec = self.spec
        record_keys = dict.fromkeys(
            [p.record_key for p in spec.placeholders] + list(spec.lookup_keys)
        )
        joint = np.zeros(batch.num_rows, dtype=np.int64)
        m = 1
        key_codes: dict[str, np.ndarray] = {}
        rows: dict[str, np.ndarray] = {}
        for key in record_keys:
            codes, rows[key] = self._lookup_column(batch, key)
            radix = len(rows[key])
            if key_codes:
                uniq, joint = np.unique(joint * radix + codes, return_inverse=True)
            else:
                uniq, joint = np.arange(radix, dtype=np.int64), codes
            prev = uniq // radix
            for k in key_codes:
                key_codes[k] = key_codes[k][prev]
            key_codes[key] = uniq % radix
            m = len(uniq)
        return joint, m, {k: rows[k][c] for k, c in key_codes.items()}

    def __call__(self, batch: pa.Table) -> pa.Table:
        spec = self.spec
        joint, m, key_rows = self._joint_codes(batch)

        # per-placeholder values over the joint uniques (create_placeholder,
        # filter_geoip.rb:187-202)
        values = {}
        for ph in spec.placeholders:
            col = self._columns[self._path_col[ph.geoip_path]]
            values[ph.key] = take_column(col, key_rows[ph.record_key])
        cols = PlaceholderColumns(m, spec.placeholders, values)

        # skip gate: first-found placeholder nil, or none found
        # (placeholder.values.first.nil?, filter_geoip.rb:123)
        undecided = np.ones(m, dtype=bool)
        skip = np.ones(m, dtype=bool)
        for ph in spec.placeholders:
            newly = self._found[key_rows[ph.record_key]] & undecided
            if newly.any():
                skip[newly] = cols.is_null(ph.key)[newly]
                undecided &= ~newly
            if not undecided.any():
                break
        enriched_mask = pa.array(~skip)

        rows = pa.array(joint)
        out = batch
        for name, plan in spec.plans.items():
            arr = evaluate_plan(plan, cols)
            if spec.skip_adding_null_record:
                arr = pc.if_else(enriched_mask, arr, pa.scalar(None, arr.type))
            arr = arr.take(rows)
            if name in out.column_names:
                out = out.set_column(out.column_names.index(name), name, arr)
            else:
                out = out.append_column(name, arr)
        enriched = enriched_mask.take(rows)
        if ENRICHED_COL in out.column_names:
            out = out.set_column(
                out.column_names.index(ENRICHED_COL), ENRICHED_COL, enriched
            )
        else:
            out = out.append_column(ENRICHED_COL, enriched)
        return out


def _zero_nulls(col):
    """``col`` with nil values replaced by 0.0."""
    if isinstance(col, pa.Array) and col.type in (pa.float64(), pa.null()):
        return pc.fill_null(col.cast(pa.float64()), 0.0)
    return value_column([0.0 if v is None else v for v in column_values(col)])


def _tasks_enrich_fn(spec: CompiledRecordSpec, backend_spec: dict):
    stage = None

    def fn(batch: pa.Table) -> pa.Table:
        nonlocal stage
        if stage is None:
            stage = GeoEnrich(spec, backend_spec=backend_spec)
        return stage(batch)

    return fn


def enrich_dataset(
    ds,
    spec: RecordSpec | CompiledRecordSpec,
    backend_spec: dict | None = None,
):
    """Attach the enrich stage to a Dataset: a stateless task pool where
    each task builds its :class:`GeoEnrich` lazily on its first batch, so
    the backend is opened once per task and no actor processes churn per
    run.  Batches are whole blocks (``batch_size=None``)."""
    compiled = (
        spec if isinstance(spec, CompiledRecordSpec) else compile_record_spec(spec)
    )
    return ds.map_batches(
        _tasks_enrich_fn(compiled, backend_spec or {"library": "dict"}),
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=None,
    )
