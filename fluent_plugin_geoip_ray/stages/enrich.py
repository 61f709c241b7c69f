"""GeoEnrich: the stateful enrich stage (actor-pool ``map_batches`` callable).

Ray-Data-native re-expression of the reference's per-event chain
``get_address -> geolocate -> create_placeholder -> add_geoip_field``
(``lib/fluent/plugin/filter_geoip.rb:106-139,159-202``):

* the backend is opened ONCE per actor in ``__init__`` -- the analog of
  ``load_database`` running once per Fluentd worker in ``configure``
  (``filter_geoip.rb:103,204-217``); use
  ``ds.map_batches(GeoEnrich, fn_constructor_kwargs=..., concurrency=N,
  batch_format="pyarrow", zero_copy_batch=True)``.
* per batch, lookup values are dictionary-encoded, and the uniques not yet
  in the stage's cache go to the backend in ONE ``lookup_many`` call (for
  an .mmdb, a batched trie descent; transcript traffic is heavy-hitter
  skewed) -- a broadcast-small-side lookup join (SURVEY §2.3
  "Joins/lookups").  Cached documents are shared between rows and batches,
  and read-only.
* every output is a function of the looked-up documents alone, so rows are
  encoded by one joint code over all of the spec's record keys (the tuple
  of their lookup codes, densified).  Placeholder values, the skip gate and
  every template plan are evaluated once per joint code, then each output
  column is expanded to rows with one ``take``: per-batch work is
  O(distinct key tuples), not O(rows).
* the ``skip_adding_null_record`` gate (``filter_geoip.rb:40,122-123``)
  becomes a per-joint-code boolean: skip fires iff no lookup succeeded, or
  the first placeholder (template order) whose lookup succeeded has a nil
  value -- exactly ``placeholder.values.first.nil?`` on the
  insertion-ordered hash.
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
from ..templates import PlaceholderColumns, dig, evaluate_plan

logger = logging.getLogger(__name__)

ENRICHED_COL = "geoip_enriched"


class GeoEnrich:
    def __init__(
        self,
        spec: RecordSpec | CompiledRecordSpec,
        backend_spec: dict | None = None,
        backend_ref=None,
    ):
        """``backend_spec`` is a small config dict (serialized once per actor);
        ``backend_ref`` is a ``ray.put`` ObjectRef to a docs dict for larger
        side tables (broadcast once per node, zero re-ship per batch)."""
        self.spec = (
            spec if isinstance(spec, CompiledRecordSpec) else compile_record_spec(spec)
        )
        if backend_ref is not None:
            import ray

            self.backend = make_backend({"library": "dict", "docs": ray.get(backend_ref)})
        else:
            self.backend = make_backend(backend_spec or {"library": "dict"})
        # cache: lookup value -> doc|None, persists across batches (actor state)
        self._doc_cache: dict = {}
        self._warned_empty = False
        # record_keys referenced by placeholders that are NOT lookup keys dig
        # into a missing geodata entry -> always nil (test_filter_geoip.rb:273-297)
        self._live_keys = set(self.spec.lookup_keys)

    # -- per-batch core ------------------------------------------------------

    def _lookup_column(self, batch: pa.Table, key: str):
        """Return (codes:int64[n] into uniques+[miss], unique_docs:list).

        ``key`` may be a plain column name or a fluentd record-accessor path
        (``$.from.ip`` / ``$["host"]["ip"]``, filter_geoip.rb:60) resolved
        through struct columns via ``pc.struct_field``.
        """
        n = batch.num_rows
        if key not in self._live_keys:
            return np.full(n, 0, dtype=np.int64), [None], [None]
        col = resolve_accessor(batch, key)
        if col is None:
            return np.full(n, 0, dtype=np.int64), [None], [None]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        if not pa.types.is_string(col.type) and not pa.types.is_large_string(col.type):
            col = col.cast(pa.string())
        enc = pc.dictionary_encode(col)
        uniques = enc.dictionary.to_pylist()
        idx = pc.fill_null(enc.indices, len(uniques)).to_numpy(zero_copy_only=False)
        codes = idx.astype(np.int64)
        cache = self._doc_cache
        todo = [v for v in uniques if v not in cache]
        if "" in todo:
            if not self._warned_empty:
                logger.warning("%s is empty string", key)  # filter_geoip.rb:172-174
                self._warned_empty = True
            cache[""] = None
            todo.remove("")
        if todo:
            cache.update(zip(todo, self.backend.lookup_many(todo)))
        docs = [cache[v] for v in uniques]
        docs.append(None)  # sentinel slot for null input rows
        uniques.append(None)
        return codes, docs, uniques

    def _joint_codes(self, batch: pa.Table):
        """Encode each row by the tuple of its lookup codes.

        Returns (joint:int64[n] into m joint uniques, m, key_codes, docs):
        ``key_codes[key][j]`` is joint unique j's code into ``docs[key]``.
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
        docs: dict[str, list] = {}
        for key in record_keys:
            codes, docs[key], _ = self._lookup_column(batch, key)
            radix = len(docs[key])
            if key_codes:
                uniq, joint = np.unique(joint * radix + codes, return_inverse=True)
            else:
                uniq, joint = np.arange(radix, dtype=np.int64), codes
            prev = uniq // radix
            for k in key_codes:
                key_codes[k] = key_codes[k][prev]
            key_codes[key] = uniq % radix
            m = len(uniq)
        return joint, m, key_codes, docs

    def __call__(self, batch: pa.Table) -> pa.Table:
        spec = self.spec
        joint, m, key_codes, docs = self._joint_codes(batch)

        # per-placeholder unique-level values (create_placeholder,
        # filter_geoip.rb:187-202)
        unique_values: dict[str, list] = {}
        for ph in spec.placeholders:
            ds_ = docs[ph.record_key]
            vals = []
            for doc in ds_:
                if doc is None:
                    vals.append(None)
                else:
                    v = dig(doc, ph.geoip_path)
                    if ph.is_latlon and v is None:
                        v = 0.0  # filter_geoip.rb:194-198
                    vals.append(v)
            unique_values[ph.key] = vals

        cols = PlaceholderColumns(m, spec.placeholders, unique_values, key_codes)

        # skip gate: first-found placeholder nil, or none found
        # (placeholder.values.first.nil?, filter_geoip.rb:123)
        undecided = np.ones(m, dtype=bool)
        skip = np.ones(m, dtype=bool)
        for ph in spec.placeholders:
            found_u = np.asarray(
                [d is not None for d in docs[ph.record_key]], dtype=bool
            )
            inserted = found_u[key_codes[ph.record_key]]
            newly = inserted & undecided
            if newly.any():
                isnull = cols.typed_array(ph.key).is_null().to_numpy(
                    zero_copy_only=False
                )
                skip[newly] = isnull[newly]
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
    backend_ref=None,
    batch_size: int | None = None,
    concurrency=None,
    num_cpus: float = 1,
    mode: str = "tasks",
):
    """Attach the enrich stage to a Dataset.

    ``mode="tasks"`` (default): stateless task pool; each task builds its
    :class:`GeoEnrich` lazily on its first batch, so the backend is opened
    once per task and no actor processes churn per run.  Right for
    cheap-to-open backends.

    ``mode="actors"``: a fixed actor pool (``concurrency=(min,max)``) whose
    ``__init__`` opens the backend -- required when open cost or state size
    is large (a real .mmdb via ``backend_ref``, model weights), accepting
    actor startup per execution.
    """
    compiled = (
        spec if isinstance(spec, CompiledRecordSpec) else compile_record_spec(spec)
    )
    if mode == "actors" or backend_ref is not None:
        kwargs = dict(spec=compiled)
        if backend_ref is not None:
            kwargs["backend_ref"] = backend_ref
        else:
            kwargs["backend_spec"] = backend_spec or {"library": "dict"}
        return ds.map_batches(
            GeoEnrich,
            fn_constructor_kwargs=kwargs,
            batch_format="pyarrow",
            zero_copy_batch=True,
            batch_size=batch_size,
            concurrency=concurrency or (2, 8),
            num_cpus=num_cpus,
        )
    return ds.map_batches(
        _tasks_enrich_fn(compiled, backend_spec or {"library": "dict"}),
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=batch_size,
    )
