"""Positional scans over a globally sorted dataset.

Every operator that needs a row's global position -- ``epoch_shuffle``,
``select_top_fraction``, ``global_rank``, ``pack_bins`` and
``session_windows`` -- runs one distributed sort and then this scan, and
so does every globally sorted output (the sorted sink, the IVF training
sample): Ray's own sort never sees a null key anywhere else.
After the sort and a materialize, the blocks, in dataset order, are
contiguous ranges of the total order.  :class:`SortedBlocks` keeps the
non-empty ones with their row counts from block metadata (no pass over
the data), so a block's exclusive offset is a cumsum over the blocks
BEFORE it, addressed by position and never by row content: duplicate or
null sort keys cannot alias two blocks.  Rows with equal sort keys take
consecutive positions in an unspecified order, as under SQL
``ROW_NUMBER``; nulls sort last (SQL ``NULLS LAST``).  Only O(blocks)
scalars reach the driver; rows move once, in the sort.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray


def _zero(typ: pa.DataType):
    """A non-null value of ``typ`` (its zero or empty value), or None."""
    for v, t in ((0, pa.int8()), (0, pa.int64()), ("", pa.string())):
        try:
            return pa.scalar(v, t).cast(typ)
        except (pa.ArrowInvalid, pa.ArrowNotImplementedError):
            pass
    return None


def _null_lanes(t: pa.Table, by: list[str]) -> pa.Table:
    """Null-free sort lanes: each sort column's nulls are filled with a
    zero of its type and flagged in a ``__null<i>`` column that sorts
    before it, so nulls sort last.  Ray's own sort must never see a null
    key: its partition search duplicates rows (float keys) or raises
    (string keys) when a sampled boundary holds one."""
    for i, c in enumerate(by):
        col = t.column(c)
        t = t.append_column(f"__null{i}", pc.is_null(col))
        z = _zero(col.type) if col.null_count else None
        if z is not None:
            t = t.set_column(t.schema.get_field_index(c), c,
                             pc.fill_null(col, z))
    return t


def _restore(t: pa.Table, by: list[str]) -> pa.Table:
    """Inverse of :func:`_null_lanes` on a sorted block."""
    flags = [f"__null{i}" for i in range(len(by))]
    for c, f in zip(by, flags):
        if pc.any(t.column(f)).as_py():
            col = t.column(c)
            t = t.set_column(t.schema.get_field_index(c), c, pc.if_else(
                t.column(f), pa.scalar(None, col.type), col))
    return t.drop_columns(flags)


@ray.remote
def _block_sum(fn, block, by, kwargs):
    return fn(_restore(block, by), **kwargs)


@ray.remote
def _block_apply(fn, block, by, state, kwargs):
    return fn(_restore(block, by), state, **kwargs)


class SortedBlocks:
    """``ds`` sorted by ``by`` (nulls last) and materialized: ``refs``
    and ``counts`` are its non-empty blocks in sort order and their row
    counts, ``ds`` the sorted dataset itself (for the schema of an empty
    input)."""

    def __init__(self, ds, by: list[str]):
        self.by = list(by)
        self.ds = ds.map_batches(
            _null_lanes, fn_kwargs={"by": self.by}, batch_format="pyarrow",
            zero_copy_batch=True, batch_size=None,
        ).sort([c for i, b in enumerate(self.by)
                for c in (f"__null{i}", b)]).materialize()
        self.refs, counts = [], []
        for bundle in self.ds.iter_internal_ref_bundles():
            for ref, meta in bundle.blocks:
                if meta.num_rows:
                    self.refs.append(ref)
                    counts.append(meta.num_rows)
        self.counts = np.array(counts, dtype=np.int64)
        self.total = int(self.counts.sum())

    def sums(self, fn, **kwargs) -> list:
        """``fn(block, **kwargs)`` of every block, one small task each."""
        return ray.get([_block_sum.remote(fn, r, self.by, kwargs)
                        for r in self.refs])

    def offsets(self, weights=None) -> np.ndarray:
        """Exclusive prefix sums of per-block ``weights`` (row counts by
        default): the amount of the total order before each block."""
        w = self.counts if weights is None else np.asarray(weights, np.int64)
        return np.cumsum(w) - w

    def row(self, i: int) -> pa.Table:
        """The row at global position ``i`` (0-based): fetches its one
        block."""
        ends = np.cumsum(self.counts)
        j = int(np.searchsorted(ends, i, side="right"))
        block = _restore(ray.get(self.refs[j]), self.by)
        return block.slice(i - int(ends[j] - self.counts[j]), 1)

    def scan(self, fn, states=None, **kwargs):
        """``fn(block, state, **kwargs)`` over every block, one task each,
        as a dataset in sort order; ``states`` defaults to the blocks'
        row offsets.  A dataset with no rows gives an empty dataset."""
        import ray.data as rd

        if not self.refs:
            return rd.from_items([])
        states = self.offsets() if states is None else states
        return rd.from_arrow_refs([
            _block_apply.remote(fn, r, self.by, s, kwargs)
            for r, s in zip(self.refs, states)])
