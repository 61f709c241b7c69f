"""Positional scans over a globally sorted dataset.

Every operator that needs a row's global position -- ``epoch_shuffle``,
``select_top_fraction``, ``global_rank``, ``pack_bins`` and
``session_windows`` -- and every globally sorted output (the sorted sink,
the IVF training sample) sorts through :class:`SortedBlocks`, then scans.
The sort is the range route of :func:`exchange.hash_exchange`: sampled key
rows give ``G - 1`` boundary rows (``G`` the cluster's CPUs), a row's
bucket is the number of boundaries that sort at or before it (so equal key
tuples share a bucket), and each bucket sorts by :func:`exchange.segments`,
the package's one sort order.  The exchange's output blocks, in order, are
contiguous ranges of the total order.  Their row counts come from block
metadata, so a block's exclusive offset is a cumsum over the blocks BEFORE
it, addressed by position and never by row content.  Rows with equal sort
keys take consecutive positions in an unspecified order, as under SQL
``ROW_NUMBER``.  Only O(blocks) scalars and the sampled key rows reach the
driver; rows move once, in the exchange.
"""

from __future__ import annotations

import functools

import numpy as np
import pyarrow as pa
import ray

from . import exchange
from .exchange import segments

# evenly spaced key rows each input block contributes to the boundary pick
_SAMPLES_PER_BLOCK = 32


def _names(by) -> list[str]:
    return [c if isinstance(c, str) else c[0] for c in by]


def _arrow(block) -> pa.Table:
    # materialized blocks may be pandas (from_pandas, from_items)
    if isinstance(block, pa.Table):
        return block
    return pa.Table.from_pandas(block, preserve_index=False)


@ray.remote
def _sample(block, by) -> pa.Table:
    block = _arrow(block)
    n = block.num_rows
    at = np.linspace(0, n - 1, min(n, _SAMPLES_PER_BLOCK)).astype(np.int64)
    return block.select(_names(by)).take(pa.array(at))


@ray.remote
def _range_bucket(block, bounds: pa.Table, by) -> pa.Table:
    """``block`` plus ``__bucket``: the number of ``bounds`` rows that sort
    at or before the row.  In the stable order of ``bounds`` then the
    block, a boundary comes before every row with its key tuple."""
    block = _arrow(block)
    order = segments(pa.concat_tables(
        [bounds, block.select(_names(by))], promote_options="permissive"),
        [], order_by=by)[0]
    is_bound = order < bounds.num_rows
    rows = ~is_bound
    bucket = np.empty(block.num_rows, dtype=np.int32)
    bucket[order[rows] - bounds.num_rows] = np.cumsum(is_bound)[rows]
    return block.append_column("__bucket", pa.array(bucket))


def _sort_bucket(t: pa.Table, by) -> pa.Table:
    return t.take(pa.array(segments(t, [], order_by=by)[0]))


def _nonempty(ds) -> list:
    """``(ref, rows)`` of each non-empty block of ``ds``, in order."""
    return [(ref, meta.num_rows) for bundle in ds.iter_internal_ref_bundles()
            for ref, meta in bundle.blocks if meta.num_rows]


@ray.remote
def _block_sum(fn, block, kwargs):
    return fn(block, **kwargs)


@ray.remote
def _block_apply(fn, block, state, kwargs):
    return fn(block, state, **kwargs)


class SortedBlocks:
    """``ds`` sorted by ``by`` and materialized: ``refs`` and ``counts``
    are its non-empty blocks in sort order and their row counts, ``ds``
    the input, materialized (for the schema of an empty input).  An
    entry of ``by`` is a column name or a ``(name, "descending")`` pair;
    the order is :func:`exchange.segments`'."""

    def __init__(self, ds, by: list[str]):
        import ray.data as rd

        self.ds = ds.materialize()
        blocks = _nonempty(self.ds)
        if blocks:
            groups = exchange.cluster_cpus()
            samples = pa.concat_tables(
                ray.get([_sample.remote(r, by) for r, _ in blocks]),
                promote_options="permissive")
            order = segments(samples, [], order_by=by)[0]
            bounds = ray.put(samples.take(pa.array(order[
                np.arange(1, groups) * len(order) // groups])))
            bucketed = rd.from_arrow_refs([
                _range_bucket.remote(r, bounds, by) for r, _ in blocks])
            blocks = _nonempty(exchange.hash_exchange(
                bucketed, groups, functools.partial(_sort_bucket, by=by)))
        self.refs = [r for r, _ in blocks]
        self.counts = np.array([n for _, n in blocks], dtype=np.int64)
        self.total = int(self.counts.sum())

    def sums(self, fn, **kwargs) -> list:
        """``fn(block, **kwargs)`` of every block, one small task each."""
        return ray.get([_block_sum.remote(fn, r, kwargs) for r in self.refs])

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
        start = int(ends[j] - self.counts[j])
        return ray.get(self.refs[j]).slice(i - start, 1)

    def scan(self, fn, states=None, **kwargs):
        """``fn(block, state, **kwargs)`` over every block, one task each,
        as a dataset in sort order; ``states`` defaults to the blocks'
        row offsets.  A dataset with no rows gives an empty dataset."""
        import ray.data as rd

        if not self.refs:
            return rd.from_items([])
        states = self.offsets() if states is None else states
        return rd.from_arrow_refs([
            _block_apply.remote(fn, r, s, kwargs)
            for r, s in zip(self.refs, states)])
