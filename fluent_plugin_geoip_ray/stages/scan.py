"""Positional scans over a globally sorted dataset.

Every operator that needs a row's global position -- ``epoch_shuffle``,
``select_top_fraction``, ``global_rank``, ``pack_bins`` and
``session_windows`` -- and every globally sorted output (the sorted sink,
the IVF training sample) sorts through :class:`SortedBlocks`, then scans.
The sort is the exchange's range route (:func:`exchange.exchange_blocks`):
sampled key rows give ``G - 1`` boundary rows (``G`` the cluster's CPUs),
a row's bucket is the number of boundaries that sort at or before it (so
equal key tuples share a bucket), and each bucket sorts by
:func:`exchange.segments`, the package's one sort order.  The input's
blocks feed the split and the reduce outputs are the sorted blocks, both
as :class:`exchange.Blocks`, with no dataset between them.  In order,
they are contiguous ranges of the total order; the reduce tasks report
their row counts, so a block's exclusive offset is a cumsum over the
blocks BEFORE it, addressed by position and never by row content.  Rows
with equal sort keys take consecutive positions in an unspecified order,
as under SQL ``ROW_NUMBER``.  Only O(blocks) scalars and the sampled key
rows reach the driver; rows move once, in the exchange.
"""

from __future__ import annotations

import functools

import numpy as np
import pyarrow as pa
import ray

from . import exchange
from .exchange import Blocks, _arrow, _schema_of, segments

# evenly spaced key rows each input block contributes to the boundary pick
_SAMPLES_PER_BLOCK = 32


def _names(by) -> list[str]:
    return [c if isinstance(c, str) else c[0] for c in by]


def _sample(block: pa.Table, by) -> pa.Table:
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


@ray.remote(num_returns=2)
def _block_apply(fn, block, state, kwargs):
    out = fn(block, state, **kwargs)
    return (out.num_rows, out.schema), out


class SortedBlocks(Blocks):
    """``ds`` sorted by ``by``, as :class:`exchange.Blocks`: ``refs`` and
    ``counts`` are its non-empty blocks in sort order and their row
    counts, ``schema`` the input's when it has no rows.  An entry of
    ``by`` is a column name or a ``(name, "descending")`` pair; the order
    is :func:`exchange.segments`'."""

    def __init__(self, ds, by: list[str]):
        out = Blocks.of(ds)
        if out.refs:
            groups = exchange.cluster_cpus()
            samples = pa.concat_tables(out.sums(_sample, by=by),
                                       promote_options="permissive")
            order = segments(samples, [], order_by=by)[0]
            bounds = ray.put(samples.take(pa.array(order[
                np.arange(1, groups) * len(order) // groups])))
            out = exchange.exchange_blocks(Blocks(
                [_range_bucket.remote(r, bounds, by) for r in out.refs],
                out.counts), groups, functools.partial(_sort_bucket, by=by))
        super().__init__(out.refs, out.counts, out._schema)
        self.total = self.num_rows

    def offsets(self, weights=None) -> np.ndarray:
        """Exclusive prefix sums of per-block ``weights`` (row counts by
        default): the amount of the total order before each block."""
        w = self.counts if weights is None else np.asarray(weights, np.int64)
        return np.cumsum(w) - w

    def row(self, i: int) -> pa.Table:
        """The row at global position ``i`` (0-based), from its block."""
        ends = np.cumsum(self.counts)
        j = int(np.searchsorted(ends, i, side="right"))
        start = int(ends[j] - self.counts[j])
        return ray.get(self.refs[j]).slice(i - start, 1)

    def apply(self, fn, states=None, **kwargs) -> Blocks:
        """``fn(block, state, **kwargs)`` over every block, one task each,
        as :class:`exchange.Blocks` in sort order; ``states`` defaults to
        the blocks' row offsets."""
        states = self.offsets() if states is None else states
        outs = [_block_apply.remote(fn, r, s, kwargs)
                for r, s in zip(self.refs, states)]
        metas = ray.get([m for m, _ in outs])
        return Blocks([o for _, o in outs], [n for n, _ in metas],
                      _schema_of(metas))

    def scan(self, fn, states=None, **kwargs):
        """:meth:`apply` as a dataset."""
        return self.apply(fn, states, **kwargs).dataset()
