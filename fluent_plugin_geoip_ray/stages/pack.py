"""Token-budget sequence packing (training-data extension).

Training pipelines pack documents into fixed token-budget bins before
batching.  Exact sequential greedy packing is inherently serial; the
deterministic, parallel formulation used here is PREFIX-SUM BINNING: order
documents globally by key, and assign ``pack_id = exclusive_prefix_tokens
// budget`` -- a document whose tokens span a boundary belongs to the bin
where it starts.  This is a pure function of (order, token counts):
independent of cluster size and restartable, and exactly expressible as a
SQL window sum (the driver oracle).

Distributed scan shape (:class:`scan.SortedBlocks`): sort by key -> one
tiny task per sorted block sums its tokens (driver cumsum -> per-block
exclusive offsets, addressed by block position) -> one task per block
adds its local exclusive cumsum to the block offset.  Only O(blocks)
scalars ever reach the driver.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .scan import SortedBlocks


def _token_sum(t: pa.Table, tokens_col: str) -> int:
    return pc.sum(t.column(tokens_col)).as_py() or 0


def _append_pack(t: pa.Table, off, tokens_col: str, budget: int) -> pa.Table:
    toks = t.column(tokens_col).to_numpy(zero_copy_only=False).astype(np.int64)
    pack = (off + np.cumsum(toks) - toks) // budget
    return t.append_column("pack_id", pa.array(pack.astype(np.int64)))


def pack_bins(ds, key_col: str, tokens_col: str, budget: int):
    """Append ``pack_id`` (int64) = token-prefix bin in global key order.

    The input is sorted by ``key_col`` (document ids, in the order of
    :func:`exchange.segments`) and materialized; each block's token offset
    is the token sum of the blocks before it, by block position.
    Documents with equal keys take consecutive positions in an unspecified
    order, as under SQL ``ROW_NUMBER``.  Output is ordered by key
    block-to-block.
    """
    blocks = SortedBlocks(ds, [key_col])
    offsets = blocks.offsets(blocks.sums(_token_sum, tokens_col=tokens_col))
    return blocks.scan(_append_pack, offsets, tokens_col=tokens_col,
                       budget=budget)
