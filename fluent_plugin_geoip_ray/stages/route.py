"""Route stage: Fluentd-style tag matching, tag remap and fan-out.

The reference relies on Fluentd-core routing (``<filter test.geoip>`` /
``<match test.**>`` blocks, README.md:248-266) and its removed ``GeoipOutput``
companion did enrich-and-re-tag (README.md:22-24); ``BASELINE.json:north_star``
mandates the routing layer: tag prefix/suffix substitution plus the
``skip_adding_null_record`` filter, fanned out to one Parquet sink per route.

Tag-pattern semantics are Fluentd's public match grammar: ``*`` matches one
tag part, ``**`` matches zero or more parts, ``.`` separates parts -- compiled
here to RE2.  A route decision is a function of the tag plus the enrich gate,
so per batch the tag column is dictionary-encoded, the pattern match and the
tag rewrite run once per distinct tag, and both expand to rows with one
``take``.  Null tags never match.  A route that keeps every row returns the
batch's other columns as they are, without a ``filter`` copy.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Optional

import pyarrow as pa
import pyarrow.compute as pc

from .enrich import ENRICHED_COL
from .parse import TAG_COL


def tag_pattern_to_regex(pattern: str) -> str:
    """Fluentd match pattern -> anchored RE2 (public fluentd tag grammar):
    ``a.**`` matches ``a`` and ``a.b.c``; ``a.*`` matches ``a.b`` only."""
    parts = pattern.split(".")
    out = []
    for i, part in enumerate(parts):
        if part == "**":
            if out:
                # ** consumes the preceding dot as well (zero-or-more parts)
                out[-1] = out[-1].rstrip(r"\.")
                out.append(r"(\..*)?")
            else:
                out.append(r".*")
            continue
        chunk = re.escape(part).replace(r"\*", r"[^.]*")
        if i > 0:
            out.append(r"\." + chunk)
        else:
            out.append(chunk)
    return "^" + "".join(out) + "$"


@dataclass
class RouteSpec:
    """One fan-out route (FIXTURES.md §4)."""

    name: str
    match: str = "**"
    remove_tag_prefix: str = ""
    add_tag_prefix: str = ""
    remove_tag_suffix: str = ""
    add_tag_suffix: str = ""
    skip_adding_null_record: bool = False   # drop rows whose enrich gate fired
    sink: Optional[str] = None              # sink dir (None = no sink)
    sink_format: str = "parquet"            # "parquet" | "json" (ndjson lines,
                                            # the Elasticsearch-shaped consumer
                                            # the reference routes to,
                                            # README.md:93-94,222-223)

    _regex: str = field(init=False, repr=False, default="")

    def __post_init__(self):
        self._regex = tag_pattern_to_regex(self.match)

    # -- vectorized per-batch application ------------------------------------

    def _match(self, tags: pa.Array) -> pa.Array:
        # fast path: "<literal>.**" is prefix-or-exact -- two cheap kernels
        # instead of an RE2 scan
        if self.match.endswith(".**") and not any(
            ch in self.match[:-3] for ch in "*{}[]"
        ):
            literal = self.match[:-3]
            return pc.or_(
                pc.starts_with(tags, pattern=literal + "."),
                pc.equal(tags, literal),
            )
        if self.match == "**":
            return pc.is_valid(tags)
        return pc.match_substring_regex(tags, self._regex)

    def _row_mask(self, batch: pa.Table, codes: pa.Array, tags: pa.Array) -> pa.Array:
        """Match the distinct ``tags``, expand to rows through ``codes``;
        null tags never match."""
        m = pc.fill_null(self._match(tags).take(codes), False)
        if self.skip_adding_null_record and ENRICHED_COL in batch.column_names:
            m = pc.and_(m, pc.fill_null(batch.column(ENRICHED_COL), False))
        return m.combine_chunks() if isinstance(m, pa.ChunkedArray) else m

    def mask(self, batch: pa.Table) -> pa.Array:
        return self._row_mask(batch, *_tag_codes(batch))

    def rewrite_tag(self, tags: pa.Array) -> pa.Array:
        out = tags
        if self.remove_tag_prefix:
            out = pc.replace_substring_regex(
                out, "^" + re.escape(self.remove_tag_prefix), ""
            )
        if self.remove_tag_suffix:
            out = pc.replace_substring_regex(
                out, re.escape(self.remove_tag_suffix) + "$", ""
            )
        pieces = []
        if self.add_tag_prefix:
            pieces.append(pa.scalar(self.add_tag_prefix, type=pa.string()))
        pieces.append(out)
        if self.add_tag_suffix:
            pieces.append(pa.scalar(self.add_tag_suffix, type=pa.string()))
        if len(pieces) > 1:
            out = pc.binary_join_element_wise(*pieces, "")
        return out

    def apply(self, batch: pa.Table, *, tag_codes=None) -> pa.Table:
        """The routed rows of ``batch`` with their tags rewritten.
        ``tag_codes`` is ``_tag_codes(batch)`` when the caller already
        holds it (one encode per block for every route of a fan-out)."""
        codes, tags = tag_codes if tag_codes is not None else _tag_codes(batch)
        m = self._row_mask(batch, codes, tags)
        if m.true_count < batch.num_rows:
            batch, codes = batch.filter(m), codes.filter(m)
        return batch.set_column(
            batch.column_names.index(TAG_COL), TAG_COL,
            self.rewrite_tag(tags).take(codes),
        )


def _tag_codes(batch: pa.Table) -> tuple[pa.Array, pa.Array]:
    """(row -> distinct-tag index, null for null tags; the distinct tags)."""
    tags = batch.column(TAG_COL)
    if isinstance(tags, pa.ChunkedArray):
        tags = tags.combine_chunks()
    enc = pc.dictionary_encode(tags)
    return enc.indices, enc.dictionary


def write_sorted_sink(ds, sink_dir: str, keys=("conv_id", "turn_idx"),
                      min_rows_per_file: int | None = None):
    """Globally-sorted sink: sort on ``keys`` (the range exchange of
    :class:`scan.SortedBlocks`, in the order of :func:`exchange.segments`)
    then parquet.

    FIXTURES.md §5's "sink rows sorted by (conv_id, turn_idx)" as a physical
    layout (the lazily-verified invariant is q_sorted_text).  Every row
    crosses the exchange -- use only when consumers need physically ordered
    files; the byte-identity invariant holds without it under
    sort-on-read."""
    from .scan import SortedBlocks

    out = SortedBlocks(ds, list(keys)).dataset()
    kwargs = {}
    if min_rows_per_file:
        kwargs["min_rows_per_file"] = min_rows_per_file
    out.write_parquet(sink_dir, **kwargs)
    return sink_dir


def route_dataset(ds, route: RouteSpec, batch_size: int = 16384):
    """Lazily-filtered view of one route (recomputes upstream per route --
    fine for tests/queries; the single-pass fan-out writer lives in
    pipelines/flagship.py)."""
    return ds.map_batches(
        route.apply, batch_format="pyarrow", zero_copy_batch=True, batch_size=batch_size
    )
