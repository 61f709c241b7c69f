"""Vectorized evaluation of compiled template plans over Arrow batches.

The reference rewrites one record at a time (``add_geoip_field``,
``lib/fluent/plugin/filter_geoip.rb:121-139``); here each plan evaluates to
ONE Arrow array per batch, built from per-placeholder arrays:

* passthrough  -> the placeholder array itself (typed; filter_geoip.rb:125-126)
* string template -> ``binary_join_element_wise`` over literal + stringified
  placeholder pieces, nil -> "" (filter_geoip.rb:133-134)
* JSON template -> nested Struct/List arrays assembled bottom-up from the
  typed placeholder arrays -- equivalent by construction to the reference's
  encode-substitute-reparse (filter_geoip.rb:127-132), golden-tested.

The enrich stage evaluates every plan once per joint lookup code (one
"row" per distinct tuple of lookup values in the batch), then expands each
result to rows with one ``take``; so the work per batch is O(distinct key
tuples), not O(rows).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .config import (
    CompiledRecordSpec,
    JsonTemplatePlan,
    PassthroughPlan,
    Placeholder,
    StringTemplatePlan,
)

_ARROW_TYPES = {
    "string": pa.string(),
    "float64": pa.float64(),
    "int64": pa.int64(),
    "bool": pa.bool_(),
}


def arrow_type(dtype: str) -> pa.DataType:
    return _ARROW_TYPES[dtype]


def dig(doc, path: tuple):
    """Ruby ``Hash#dig`` equivalent over nested dict/list docs
    (filter_geoip.rb:193): missing path segment -> None, never an error."""
    cur = doc
    for seg in path:
        if isinstance(cur, dict):
            cur = cur.get(seg)
        elif isinstance(cur, (list, tuple)) and isinstance(seg, int):
            cur = cur[seg] if 0 <= seg < len(cur) else None
        else:
            return None
        if cur is None:
            return None
    return cur


def _to_s(value) -> str:
    """Ruby ``to_s`` for interpolation; pinned to Python ``str`` semantics
    (identical for the str/float/int values GeoIP docs hold)."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float) and value.is_integer():
        return f"{value:.1f}"  # Ruby 37.0.to_s == "37.0" == Python str(37.0)
    return str(value)


# A lookup column holds one geo path's values over records (what a backend's
# ``lookup_paths`` returns): a ``pa.Array`` when the non-null values share
# one kind, else an object ndarray (mixed kinds, maps, lists, ints past
# int64).

_VALUE_TYPES = {str: pa.string(), float: pa.float64(), int: pa.int64(), bool: pa.bool_()}


def value_column(values: list):
    """Python values as a lookup column (str -> string, float -> float64,
    int -> int64, bool -> bool; all None -> null type)."""
    kinds = {type(v) for v in values if v is not None}
    if not kinds:
        return pa.nulls(len(values))
    if len(kinds) == 1 and (kind := kinds.pop()) in _VALUE_TYPES:
        try:
            return pa.array(values, type=_VALUE_TYPES[kind])
        except OverflowError:  # an int past int64
            pass
    return np.fromiter(values, dtype=object, count=len(values))


def column_values(col) -> list:
    """The Python values of a lookup column (None for null)."""
    return col.to_pylist() if isinstance(col, pa.Array) else list(col)


def take_column(col, rows: np.ndarray):
    """``col`` at ``rows``."""
    return col.take(rows) if isinstance(col, pa.Array) else col[rows]


def concat_columns(a, b):
    """Two lookup columns, one after the other."""
    if isinstance(a, pa.Array) and isinstance(b, pa.Array):
        if a.type == pa.null():
            a = a.cast(b.type)
        elif b.type == pa.null():
            b = b.cast(a.type)
        if a.type == b.type:
            return pa.concat_arrays([a, b])
    return value_column(column_values(a) + column_values(b))


class PlaceholderColumns:
    """Placeholder values over ``n`` joint codes.

    ``values[key]`` holds placeholder ``key``'s value per joint code (lat/lon
    already 0.0-coalesced on found records) as a lookup column: a
    ``pa.Array``, or an object ndarray for values of mixed or nested kinds
    (see :func:`value_column`).
    """

    def __init__(self, n: int, placeholders: list[Placeholder], values: dict):
        self.n = n
        self._ph = {p.key: p for p in placeholders}
        self._values = values
        self._typed: dict[str, pa.Array] = {}
        self._strs: dict[str, pa.Array] = {}

    def is_null(self, key: str) -> np.ndarray:
        """Whether each value is nil (the skip gate's test)."""
        col = self._values[key]
        if isinstance(col, pa.Array):
            return col.is_null().to_numpy(zero_copy_only=False)
        return np.fromiter((v is None for v in col), dtype=bool, count=len(col))

    def typed_array(self, key: str) -> pa.Array:
        """The values as the placeholder's declared dtype; NaN is null.
        Raises ValueError when a value does not fit the dtype."""
        if key not in self._typed:
            ph = self._ph[key]
            col, want = self._values[key], arrow_type(ph.dtype)
            if isinstance(col, pa.Array) and col.type in (want, pa.null()):
                arr = col.cast(want)
                if pa.types.is_floating(want):
                    arr = pc.if_else(pc.is_nan(arr), pa.scalar(None, want), arr)
            else:
                arr = _typed(ph, column_values(col), want)
            self._typed[key] = arr
        return self._typed[key]

    def string_array(self, key: str) -> pa.Array:
        """Placeholder values stringified (for interpolation).
        nil -> "" (gsub hash semantics, filter_geoip.rb:133-134)."""
        if key not in self._strs:
            self._strs[key] = pc.fill_null(self.string_array_nullsafe(key), "")
        return self._strs[key]

    def string_array_nullsafe(self, key: str) -> pa.Array:
        """Like string_array but nil stays null (for the mixed-type JSON
        array schema closure, where JSON null must survive as list null)."""
        col = self._values[key]
        if isinstance(col, pa.Array):
            if col.type in (pa.string(), pa.null()):
                return col.cast(pa.string())
            # format the non-null values only
            valid = col.is_valid()
            vals = col.filter(valid).to_numpy(zero_copy_only=False).tolist()
            valid = valid.to_numpy(zero_copy_only=False)
            at = np.where(valid, np.cumsum(valid) - 1, -1)
            strs = pa.array([_to_s(v) for v in vals], type=pa.string())
            return strs.take(pa.array(at, mask=~valid))
        svals = [None if v is None else _to_s(v) for v in col]
        return pa.array(svals, type=pa.string())


def _typed(ph: Placeholder, values: list, want: pa.DataType) -> pa.Array:
    try:
        return pa.array(values, type=want, from_pandas=True)
    except (pa.ArrowInvalid, pa.ArrowTypeError, OverflowError) as err:
        bad = next((v for v in values if not _fits(v, want)), None)
        raise ValueError(
            f"placeholder {ph.key}: a value of type {type(bad).__name__} does not "
            f"fit its dtype {ph.dtype!r}; declare the type with "
            f"placeholder_types={{{ph.key!r}: ...}} or interpolate it in a string template"
        ) from err


def _fits(value, want: pa.DataType) -> bool:
    try:
        pa.array([value], type=want, from_pandas=True)
    except (pa.ArrowInvalid, pa.ArrowTypeError, OverflowError):
        return False
    return True


def _const_array(value, n: int) -> pa.Array:
    if value is None:
        return pa.nulls(n)
    if isinstance(value, bool):
        t = pa.bool_()
    elif isinstance(value, int):
        t = pa.int64()
    elif isinstance(value, float):
        t = pa.float64()
    else:
        t = pa.string()
    return pa.array(np.repeat(np.asarray([value]), n), type=t)


def _eval_skeleton(node: tuple, cols: PlaceholderColumns) -> pa.Array:
    kind = node[0]
    n = cols.n
    if kind == "ref":
        return cols.typed_array(node[1])
    if kind == "const":
        return _const_array(node[1], n)
    if kind == "obj":
        names = [name for name, _ in node[1]]
        children = [_eval_skeleton(child, cols) for _, child in node[1]]
        return pa.StructArray.from_arrays(children, names)
    if kind == "arr":
        children = [_eval_skeleton(child, cols) for child in node[1]]
        k = len(children)
        if k == 0:
            return pa.ListArray.from_arrays(
                np.zeros(n + 1, dtype=np.int32), pa.array([], type=pa.null())
            )
        types = {c.type for c in children}
        if len(types) > 1:
            # SCHEMA CLOSURE (SURVEY §1.2): the reference can emit
            # heterogeneous JSON arrays (e.g. ["Mountain View", 37.41]);
            # Arrow lists need one element type, so mixed-type array
            # templates close to list<string> with elements stringified by
            # the same _to_s used for string templates (nulls stay null).
            children = [
                cols.string_array_nullsafe(child[1]) if child[0] == "ref"
                else (c if pa.types.is_string(c.type) else c.cast(pa.string()))
                for child, c in zip(node[1], children)
            ]
        # interleave child columns row-wise: concat + strided take
        values = pa.concat_arrays([pa.array(c, from_pandas=True) if not isinstance(c, pa.Array) else c for c in children])
        idx = (np.arange(k, dtype=np.int64)[None, :] * n + np.arange(n, dtype=np.int64)[:, None]).ravel()
        interleaved = values.take(pa.array(idx))
        offsets = np.arange(0, (n + 1) * k, k, dtype=np.int64)
        return pa.LargeListArray.from_arrays(offsets, interleaved).cast(
            pa.list_(interleaved.type)
        )
    raise AssertionError(f"unknown skeleton node {kind}")


def evaluate_plan(plan, cols: PlaceholderColumns) -> pa.Array:
    if isinstance(plan, PassthroughPlan):
        return cols.typed_array(plan.placeholder)
    if isinstance(plan, StringTemplatePlan):
        pieces: list = []
        for part in plan.parts:
            if part[0] == "lit":
                pieces.append(pa.array(np.repeat(np.asarray([part[1]]), cols.n), type=pa.string()))
            elif part[0] == "ph":
                pieces.append(cols.string_array(part[1]))
            # "dropped": quoted placeholder -> "" -> contributes nothing
        if not pieces:
            return pa.array(np.repeat(np.asarray([""]), cols.n), type=pa.string())
        if len(pieces) == 1:
            return pieces[0]
        return pc.binary_join_element_wise(*pieces, "")
    if isinstance(plan, JsonTemplatePlan):
        return _eval_skeleton(plan.skeleton, cols)
    raise AssertionError(f"unknown plan {plan!r}")


def output_schema(spec: CompiledRecordSpec) -> list[tuple[str, pa.DataType]]:
    """Declared Arrow types of the enrich columns, computable at config time
    (closing the reference's dynamic-schema degrees of freedom, SURVEY §1.2)."""

    def _node_type(node) -> pa.DataType:
        kind = node[0]
        if kind == "ref":
            return arrow_type(spec.placeholder_by_key[node[1]].dtype)
        if kind == "const":
            v = node[1]
            if v is None:
                return pa.null()
            if isinstance(v, bool):
                return pa.bool_()
            if isinstance(v, int):
                return pa.int64()
            if isinstance(v, float):
                return pa.float64()
            return pa.string()
        if kind == "obj":
            return pa.struct([(nm, _node_type(ch)) for nm, ch in node[1]])
        if kind == "arr":
            child_types = {_node_type(ch) for ch in node[1]}
            t = child_types.pop() if len(child_types) == 1 else pa.string()
            return pa.list_(t)
        raise AssertionError(kind)

    out = []
    for name, plan in spec.plans.items():
        if isinstance(plan, PassthroughPlan):
            out.append((name, arrow_type(spec.placeholder_by_key[plan.placeholder].dtype)))
        elif isinstance(plan, StringTemplatePlan):
            out.append((name, pa.string()))
        else:
            out.append((name, _node_type(plan.skeleton)))
    return out
