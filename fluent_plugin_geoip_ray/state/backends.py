"""Geo lookup backends.

The reference supports three backends behind one duck-typed ``lookup`` /
``look_up`` call (``lib/fluent/plugin/filter_geoip.rb:19,44,175-179,204-217``),
each opened ONCE per worker process in ``configure``.  Here a backend is a
:class:`GeoBackend` opened once per Ray actor (in the enrich stage's
``__init__``), the direct analog of "DB loaded once per Fluentd worker".

``lookup`` returns the nested GeoIP2-style document for an IP/host string,
or ``None`` for a miss -- exactly the contract ``geolocate`` consumes
(``filter_geoip.rb:167-185``); it is the single-address API (``dump``).
The enrich stage asks for a whole batch in one ``lookup_paths(addresses,
paths)`` call and gets columns back, not documents: ``found`` (whether each
address has a record) and, per geo path, ``templates.dig`` of each record
along it as a lookup column (see ``templates.value_column``).  The dict and
``.dat`` backends dig their documents, which is the reference semantics;
the ``.mmdb`` backend decodes only those paths, vectorized over the batch.
"""

from __future__ import annotations

from typing import Optional, Protocol

import numpy as np

from ..templates import dig, value_column


class GeoBackend(Protocol):
    def lookup(self, address: str) -> Optional[dict]:
        """Nested geo document for *address*, or None on miss."""
        ...

    def lookup_paths(self, addresses: list[str], paths) -> tuple[np.ndarray, list]:
        """``(found, columns)``: whether each address has a record, and per
        path of ``paths`` the value ``dig`` finds along it (null on a miss)."""
        ...


def dig_paths(docs: list, paths) -> tuple[np.ndarray, list]:
    """``lookup_paths`` over documents (None for a miss)."""
    found = np.array([d is not None for d in docs], dtype=bool)
    return found, [value_column([dig(d, path) for d in docs]) for path in paths]


class DictBackend:
    """In-memory dict-of-nested-docs backend.

    Mirrors the reference's mock database (``test/plugin/test_filter_geoip.rb:
    33-40``) generalized to a full fixture table; the default backend in this
    sandbox (no mmdb blobs, no maxminddb wheel).  Cheap to broadcast: the
    docs dict is a few KB, shipped via ``ray.put`` once and rehydrated in each
    enrich actor.
    """

    def __init__(self, docs: Optional[dict[str, dict]] = None):
        if docs is None:
            from .fixture import fixture_geo_docs

            docs = fixture_geo_docs()
        self._docs = docs

    def lookup(self, address: str) -> Optional[dict]:
        return self._docs.get(address)

    def lookup_paths(self, addresses: list[str], paths) -> tuple[np.ndarray, list]:
        get = self._docs.get
        return dig_paths([get(a) for a in addresses], paths)


class MaxmindBackend:
    """MaxMind binary-trie backend (.mmdb files).

    The production analog of ``GeoIP2::Database.new(path)``
    (``filter_geoip.rb:215``): one reader per actor, opened in ``__init__``.
    Always the bundled reader (:mod:`.mmdb`, written from the public
    MaxMind DB format spec): ``lookup_paths`` is its ``get_paths`` (one
    batched trie descent, then one path-projected walk of the hit records);
    ``lookup`` decodes one whole document.
    """

    def __init__(self, mmdb_path: str):
        from .mmdb import open_database

        self._reader = open_database(mmdb_path)

    def lookup(self, address: str) -> Optional[dict]:
        try:
            return self._reader.get(address)
        except ValueError:
            # invalid IP string -> miss, matching the reference where the C
            # lib returns nil for unresolvable input (test_filter_geoip.rb:189-210)
            return None

    def lookup_paths(self, addresses: list[str], paths) -> tuple[np.ndarray, list]:
        return self._reader.get_paths(addresses, paths)  # invalid -> miss


class LegacyDatBackend:
    """Legacy GeoIP City ``.dat`` backend (``backend_library geoip``,
    ``filter_geoip.rb:204-207`` -> ``GeoIP::City.new(path)``): one reader
    per actor, opened in ``__init__``, returning the flat 9-key legacy doc
    (the GEOIP_KEYS contract) or None on miss -- the same duck-typed shape
    as the flat dict fixture.  Pure-Python reader bundled in
    :mod:`.dat` (written from public knowledge of the EOL format)."""

    def __init__(self, dat_path: str):
        from .dat import DatReader

        self._reader = DatReader(dat_path)

    def lookup(self, address: str) -> Optional[dict]:
        return self._reader.record_by_addr(address)

    def lookup_paths(self, addresses: list[str], paths) -> tuple[np.ndarray, list]:
        return dig_paths([self.lookup(a) for a in addresses], paths)


def make_backend(spec: dict) -> GeoBackend:
    """Backend factory from a config dict:
    {"library": "dict"|"maxmind"|"geoip_dat", ...}.

    Mirrors ``load_database``'s enum dispatch (``filter_geoip.rb:204-217``);
    unknown library -> ConfigError-equivalent ValueError.
    """
    lib = spec.get("library", "dict")
    if lib == "dict":
        return DictBackend(spec.get("docs"))
    if lib == "maxmind":
        return MaxmindBackend(spec["path"])
    if lib == "geoip_dat":
        return LegacyDatBackend(spec["path"])
    raise ValueError(f"unsupported backend_library: {lib!r}")
