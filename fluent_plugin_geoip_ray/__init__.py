"""fluent_plugin_geoip_ray — a Ray-Data-native enrich-and-route engine.

Brand-new implementation of the query/data-processing capabilities of
y-ken/fluent-plugin-geoip (reference at /root/reference, v1.3.2) re-expressed
as streaming Ray Data pipelines over Parquet transcript tables:
parse (vectorized regex extraction) -> enrich (GeoIP lookup, task pool) ->
route (tag-remap fan-out to Parquet sinks) -> aggregate (per-sink counts),
plus the large-scale training-data operators (dedup, similarity search,
text analysis, multimodal stubs).

NOTE: nothing in this package calls ray.init()/ray.shutdown(); sessions are
owned by bench.py / the test fixture / the driver.
"""

from .config import (  # noqa: F401
    ConfigError,
    RecordSpec,
    compile_record_spec,
)

__version__ = "0.1.0"
