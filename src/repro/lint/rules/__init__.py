"""Rule modules; importing this package registers every checker."""

from . import det, flow, schema, site, unit, wear

__all__ = ["det", "flow", "schema", "site", "unit", "wear"]
