"""Layout helpers for the template JSON writers of ``cuboid.to_json`` and
``polygon.to_json``.

Both schemas are fixed, so the writers fill format strings instead of
calling ``json.dumps``.  The layout is exactly that of
``json.dumps(data, sort_keys=True, separators=(",", ": "), indent=2)``:
keys in sorted order, every scalar of an array on its own line two spaces
deeper than the bracket that opens it, and an empty array written as ``[]``.
No string the writers emit needs escaping: each is a decimal rational
built from ints, ``oo`` or a side kind from a fixed set.
"""

from __future__ import annotations


def int_array(values, pad: str) -> str:
    """A JSON array of ints whose opening bracket sits at indent ``pad``."""
    if not values:
        return "[]"
    inner = "\n" + pad + "  "
    return "[" + inner + ("," + inner).join(map(str, values)) + "\n" + pad + "]"


def extend_array(parts: list[str], items, pad: str) -> None:
    """Append to ``parts`` a JSON array of already formatted items whose
    opening bracket sits at indent ``pad``."""
    inner = "\n" + pad + "  "
    sep = "," + inner
    start = len(parts)
    for item in items:
        parts += (sep, item)
    if len(parts) == start:
        parts.append("[]")
        return
    parts[start] = "[" + inner
    parts.append("\n" + pad + "]")
