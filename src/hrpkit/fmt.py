"""Deterministic text rendering for reports.

Every real-valued number in CSV/JSON output goes through :func:`fmt_real`
(fixed six fractional digits) so repeated runs diff cleanly. The JSON
renderer keeps dict insertion order; report builders construct dicts in
their documented field order.
"""

from __future__ import annotations

from typing import Any

try:  # the quoting json.dumps gives a str, without importing json
    from _json import encode_basestring_ascii as _quote
except ImportError:  # no C accelerator
    from json.encoder import encode_basestring_ascii as _quote


def fmt_real(value: float) -> str:
    """Fixed-point rendering with six fractional digits."""
    return f"{value:.6f}"


def render_json(obj: Any, indent: int = 0) -> str:
    """Render a report object as JSON with fixed-decimal reals.

    Supports None, bool, int, float, str, list/tuple, and str-keyed dicts.
    """
    pad = "  " * indent
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return fmt_real(obj)
    if isinstance(obj, str):
        return _quote(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = ",\n".join(f"{pad}  {render_json(item, indent + 1)}" for item in obj)
        return f"[\n{items}\n{pad}]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f"{pad}  {_quote(str(key))}: {render_json(value, indent + 1)}"
            for key, value in obj.items()
        )
        return f"{{\n{items}\n{pad}}}"
    raise TypeError(f"cannot render {type(obj).__name__} as report JSON")


def write_json_report(obj: Any, out) -> None:
    """Write a report object as JSON with a trailing newline."""
    out.write(render_json(obj))
    out.write("\n")
