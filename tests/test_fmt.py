"""The report renderer against the json.dumps-based renderer it replaced."""

from __future__ import annotations

import json

from hypothesis import example, given, strategies as st

from hrpkit.fmt import fmt_real, render_json


def reference_render_json(obj, indent: int = 0) -> str:
    """fmt.render_json as it was when it quoted every string with json.dumps: the oracle."""
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
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = ",\n".join(f"{pad}  {reference_render_json(item, indent + 1)}" for item in obj)
        return f"[\n{items}\n{pad}]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f"{pad}  {json.dumps(str(key))}: {reference_render_json(value, indent + 1)}"
            for key, value in obj.items()
        )
        return f"{{\n{items}\n{pad}}}"
    raise TypeError(f"cannot render {type(obj).__name__} as report JSON")


# Any code point, lone surrogates and control characters included.
texts = st.text(st.characters(exclude_categories=())) | st.text(st.sampled_from("\0\x1f\x7f\"\\/\u2028\xe9\U0001d11e"))
reports = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | texts,
    lambda children: st.lists(children, max_size=4) | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(texts, children, max_size=4),
    max_leaves=20,
)


@given(reports)
@example({"\ud800": ["\udfff\x00", "a b", "é☃\U0001d11e"], "\x1f\"\\": [[], {}, (), 0.5, None]})
def test_render_json_gives_the_bytes_json_dumps_gave(report):
    assert render_json(report) == reference_render_json(report)
