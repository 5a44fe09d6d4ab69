"""The two-walker JSON writer, kept as the reference that ``eqdist.cli``'s
single ``render_json`` walker must match byte for byte.

``render_json`` writes one container item per line; ``_inline`` writes one
line and serves the csv and text formats through ``_scalar``.
"""

import csv
import io
import json
import math

HUGE_INT = 10 ** 4000

def _fmt_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        return json.dumps(str(x))
    s = format(x, ".17g")
    if "." not in s and "e" not in s and "E" not in s:
        s += ".0"
    return s


def render_json(obj, indent: int = 0) -> str:
    pad, pad1 = " " * indent, " " * (indent + 2)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = (f"{pad1}{json.dumps(str(k))}: {render_json(v, indent + 2)}"
                 for k, v in obj.items())
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = (f"{pad1}{render_json(v, indent + 2)}" for v in obj)
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool) or obj is None or isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, int):
        if obj >= HUGE_INT:
            return render_json({"log2": math.log2(obj)}, indent)
        return json.dumps(obj)
    if isinstance(obj, float):
        return _fmt_float(obj)
    raise TypeError(f"cannot serialize {type(obj)}")


def _inline(obj) -> str:
    """obj as one line of JSON, its numbers written as render_json writes them."""
    if isinstance(obj, dict):
        return "{" + ", ".join(f"{json.dumps(str(k))}: {_inline(v)}" for k, v in obj.items()) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_inline(v) for v in obj) + "]"
    if isinstance(obj, int) and obj >= HUGE_INT:
        return _inline({"log2": math.log2(obj)})
    return render_json(obj)


def _scalar(v) -> str:
    if isinstance(v, float):
        return format(v, ".17g")
    if isinstance(v, (dict, list, tuple)) or (isinstance(v, int) and v >= HUGE_INT):
        return _inline(v)
    return str(v)


def render_csv(obj) -> str:
    out = io.StringIO()
    w = csv.writer(out, lineterminator="\n")
    if isinstance(obj, list):
        fields = list(dict.fromkeys(k for row in obj for k in row))  # in first-seen order
        w.writerow(fields)
        for row in obj:
            w.writerow([_scalar(row[k]) if k in row else "" for k in fields])
    else:
        w.writerow(["key", "value"])
        for k, v in obj.items():
            w.writerow([k, _scalar(v)])
    return out.getvalue()


def render_text(obj) -> str:
    if isinstance(obj, list):
        return "\n\n".join(render_text(row) for row in obj)
    return "\n".join(f"{k}: {_scalar(v)}" for k, v in obj.items())

