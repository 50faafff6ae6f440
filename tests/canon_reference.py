"""Reference canonical JSON writer: one isinstance chain per value.

This is ``orbitnf.cli.canonical_json`` as the package wrote it before the
writer dispatched on the exact type of a value and cached the quoted keys,
with one ``json.dumps`` per key and string.  The tests require the package
to write the same text and raise the same errors.
"""

import json
import math

import numpy as np


def _fmt_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise ValueError("non-finite value in report payload")
    if x == 0.0:
        return "0"
    return f"{x:.17g}"


def canon_reference(obj, pad: str = "") -> str:
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=True)
    inner_pad = pad + "  "
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        body = ",\n".join(inner_pad + canon_reference(v, inner_pad) for v in obj)
        return "[\n" + body + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for key in obj:
            if not isinstance(key, (str, int)):
                raise ValueError(f"cannot use {type(key).__name__} as object key")
            items.append((str(key), obj[key]))
        items.sort(key=lambda kv: kv[0])
        body = ",\n".join(
            f"{inner_pad}{json.dumps(k)}: " + canon_reference(v, inner_pad)
            for k, v in items)
        return "{\n" + body + "\n" + pad + "}"
    raise ValueError(f"cannot serialize {type(obj).__name__} in report payload")
