"""Reference file writers for the tests.

`reference_csv_text` writes CSV through `csv.writer`, one `_cell` per value,
and `reference_emit` serializes a JSON document by one recursive call per
value.  They are the writers `gsir.modelio.csv_text` and `_emit` replace,
which write a row at a time, and the tests hold those to the same bytes.
"""

import csv
import io
import json

from gsir.modelio import _cell


def reference_csv_text(header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_cell(v) for v in row] for row in rows)
    return buf.getvalue()


def reference_emit(obj):
    if isinstance(obj, dict):
        return ("{" + ",".join(f"{json.dumps(k)}:{reference_emit(v)}"
                               for k, v in obj.items()) + "}")
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(reference_emit(v) for v in obj) + "]"
    if isinstance(obj, (bool, str)) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, (float, int)):
        return _cell(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")
