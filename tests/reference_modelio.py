"""Reference file writers for the tests.

`reference_csv_text` writes CSV through `csv.writer`, one `_cell` per value
(a float with 17 significant digits, NaN and the infinities included, or
`str`), and `reference_emit` serializes a JSON document by one recursive
call per value; `reference_fit_to_json` emits a model's document with it, fields in
the order of `gsir.modelio.FORMAT_VERSION` 1.  They are the whole-text
writers that `gsir.modelio.write_csv` (a line per row) and `save_fit` (a
piece per array row) replace, and the tests hold those to the same bytes.
"""

import csv
import io
import json

import numpy as np


def _cell(value):
    return format(value, ".17g") if isinstance(value, float) else str(value)


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


def reference_fit_to_json(fit):
    return reference_emit({
        "version": 1,
        "variant": fit.variant,
        "kernel_x": {"family": fit.kernel_x.family, "gamma": float(fit.kernel_x.gamma)},
        "kernel_y": {"family": fit.kernel_y.family, "gamma": float(fit.kernel_y.gamma)},
        "epsilon": float(fit.epsilon),
        "d": int(fit.d),
        "train_points": np.asarray(fit.train_points, dtype=float).tolist(),
        "coefficients": np.asarray(fit.coefficients, dtype=float).tolist(),
        "eigenvalues": np.asarray(fit.eigenvalues, dtype=float).tolist(),
    })
