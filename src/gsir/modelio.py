"""The file formats, and the one module that opens a file.

Config and model documents are strict JSON: each value is read by a
converter that maps (JSON value, field name) to a typed value or raises a
ConfigError naming the field.  Data files are CSV with `x`/`x_1..x_p` and
`y`/`y_1..y_q` columns.  Every file is read as UTF-8, a BOM skipped, and
written through one path: `write_csv` writes every CSV file a line per row,
`save_fit` a model a piece per array row.  Every float is written by `_cell`
with 17 significant digits, which round-trips IEEE doubles exactly, so save
-> load -> predict reproduces predictions bit-for-bit; a NaN or infinite
value raises NumericalError and leaves no file.
"""

import csv
import json
import math
import os
import re
import sys
from itertools import chain

import numpy as np

from .linalg import NumericalError
from .rates import VARIANTS

FORMAT_VERSION = 1


class ConfigError(ValueError):
    """A config or model document is malformed; messages name the field."""


# --------------------------------------------------------------------------
# JSON value converters
# --------------------------------------------------------------------------

def _require(doc, key, where):
    if key not in doc:
        raise ConfigError(f"missing required field {key!r} in {where}")
    return doc[key]


def _reject_unknown(doc, allowed, where):
    unknown = sorted(set(doc) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown field(s) {unknown} in {where}; "
                          f"allowed: {sorted(allowed)}")


def _as_int(value, name, minimum=None):
    if type(value) is not int or not abs(value) <= sys.float_info.max:
        raise ConfigError(f"field {name!r} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"field {name!r} must be >= {minimum}, got {value}")
    return value


def _as_real(value, name, positive=False):
    # The bound is false for NaN, infinities and integers beyond float range.
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not abs(value) <= sys.float_info.max):
        raise ConfigError(f"field {name!r} must be a finite number, got {value!r}")
    if positive and not value > 0:
        raise ConfigError(f"field {name!r} must be positive, got {value}")
    return float(value)


def _as_text(value, name):
    if not isinstance(value, str):
        raise ConfigError(f"field {name!r} must be a string, got {value!r}")
    return value


def _one_of(choices):
    def convert(value, name):
        if value not in choices:
            raise ConfigError(f"field {name!r} must be one of {choices}, "
                              f"got {value!r}")
        return value
    return convert


def _as_kernel(doc, name):
    """(family, gamma) of a kernel section; gamma is 'median' when left out."""
    from .kernels import FAMILIES
    if not isinstance(doc, dict):
        raise ConfigError(f"field {name!r} must be an object, got {doc!r}")
    _reject_unknown(doc, ("family", "gamma"), name)
    family = _one_of(FAMILIES)(_require(doc, "family", name), f"{name}.family")
    gamma = doc.get("gamma", "median")
    if gamma != "median":
        gamma = _as_real(gamma, f"{name}.gamma", positive=True)
    return (family, gamma)


# --------------------------------------------------------------------------
# reading and writing files
# --------------------------------------------------------------------------

def _load_json(path):
    try:
        with open(path, encoding="utf-8-sig") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:   # bad JSON or UTF-8, huge ints, nesting
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc


def _cell(value):
    """A float with 17 significant digits (NumericalError unless finite), or str()."""
    if isinstance(value, float) and not math.isfinite(value):
        raise NumericalError(f"a cell to write is {value}; only finite values are written")
    return format(value, ".17g") if isinstance(value, float) else str(value)


def _write(path, pieces):
    """Write text pieces to path as they come; a NumericalError leaves no file."""
    try:
        with open(path, "w", newline="") as fh:
            fh.writelines(pieces)
    except NumericalError:
        os.remove(path)
        raise


def write_csv(path, header, rows):
    """Write a header and rows of cells (or a 2-d array) to path as CSV, one
    newline-ended line each, unquoted (no cell the program writes needs it)."""
    rows = map(np.ndarray.tolist, rows) if isinstance(rows, np.ndarray) else rows
    _write(path, (",".join(map(_cell, row)) + "\n" for row in chain([header], rows)))


def _columns(header, prefix, path):
    """Indices of the prefix columns, in order: a lone prefix, or prefix_1..
    prefix_k in any order; each name once, never both forms.  The lone name
    is column 0 in the message."""
    cols = sorted((int(m[1] or 0), idx) for idx, m in enumerate(
        re.fullmatch(rf"{prefix}(?:_(\d+))?", name) for name in header) if m)
    found = [j for j, _ in cols]
    if not found:
        raise ConfigError(f"data file {path} has no {prefix} or {prefix}_1.. columns")
    lone = [header[i] for _, i in cols] == [prefix]
    if not lone and found != list(range(1, len(found) + 1)):
        raise ConfigError(f"data file {path} has non-contiguous {prefix}_* "
                          f"columns: {found}")
    return [idx for _, idx in cols]


def read_points_csv(path, need_response):
    """Read x_1..x_p (and y columns when fitting) from a CSV file as C-contiguous
    arrays, in one pass that parses each needed cell with float() into one buffer."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header, first = next(reader, None), next(reader, None)
            if first is None:
                raise ConfigError(f"data file {path} needs a header row and data rows")
            blocks = [_columns(header, c, path) for c in "xy"[:1 + need_response]]
            idxs = [i for block in blocks for i in block]

            def cells():
                for rows in ([first], reader):
                    for row in rows:
                        if len(row) != len(header):
                            raise ValueError(f"line {reader.line_num} has {len(row)} "
                                             f"cells, the header has {len(header)}")
                        yield from (float(row[i]) for i in idxs)
            flat = np.fromiter(cells(), float)
    except OSError as exc:
        raise ConfigError(f"cannot read data file {path}: {exc}") from exc
    except ConfigError:
        raise
    except (ValueError, csv.Error) as exc:    # a cell, a row's width, csv's field limit
        raise ConfigError(f"data file {path} has malformed rows: {exc}") from exc
    if not np.all(np.isfinite(flat)):
        raise ConfigError(f"data file {path} contains NaN or infinite values")
    x, y = np.hsplit(flat.reshape(-1, len(idxs)), [len(blocks[0])])
    return np.ascontiguousarray(x), np.ascontiguousarray(y) if need_response else None


def write_dataset_csv(path, x, y, f):
    """Write one dataset as CSV: x_1..x_p, then y (or y_1..y_q), then f_1..f_d."""
    x, y, f = (np.asarray(a, dtype=float).reshape(len(x), -1) for a in (x, y, f))
    header = [f"x_{j + 1}" for j in range(x.shape[1])]
    header += ["y"] if y.shape[1] == 1 else [f"y_{j + 1}" for j in range(y.shape[1])]
    header += [f"f_{j + 1}" for j in range(f.shape[1])]
    write_csv(path, header, np.column_stack([x, y, f]))


# --------------------------------------------------------------------------
# fitted models
# --------------------------------------------------------------------------

def _model_text(fit):
    """A model's JSON text in pieces: the scalar fields, then one piece per
    row of train_points and coefficients, then the eigenvalues."""
    def floats(row):
        return "[" + ",".join(map(_cell, row.tolist())) + "]"

    def kernel(spec):
        return f'{{"family":{json.dumps(spec.family)},"gamma":{_cell(float(spec.gamma))}}}'
    yield (f'{{"version":{FORMAT_VERSION},"variant":{json.dumps(fit.variant)},'
           f'"kernel_x":{kernel(fit.kernel_x)},"kernel_y":{kernel(fit.kernel_y)},'
           f'"epsilon":{_cell(float(fit.epsilon))},"d":{int(fit.d)}')
    for key in ("train_points", "coefficients"):
        yield f',"{key}":['
        for i, row in enumerate(np.asarray(getattr(fit, key), dtype=float)):
            yield "," * (i > 0) + floats(row)
        yield "]"
    yield f',"eigenvalues":{floats(np.asarray(fit.eigenvalues, dtype=float))}}}'


def fit_to_json(fit):
    """Serialize a fitted model to a JSON string."""
    return "".join(_model_text(fit))


def save_fit(fit, path):
    """Write a model's JSON text to path a piece at a time, and a newline."""
    _write(path, chain(_model_text(fit), ["\n"]))


def _finite_array(value, name, ndim):
    # json reads NaN and Infinity, and numpy reads true among numbers as 1.
    try:
        arr = np.asarray(value)
    except ValueError as exc:
        raise ValueError(f"field {name!r} is not a rectangular array") from exc
    if (arr.ndim != ndim or arr.dtype.kind not in "iuf"
            or bool in set(map(type, np.asarray(value, dtype=object).flat))
            or not np.all(np.isfinite(arr))):
        raise ValueError(f"field {name!r} must be a {ndim}-d array of finite numbers")
    return arr.astype(float)


def fit_from_json(text):
    """Rebuild a GsirFit from its JSON form; ConfigError names a bad field."""
    from .estimator import GsirFit, KernelSpec
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ConfigError("model document must be a JSON object")
    where = "model document"
    _reject_unknown(doc, ("version", "variant", "kernel_x", "kernel_y", "epsilon",
                          "d", "train_points", "coefficients", "eigenvalues"), where)
    version = _require(doc, "version", where)
    if type(version) is not int or version != FORMAT_VERSION:
        raise ConfigError(f"unsupported model version {version!r}; "
                          f"expected {FORMAT_VERSION}")
    variant = _one_of(VARIANTS)(_require(doc, "variant", where), "variant")
    kernels = []
    for name in ("kernel_x", "kernel_y"):
        # A model holds the gamma it was fitted with, never "median".
        family, gamma = _as_kernel(_require(doc, name, where), name)
        kernels.append(KernelSpec(family, _as_real(gamma, f"{name}.gamma",
                                                   positive=True)))
    epsilon = _as_real(_require(doc, "epsilon", where), "epsilon", positive=True)
    d = _as_int(_require(doc, "d", where), "d", minimum=1)
    train = _finite_array(_require(doc, "train_points", where), "train_points", 2)
    coef = _finite_array(_require(doc, "coefficients", where), "coefficients", 2)
    eig = _finite_array(_require(doc, "eigenvalues", where), "eigenvalues", 1)
    if coef.shape != (train.shape[0], d) or eig.shape != (d,):
        raise ValueError(f"inconsistent shapes: train {train.shape}, "
                         f"coefficients {coef.shape}, eigenvalues {eig.shape}, d={d}")
    return GsirFit(variant=variant, train_points=train, kernel_x=kernels[0],
                   kernel_y=kernels[1], epsilon=epsilon, d=d,
                   coefficients=coef, eigenvalues=eig, warnings=())


def load_fit(path):
    with open(path, encoding="utf-8-sig") as fh:
        return fit_from_json(fh.read())
