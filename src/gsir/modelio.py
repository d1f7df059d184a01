"""The file formats: strict JSON values, saved models, and CSV files.

Config and model documents are strict JSON: each value is read by a
converter that maps (JSON value, field name) to a typed value or raises a
ConfigError naming the field.  There is one writer per format: `write_csv`
writes every CSV file a line per row, ending each in a bare newline, and
`save_fit` writes a model a piece per array row (`fit_to_json` joins the
same pieces).  Floats are written with 17 significant digits, which
round-trips IEEE doubles exactly, so save -> load -> predict reproduces
predictions bit-for-bit; `write_csv` refuses a NaN or infinite cell.
"""

import json
import math
import os
import sys

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
# writing: one number format for JSON and CSV
# --------------------------------------------------------------------------

def _cell(value):
    """A float with 17 significant digits (NumericalError unless finite), or str()."""
    if isinstance(value, float) and not math.isfinite(value):
        raise NumericalError(f"a cell to write is {value}; only finite values are written")
    return format(value, ".17g") if isinstance(value, float) else str(value)


def write_csv(path, header, rows):
    """Write a header and rows of cells (or a 2-d array) to path as CSV, one
    newline-ended line each, unquoted (no cell the program writes needs it);
    a NaN or infinite cell raises NumericalError and leaves no file."""
    try:
        with open(path, "w", newline="") as fh:
            fh.write(",".join(header) + "\n")
            for row in map(np.ndarray.tolist, rows) if isinstance(rows, np.ndarray) else rows:
                fh.write(",".join(map(_cell, row)) + "\n")
    except NumericalError:
        os.remove(path)
        raise


# --------------------------------------------------------------------------
# fitted models
# --------------------------------------------------------------------------

def _model_text(fit):
    """A model's JSON text in pieces: the scalar fields, then one piece per
    row of train_points and coefficients, then the eigenvalues."""
    def floats(row):
        return "[" + ",".join(["%.17g" % v for v in row.tolist()]) + "]"

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
    with open(path, "w") as fh:
        fh.writelines(_model_text(fit))
        fh.write("\n")


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
    with open(path) as fh:
        return fit_from_json(fh.read())
