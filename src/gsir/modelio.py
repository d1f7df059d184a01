"""JSON persistence for fitted models.

Floats are written with 17 significant digits, which round-trips IEEE
doubles exactly, so save -> load -> predict reproduces predictions
bit-for-bit.
"""

import json
import sys

import numpy as np

from .estimator import GsirFit, VARIANTS
from .kernels import KernelSpec

FORMAT_VERSION = 1


def _emit(obj):
    if isinstance(obj, dict):
        return "{" + ",".join(f"{json.dumps(k)}:{_emit(v)}" for k, v in obj.items()) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_emit(v) for v in obj) + "]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, float):
        return format(obj, ".17g")
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _matrix(a):
    return [[float(v) for v in row] for row in np.asarray(a, dtype=float)]


def fit_to_json(fit):
    """Serialize a fitted model to a JSON string."""
    doc = {
        "version": FORMAT_VERSION,
        "variant": fit.variant,
        "kernel_x": {"family": fit.kernel_x.family, "gamma": float(fit.kernel_x.gamma)},
        "kernel_y": {"family": fit.kernel_y.family, "gamma": float(fit.kernel_y.gamma)},
        "epsilon": float(fit.epsilon),
        "d": int(fit.d),
        "train_points": _matrix(fit.train_points),
        "coefficients": _matrix(fit.coefficients),
        "eigenvalues": [float(v) for v in fit.eigenvalues],
    }
    return _emit(doc)


def save_fit(fit, path):
    with open(path, "w") as fh:
        fh.write(fit_to_json(fit))
        fh.write("\n")


def _number(value, name):
    # The bound is false for NaN, infinities and integers beyond float range.
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not abs(value) <= sys.float_info.max):
        raise ValueError(f"field {name!r} must be a finite number, got {value!r}")
    return float(value)


def _kernel(spec, name):
    # KernelSpec rejects a family that is not one of the known names.
    if not isinstance(spec, dict):
        raise ValueError(f"field {name!r} must be an object, got {spec!r}")
    return KernelSpec(spec.get("family"), _number(spec.get("gamma"), f"{name}.gamma"))


def _finite_array(value, name, ndim):
    # json reads NaN and Infinity, and a model holding them predicts NaN.
    try:
        arr = np.asarray(value)
    except ValueError as exc:
        raise ValueError(f"field {name!r} is not a rectangular array") from exc
    if (arr.ndim != ndim or arr.dtype.kind not in "iuf"
            or not np.all(np.isfinite(arr))):
        raise ValueError(f"field {name!r} must be a {ndim}-d array of finite numbers")
    return arr.astype(float)


def fit_from_json(text):
    """Rebuild a GsirFit from its JSON form."""
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError("model document must be a JSON object")
    version = doc.get("version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported model version {version!r}; "
                         f"expected {FORMAT_VERSION}")
    required = {"version", "variant", "kernel_x", "kernel_y", "epsilon", "d",
                "train_points", "coefficients", "eigenvalues"}
    missing = required - doc.keys()
    if missing:
        raise ValueError(f"model document is missing fields: {sorted(missing)}")
    unknown = doc.keys() - required
    if unknown:
        raise ValueError(f"model document has unknown fields: {sorted(unknown)}")
    if doc["variant"] not in VARIANTS:
        raise ValueError(f"unknown variant {doc['variant']!r}")
    kx = _kernel(doc["kernel_x"], "kernel_x")
    ky = _kernel(doc["kernel_y"], "kernel_y")
    d = doc["d"]
    if isinstance(d, bool) or not isinstance(d, int) or d < 1:
        raise ValueError(f"field 'd' must be a positive integer, got {d!r}")
    train = _finite_array(doc["train_points"], "train_points", 2)
    coef = _finite_array(doc["coefficients"], "coefficients", 2)
    eig = _finite_array(doc["eigenvalues"], "eigenvalues", 1)
    if coef.shape != (train.shape[0], d) or eig.shape != (d,):
        raise ValueError(f"inconsistent shapes: train {train.shape}, "
                         f"coefficients {coef.shape}, eigenvalues {eig.shape}, d={d}")
    return GsirFit(variant=doc["variant"], train_points=train, kernel_x=kx,
                   kernel_y=ky, epsilon=_number(doc["epsilon"], "epsilon"), d=d,
                   coefficients=coef, eigenvalues=eig, warnings=())


def load_fit(path):
    with open(path) as fh:
        return fit_from_json(fh.read())
