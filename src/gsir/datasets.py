"""Synthetic regression designs with known sufficient predictors.

Each model draws X with iid standard-normal coordinates truncated to
[-3, 3] and builds Y from one or two known functions of the first
coordinates, so recovery experiments can score fitted predictors against
the truth at any point set.
"""

import numpy as np
from dataclasses import dataclass
from scipy.special import ndtr, ndtri

from .modelio import csv_text

# model name -> number of generating predictors
MODEL_DIMS = {"m1_ratio": 1, "m2_additive": 2, "m3_symmetric": 1}


@dataclass(frozen=True)
class SyntheticModel:
    """A named design: response rule, ambient dimension, noise level.

    m1_ratio     : y = sin(x_1) + sigma e          (monotone-free single index)
    m2_additive  : y = exp(x_1) + sign(x_2) x_2^2 + sigma e   (two indices)
    m3_symmetric : y = (x_1^2 - 1) + sigma e       (symmetric, defeats linear SIR)
    """

    name: str
    p: int
    sigma_noise: float

    def __post_init__(self):
        key = self.name.lower()
        if key not in MODEL_DIMS:
            raise ValueError(f"unknown model {self.name!r}; expected one of "
                             f"{sorted(MODEL_DIMS)}")
        object.__setattr__(self, "name", key)
        if self.p < MODEL_DIMS[key]:
            raise ValueError(f"{key} needs p >= {MODEL_DIMS[key]}, got p={self.p}")
        if self.sigma_noise < 0:
            raise ValueError(f"sigma_noise must be nonnegative, got {self.sigma_noise}")

    @property
    def d_true(self):
        return MODEL_DIMS[self.name]


def true_predictors(model, x):
    """Evaluate the generating functions at given points; shape (n, d_true).

    Depends only on the first d_true coordinates of x by construction.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if x.shape[1] < model.d_true:
        raise ValueError(f"points have {x.shape[1]} coordinates; model "
                         f"{model.name} needs at least {model.d_true}")
    if model.name == "m1_ratio":
        return np.sin(x[:, :1])
    if model.name == "m2_additive":
        return np.column_stack([np.exp(x[:, 0]), np.sign(x[:, 1]) * x[:, 1] ** 2])
    return x[:, :1] ** 2 - 1.0


@np.errstate(over="ignore")
def generate(model, n, seed):
    """Draw (X, Y, F): design, noisy response, and true predictor values.

    X coordinates are iid truncated standard normals on [-3, 3], sampled by
    inverse CDF so one seed fixes the draw exactly.  Y is the row sum of F
    plus sigma times standard-normal noise, shape (n, 1).
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    rng = np.random.default_rng(seed)
    lo, hi = ndtr(-3.0), ndtr(3.0)
    u = rng.uniform(size=(n, model.p))
    x = ndtri(lo + u * (hi - lo))
    f = true_predictors(model, x)
    noise = rng.standard_normal(n)
    y = f.sum(axis=1) + model.sigma_noise * noise
    if not np.all(np.isfinite(y)):
        raise ValueError(f"sigma_noise={model.sigma_noise} overflows the response")
    return x, y[:, None], f


def write_dataset_csv(path, x, y, f):
    """Write one generated dataset as CSV: x_1..x_p, y, f_1..f_d."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float).reshape(len(x), -1)
    f = np.asarray(f, dtype=float).reshape(len(x), -1)
    header = ([f"x_{j + 1}" for j in range(x.shape[1])] + ["y"]
              + [f"f_{j + 1}" for j in range(f.shape[1])])
    with open(path, "w", newline="") as fh:
        fh.write(csv_text(header, np.column_stack([x, y[:, 0], f])))
