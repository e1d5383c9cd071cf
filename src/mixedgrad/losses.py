"""Smooth per-example losses, their gradients, and the averaged objective.

Two loss families are supported:

* least squares:  g_i(w) = (y_i - <w, x_i>)^2
* logistic:       g_i(w) = ln(1 + exp(-y_i <w, x_i>)),  y_i in {-1, +1}

The objective is the plain average G(w) = (1/n) sum_i g_i(w). numpy
does the summation, in an order that is fixed on a given platform, so
runs are bit-reproducible there.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

LEAST_SQUARES = "least_squares"
LOGISTIC = "logistic"
LOSS_KINDS = (LEAST_SQUARES, LOGISTIC)

# Floor applied to the smoothness constant for degenerate (all-zero
# feature) datasets so the regularization schedules stay well defined.
SMOOTHNESS_FLOOR = 1e-12


@dataclass(frozen=True)
class Dataset:
    """n examples with d features each; labels are arbitrary reals for
    least squares and exactly +-1 for logistic."""

    features: np.ndarray  # (n, d)
    labels: np.ndarray    # (n,)

    def __post_init__(self):
        X = np.asarray(self.features, dtype=float)
        y = np.asarray(self.labels, dtype=float)
        if X.ndim != 2 or X.shape[0] < 1 or X.shape[1] < 1:
            raise ValueError("features must be a non-empty 2-D array")
        if y.shape != (X.shape[0],):
            raise ValueError("labels must be a vector with one entry per example")
        if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
            raise ValueError("dataset entries must be finite")
        object.__setattr__(self, "features", X)
        object.__setattr__(self, "labels", y)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class ProblemInstance:
    """A dataset plus loss kind and feasible-ball radius R; the uniform
    per-example smoothness constant beta is derived from the dataset."""

    dataset: Dataset
    loss_kind: str
    domain_radius: float
    smoothness: float = field(init=False)

    def __post_init__(self):
        if self.loss_kind not in LOSS_KINDS:
            raise ValueError(f"unknown loss kind: {self.loss_kind!r}")
        if not self.domain_radius > 0:
            raise ValueError("domain_radius must be positive")
        if self.loss_kind == LOGISTIC:
            y = self.dataset.labels
            if not np.all(np.abs(y) == 1.0):
                raise ValueError("logistic labels must be exactly -1 or +1")
        object.__setattr__(self, "smoothness",
                           smoothness_constant(self.dataset, self.loss_kind))

    @property
    def n(self) -> int:
        return self.dataset.n

    @property
    def d(self) -> int:
        return self.dataset.d


def _check_index(instance: ProblemInstance, i: int):
    if not 0 <= i < instance.n:
        raise IndexError(f"example index {i} out of range for n={instance.n}")


def _check_dim(instance: ProblemInstance, w: np.ndarray) -> np.ndarray:
    w = np.asarray(w, dtype=float)
    if w.shape != (instance.d,):
        raise ValueError(f"w has shape {w.shape}, expected ({instance.d},)")
    return w


def _log1pexp(z: float | np.ndarray) -> float | np.ndarray:
    # ln(1+exp(z)) without overflow for large positive z, elementwise:
    # z + ln(1+exp(-z)) for z > 0, ln(1+exp(z)) otherwise.
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))


def loss_value(instance: ProblemInstance, i: int, w: np.ndarray) -> float:
    """Per-example loss g_i(w)."""
    _check_index(instance, i)
    w = _check_dim(instance, w)
    x = instance.dataset.features[i]
    y = instance.dataset.labels[i]
    margin = float(w @ x)
    if instance.loss_kind == LEAST_SQUARES:
        r = y - margin
        return r * r
    return float(_log1pexp(-y * margin))


def _loss_derivative(y: float, margin: float, kind: str) -> float:
    # Derivative of g_i with respect to its margin <w, x_i>, so that
    # grad g_i(w) = _loss_derivative(y_i, <w, x_i>, kind) * x_i. For the
    # logistic loss, d/dm ln(1+exp(-y m)) = -y / (1 + exp(y m)), evaluated
    # through a stable sigmoid.
    if kind == LEAST_SQUARES:
        return -2.0 * (y - margin)
    z = y * margin
    if z >= 0:
        ez = np.exp(-z)
        return -y * (ez / (1.0 + ez))
    return -y * (1.0 / (1.0 + np.exp(z)))


def _loss_derivatives(y: np.ndarray, margins: np.ndarray,
                      kind: str) -> np.ndarray:
    # _loss_derivative elementwise over arrays of labels and margins.
    if kind == LEAST_SQUARES:
        return -2.0 * (y - margins)
    z = y * margins
    s = np.empty_like(z)
    pos = z >= 0
    ez = np.exp(-z[pos])
    s[pos] = ez / (1.0 + ez)
    ez = np.exp(z[~pos])
    s[~pos] = 1.0 / (1.0 + ez)
    return -y * s


def loss_grad(instance: ProblemInstance, i: int, w: np.ndarray) -> np.ndarray:
    """Gradient of g_i at w."""
    _check_index(instance, i)
    w = _check_dim(instance, w)
    x = instance.dataset.features[i]
    margin = float(w @ x)
    return _loss_derivative(instance.dataset.labels[i], margin,
                            instance.loss_kind) * x


def full_objective(instance: ProblemInstance, w: np.ndarray) -> float:
    """G(w) = (1/n) sum_i g_i(w) from one matrix-vector product; numpy
    does the summation, deterministically on a given platform."""
    w = _check_dim(instance, w)
    margins = instance.dataset.features @ w
    y = instance.dataset.labels
    if instance.loss_kind == LEAST_SQUARES:
        r = y - margins
        losses = r * r
    else:
        losses = _log1pexp(-y * margins)
    return float(losses.sum()) / instance.n


def mean_gradient(instance: ProblemInstance, w: np.ndarray) -> np.ndarray:
    """(1/n) sum_i grad g_i(w) in deterministic order (no oracle counting).

    This is the raw computation behind the full-gradient oracle; callers
    that must account for oracle calls go through oracle.full_grad.
    """
    w = _check_dim(instance, w)
    X = instance.dataset.features
    y = instance.dataset.labels
    coef = _loss_derivatives(y, X @ w, instance.loss_kind)
    return (coef @ X) / instance.n


def smoothness_constant(dataset: Dataset, loss_kind: str) -> float:
    """Uniform per-example smoothness constant beta (max over examples).

    least squares: 2 * max_i ||x_i||^2; logistic: max_i ||x_i||^2 / 4.
    Degenerate all-zero features get a tiny positive floor.
    """
    if loss_kind not in LOSS_KINDS:
        raise ValueError(f"unknown loss kind: {loss_kind!r}")
    max_sq = float(np.max(np.sum(dataset.features ** 2, axis=1)))
    if loss_kind == LEAST_SQUARES:
        beta = 2.0 * max_sq
    else:
        beta = 0.25 * max_sq
    return max(beta, SMOOTHNESS_FLOOR)


def save_dataset_csv(dataset: Dataset, path) -> None:
    """Write a dataset as CSV with header y,x1,...,xd."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["y"] + [f"x{j + 1}" for j in range(dataset.d)])
        for i in range(dataset.n):
            writer.writerow([repr(float(dataset.labels[i]))]
                            + [repr(float(v)) for v in dataset.features[i]])


def load_dataset_csv(path) -> Dataset:
    """Read a dataset written by save_dataset_csv (header y,x1,...,xd).
    An empty file or a row of the wrong length raises ValueError."""
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"dataset CSV {path} is empty")
        if not header or header[0] != "y":
            raise ValueError("dataset CSV must start with header y,x1,...,xd")
        rows = [row for row in reader if row]
    for k, row in enumerate(rows, 1):
        if len(row) != len(header):
            raise ValueError(f"dataset CSV {path}: data row {k} has "
                             f"{len(row)} fields, expected {len(header)}")
    labels = np.array([float(r[0]) for r in rows])
    features = np.array([[float(v) for v in r[1:]] for r in rows])
    return Dataset(features, labels)
