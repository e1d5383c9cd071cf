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
import math
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

LEAST_SQUARES = "least_squares"
LOGISTIC = "logistic"
LOSS_KINDS = (LEAST_SQUARES, LOGISTIC)

# Entries per block of _row_norms_sq and _objectives: a block's squares or
# margins take 256 KB, so a pass over the rows never builds a temporary the
# size of the features.
ROW_BLOCK = 32768

# Floor applied to the smoothness constant for degenerate (all-zero
# feature) datasets so the regularization schedules stay well defined.
SMOOTHNESS_FLOOR = 1e-12

# Largest second derivative of each loss in its margin <w, x_i>: g_i is then
# (factor * ||x_i||^2)-smooth, and G is (factor * lambda_max(X^T X) / n)-smooth.
_CURVATURE = {LEAST_SQUARES: 2.0, LOGISTIC: 0.25}


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


def _check_radius(radius) -> None:
    """A feasible-ball radius R must be a positive finite number: an
    infinite R leaves the problem unconstrained and the baselines' default
    step R sqrt(n) / beta infinite."""
    if not (radius > 0 and math.isfinite(radius)):
        raise ValueError(f"domain_radius must be positive and finite, "
                         f"got {radius!r}")


@dataclass(frozen=True)
class ProblemInstance:
    """A dataset plus loss kind and feasible-ball radius R; the uniform
    per-example smoothness constant beta is derived from the dataset:
    2 max_i ||x_i||^2 for least squares, max_i ||x_i||^2 / 4 for logistic,
    floored at SMOOTHNESS_FLOOR. A row whose ||x_i||^2 overflows, a beta
    that does, or data on which the solvers' sums may overflow
    (_check_scale) is a ValueError."""

    dataset: Dataset
    loss_kind: str
    domain_radius: float
    smoothness: float = field(init=False)
    # The squared row norms ||x_i||^2, computed once with beta; the
    # stochastic step loops (core.run_epoch, baselines.run_sgd) gather a
    # block's entries with the block's indices, as they gather its rows.
    _row_sq: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.loss_kind not in LOSS_KINDS:
            raise ValueError(f"unknown loss kind: {self.loss_kind!r}")
        _check_radius(self.domain_radius)
        if self.loss_kind == LOGISTIC:
            y = self.dataset.labels
            bad = np.flatnonzero(np.abs(y) != 1.0)
            if bad.size:
                i = bad[0]
                raise ValueError(f"example {i}: logistic label "
                                 f"{float(y[i])!r} is not exactly -1 or +1")
        row_sq = _row_norms_sq(self.dataset.features)
        overflowed = np.flatnonzero(~np.isfinite(row_sq))
        if overflowed.size:
            raise ValueError(f"example {overflowed[0]}: its squared feature "
                             f"norm ||x_i||^2 overflows to inf; rescale the "
                             f"features")
        curvature = _CURVATURE[self.loss_kind]
        beta = curvature * float(np.max(row_sq))
        if not math.isfinite(beta):
            raise ValueError(f"beta = {curvature} max_i ||x_i||^2 overflows "
                             f"to inf; rescale the features")
        _check_scale(self.dataset.labels, row_sq, self.loss_kind,
                     self.domain_radius)
        object.__setattr__(self, "smoothness", max(beta, SMOOTHNESS_FLOOR))
        object.__setattr__(self, "_row_sq", row_sq)

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


def _log1pexp(z: np.ndarray) -> float | np.ndarray:
    # ln(1+exp(z)) without overflow for large positive z, elementwise:
    # z + ln(1+exp(-z)) for z > 0, ln(1+exp(z)) otherwise, taken as
    # max(z, 0) + ln(1+exp(-|z|)). The second term is formed in z, which
    # this overwrites.
    loss = np.maximum(z, 0.0)
    np.abs(z, out=z)
    np.negative(z, out=z)
    np.exp(z, out=z)
    np.log1p(z, out=z)
    loss += z
    return loss


def _losses(y: float | np.ndarray, margins: float | np.ndarray,
            kind: str) -> float | np.ndarray:
    # g_i as a function of its label and margin <w, x_i>, elementwise.
    # Every step after the first works in place, so with its margins a
    # block of _objectives holds two block-sized arrays for least squares
    # (the residuals) and three for logistic (-y m and the losses).
    if kind == LEAST_SQUARES:
        r = y - margins
        r *= r
        return r
    return _log1pexp(np.asarray(-y * margins))


def loss_value(instance: ProblemInstance, i: int, w: np.ndarray) -> float:
    """Per-example loss g_i(w)."""
    _check_index(instance, i)
    w = _check_dim(instance, w)
    margin = float(w @ instance.dataset.features[i])
    return float(_losses(instance.dataset.labels[i], margin,
                         instance.loss_kind))


def _loss_derivative(y: float, margin: float, kind: str) -> float:
    # Derivative of g_i with respect to its margin <w, x_i>, so that
    # grad g_i(w) = _loss_derivative(y_i, <w, x_i>, kind) * x_i. For the
    # logistic loss, d/dm ln(1+exp(-y m)) = -y / (1 + exp(y m)), evaluated
    # through a stable sigmoid. Given floats it returns a Python float:
    # exp is numpy's, whose scalar form matches _loss_derivatives' array
    # form bit for bit (math.exp does not always), converted once.
    if kind == LEAST_SQUARES:
        return -2.0 * (y - margin)
    z = y * margin
    if z >= 0:
        ez = float(np.exp(-z))
        return -y * (ez / (1.0 + ez))
    return -y * (1.0 / (1.0 + float(np.exp(z))))


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
    """G(w) = (1/n) sum_i g_i(w): _objectives at the one point w."""
    w = _check_dim(instance, w)
    return float(_objectives(instance, w[None, :])[0])


def _objectives(instance: ProblemInstance, P: np.ndarray) -> np.ndarray:
    """G at each of the k rows of P, from one pass over X.

    A block of max(1, ROW_BLOCK // k) rows at a time, P X[rows]^T gives the
    margins of every point on the block, at most ROW_BLOCK entries (k of
    them when k > ROW_BLOCK), and each point's losses are summed along the
    block and added to its total; no temporary has n * k entries. numpy
    does the summation, deterministically on a given platform. With k = 1
    and n <= ROW_BLOCK there is one block: G(w) is the losses of one
    matrix-vector product, summed once over n. Otherwise a point's value
    may differ from the one it gets alone by rounding only: its margins
    come from a matrix product, and above one block its sum is split by
    row blocks.
    """
    X, y = instance.dataset.features, instance.dataset.labels
    rows = max(1, ROW_BLOCK // P.shape[0])
    total = np.zeros(P.shape[0])
    for i in range(0, instance.n, rows):
        total += _losses(y[i:i + rows], P @ X[i:i + rows].T,
                         instance.loss_kind).sum(axis=1)
    return total / instance.n


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


def _row_norms_sq(X: np.ndarray) -> np.ndarray:
    """||x_i||^2 for every row of X, squared and summed a block of rows at a
    time. Each row is reduced on its own, so the result equals
    np.sum(X ** 2, axis=1) bit for bit. A square that overflows gives inf
    without a warning; the caller decides what that means."""
    n, d = X.shape
    rows = max(1, ROW_BLOCK // d)
    out = np.empty(n)
    with np.errstate(over="ignore"):
        for k in range(0, n, rows):
            np.sum(X[k:k + rows] ** 2, axis=1, out=out[k:k + rows])
    return out


def _check_scale(y: np.ndarray, row_sq: np.ndarray, kind: str,
                 radius: float) -> None:
    """Reject data on which an objective, gradient or Gram sum a solver
    computes may overflow.

    Every point where a solver evaluates G or its gradient lies within 3R
    of the origin: an accelerated step extrapolates at most 2R past a
    feasible point. With k_i = |y_i| + 3R ||x_i||, example i's loss there
    is at most k_i^2 (least squares) or k_i (logistic, |y_i| = 1). A sum of
    the losses is at most the sum of these bounds b_i, an entry of
    sum_i grad g_i at most sum_i (b_i + ||x_i||^2) (as 2 k_i ||x_i|| <=
    k_i^2 + ||x_i||^2, and ||x_i|| <= max(1, ||x_i||^2) <= k_i + ||x_i||^2),
    and a Gram entry at most sum_i ||x_i||^2. So a finite
    sum_i (b_i + ||x_i||^2) keeps them all finite, to within rounding.
    """
    with np.errstate(over="ignore"):
        k = np.abs(y) + (3.0 * radius) * np.sqrt(row_sq)
        bound = float(np.sum(k * k if kind == LEAST_SQUARES else k)
                      + np.sum(row_sq))
    if not bound < math.inf:
        raise ValueError("sum_i ||x_i||^2 plus the losses' bound on the "
                         "3R-ball overflows to inf, so the solvers' "
                         "objectives and gradients may too; rescale the "
                         "data")


def mean_smoothness(instance: ProblemInstance) -> float:
    """Smoothness constant L of the averaged objective G: c * lambda_max of
    the Gram matrix over n, with the curvature factor c of the per-example
    constant beta = c * max_i ||x_i||^2 (ProblemInstance.smoothness).

    The Gram matrix is the smaller of X^T X and X X^T (the two share their
    nonzero eigenvalues). Since X^T X = sum_i x_i x_i^T, L <= beta, with
    equality (up to roundoff) when n = 1. The result is clamped to
    [SMOOTHNESS_FLOOR, beta], so L <= beta holds exactly in floating point.
    """
    X = instance.dataset.features
    gram = X.T @ X if X.shape[0] >= X.shape[1] else X @ X.T
    top = float(np.linalg.eigvalsh(gram)[-1])
    L = _CURVATURE[instance.loss_kind] * top / instance.n
    return min(max(L, SMOOTHNESS_FLOOR), instance.smoothness)


def _write_csv(path, header, rows) -> None:
    """Write a CSV file: the header row, then the rows."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(rows)


def _read_csv(path, what: str, header_ok, header_text: str,
              kinds) -> list[list]:
    """Read a CSV file whose header header_ok accepts, converting each field
    of a data row with the kinds entry at its position; blank rows are
    skipped. An empty file, a refused header, a row of the wrong length or
    a field its kind rejects raises ValueError naming the file (and the
    data row, counted from 1), with what as the file's description."""
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{what} {path} is empty")
        if not header_ok(header):
            raise ValueError(f"{path} is not a {what}: its header must be "
                             f"{header_text}")
        rows = []
        for k, row in enumerate(filter(None, reader), 1):
            if len(row) != len(header):
                raise ValueError(f"{what} {path}: data row {k} has "
                                 f"{len(row)} fields, expected {len(header)}")
            try:
                rows.append([kind(value) for kind, value in zip(kinds, row)])
            except ValueError as exc:
                raise ValueError(f"{what} {path}: data row {k}: "
                                 f"{exc}") from None
    return rows


def _finite_float(text: str) -> float:
    """float(text), refusing nan and +-inf: a dataset CSV's field kind."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"entry {text!r} is not finite")
    return value


def save_dataset_csv(dataset: Dataset, path) -> None:
    """Write a dataset as CSV with header y,x1,...,xd."""
    _write_csv(path, ["y"] + [f"x{j + 1}" for j in range(dataset.d)],
               ([repr(float(y))] + [repr(float(v)) for v in x]
                for y, x in zip(dataset.labels, dataset.features)))


def load_dataset_csv(path) -> Dataset:
    """Read a dataset written by save_dataset_csv (header y,x1,...,xd).
    An empty file, a header without a feature column, a file without
    data rows, a row of the wrong length or an entry that is not a finite
    number raises ValueError naming the file, and the data row where there
    is one."""
    rows = _read_csv(path, "dataset CSV",
                     lambda h: h[:1] == ["y"] and len(h) > 1,
                     "y,x1,...,xd", repeat(_finite_float))
    if not rows:
        raise ValueError(f"dataset CSV {path} has no data rows")
    return Dataset(np.array([r[1:] for r in rows]),
                   np.array([r[0] for r in rows]))
