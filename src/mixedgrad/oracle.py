"""The two gradient-access oracles with exact call accounting.

* stochastic oracle: draws an example index uniformly at random (with
  replacement), granting access to that example's loss and gradient;
* full oracle: returns the exact averaged gradient.

Sampling uses numpy's Philox counter-based 64-bit generator, so a given
seed yields the same index sequence on every platform. Drawing k indices
in one block gives the same sequence as k blocks of one, so the solvers
draw a block of indices per span of steps and count its k calls at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .losses import ProblemInstance, mean_gradient


@dataclass
class OracleCounters:
    """Tallies of oracle calls; each call increments exactly one counter."""

    stochastic_calls: int = 0
    full_calls: int = 0


class SeededSampler:
    """Reproducible uniform index source backed by Philox (counter-based)."""

    ALGORITHM = "philox4x64"

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._rng = np.random.Generator(np.random.Philox(self.seed))

    def draw_block(self, n: int, k: int) -> list[int]:
        """k indices in one call; the same sequence as k one-index calls."""
        return self._rng.integers(n, size=k).tolist()


def sample_losses(sampler: SeededSampler, counters: OracleCounters, n: int,
                  k: int) -> list[int]:
    """k stochastic-oracle calls: k uniform indices into {0, ..., n-1},
    drawn in one block and counted at once.

    Each index grants access to that example's loss value and gradient.
    """
    if n < 1:
        raise ValueError("cannot sample from an empty dataset")
    counters.stochastic_calls += k
    return sampler.draw_block(n, k)


def sample_loss(sampler: SeededSampler, counters: OracleCounters, n: int) -> int:
    """One stochastic-oracle call: a uniform index into {0, ..., n-1}."""
    return sample_losses(sampler, counters, n, 1)[0]


def full_grad(instance: ProblemInstance, w: np.ndarray,
              counters: OracleCounters) -> np.ndarray:
    """One full-oracle call: the exact gradient of the averaged objective."""
    counters.full_calls += 1
    return mean_gradient(instance, w)
