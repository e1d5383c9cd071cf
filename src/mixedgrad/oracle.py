"""The two gradient-access oracles with exact call accounting.

* stochastic oracle: draws an example index uniformly at random (with
  replacement), granting access to that example's loss and gradient;
* full oracle: returns the exact averaged gradient.

Sampling uses numpy's Philox counter-based 64-bit generator, so a given
seed yields the same index sequence on every platform. Drawing k indices
in one block gives the same sequence as k single draws.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .losses import ProblemInstance, mean_gradient

# Indices drawn per block by sample_losses: large enough to amortize the
# call into numpy, small enough that the block stays a few tens of KB.
INDEX_BLOCK = 4096


@dataclass
class OracleCounters:
    """Tallies of oracle calls; each call increments exactly one counter."""

    stochastic_calls: int = 0
    full_calls: int = 0

    def copy(self) -> "OracleCounters":
        return OracleCounters(self.stochastic_calls, self.full_calls)


class SeededSampler:
    """Reproducible uniform index source backed by Philox (counter-based)."""

    ALGORITHM = "philox4x64"

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._rng = np.random.Generator(np.random.Philox(self.seed))

    def draw(self, n: int) -> int:
        return int(self._rng.integers(n))

    def draw_block(self, n: int, k: int) -> list[int]:
        """k indices in one call; the same sequence as k calls of draw."""
        return self._rng.integers(n, size=k).tolist()


def sample_loss(sampler: SeededSampler, counters: OracleCounters, n: int) -> int:
    """One stochastic-oracle call: a uniform index into {0, ..., n-1}.

    The index grants access to that example's loss value and gradient.
    """
    if n < 1:
        raise ValueError("cannot sample from an empty dataset")
    counters.stochastic_calls += 1
    return sampler.draw(n)


def sample_losses(sampler: SeededSampler, counters: OracleCounters, n: int,
                  calls: int) -> Iterator[int]:
    """`calls` stochastic-oracle calls, yielding one index per call.

    Indices are drawn in blocks of INDEX_BLOCK, but the counter advances as
    each index is yielded, so a consumer that stops after t indices leaves
    it at t. A fully consumed stream leaves the sampler where `calls`
    single draws would.
    """
    if n < 1:
        raise ValueError("cannot sample from an empty dataset")
    for start in range(0, calls, INDEX_BLOCK):
        for i in sampler.draw_block(n, min(INDEX_BLOCK, calls - start)):
            counters.stochastic_calls += 1
            yield i


def full_grad(instance: ProblemInstance, w: np.ndarray,
              counters: OracleCounters) -> np.ndarray:
    """One full-oracle call: the exact gradient of the averaged objective."""
    counters.full_calls += 1
    return mean_gradient(instance, w)
